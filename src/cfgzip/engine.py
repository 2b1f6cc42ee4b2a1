"""Reference constrained-decoding engine over the original grammar.

An incremental byte-level Earley recognizer without a chart: an item's
origin is the frontier it started at, not a position, so a state holds
only its last frontier and an advance costs O(token bytes) however long
the output is.  Frontiers are never mutated, so trial advances are cheap
to roll back (just drop the returned state).  The recognizer runs on the
original grammar, not the GNF one; the GNF side of the pipeline exists
purely to compute equivalence classes.

A frontier keeps two kinds of items.  Those carried in from earlier
positions (by scanning or completion) are closed per frontier.  Those it
predicts depend only on the set of nonterminals predicted, so they come
from a position-free prediction table shared by every frontier with that
set (Aycock & Horspool 2002, "Practical Earley Parsing"), and take the
frontier itself as their origin when read.

Right recursion would still make a frontier walk one completion per
level: inside a string, ``chars ::= char chars`` completes once for every
byte back to the opening quote.  Leo's right-recursion items (Leo 1991)
cut that to one step.  When a right-recursive production completes and
the only item waiting on its head is complete once advanced, the chain
of such completions is followed once and its top is memoised on the
frontier where it starts; a later frontier completes the top directly
and skips the items in between.  ``EngineState.item_set()`` puts the
skipped items back, so state digests cover the full Earley item set.

The naive mask checks every vocabulary token with a trial advance.  The
compressed mask tries the class representatives only, which is the
entire speedup: it walks a byte trie of the representatives depth-first,
so representatives sharing a prefix share its frontiers.  Bytes that
scan to the same seeds from one frontier also share one close, where a
seed that completes its production counts only as its head and origin.  That is exact: the closure reads a complete seed through nothing
else, a scanned seed never starts a Leo chain, and the frontiers so
merged differ only in their own seed items, which no later step reads.
Inside a JSON string every plain byte completes ``char ::= "x"`` for its
own ``x``, so one close serves them all.  End-of-sequence is modelled as
a special token whose bit equals state completeness; other specials are
always blocked.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .classtable import ClassTable, Vocabulary, map_token
from .grammar import Cfg, nullable_set, reachable, validate


class MaskedTokenError(ValueError):
    """A token was committed that the current mask does not allow."""


class _Prediction:
    """The items predicted for one set of nonterminals, as (pid, dot) pairs
    whose origin is the frontier that reads them.

    ``scan_map`` and ``wait_map`` hold the pairs already advanced over the
    byte or nonterminal they are keyed by; ``complete`` says whether an
    item of the start symbol is complete at zero width.  ``scan_key`` holds
    each byte's pairs in the form the trie walk keys its closes on: a
    complete pair as its head, any other as it is.
    """

    __slots__ = ("items", "scan_map", "wait_map", "complete", "scan_key")

    def __init__(self, items, scan_map, wait_map, complete, scan_key):
        self.items = items
        self.scan_map = scan_map
        self.wait_map = wait_map
        self.complete = complete
        self.scan_key = scan_key


class _Frontier:
    """One Earley item set at byte position ``pos``: the items carried in
    from earlier frontiers, as (pid, dot, origin frontier) triples,
    pre-indexed for scanning and completion (already advanced, like the
    prediction table's), plus the shared table of the items predicted here.

    ``leo`` memoises, per nonterminal completed with this frontier as its
    origin, the Leo link of that completion (None if it starts no chain);
    it is allocated on first use.
    """

    __slots__ = ("pos", "items", "scan_map", "wait_map", "pred", "complete", "leo")

    def __init__(self, pos, items, scan_map, wait_map, pred, complete):
        self.pos = pos
        self.items = items
        self.scan_map = scan_map
        self.wait_map = wait_map
        self.pred = pred
        self.complete = complete
        self.leo = None

    def scan(self, b: int) -> list:
        """The items advanced over byte ``b``: the next frontier's seeds."""
        own = self.scan_map.get(b, ())
        shared = self.pred.scan_map.get(b)
        if shared is None:
            return own
        return [*own, *[(pid, dot, self) for pid, dot in shared]]


class _EngineGrammar:
    """Compiled production tables shared by every state of one grammar."""

    def __init__(self, g: Cfg):
        g = validate(g)
        self.start = g.start
        self.heads = tuple(h for h, _ in g.productions)
        self.bodies = tuple(b for _, b in g.productions)
        by_head: dict[str, list[int]] = {}
        for pid, head in enumerate(self.heads):
            by_head.setdefault(head, []).append(pid)
        self.by_head = {k: tuple(v) for k, v in by_head.items()}
        self.nullable = nullable_set(g)
        # The nonterminals predicted along with each nonterminal: those at
        # the dot of its predicted items, through leading nullable symbols.
        leading: dict[str, set[str]] = {nt: set() for nt in self.by_head}
        for head, body in zip(self.heads, self.bodies):
            for sym in body:
                if isinstance(sym, int):
                    break
                leading[head].add(sym)
                if sym not in self.nullable:
                    break
        self.predicts = {nt: reachable(leading, (nt,)) for nt in leading}
        # Right-recursive productions end in a nonterminal that reaches
        # their head again through the last symbols of bodies.  Only their
        # completions start a Leo chain: elsewhere a chain cannot grow with
        # the input, and looking one up costs more than it skips.
        last: dict[str, set[str]] = {nt: set() for nt in self.by_head}
        for head, body in zip(self.heads, self.bodies):
            if body and isinstance(body[-1], str):
                last[head].add(body[-1])
        self.right_recursive = frozenset(
            pid
            for pid, (head, body) in enumerate(zip(self.heads, self.bodies))
            if body and isinstance(body[-1], str) and head in reachable(last, (body[-1],))
        )
        self._by_predicted: dict[frozenset, _Prediction] = {}
        self._by_closure: dict[frozenset, _Prediction] = {}
        self._trie_key = (None, None)
        self._trie = None

    def prediction(self, predicted: frozenset) -> _Prediction:
        """The shared table for a frontier whose carried items predict the
        nonterminals ``predicted``."""
        got = self._by_predicted.get(predicted)
        if got is None:
            closure = frozenset().union(*(self.predicts[nt] for nt in predicted))
            got = self._by_closure.get(closure)
            if got is None:
                got = self._by_closure[closure] = self._build_prediction(closure)
            self._by_predicted[predicted] = got
        return got

    def _build_prediction(self, closure: frozenset) -> _Prediction:
        items = []
        scan: dict[int, list] = {}
        wait: dict[str, list] = {}
        complete = False
        for nt in closure:
            for pid in self.by_head[nt]:
                body = self.bodies[pid]
                for dot, sym in enumerate(body):
                    items.append((pid, dot))
                    if isinstance(sym, int):
                        scan.setdefault(sym, []).append((pid, dot + 1))
                        break
                    wait.setdefault(sym, []).append((pid, dot + 1))
                    if sym not in self.nullable:
                        break
                else:
                    items.append((pid, len(body)))
                    complete = complete or nt == self.start
        heads, bodies = self.heads, self.bodies
        return _Prediction(
            tuple(items),
            {b: tuple(v) for b, v in scan.items()},
            {nt: tuple(v) for nt, v in wait.items()},
            complete,
            {
                b: frozenset(
                    [heads[pid] if dot == len(bodies[pid]) else (pid, dot) for pid, dot in v]
                )
                for b, v in scan.items()
            },
        )

    def close(self, seeds, pos: int) -> _Frontier:
        # Completer closure over the carried items only: every seed and
        # every completion has its origin at a frontier below ``pos``.  The
        # predictor is the shared table; zero-width completions need no
        # walk, because the predictor advances over nullable symbols directly.
        items: set[tuple[int, int, _Frontier]] = set()
        work = list(seeds)
        scan: dict[int, list] = {}
        wait: dict[str, list] = {}
        predicted: set[str] = set()
        complete = False
        heads, bodies, nullable, start = self.heads, self.bodies, self.nullable, self.start
        right_recursive = self.right_recursive
        while work:
            item = work.pop()
            if item in items:
                continue
            items.add(item)
            pid, dot, org = item
            body = bodies[pid]
            if dot == len(body):
                head = heads[pid]
                if org.pos == 0 and head == start:
                    complete = True
                link = self.leo(org, head) if pid in right_recursive else None
                if link is not None:
                    # Complete the chain's top instead, skipping the
                    # items in between; item_set() puts them back.
                    if link[3]:
                        complete = True
                    item = link[0]
                    if item in items:
                        continue
                    items.add(item)
                    pid, _, org = item
                    head = heads[pid]
                work.extend(org.wait_map.get(head, ()))
                shared = org.pred.wait_map.get(head)
                if shared:
                    work.extend([(ppid, pdot, org) for ppid, pdot in shared])
            else:
                sym = body[dot]
                nxt = (pid, dot + 1, org)
                if isinstance(sym, int):
                    scan.setdefault(sym, []).append(nxt)
                else:
                    wait.setdefault(sym, []).append(nxt)
                    predicted.add(sym)
                    if sym in nullable:
                        work.append(nxt)
        return _Frontier(pos, items, scan, wait, self.prediction(frozenset(predicted)), complete)

    def leo(self, org: _Frontier, head: str):
        """The Leo link for ``head`` completed with origin ``org``, or None.

        The completion starts a chain when frontier ``org`` holds exactly one
        item waiting on ``head`` and that item is complete once advanced:
        then that item is the only consequence of the completion, and it
        completes its own head in turn (Leo 1991, "A general context-free
        parsing algorithm running in linear time on every LR(k)
        grammar").  A link is ``(top, item, rest, complete)``: the last
        complete item of the chain, the one this completion advances, the
        link of that item's completion (None at the top), and whether any
        item of the chain is the start symbol at position 0.  Links are
        memoised on the frontier at their origin, which never changes, so
        a chain grows by one step per frontier and each step is walked
        once.
        """
        heads, bodies = self.heads, self.bodies
        path = []
        same_origin = None  # the heads met at origin ``org``, once it repeats
        while True:
            memo = org.leo
            if memo is None:
                memo = org.leo = {}
            link = memo.get(head, _UNSET)
            if link is not _UNSET:
                break
            own = org.wait_map.get(head, ())
            shared = org.pred.wait_map.get(head, ())
            if len(own) + len(shared) != 1:
                link = memo[head] = None
                break
            item = own[0] if own else (*shared[0], org)
            pid, dot, up = item
            if dot != len(bodies[pid]):
                link = memo[head] = None
                break
            path.append((memo, head, item))
            up_head = heads[pid]
            if up is org:
                # A chain of completions at one origin can cycle through
                # unit-like productions; stop it where it comes round.
                if same_origin is None:
                    same_origin = {head}
                if up_head in same_origin:
                    link = None
                    break
                same_origin.add(up_head)
            else:
                same_origin = None
            head, org = up_head, up
        start = self.start
        for memo, head, item in reversed(path):
            at_start = item[2].pos == 0 and heads[item[0]] == start
            if link is None:
                link = (item, item, None, at_start)
            else:
                link = (link[0], item, link, at_start or link[3])
            memo[head] = link
        return link

    def seed_key(self, seeds) -> frozenset:
        """Carried seeds in the form the trie walk keys its closes on: a
        complete seed as ``(head, origin)``, any other as it is."""
        heads, bodies = self.heads, self.bodies
        return frozenset(
            [
                (heads[pid], org) if dot == len(bodies[pid]) else (pid, dot, org)
                for pid, dot, org in seeds
            ]
        )

    def rep_trie(self, tbl: ClassTable, vocab: Vocabulary):
        """The byte trie of the non-pass-through class representatives, as
        nested ``(classes ending here, {byte: child})`` nodes.  The last
        one built is kept, keyed by the vocabulary's tokens (compared by
        identity first), the representative ids and the pass-through set."""
        tokens, r = vocab.tokens, tbl.r
        ids = (r.dtype.str, r.tobytes(), tbl.passthrough)
        old_tokens, old_ids = self._trie_key
        if ids != old_ids or (tokens is not old_tokens and tokens != old_tokens):
            root: tuple[list, dict] = ([], {})
            for k, rid in enumerate(r.tolist()):
                if k in tbl.passthrough:
                    continue
                node = root
                for b in tokens[rid]:
                    node = node[1].setdefault(b, ([], {}))
                node[0].append(k)
            self._trie_key, self._trie = (tokens, ids), root
        return self._trie


_UNSET = object()


@lru_cache(maxsize=32)
def _engine_for(g: Cfg) -> _EngineGrammar:
    return _EngineGrammar(g)


@dataclass
class EngineState:
    """A viable recognizer state: the consumed bytes form a valid prefix.

    Treated as immutable.  It holds only its ``last`` frontier, whose
    items reach the earlier frontiers that still matter as their origins;
    ``consumed`` and ``complete`` are read off that frontier.
    """

    eg: _EngineGrammar
    last: _Frontier

    @property
    def consumed(self) -> int:
        return self.last.pos

    @property
    def complete(self) -> bool:
        return self.last.complete

    def item_set(self) -> set[tuple[int, int, int]]:
        """The full Earley item set at the last position, as (production
        index, dot, origin position) triples: the carried items, the items
        that Leo chains skipped, and the predicted items."""
        last = self.last
        items = set(last.items)
        heads, bodies, right_recursive = self.eg.heads, self.eg.bodies, self.eg.right_recursive
        for pid, dot, org in last.items:
            if dot == len(bodies[pid]) and pid in right_recursive:
                # A chain's top is completed without a lookup of its own.
                link = (org.leo or {}).get(heads[pid])
                while link is not None:
                    items.add(link[1])
                    link = link[2]
        out = {(pid, dot, org.pos) for pid, dot, org in items}
        out.update((pid, dot, last.pos) for pid, dot in last.pred.items)
        return out

    def digest(self) -> str:
        h = hashlib.sha1()
        h.update(str(self.consumed).encode())
        for item in sorted(self.item_set()):
            h.update(repr(item).encode())
        return h.hexdigest()[:16]


def new_state(g: Cfg) -> EngineState:
    """Initial state for the empty prefix; errors on an empty language."""
    eg = _engine_for(g)  # validate() inside raises EmptyLanguageError
    pred = eg.prediction(frozenset((eg.start,)))
    frontier = _Frontier(0, frozenset(), {}, {}, pred, pred.complete)
    return EngineState(eg, frontier)


def try_advance(s: EngineState, data: bytes) -> EngineState | None:
    """Extend the state by ``data`` if that keeps the prefix viable.

    Returns the new state, or None on reject; ``s`` itself is unchanged
    either way.  The empty byte string always succeeds and is a no-op.
    """
    if not data:
        return s
    frontier, close = s.last, s.eg.close
    for b in data:
        seeds = frontier.scan(b)
        if not seeds:
            return None
        frontier = close(seeds, frontier.pos + 1)
    return EngineState(s.eg, frontier)


@dataclass
class Mask:
    """A validity bitset: over the vocabulary's tokens from the naive mask,
    over the class table's classes from the compressed one."""

    bits: np.ndarray


def compute_mask_naive(s: EngineState, vocab: Vocabulary) -> Mask:
    """The honest baseline: one trial advance per vocabulary token."""
    bits = np.zeros(len(vocab), dtype=bool)
    specials = vocab.specials
    for tid, token in enumerate(vocab.tokens):
        if tid in specials:
            bits[tid] = s.complete and tid == vocab.eos_id
        else:
            bits[tid] = try_advance(s, token) is not None
    return Mask(bits)


def compute_mask_compressed(s: EngineState, tbl: ClassTable, vocab: Vocabulary) -> Mask:
    """The same trial advance as the naive mask, per class representative
    instead of per token: cost scales with the class count, not the
    vocabulary size.

    The representatives are tried in one depth-first walk over their byte
    trie, so each accepted prefix is scanned once.  A representative is
    accepted iff every byte of it scans, exactly as in ``try_advance``.  An
    accepted inner prefix needs the frontier closed after it, and bytes
    that scan to the same seeds from one frontier share that close, with a
    complete seed counted only as its head and origin.  This is exact:
    ``close`` reads a complete seed through nothing else, a scanned seed
    never starts a Leo chain, and the shared frontier differs only in seed
    items, which nothing reads after the walk.
    """
    bits = np.zeros(tbl.class_count, dtype=bool)
    if vocab.eos_id is not None:
        eos_class = int(tbl.c[vocab.eos_id])
        if eos_class in tbl.passthrough:
            bits[eos_class] = s.complete
    eg = s.eg
    ends, children = eg.rep_trie(tbl, vocab)
    accepted = list(ends)  # empty representatives: ``try_advance(s, b"")`` is ``s``
    close, seed_key = eg.close, eg.seed_key
    # Closes so far, keyed by the parent frontier object (the key holds it,
    # so no id is reused), which fixes every origin the close can reach,
    # and the seeds' shared form; in front of them, each (frontier, byte)
    # step, which trie nodes whose prefixes shared a close repeat.
    closed: dict[tuple, _Frontier] = {}
    stepped: dict[tuple, _Frontier] = {}
    todo = [(s.last, children)]
    while todo:
        frontier, children = todo.pop()
        own, pred = frontier.scan_map, frontier.pred
        for b, (ends, sub) in children.items():
            if b not in own and b not in pred.scan_map:
                continue
            accepted.extend(ends)
            if sub:
                nxt = stepped.get((frontier, b))
                if nxt is None:
                    mine = own.get(b)
                    key = (frontier, seed_key(mine) if mine else None, pred.scan_key.get(b))
                    nxt = closed.get(key)
                    if nxt is None:
                        nxt = closed[key] = close(frontier.scan(b), frontier.pos + 1)
                    stepped[frontier, b] = nxt
                todo.append((nxt, sub))
    bits[accepted] = True
    return Mask(bits)


def commit_token(
    s: EngineState, token_id: int, tbl: ClassTable | None, vocab: Vocabulary
) -> EngineState:
    """Advance the engine after sampling ``token_id``.

    With a class table the engine sees the class representative's bytes,
    not the sampled token's; the caller owns the output text stream.
    Committing a token the grammar rejects is a contract violation.
    """
    if token_id in vocab.specials:
        raise MaskedTokenError(f"special token {token_id} is never committed to the engine")
    advance_id = map_token(token_id, tbl) if tbl is not None else token_id
    nxt = try_advance(s, vocab.tokens[advance_id])
    if nxt is None:
        raise MaskedTokenError(
            f"token {token_id} (advanced as {advance_id}) is not viable in this state"
        )
    return nxt
