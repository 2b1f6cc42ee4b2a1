"""Stack displacements, found by a forward walk memoised on state sets.

A token's displacement is the set of (input stack, output stack) pairs
the PDA can realise while consuming exactly that token: the input stack
is the sequence of symbols that had to be hypothesised at the bottom of
the stack (via backtracks), the output stack is whatever is left when the
last byte is consumed.  Tokens with equal displacement sets are
interchangeable under the grammar, which is what the class table exploits.

The walk mirrors the nondeterministic PDA byte by byte, forward.  Its
state set after a prefix maps (previous symbol, output stack) to the set
of input queues that reach it.  A byte pops the top of the output stack
and pushes a tail; when the output stack is empty the walk "backtracks":
it picks a production producing the byte, appends its head to every
input queue and continues with its tail.  Backtracks are pruned through
the stack-adjacency relation keyed on the previous symbol (the most
recent pop, or the previously enqueued head when backtracks chain); the
first byte has no predecessor and is never pruned.

Stacks and queues are coded: nonterminal ``i`` of the GNF is ``chr(i)``
(``GnfGrammar.code``), a stack is a ``str`` with its top first, and a
state's key is one string, the previous symbol followed by the output
stack.  The last byte of a token builds no state set, because the
previous symbol no longer matters: it yields the token's pairs directly,
each coded as output stack, separator ``chr(len(nonterminals))``, input
stack.  The frozenset of those strings is the token's key, and a
``Displacement`` is that key with the grammar's nonterminal names; it
compares and hashes without decoding.  Tokens with equal keys share one
``Displacement``, and the class table groups on the key.  Strings are not
tracked by the cyclic collector, so what a sweep leaves alive is a few
objects per distinct displacement, not one tuple per pair.

A state set depends only on its own content and the next byte, not on
the prefix that reached it.  So one walk (``_Walker``) interns state sets
by content and memoises each byte step on (state set, byte): a step runs
once however many tokens, or different prefixes, reach it.  The memo
lives for one call.  The node budget is per token, along the token's
own bytes: before each step, the states expanded so far plus an upper
bound on what the step builds must stay within it.  So a token's outcome
does not depend on the tokens swept with it, and no step builds more
than the budget.
"""

from __future__ import annotations

import gc
from collections import Counter
from dataclasses import dataclass

from .adjacency import StackAdjacency
from .gnf import GnfGrammar

DEFAULT_NODE_BUDGET = 10_000_000


class SearchBudgetExceeded(RuntimeError):
    """The walk over one token would pass its node budget: the states
    expanded plus the next step's bound on what it builds."""

    def __init__(self, token: bytes, budget: int):
        self.token = token
        self.budget = budget
        super().__init__(f"displacement walk for token {token!r} exceeded its node budget {budget}")


def _decode(pair: str, names: tuple[str, ...]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The (input stack, output stack) names of a pair string."""
    out, _, q = pair.partition(chr(len(names)))
    return tuple(names[ord(c)] for c in q), tuple(names[ord(c)] for c in out)


class CodedPairs:
    """A read-only view of pair strings as (input stack, output stack) names.

    ``len`` counts the strings without decoding them; iterating decodes
    one pair at a time, so ``frozenset``, ``sorted`` and ``in`` read the
    names.  It defines no comparison of its own: compare ``frozenset(view)``.
    """

    __slots__ = ("codes", "names")

    def __init__(self, codes: frozenset, names: tuple[str, ...]):
        self.codes = codes
        self.names = names

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self):
        return (_decode(code, self.names) for code in self.codes)


class Displacement:
    """Set of (input stack, output stack) pairs for one token.

    ``key`` is the frozenset of the pairs' strings in the coding of the
    grammar with nonterminals ``names`` (see ``GnfGrammar.code``), each the
    output stack, the separator ``chr(len(names))``, then the input stack.
    Equality compares ``key`` and ``names`` and the hash is ``hash(key)``:
    nothing decodes.  ``pairs`` is a read-only ``CodedPairs`` view whose
    length reads the strings and which decodes name tuples when iterated;
    ``sorted_pairs`` is their canonical order, used for dumps.
    """

    __slots__ = ("key", "names")

    def __init__(self, key: frozenset, names: tuple[str, ...]):
        self.key = key
        self.names = names

    @property
    def pairs(self) -> CodedPairs:
        return CodedPairs(self.key, self.names)

    def __bool__(self) -> bool:
        return bool(self.key)

    def __eq__(self, other):
        if not isinstance(other, Displacement):
            return NotImplemented
        return self.key == other.key and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"Displacement(pairs={frozenset(self.pairs)!r})"

    def sorted_pairs(self) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
        return sorted(self.pairs)


def _start(g: GnfGrammar) -> dict:
    """The state set before any byte, keyed by its previous symbol and
    output stack (see _step): no previous symbol (coded as the separator),
    an empty output stack and one empty input queue."""
    return {chr(len(g.nonterminals)): frozenset({""})}


def _coded_after(g: GnfGrammar, adj: StackAdjacency | None) -> dict[str, frozenset]:
    """The adjacency in the grammar's coding: previous symbol -> the heads
    a backtrack may enqueue after it.  A previous symbol without an entry
    (the first byte's, or any when ``adj`` is None) prunes nothing."""
    if adj is None:
        return {}
    code = g.code
    return {
        code[nt]: frozenset(code[z] for z in adj.after(nt) if z in code) for nt in g.nonterminals
    }


def _backtracks(states: dict, byte: int, g: GnfGrammar, after: dict, depth: int):
    """The backtracks on ``byte``, the ``depth``-th of the token, from the
    states with an empty output stack (whose key is the previous symbol
    alone), as (coded head, coded tail, input queues) triples."""
    for key in [k for k in states if len(k) == 1]:
        queues = states[key]
        allowed = after.get(key)
        # A backtrack consumes a byte, so no input stack outgrows the token.
        assert max(map(len, queues)) < depth, "input stack outgrew the token"
        for head, tail in g.coded_by_byte.get(byte, ()):
            if allowed is None or head in allowed:
                yield head, tail, queues


def _weights(states: dict) -> tuple[dict[str, int], dict[str, int]]:
    """The queues of a state set counted per symbol a byte step reads:
    per top of a non-empty output stack, and per previous symbol of a
    state with an empty one (whose key is that symbol alone)."""
    tops: dict[str, int] = {}
    empty: dict[str, int] = {}
    for key, queues in states.items():
        if len(key) == 1:
            empty[key] = len(queues)
        else:
            tops[key[1]] = tops.get(key[1], 0) + len(queues)
    return tops, empty


def _step(states: dict, byte: int, g: GnfGrammar, after: dict, depth: int) -> dict:
    """Advance a state set by one byte, the ``depth``-th of the token.

    A state is keyed by one string: the previous symbol, then the output
    stack, top first.  Its value is the frozenset of input queues that
    reach it.
    """
    delta = g.coded_delta.get(byte, {})
    found: dict[str, list] = {}
    for key, queues in states.items():
        # A key without an output stack has key[1:2] == "" and pops nothing.
        tails = delta.get(key[1:2])
        if tails:
            top = key[1]
            rest = key[2:]
            for tail in tails:
                found.setdefault(top + tail + rest, []).append(queues)
    for head, tail, queues in _backtracks(states, byte, g, after, depth):
        found.setdefault(head + tail, []).append(frozenset([q + head for q in queues]))
    return {k: v[0] if len(v) == 1 else frozenset().union(*v) for k, v in found.items()}


def _last_step(states: dict, byte: int, g: GnfGrammar, after: dict, depth: int) -> frozenset:
    """The coded pairs after the token's last byte, the ``depth``-th: each
    output stack, the separator, then an input queue that reaches it.  The
    previous symbol no longer matters, so no state set is built."""
    delta = g.coded_delta.get(byte, {})
    sep = chr(len(g.nonterminals))
    # Output stack first: the popped stack's rest, the separator and the
    # queue are joined once per queue, and each tail adds one concatenation.
    pairs = {
        tail + suffix
        for key, queues in states.items()
        if (tails := delta.get(key[1:2]))
        for q in queues
        for suffix in [key[2:] + sep + q]
        for tail in tails
    }
    for head, tail, queues in _backtracks(states, byte, g, after, depth):
        pairs.update([tail + sep + q + head for q in queues])
    return frozenset(pairs)


def _trivial(token: bytes, g: GnfGrammar) -> frozenset | None:
    """The key of a token that needs no walk, else None."""
    if not token:
        # The empty token moves no stack: one pair, both stacks empty.  A
        # walk's first byte backtracks, so no walked pair has an empty input stack.
        return frozenset({chr(len(g.nonterminals))})
    if not g.alphabet.issuperset(token):
        return frozenset()
    return None


class _Walker:
    """The walk of one call, memoised on interned state sets.

    A state set depends only on the bytes consumed so far, and equal state
    sets step alike, so each distinct state set gets an id and each byte
    step is keyed on (id, byte): ``steps`` maps it to the next state set's
    id, ``lasts`` (a token's last byte) to the token's shared
    ``Displacement``.  Each key runs ``_step`` or ``_last_step`` once,
    however many tokens reach it.  Every entry also holds the step's
    charge; its result stays None until a token can afford it.

    The node budget is per token.  Before each step, the states expanded
    along the token's own bytes so far, this step's included, plus an
    upper bound on the entries the step builds (per state, its tails times
    its queues, plus its backtracks times its queues) must stay within it.
    So no step builds more than the budget, and a token's outcome does not
    depend on the tokens walked with it.  The memo links state sets by id,
    not by reference, so it holds no cycles and dies with the walker at
    the end of the call.
    """

    def __init__(self, g: GnfGrammar, adj: StackAdjacency | None, budget: int):
        self.g = g
        self.after = _coded_after(g, adj)
        self.budget = budget
        start = _start(g)
        self.ids: dict[frozenset, int] = {frozenset(start.items()): 0}
        self.sets: list[dict] = [start]
        self.weights: list[tuple] = [_weights(start)]
        self.steps: dict[int, tuple] = {}  # id * 256 + byte -> (charge, next id)
        self.lasts: dict[int, tuple] = {}  # id * 256 + byte -> (charge, Displacement)
        self.heads: dict[int, Counter] = {}  # byte -> productions per coded head
        self.backtracks: dict[tuple, int] = {}  # (previous symbol, byte) -> backtracks
        self.shared: dict[frozenset, Displacement] = {}
        self.built = 0  # the steps computed, last steps included

    def _bound(self, sid: int, byte: int) -> int:
        """An upper bound on the entries a step on ``byte`` builds from
        state set ``sid``."""
        tops, empty = self.weights[sid]
        delta = self.g.coded_delta.get(byte, {})
        n = sum(w * len(delta.get(top, ())) for top, w in tops.items())
        for prev, w in empty.items():
            k = self.backtracks.get((prev, byte))
            if k is None:
                heads = self.heads.get(byte)
                if heads is None:
                    productions = self.g.coded_by_byte.get(byte, ())
                    heads = self.heads[byte] = Counter(h for h, _ in productions)
                allowed = self.after.get(prev)
                k = sum(c for h, c in heads.items() if allowed is None or h in allowed)
                self.backtracks[prev, byte] = k
            n += w * k
        return n

    def _shared(self, codes: frozenset) -> Displacement:
        d = self.shared.get(codes)
        if d is None:
            d = self.shared[codes] = Displacement(codes, self.g.nonterminals)
        return d

    def walk(self, token: bytes) -> Displacement | None:
        """The token's displacement, or None once it is over budget."""
        codes = _trivial(token, self.g)
        if codes is not None:
            return self._shared(codes)
        g, after = self.g, self.after
        sid, expanded = 0, 0
        for depth, byte in enumerate(token, 1):
            states = self.sets[sid]
            expanded += len(states)
            last = depth == len(token)
            memo = self.lasts if last else self.steps
            key = sid * 256 + byte
            charge, result = memo.get(key) or (None, None)
            if charge is None:
                charge = self._bound(sid, byte)
                memo[key] = (charge, None)
            if expanded + charge > self.budget:
                return None
            if result is None:
                self.built += 1
                if last:
                    result = self._shared(_last_step(states, byte, g, after, depth))
                else:
                    result = self._intern(_step(states, byte, g, after, depth))
                memo[key] = (charge, result)
            if last:
                return result
            sid = result

    def _intern(self, states: dict) -> int:
        content = frozenset(states.items())
        sid = self.ids.get(content)
        if sid is None:
            sid = self.ids[content] = len(self.sets)
            self.sets.append(states)
            self.weights.append(_weights(states))
        return sid


def compute_displacement(
    token: bytes,
    g: GnfGrammar,
    adj: StackAdjacency | None,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Displacement:
    """Walk one token.

    Passing ``adj=None`` disables backtrack pruning (the raw search),
    which explores every hypothetical input stack.  Raises
    SearchBudgetExceeded when the states expanded plus the next step's
    bound would pass ``budget`` (see ``_Walker``).
    """
    d = _Walker(g, adj, budget).walk(token)
    if d is None:
        raise SearchBudgetExceeded(token, budget)
    return d


def compute_displacement_annotated(
    token: bytes,
    g: GnfGrammar,
    adj: StackAdjacency,
    budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[Displacement, Displacement]:
    """Unpruned search that also replays the adjacency checks after the fact.

    Returns ``(raw, filtered)``: the full unpruned displacement and the
    subset of pairs reachable through a path whose every backtrack passes
    the adjacency check.  ``filtered`` must equal the pruned search's
    result; the comparison is a regression check on the in-search pruning.
    This is a separate backward, memoized search over the grammar's coded
    table (``coded_delta`` and ``coded_by_byte``, the table the forward walk
    reads too, tied to the productions by the PDA tests).  It codes the
    adjacency pairs itself and shares no code with the forward walk.
    """
    codes = _trivial(token, g)
    if codes is not None:
        d = Displacement(codes, g.nonterminals)
        return d, d

    n = len(token)
    nodes = 0
    memo: dict[tuple, frozenset] = {}
    admitted = {g.code[y] + g.code[z] for y, z in adj.pairs}

    def search(pos: int, out: str, prev: str) -> frozenset:
        # Elements are (appended input symbols, final stack, all checks
        # passed), coded; the first byte has no previous symbol ("").
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(token, budget)
        key = (pos, out, prev)
        got = memo.get(key)
        if got is not None:
            return got
        if pos == n:
            res = frozenset({("", out, True)})
        elif not out:
            acc = set()
            for head, tail in g.coded_by_byte.get(token[pos], ()):
                ok_here = not prev or prev + head in admitted
                for appended, final, ok in search(pos + 1, tail, head):
                    acc.add((head + appended, final, ok and ok_here))
            res = frozenset(acc)
        else:
            acc = set()
            top = out[0]
            rest = out[1:]
            for tail in g.coded_delta.get(token[pos], {}).get(top, ()):
                acc |= search(pos + 1, tail + rest, top)
            res = frozenset(acc)
        memo[key] = res
        return res

    triples = search(0, "", "")
    sep = chr(len(g.nonterminals))
    raw = frozenset(f + sep + a for a, f, _ in triples)
    filtered = frozenset(f + sep + a for a, f, ok in triples if ok)
    return Displacement(raw, g.nonterminals), Displacement(filtered, g.nonterminals)


@dataclass(frozen=True)
class TraceStep:
    """One byte of an accepting search path (for inspection and goldens)."""

    byte: int
    head: str
    tail: tuple[str, ...]
    backtrack: bool
    input_queue: tuple[str, ...]
    output_stack: tuple[str, ...]


def trace_displacement(
    token: bytes, g: GnfGrammar, budget: int = 100_000
) -> list[tuple[tuple[str, ...], tuple[str, ...], tuple[TraceStep, ...]]]:
    """Enumerate accepting unpruned search paths with per-step stack snapshots.

    Returns (input stack, output stack, steps) triples sorted for
    determinism.  The search steps coded stacks through the grammar's
    coded table and decodes names only for the paths it returns.
    Exponential in the worst case: intended for small inspection grammars
    only.
    """
    if not token:
        return [((), (), ())]
    n = len(token)
    results = []
    nodes = 0
    names, decode = g.nonterminals, g.decode

    def walk(pos, inq, out, steps):
        # ``steps`` holds (byte, head, tail, backtrack, input queue,
        # output stack) with the symbols coded.
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(token, budget)
        if pos == n:
            named = tuple(
                TraceStep(b, names[ord(h)], decode(t), bt, decode(q), decode(o))
                for b, h, t, bt, q, o in steps
            )
            results.append((decode(inq), decode(out), named))
            return
        byte = token[pos]
        if out:
            top = out[0]
            tails = g.coded_delta.get(byte, {}).get(top, ())
            moves = [(top, tail, False, inq, tail + out[1:]) for tail in tails]
        else:
            pairs = g.coded_by_byte.get(byte, ())
            moves = [(head, tail, True, inq + head, tail) for head, tail in pairs]
        for head, tail, backtrack, q, o in moves:
            walk(pos + 1, q, o, steps + [(byte, head, tail, backtrack, q, o)])

    walk(0, "", "", [])
    return sorted(results, key=lambda t: (t[0], t[1]))


@dataclass
class SweepResult:
    """Displacements for a whole vocabulary plus budget bookkeeping.

    ``state_sets`` counts the distinct state sets the walk built (the
    start included) and ``steps`` the byte steps it computed, last bytes
    included; each is computed once per distinct (state set, byte).
    """

    displacements: list
    budget_exceeded: list
    state_sets: int = 0
    steps: int = 0


def compute_all_displacements(
    vocab_tokens,
    g: GnfGrammar,
    adj: StackAdjacency | None,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SweepResult:
    """Displacement sweep over a vocabulary.

    Byte-identical tokens are computed once, and the distinct tokens are
    walked in sorted byte order through one memo of byte steps (see
    ``_Walker``), so a step is computed once however many tokens reach
    it.  Every token's displacement equals ``compute_displacement``'s,
    budget included: tokens that blow the budget get ``None`` entries (the
    class table gives them safe singleton classes), and the sweep itself
    never aborts.

    The cyclic garbage collector is paused during the sweep and left as
    the caller had it.  The sweep builds no reference cycles, but it
    allocates a set of input queues per state, and collections triggered
    by those allocations would traverse the live memo over and over
    (about a tenth of the sweep on the expression grammar's Paull GNF).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _sweep(list(vocab_tokens), g, adj, budget)
    finally:
        if enabled:
            gc.enable()


def _sweep(
    tokens: list[bytes], g: GnfGrammar, adj: StackAdjacency | None, budget: int
) -> SweepResult:
    walker = _Walker(g, adj, budget)
    distinct = {t: walker.walk(t) for t in sorted(dict.fromkeys(tokens))}
    displacements = [distinct[t] for t in tokens]
    return SweepResult(
        displacements=displacements,
        budget_exceeded=[i for i, d in enumerate(displacements) if d is None],
        state_sets=len(walker.sets),
        steps=walker.built,
    )
