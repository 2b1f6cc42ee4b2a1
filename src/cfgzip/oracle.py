"""Brute-force oracles: membership, prefix viability, bounded-context congruence.

Everything here is deliberately independent of the decoding engine: the
recognizer is a bottom-up CYK over a binarized copy of the grammar, and
the prefix computation is a span DP over the original productions driven
by that chart.  The engine must never be able to agree with these
oracles simply by sharing their bugs.

The binarized copy is made by the epsilon and unit elimination passes of
``grammar`` (``drop_epsilon``, ``drop_units``), the ones the GNF
conversion runs too, so a fault there could show on both sides alike.
It cannot hide there: the engine, Earley over the original grammar, runs
neither pass; the GNF is checked through ``bounded_language``, whose
enumerator reads epsilon and unit bodies as they stand; and CYK is
checked against ``bounded_language`` on random grammars and against the
engine.

One enumerator lists the strings of at most ``n`` bytes each symbol
derives; ``bounded_language`` and the signatures read it, and it raises
OracleBoundError rather than hold more than ``YIELD_LIMIT`` strings.

Congruence checking is exact up to the context bound: two strings are
reported congruent iff no pair of contexts ``(w, z)`` with both sides at
most ``bound`` bytes long distinguishes them.  A token's signature, the
set of contexts accepting it, is one fixpoint over the original
productions: each symbol derives free strings of at most ``bound`` bytes
and segments anchored on the token (``w + t[:j]``, ``t[i:j]``,
``t[i:] + z`` and ``w + t + z``), and segments join only where they meet
inside the token.  The empty token's contexts are the splits of the words
of at most ``2 * bound`` bytes.  Neither reads the CYK chart, so both are
checked against the recognizer rather than computed from it.
"""

from __future__ import annotations

from functools import lru_cache

from .grammar import Cfg, check_nullable_bodies, drop_epsilon, drop_units, nullable_set, validate

DEFAULT_WORD_BOUND = 16
# The longest context, on either side of a token, a congruence check tries.
DEFAULT_CONTEXT_BOUND = 4
# The most strings the yield enumerator holds in one set or in its whole table.
YIELD_LIMIT = 2_000_000


class OracleBoundError(ValueError):
    """The queried string is longer than the bound, or the grammar derives
    more than ``YIELD_LIMIT`` strings within it."""


# ---------------------------------------------------------------------------
# CNF conversion + CYK chart


class _Cnf:
    """Binarized (CNF) copy of a grammar for CYK recognition.

    Original nonterminals keep their identity, so chart cells can answer
    span queries for the source grammar directly.
    """

    def __init__(self, g: Cfg):
        g = validate(g)
        self.grammar = g
        self.nullable = nullable_set(g)
        self.ids: dict[str, int] = {nt: i for i, nt in enumerate(g.nonterminals)}
        next_id = len(g.nonterminals)

        # DEL and UNIT: the passes the GNF conversion runs too, with its guard.
        check_nullable_bodies(g.productions, self.nullable, OracleBoundError)
        bodies = [p for fresh in drop_epsilon(g.productions, self.nullable) for p in fresh]
        flat = drop_units(bodies, g.nonterminals)

        # TERM + BIN with helper reuse.
        byte_sym: dict[int, int] = {}
        chain_sym: dict[tuple, int] = {}
        unit_masks: dict[int, int] = {}
        pairs: list[tuple[int, int, int]] = []  # (A, B, C)

        def term_id(b: int) -> int:
            nonlocal next_id
            if b not in byte_sym:
                byte_sym[b] = next_id
                unit_masks[b] = unit_masks.get(b, 0) | (1 << next_id)
                next_id += 1
            return byte_sym[b]

        def chain_id(symbols: tuple[int, ...]) -> int:
            # Helper deriving the concatenation of two or more CNF symbols.
            nonlocal next_id
            if len(symbols) == 1:
                return symbols[0]
            if symbols not in chain_sym:
                chain_sym[symbols] = next_id
                next_id += 1
                pairs.append((chain_sym[symbols], symbols[0], chain_id(symbols[1:])))
            return chain_sym[symbols]

        for head, body in flat:
            hid = self.ids[head]
            if len(body) == 1:
                b = body[0]
                assert isinstance(b, int)
                term_id(b)
                unit_masks[b] |= 1 << hid
            else:
                syms = tuple(self.ids[s] if isinstance(s, str) else term_id(s) for s in body)
                pairs.append((hid, syms[0], chain_id(syms[1:])))

        self.unit_masks = unit_masks
        self.pairs_by_left: dict[int, list[tuple[int, int]]] = {}
        for a, b, c in pairs:
            self.pairs_by_left.setdefault(b, []).append((c, 1 << a))
        self.start_bit = 1 << self.ids[g.start]

    def chart(self, w: bytes) -> list[list[int]]:
        """CYK table: ``chart[i][j]`` is the bitmask of symbols deriving w[i:j]."""
        n = len(w)
        table = [[0] * (n + 1) for _ in range(n + 1)]
        for i, b in enumerate(w):
            table[i][i + 1] = self.unit_masks.get(b, 0)
        for span in range(2, n + 1):
            for i in range(n - span + 1):
                j = i + span
                acc = 0
                row_i = table[i]
                for k in range(i + 1, j):
                    left = row_i[k]
                    right = table[k][j]
                    if not left or not right:
                        continue
                    x = left
                    while x:
                        low = x & -x
                        x ^= low
                        for c, abit in self.pairs_by_left.get(low.bit_length() - 1, ()):
                            if right >> c & 1:
                                acc |= abit
                row_i[j] = acc
        return table


class Oracle:
    """Membership and prefix oracle for one grammar, with chart caching."""

    def __init__(self, g: Cfg):
        self.cnf = _Cnf(g)
        self.grammar = self.cnf.grammar
        self.nullable = self.cnf.nullable
        self._charts: dict[bytes, list[list[int]]] = {}
        # context_signature's results, keyed by (token, bound), and the
        # yield tables it reads, keyed by their length bound.
        self._signatures: dict[tuple[bytes, int], frozenset] = {}
        self._free: dict[int, dict[str | int, list[set[bytes]]]] = {}

    def _chart(self, w: bytes) -> list[list[int]]:
        got = self._charts.get(w)
        if got is None:
            if len(self._charts) > 4096:
                self._charts.clear()
            got = self._charts[w] = self.cnf.chart(w)
        return got

    def _check_bound(self, w: bytes, bound: int | None):
        limit = DEFAULT_WORD_BOUND if bound is None else bound
        if len(w) > limit:
            raise OracleBoundError(
                f"string of {len(w)} bytes exceeds the oracle bound of {limit}"
            )

    def membership(self, w: bytes, bound: int | None = None) -> bool:
        self._check_bound(w, bound)
        if not w:
            return self.grammar.start in self.nullable
        return bool(self._chart(w)[0][len(w)] & self.cnf.start_bit)

    def spans(self, w: bytes):
        """Span predicate for ORIGINAL nonterminals over ``w`` (empty spans
        answered via nullability)."""
        table = self._chart(w)
        ids = self.cnf.ids
        nullable = self.nullable

        def in_span(name: str, i: int, j: int) -> bool:
            if i == j:
                return name in nullable
            return bool(table[i][j] >> ids[name] & 1)

        return in_span

    def prefix(self, w: bytes, bound: int | None = None) -> bool:
        """Exact prefix-language membership: some completion of any length
        makes ``w`` a word.  Computed by a straddling-suffix DP over the
        original productions, so no completion bound is needed."""
        self._check_bound(w, bound)
        n = len(w)
        if n == 0:
            return True  # the language is non-empty after validation
        in_span = self.spans(w)
        g = self.grammar

        part: set[tuple[str, int]] = set()
        for nt in g.nonterminals:
            for i in range(n):
                if in_span(nt, i, n):
                    part.add((nt, i))

        def straddle(sym: int | str, j: int) -> bool:
            if j == n:
                return True  # fully past the string; any yield completes it
            if isinstance(sym, int):
                return j == n - 1 and w[j] == sym
            return (sym, j) in part

        def ends(sym: int | str, j: int):
            if isinstance(sym, int):
                return (j + 1,) if j < n and w[j] == sym else ()
            return tuple(q for q in range(j, n + 1) if in_span(sym, j, q))

        changed = True
        while changed:
            changed = False
            for head, body in g.productions:
                for i in range(n):
                    if (head, i) in part:
                        continue
                    positions = {i}
                    ok = False
                    for sym in body:
                        if any(straddle(sym, j) for j in positions):
                            ok = True
                            break
                        positions = {q for j in positions for q in ends(sym, j)}
                        if not positions:
                            break
                    if ok:
                        part.add((head, i))
                        changed = True
        return (g.start, 0) in part


@lru_cache(maxsize=32)
def _oracle_for(g: Cfg) -> Oracle:
    return Oracle(g)


def oracle_membership(g: Cfg, w: bytes, bound: int | None = None) -> bool:
    """Exact language membership by CYK (independent of the engine)."""
    return _oracle_for(g).membership(w, bound)


def oracle_prefix(g: Cfg, w: bytes, bound: int | None = None) -> bool:
    """Exact prefix-language membership (independent of the engine)."""
    return _oracle_for(g).prefix(w, bound)


def _yields(g: Cfg, max_len: int) -> dict[str | int, list[set[bytes]]]:
    """Every string of at most ``max_len`` bytes each symbol (terminals
    included) derives: ``table[sym][n]`` holds its yields of ``n`` bytes.

    Stratified by length so each string is assembled once: level ``n`` only
    combines pieces whose lengths sum to ``n``, with an inner fixpoint for
    same-length dependencies (epsilon and unit-style chains).  Strings of
    fixed lengths concatenate injectively, so a product's size is known
    before it is built, and OracleBoundError is raised before any set or
    the whole table would hold more than ``YIELD_LIMIT`` strings.
    """
    table: dict[str | int, list[set[bytes]]] = {
        sym: [set() for _ in range(max_len + 1)] for sym in (*g.nonterminals, *g.alphabet)
    }
    if max_len:
        for b in g.alphabet:
            table[b][1].add(bytes([b]))
    total = 0
    too_many = (
        f"the grammar derives more than {YIELD_LIMIT:,} strings of at most "
        f"{max_len} bytes, too many to enumerate; lower the bound"
    )

    def compose(body, target: int) -> set[bytes]:
        # All concatenations of per-symbol yields with lengths summing to
        # target; the last symbol takes exactly the remaining length.
        acc: dict[int, set[bytes]] = {0: {b""}}
        for k, sym in enumerate(body):
            last = k == len(body) - 1
            nxt: dict[int, set[bytes]] = {}
            for done, parts in acc.items():
                for ln in range(target - done if last else 0, target - done + 1):
                    pieces = table[sym][ln]
                    if not pieces:
                        continue
                    slot = nxt.setdefault(done + ln, set())
                    if len(slot) + len(parts) * len(pieces) > YIELD_LIMIT:
                        raise OracleBoundError(too_many)
                    slot.update(a + b for a in parts for b in pieces)
            acc = nxt
            if not acc:
                break
        return acc.get(target, set())

    for n in range(max_len + 1):
        todo = g.productions
        while todo:
            changed = set()
            for head, body in todo:
                new = compose(body, n) - table[head][n]
                if new:
                    total += len(new)
                    if total > YIELD_LIMIT:
                        raise OracleBoundError(too_many)
                    table[head][n] |= new
                    changed.add(head)
            # Shorter yields are final, so a body gains n-byte strings again
            # only through a symbol that just did, all others deriving b"".
            todo = []
            for head, body in g.productions:
                solid = [sym for sym in body if not table[sym][0]]
                if len(solid) < 2 and changed.intersection(solid or body):
                    todo.append((head, body))
    return table


def bounded_language(g: Cfg, max_len: int) -> frozenset[bytes]:
    """Every word of the language up to ``max_len`` bytes, by derivation
    closure over the productions.  Exhaustive by construction: a string is
    in the result iff the start symbol derives it."""
    g = validate(g)
    return frozenset(w for bucket in _yields(g, max_len)[g.start] for w in bucket)


# ---------------------------------------------------------------------------
# Bounded-context signatures (the congruence oracle)


def _extend_right(groups: dict, starting: dict, free: list, bound: int) -> dict:
    """Segments ``{end: starts}`` followed by one more symbol: an end inside
    the token joins the symbol's segments starting there (``starting``:
    ``{start: ends}``), a trailing context ``z`` grows by the symbol's free
    strings within the bound, and a nullable symbol passes segments through."""
    out: dict = {}
    for end, starts in groups.items():
        if isinstance(end, int):
            for far in starting.get(end, ()):
                out.setdefault(far, set()).update(starts)
            if free[0]:
                out.setdefault(end, set()).update(starts)
        else:
            for length in range(bound - len(end) + 1):
                for f in free[length]:
                    out.setdefault(end + f, set()).update(starts)
    return out


def _extend_left(groups: dict, ending: dict, free: list, bound: int) -> dict:
    """Segments ``{end: starts}`` preceded by one more symbol, the mirror of
    ``_extend_right`` (``ending``: the symbol's ``{end: starts}``)."""
    out: dict = {}
    grown: dict = {}
    for end, starts in groups.items():
        acc = set()
        for start in starts:
            got = grown.get(start)
            if got is None:
                if isinstance(start, int):
                    got = set(ending.get(start, ()))
                    if free[0]:
                        got.add(start)
                else:
                    room = bound - len(start)
                    got = {f + start for length in range(room + 1) for f in free[length]}
                grown[start] = got
            acc |= got
        if acc:
            out[end] = acc
    return out


def context_signature(
    g: Cfg, token: bytes, bound: int = DEFAULT_CONTEXT_BOUND
) -> frozenset[tuple[bytes, bytes]]:
    """All bounded contexts accepting the token.

    Returns the set of pairs ``(w, z)`` with ``|w|, |z| <= bound`` such
    that ``w + token + z`` is in the language.  Two tokens are congruent
    within the bound iff their signatures are equal.

    For a non-empty token of length ``n`` this is the grammar intersected
    with the regular set of ``w + token + z`` (Bar-Hillel et al. 1961), run
    as one semi-naive fixpoint over the segments each symbol derives.  A
    segment is a pair ``(start, end)``: a start is a position ``0 < i < n``
    of the token or the context string ``w`` in front of it, an end is a
    position ``0 < j < n`` or the context string ``z`` after it.  So
    ``(w, j)`` is ``w + token[:j]``, ``(i, j)`` is ``token[i:j]``,
    ``(i, z)`` is ``token[i:] + z`` and ``(w, z)`` is ``w + token + z``;
    the start symbol's ``(w, z)`` segments are the signature.  Segments
    join where an end and a start name the same position, and context
    strings grow by the free yields of their neighbours.

    The empty token's signature splits the words of at most ``2 * bound``
    bytes every way that leaves both sides within the bound.  The CYK chart
    is never read, so the signature is independent of the recognizer it is
    checked against.
    """
    oracle = _oracle_for(g)
    g = oracle.grammar
    cached = oracle._signatures
    key = (token, bound)
    if key in cached:
        return cached[key]

    length = bound if token else 2 * bound
    free = oracle._free.get(length)
    if free is None:
        free = oracle._free[length] = _yields(g, length)
    if not token:
        result = frozenset(
            (x[:i], x[i:])
            for n, words in enumerate(free[g.start])
            for x in words
            for i in range(max(0, n - bound), min(n, bound) + 1)
        )
        cached[key] = result
        return result

    n = len(token)
    # Each symbol's segments as {end: starts}; those starting inside the
    # token also as {start: ends}.
    ending: dict = {sym: {} for sym in free}
    starting: dict = {sym: {} for sym in free}
    # Terminals seed the first round: byte token[p] spans p..p+1, and the
    # token's own ends are empty context strings.
    fresh: dict = {}
    for p, b in enumerate(token):
        if b in free:
            start, end = p or b"", p + 1 if p + 1 < n else b""
            ending[b][end] = {start}
            fresh.setdefault(b, {})[end] = {start}
            if p:
                starting[b][start] = {end}

    # Semi-naive: each round extends only the segments found in the last
    # round, over the current segments of the other children.
    while fresh:
        found: dict = {}
        for head, body in g.productions:
            for mi, sym in enumerate(body):
                groups = fresh.get(sym)
                if not groups:
                    continue
                for right in body[mi + 1 :]:
                    groups = _extend_right(groups, starting[right], free[right], bound)
                for left in reversed(body[:mi]):
                    groups = _extend_left(groups, ending[left], free[left], bound)
                slot = found.setdefault(head, {})
                for end, starts in groups.items():
                    slot.setdefault(end, set()).update(starts)
        fresh = {}
        for head, groups in found.items():
            for end, starts in groups.items():
                known = ending[head].setdefault(end, set())
                new = starts - known
                if new:
                    known |= new
                    fresh.setdefault(head, {})[end] = new
                    for start in new:
                        if isinstance(start, int):
                            starting[head].setdefault(start, set()).add(end)

    result = frozenset(
        (w, z)
        for z, ws in ending[g.start].items()
        for w in ws
        if isinstance(w, bytes) and isinstance(z, bytes)
    )
    cached[key] = result
    return result


def oracle_congruence_sample(
    g: Cfg, t: bytes, u: bytes, bound: int = DEFAULT_CONTEXT_BOUND
) -> bool:
    """Exhaustive bounded-context congruence check.

    True iff no contexts ``(w, z)`` with both sides at most ``bound``
    bytes distinguish ``t`` from ``u``.  A False answer is a proof of
    non-congruence; True certifies congruence only up to the bound.
    """
    if t == u:
        return True
    return context_signature(g, t, bound) == context_signature(g, u, bound)


def distinguishing_context(
    g: Cfg, t: bytes, u: bytes, bound: int = DEFAULT_CONTEXT_BOUND
) -> tuple[bytes, bytes] | None:
    """A witness context accepted around exactly one of the two strings."""
    if t == u:
        return None
    st = context_signature(g, t, bound)
    su = context_signature(g, u, bound)
    diff = st.symmetric_difference(su)
    return min(diff) if diff else None
