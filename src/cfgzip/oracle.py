"""Brute-force oracles: membership, prefix viability, bounded-context congruence.

Everything here is deliberately independent of the decoding engine: the
recognizer is a bottom-up CYK over a binarized copy of the grammar, and
the prefix / context computations are span DPs over the original
productions driven by that chart.  The engine must never be able to agree
with these oracles simply by sharing their bugs.

Congruence checking is exact up to the context bound: two strings are
reported congruent iff no pair of contexts ``(w, z)`` with both sides at
most ``bound`` bytes long distinguishes them.  Contexts that are not
viable (``w`` not a prefix of any word, ``z`` not a suffix) can never
distinguish anything, so signatures are naturally restricted to the
viable universe without loss.
"""

from __future__ import annotations

from .grammar import Cfg, nullable_set, validate

DEFAULT_WORD_BOUND = 16


class OracleBoundError(ValueError):
    """The queried string exceeds the oracle's configured length bound."""


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

        # DEL: drop nullable symbols in every combination, keep nonempty bodies.
        bodies: list[tuple[str, tuple[int | str, ...]]] = []
        seen = set()
        for head, body in g.productions:
            null_pos = [i for i, s in enumerate(body) if isinstance(s, str) and s in self.nullable]
            for mask in range(1 << len(null_pos)):
                drop = {null_pos[k] for k in range(len(null_pos)) if mask >> k & 1}
                variant = tuple(s for i, s in enumerate(body) if i not in drop)
                if variant and (head, variant) not in seen:
                    seen.add((head, variant))
                    bodies.append((head, variant))

        # UNIT: closure over single-nonterminal bodies.
        order = list(g.nonterminals)
        unit = {nt: [nt] for nt in order}
        unit_seen = {nt: {nt} for nt in order}
        changed = True
        while changed:
            changed = False
            for head, body in bodies:
                if len(body) == 1 and isinstance(body[0], str):
                    for a in order:
                        if head in unit_seen[a] and body[0] not in unit_seen[a]:
                            unit_seen[a].add(body[0])
                            unit[a].append(body[0])
                            changed = True
        flat: list[tuple[str, tuple[int | str, ...]]] = []
        seen = set()
        for a in order:
            for b in unit[a]:
                for head, body in bodies:
                    if head != b or (len(body) == 1 and isinstance(body[0], str)):
                        continue
                    if (a, body) not in seen:
                        seen.add((a, body))
                        flat.append((a, body))

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

    def __init__(self, g: Cfg, word_bound: int = DEFAULT_WORD_BOUND):
        self.cnf = _Cnf(g)
        self.grammar = self.cnf.grammar
        self.nullable = self.cnf.nullable
        self.word_bound = word_bound
        self._charts: dict[bytes, list[list[int]]] = {}
        # context_signature's results, keyed by (token, bound).
        self._signatures: dict[tuple[bytes, int], frozenset] = {}

    def _chart(self, w: bytes) -> list[list[int]]:
        got = self._charts.get(w)
        if got is None:
            if len(self._charts) > 4096:
                self._charts.clear()
            got = self._charts[w] = self.cnf.chart(w)
        return got

    def _check_bound(self, w: bytes, bound: int | None):
        limit = self.word_bound if bound is None else bound
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


_oracles: dict[Cfg, Oracle] = {}


def _oracle_for(g: Cfg) -> Oracle:
    got = _oracles.get(g)
    if got is None:
        got = _oracles[g] = Oracle(g)
    return got


def oracle_membership(g: Cfg, w: bytes, bound: int | None = None) -> bool:
    """Exact language membership by CYK (independent of the engine)."""
    return _oracle_for(g).membership(w, bound)


def oracle_prefix(g: Cfg, w: bytes, bound: int | None = None) -> bool:
    """Exact prefix-language membership (independent of the engine)."""
    return _oracle_for(g).prefix(w, bound)


def viable_prefixes(g: Cfg, max_len: int) -> list[bytes]:
    """All prefix-viable strings up to ``max_len`` bytes, shortest first.

    Enumerated down the prefix tree: children of a non-viable prefix are
    never viable, so the walk only touches viable nodes."""
    oracle = _oracle_for(g)
    alphabet = sorted(oracle.grammar.alphabet)
    out: list[bytes] = [b""]
    layer: list[bytes] = [b""]
    for _ in range(max_len):
        nxt = []
        for w in layer:
            for b in alphabet:
                cand = w + bytes([b])
                if oracle.prefix(cand):
                    nxt.append(cand)
        out.extend(nxt)
        layer = nxt
    return out


def _reversed_grammar(g: Cfg) -> Cfg:
    return Cfg(
        nonterminals=g.nonterminals,
        alphabet=g.alphabet,
        productions=tuple((h, body[::-1]) for h, body in g.productions),
        start=g.start,
    )


def viable_suffixes(g: Cfg, max_len: int) -> list[bytes]:
    """All strings up to ``max_len`` bytes that end some word of the language."""
    rev = _reversed_grammar(validate(g))
    return [w[::-1] for w in viable_prefixes(rev, max_len)]


def bounded_language(g: Cfg, max_len: int) -> frozenset[bytes]:
    """Every word of the language up to ``max_len`` bytes, by derivation
    closure over the productions.  Exhaustive by construction: a string is
    in the result iff the start symbol derives it.

    Stratified by length so each word is assembled once: level ``n`` only
    combines pieces whose lengths sum to ``n``, with an inner fixpoint for
    same-length dependencies (epsilon and unit-style chains).
    """
    g = validate(g)
    words: dict[str, list[set[bytes]]] = {
        nt: [set() for _ in range(max_len + 1)] for nt in g.nonterminals
    }

    def compose(body, target: int) -> set[bytes]:
        # All concatenations of per-symbol yields with lengths summing to target.
        acc: dict[int, set[bytes]] = {0: {b""}}
        for sym in body:
            nxt: dict[int, set[bytes]] = {}
            for done, parts in acc.items():
                if isinstance(sym, int):
                    options = [(1, (bytes([sym]),))] if done + 1 <= target else []
                else:
                    options = [
                        (ln, words[sym][ln])
                        for ln in range(0, target - done + 1)
                        if words[sym][ln]
                    ]
                for ln, pieces in options:
                    slot = nxt.setdefault(done + ln, set())
                    for a in parts:
                        for b in pieces:
                            slot.add(a + b)
            acc = nxt
            if not acc:
                break
        return acc.get(target, set())

    for n in range(max_len + 1):
        changed = True
        while changed:
            changed = False
            for head, body in g.productions:
                got = compose(body, n)
                new = got - words[head][n]
                if new:
                    words[head][n] |= new
                    changed = True
    return frozenset(w for bucket in words[g.start] for w in bucket)


# ---------------------------------------------------------------------------
# Bounded-context signatures (the congruence oracle)


def _cap_concat(left: frozenset[bytes] | set[bytes], right, bound: int) -> set[bytes]:
    out = set()
    for a in left:
        for b in right:
            if len(a) + len(b) <= bound:
                out.add(a + b)
    return out


class _ContextUniverse:
    """Grammar-level tables shared by every signature at one bound."""

    def __init__(self, g: Cfg, bound: int):
        self.grammar = g
        self.bound = bound
        # Free yields: every string of length <= bound each symbol derives.
        free: dict[str, set[bytes]] = {nt: set() for nt in g.nonterminals}
        changed = True
        while changed:
            changed = False
            for head, body in g.productions:
                acc = {b""}
                for sym in body:
                    piece = (bytes([sym]),) if isinstance(sym, int) else free[sym]
                    acc = _cap_concat(acc, piece, bound)
                    if not acc:
                        break
                new = acc - free[head]
                if new:
                    free[head] |= new
                    changed = True
        self.free = {nt: frozenset(v) for nt, v in free.items()}

        # Per-production capped free concatenations of body prefixes and
        # suffixes, bucketed by length so joins can skip oversized combos.
        def bucketed(strings):
            buckets = [[] for _ in range(bound + 1)]
            for s in strings:
                buckets[len(s)].append(s)
            return tuple(tuple(b) for b in buckets)

        self.fp: list[list[tuple]] = []
        self.fs: list[list[tuple]] = []
        for head, body in g.productions:
            k = len(body)
            flat = [{b""}]
            for sym in body:
                piece = (bytes([sym]),) if isinstance(sym, int) else self.free[sym]
                flat.append(_cap_concat(flat[-1], piece, bound))
            fp = [bucketed(s) for s in flat]
            flat = [None] * (k + 1)
            flat[k] = {b""}
            for idx in range(k - 1, -1, -1):
                sym = body[idx]
                piece = (bytes([sym]),) if isinstance(sym, int) else self.free[sym]
                flat[idx] = _cap_concat(piece, flat[idx + 1], bound)
            fs = [bucketed(s) for s in flat]
            self.fp.append(fp)
            self.fs.append(fs)


def _join_fringe(buckets, parts, bound: int, prepend: bool) -> set[bytes]:
    """Concatenate a length-bucketed fringe with a small dynamic set."""
    out = set()
    for part in parts:
        room = bound - len(part)
        if prepend:
            for length in range(room + 1):
                for frag in buckets[length]:
                    out.add(frag + part)
        else:
            for length in range(room + 1):
                for frag in buckets[length]:
                    out.add(part + frag)
    return out


_universes: dict[tuple[Cfg, int], _ContextUniverse] = {}


def _universe_for(g: Cfg, bound: int) -> _ContextUniverse:
    key = (g, bound)
    got = _universes.get(key)
    if got is None:
        got = _universes[key] = _ContextUniverse(g, bound)
    return got


def context_signature(g: Cfg, token: bytes, bound: int = 4) -> frozenset[tuple[bytes, bytes]]:
    """All bounded contexts accepting the token.

    Returns the set of pairs ``(w, z)`` with ``|w|, |z| <= bound`` such
    that ``w + token + z`` is in the language.  Two tokens are congruent
    within the bound iff their signatures are equal.
    """
    oracle = _oracle_for(g)
    g = oracle.grammar
    cached = oracle._signatures
    key = (token, bound)
    if key in cached:
        return cached[key]

    if not token:
        # Pure-context pairs: w + z must be a word.
        sig = set()
        for w in viable_prefixes(g, bound):
            for z in viable_suffixes(g, bound):
                if oracle.membership(w + z):
                    sig.add((w, z))
        result = frozenset(sig)
        cached[key] = result
        return result

    n = len(token)
    uni = _universe_for(g, bound)
    in_span = oracle.spans(token)

    span_memo: dict[tuple[str, int], tuple[int, ...]] = {}

    def span_ends(sym: int | str, p: int):
        if isinstance(sym, int):
            return (p + 1,) if p < n and token[p] == sym else ()
        got = span_memo.get((sym, p))
        if got is None:
            got = span_memo[(sym, p)] = tuple(
                q for q in range(p, n + 1) if in_span(sym, p, q)
            )
        return got

    # seg_ends(prod, a, b, p): positions reachable when children a..b-1
    # derive token[p:...] exactly.  Chart-driven, so round-invariant.
    seg_memo: dict[tuple[int, int, int, int], tuple[int, ...]] = {}

    def seg_ends(pi: int, a: int, b: int, p: int) -> tuple[int, ...]:
        if a == b:
            return (p,)
        key2 = (pi, a, b, p)
        got = seg_memo.get(key2)
        if got is not None:
            return got
        body = g.productions[pi][1]
        positions = {p}
        for idx in range(a, b):
            positions = {q for j in positions for q in span_ends(body[idx], j)}
            if not positions:
                break
        got = seg_memo[key2] = tuple(sorted(positions))
        return got

    # Semi-naive fixpoint: each round only recombines facts discovered in
    # the previous round, so total work tracks the number of derivations
    # rather than rounds times full set products.  Terminal children act as
    # static facts that are "fresh" in the first round only.
    lc: dict[tuple[str, int], set[bytes]] = {}
    rc: dict[tuple[str, int], set[bytes]] = {}
    bb: dict[str, set[tuple[bytes, bytes]]] = {nt: set() for nt in g.nonterminals}
    lc_fresh: dict[tuple[str, int], set[bytes]] = {}
    rc_fresh: dict[tuple[str, int], set[bytes]] = {}
    bb_fresh: dict[str, set[tuple[bytes, bytes]]] = {nt: set() for nt in g.nonterminals}
    for nt in g.nonterminals:
        for j in range(1, n + 1):
            seed = {b""} if in_span(nt, 0, j) else set()
            lc[(nt, j)] = set(seed)
            lc_fresh[(nt, j)] = set(seed)
        for i in range(n):
            seed = {b""} if in_span(nt, i, n) else set()
            rc[(nt, i)] = set(seed)
            rc_fresh[(nt, i)] = set(seed)

    first_round = True

    def lc_parts(sym: int | str, p: int, fresh_only: bool):
        if isinstance(sym, int):
            full = {b""} if (p == 1 and token[0] == sym) else set()
            return (full if first_round else set()) if fresh_only else full
        return lc_fresh[(sym, p)] if fresh_only else lc[(sym, p)]

    def rc_parts(sym: int | str, q: int, fresh_only: bool):
        if isinstance(sym, int):
            full = {b""} if (q == n - 1 and token[q] == sym) else set()
            return (full if first_round else set()) if fresh_only else full
        return rc_fresh[(sym, q)] if fresh_only else rc[(sym, q)]

    def bb_parts(sym: int | str, fresh_only: bool):
        if isinstance(sym, int):
            full = {(b"", b"")} if (n == 1 and token[0] == sym) else set()
            return (full if first_round else set()) if fresh_only else full
        return bb_fresh[sym] if fresh_only else bb[sym]

    rounds = 0
    while True:
        rounds += 1
        if rounds > 100_000:
            raise RuntimeError("context signature fixpoint failed to converge")
        lc_add: dict[tuple[str, int], set[bytes]] = {}
        rc_add: dict[tuple[str, int], set[bytes]] = {}
        bb_add: dict[str, set[tuple[bytes, bytes]]] = {}

        for pi, (head, body) in enumerate(g.productions):
            k = len(body)
            fp = uni.fp[pi]
            fs = uni.fs[pi]
            # Lc: straddler at child mi, trailing children chain to j.
            for mi in range(k):
                if not any(fp[mi]):
                    continue
                for p in range(1, n + 1):
                    ws = lc_parts(body[mi], p, fresh_only=True)
                    if not ws:
                        continue
                    ends = seg_ends(pi, mi + 1, k, p)
                    if not ends:
                        continue
                    combined = _join_fringe(fp[mi], ws, bound, prepend=True)
                    for j in ends:
                        if combined:
                            lc_add.setdefault((head, j), set()).update(combined)
            # Rc: leading children chain i..q, straddler at child mi.
            for mi in range(k):
                if not any(fs[mi + 1]):
                    continue
                for i in range(n):
                    for q in seg_ends(pi, 0, mi, i):
                        if q > n - 1:
                            continue
                        zs = rc_parts(body[mi], q, fresh_only=True)
                        if not zs:
                            continue
                        combined = _join_fringe(fs[mi + 1], zs, bound, prepend=False)
                        if combined:
                            rc_add.setdefault((head, i), set()).update(combined)
            # BB shape (i): one child holds the whole token.
            for mi in range(k):
                inner = bb_parts(body[mi], fresh_only=True)
                if not inner or not any(fp[mi]) or not any(fs[mi + 1]):
                    continue
                slot = bb_add.setdefault(head, set())
                for (w1, z1) in inner:
                    ws = _join_fringe(fp[mi], (w1,), bound, prepend=True)
                    zs = _join_fringe(fs[mi + 1], (z1,), bound, prepend=False)
                    for w in ws:
                        for z in zs:
                            slot.add((w, z))
            # BB shape (ii): token starts in child li, ends in child ri.
            # Two delta passes: fresh-left against full-right and vice versa.
            for li in range(k):
                if not any(fp[li]):
                    continue
                for p in range(1, n):
                    for fresh_side in (0, 1):
                        wls = lc_parts(body[li], p, fresh_only=fresh_side == 0)
                        if not wls:
                            continue
                        wset = None
                        for ri in range(li + 1, k):
                            if not any(fs[ri + 1]):
                                continue
                            for q in seg_ends(pi, li + 1, ri, p):
                                if q > n - 1:
                                    continue
                                zrs = rc_parts(body[ri], q, fresh_only=fresh_side == 1)
                                if not zrs:
                                    continue
                                if wset is None:
                                    wset = _join_fringe(fp[li], wls, bound, prepend=True)
                                    if not wset:
                                        break
                                zset = _join_fringe(fs[ri + 1], zrs, bound, prepend=False)
                                slot = bb_add.setdefault(head, set())
                                for w in wset:
                                    for z in zset:
                                        slot.add((w, z))
                            if wset is not None and not wset:
                                break

        # Full straddles feed BB: X => w+token exactly, or X => token+z.
        for nt in g.nonterminals:
            fresh_w = lc_fresh[(nt, n)]
            fresh_z = rc_fresh[(nt, 0)] if n >= 1 else set()
            if fresh_w or fresh_z:
                slot = bb_add.setdefault(nt, set())
                slot.update((w, b"") for w in fresh_w)
                slot.update((b"", z) for z in fresh_z)

        progressed = False
        for key2, add in lc_add.items():
            new = add - lc[key2]
            lc_fresh[key2] = new
            if new:
                lc[key2] |= new
                progressed = True
        for key2 in lc_fresh:
            if key2 not in lc_add:
                lc_fresh[key2] = set()
        for key2, add in rc_add.items():
            new = add - rc[key2]
            rc_fresh[key2] = new
            if new:
                rc[key2] |= new
                progressed = True
        for key2 in rc_fresh:
            if key2 not in rc_add:
                rc_fresh[key2] = set()
        for nt2, add in bb_add.items():
            new = add - bb[nt2]
            bb_fresh[nt2] = new
            if new:
                bb[nt2] |= new
                progressed = True
        for nt2 in bb_fresh:
            if nt2 not in bb_add:
                bb_fresh[nt2] = set()
        first_round = False
        if not progressed:
            break

    result = frozenset(bb[g.start])
    cached[key] = result
    return result


def oracle_congruence_sample(g: Cfg, t: bytes, u: bytes, bound: int = 4) -> bool:
    """Exhaustive bounded-context congruence check.

    True iff no contexts ``(w, z)`` with both sides at most ``bound``
    bytes distinguish ``t`` from ``u``.  A False answer is a proof of
    non-congruence; True certifies congruence only up to the bound.
    """
    if t == u:
        return True
    return context_signature(g, t, bound) == context_signature(g, u, bound)


def distinguishing_context(
    g: Cfg, t: bytes, u: bytes, bound: int = 4
) -> tuple[bytes, bytes] | None:
    """A witness context accepted around exactly one of the two strings."""
    if t == u:
        return None
    st = context_signature(g, t, bound)
    su = context_signature(g, u, bound)
    diff = st.symmetric_difference(su)
    return min(diff) if diff else None
