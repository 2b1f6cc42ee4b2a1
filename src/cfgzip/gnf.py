"""Conversion of a Cfg to Greibach Normal Form and the PDA it induces.

Every emitted production has the shape ``head -> byte tail`` where the
tail is a (possibly empty) sequence of nonterminals that never contains
the start symbol.  The empty string, if in the language, is carried by a
flag on the grammar rather than by a production.

The conversion pipeline is the classical one: epsilon elimination, unit
elimination, Paull's left-recursion elimination over the interned
nonterminal order, back-substitution until every body leads with a
terminal, promotion of interior terminals to fresh byte rules, then
dropping what is unproductive or unreachable.  Fresh helper names are
derived from the source nonterminal (``A'``, ``A''``, ...) so dumps stay
readable; byte rules are named ``b_XX`` by hex value.  Nothing here
tries to minimise the result: correctness is what matters, size only
affects offline time.

The epsilon, unit, productive and reachable passes are those of
``grammar``, shared with the oracle's CNF and with validation.  A fault
in them still shows: the GNF is checked through ``bounded_language``,
whose enumerator reads epsilon and unit bodies as they stand, and the
engine runs neither elimination.  ``render_gnf`` is ``render_grammar``
over ``gnf_to_cfg``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .grammar import (
    Cfg,
    GrammarError,
    _productive_set,
    check_nullable_bodies,
    drop_epsilon,
    drop_units,
    nullable_set,
    reachable,
    render_grammar,
    validate,
)

DEFAULT_PRODUCTION_CAP = 1_000_000


class GnfSizeError(GrammarError):
    """The intermediate grammar blew past the production cap."""


@dataclass(frozen=True)
class GnfGrammar:
    """A grammar in Greibach Normal Form plus its PDA transition function.

    ``productions`` hold ``(head, terminal_byte, tail)`` triples;
    ``start_derives_epsilon`` stands in for the lone permitted epsilon
    production.  Two indexes are derived once at construction:
    ``delta_map`` maps ``(byte, nonterminal)`` to the tuple of tails pushed
    when that nonterminal is popped on that byte, and ``by_byte`` maps a
    byte to the ``(head, tail)`` pairs of the productions leading with it,
    in production order.

    The displacement walk reads both through a coding of the stack
    symbols: ``code`` maps the nonterminal at index ``i`` to ``chr(i)``,
    so a stack is a ``str`` with its top first and ``chr(len(nonterminals))``
    is free as a separator.  ``coded_delta`` maps a byte to a dict from
    the coded popped symbol to its coded tails, and ``coded_by_byte`` maps
    a byte to its coded ``(head, tail)`` pairs.
    """

    nonterminals: tuple[str, ...]
    alphabet: frozenset[int]
    productions: tuple[tuple[str, int, tuple[str, ...]], ...]
    start: str
    start_derives_epsilon: bool = False
    delta_map: dict = field(init=False, compare=False, repr=False)
    by_byte: dict = field(init=False, compare=False, repr=False)
    code: dict = field(init=False, compare=False, repr=False)
    coded_delta: dict = field(init=False, compare=False, repr=False)
    coded_by_byte: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.start not in self.nonterminals:
            raise GrammarError(f"start symbol {self.start!r} is not a nonterminal")
        for head, term, tail in self.productions:
            if head not in self.nonterminals:
                raise GrammarError(f"unknown head symbol {head!r}")
            if not 0 <= term <= 255:
                raise GrammarError(f"production {head!r} does not lead with a byte")
            if self.start in tail:
                raise GrammarError(f"start symbol appears in the tail of a {head!r} production")
            for nt in tail:
                if nt not in self.nonterminals:
                    raise GrammarError(f"unknown tail symbol {nt!r}")
        by_byte: dict[int, list[tuple[str, tuple[str, ...]]]] = {}
        for head, term, tail in self.productions:
            by_byte.setdefault(term, []).append((head, tail))
        object.__setattr__(self, "by_byte", {k: tuple(v) for k, v in by_byte.items()})
        object.__setattr__(self, "delta_map", transition_function(self))
        code = {nt: chr(i) for i, nt in enumerate(self.nonterminals)}
        coded_delta: dict[int, dict[str, tuple[str, ...]]] = {}
        for (byte, nt), tails in self.delta_map.items():
            coded = tuple("".join(map(code.__getitem__, t)) for t in tails)
            coded_delta.setdefault(byte, {})[code[nt]] = coded
        coded_by_byte = {
            byte: tuple((code[head], "".join(map(code.__getitem__, tail))) for head, tail in pairs)
            for byte, pairs in self.by_byte.items()
        }
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "coded_delta", coded_delta)
        object.__setattr__(self, "coded_by_byte", coded_by_byte)

    def delta(self, byte: int, nt: str) -> tuple[tuple[str, ...], ...]:
        """Tails pushed when ``nt`` is popped on ``byte`` (empty if none)."""
        return self.delta_map.get((byte, nt), ())


def transition_function(g: GnfGrammar) -> dict[tuple[int, str], tuple[tuple[str, ...], ...]]:
    """The PDA transition function: (byte, nonterminal) -> tails.

    Total over the domain with the empty tuple as default; tails keep the
    production order of the grammar, deduplicated.
    """
    out: dict[tuple[int, str], list[tuple[str, ...]]] = {}
    for head, term, tail in g.productions:
        slot = out.setdefault((term, head), [])
        if tail not in slot:
            slot.append(tail)
    return {k: tuple(v) for k, v in out.items()}


def _fresh(base: str, taken: set[str]) -> str:
    name = base + "'"
    while name in taken:
        name += "'"
    taken.add(name)
    return name


def _check_cap(count: int, cap: int, stage: str):
    if count > cap:
        raise GnfSizeError(
            f"grammar exploded during {stage}: {count} productions exceeds the cap of {cap}"
        )


def to_gnf(g: Cfg, max_productions: int = DEFAULT_PRODUCTION_CAP) -> GnfGrammar:
    """Convert a validated Cfg to an equivalent GNF grammar.

    Raises GnfSizeError if any intermediate stage exceeds ``max_productions``.
    """
    g = validate(g)
    nullable = nullable_set(g)
    eps_in_language = g.start in nullable
    taken = set(g.nonterminals)

    start = g.start
    prods: list[tuple[str, tuple[int | str, ...]]] = list(g.productions)
    start_in_tail = any(start in body for _, body in prods)
    if start_in_tail or eps_in_language:
        fresh_start = _fresh(start, taken)
        prods.insert(0, (fresh_start, (start,)))
        start = fresh_start

    # Epsilon elimination (the start flag carries epsilon), one production
    # at a time, after every body is checked for too many nullable
    # symbols; the cap is checked after each production's variants.
    check_nullable_bodies(prods, nullable, GnfSizeError)
    expanded: list[tuple[str, tuple[int | str, ...]]] = []
    for fresh in drop_epsilon(prods, nullable):
        expanded += fresh
        _check_cap(len(expanded), max_productions, "epsilon elimination")

    # Unit elimination in first-appearance order, so the output is
    # deterministic.
    all_nts = [start] + [nt for nt in g.nonterminals if nt != start]
    prods = drop_units(expanded, all_nts)
    _check_cap(len(prods), max_productions, "unit elimination")

    # Paull's ordering: make every body lead with a terminal or a
    # later-ordered nonterminal, eliminating direct left recursion as we go.
    by_head: dict[str, list[tuple[int | str, ...]]] = {nt: [] for nt in all_nts}
    for head, body in prods:
        by_head[head].append(body)
    ordered = all_nts
    helper_of: dict[str, str] = {}

    def total() -> int:
        return sum(len(v) for v in by_head.values())

    for i, ai in enumerate(ordered):
        for j in range(i):
            aj = ordered[j]
            out = []
            for body in by_head[ai]:
                if body and body[0] == aj:
                    for sub in by_head[aj]:
                        out.append(sub + body[1:])
                else:
                    out.append(body)
            by_head[ai] = out
            _check_cap(total(), max_productions, "left-recursion substitution")
        recursive = [b[1:] for b in by_head[ai] if b and b[0] == ai]
        rest = [b for b in by_head[ai] if not b or b[0] != ai]
        if recursive:
            if any(not alpha for alpha in recursive):
                raise GrammarError(f"cycle: {ai!r} derives itself")
            helper = _fresh(ai, taken)
            helper_of[ai] = helper
            by_head[ai] = rest + [b + (helper,) for b in rest]
            by_head[helper] = list(recursive) + [alpha + (helper,) for alpha in recursive]
            _check_cap(total(), max_productions, "left-recursion elimination")

    # Back-substitute so every body leads with a terminal: mains in reverse
    # order (the last one already does), then the recursion helpers.
    helpers = [helper_of[h] for h in ordered if h in helper_of]
    for h in list(reversed(ordered)) + helpers:
        out = []
        for body in by_head.get(h, ()):
            lead = body[0]
            if isinstance(lead, str):
                for sub in by_head[lead]:
                    out.append(sub + body[1:])
            else:
                out.append(body)
        by_head[h] = out
        _check_cap(total(), max_productions, "back substitution")

    # Promote interior terminals to byte rules.
    byte_rule: dict[int, str] = {}
    gnf_prods: list[tuple[str, int, tuple[str, ...]]] = []
    for head in ordered + helpers:
        for body in by_head.get(head, ()):
            lead = body[0]
            assert isinstance(lead, int), f"body of {head!r} does not lead with a byte: {body!r}"
            tail = []
            for sym in body[1:]:
                if isinstance(sym, int):
                    name = byte_rule.get(sym)
                    if name is None:
                        name = f"b_{sym:02x}"
                        while name in taken:
                            name += "'"
                        taken.add(name)
                        byte_rule[sym] = name
                    tail.append(name)
                else:
                    tail.append(sym)
            gnf_prods.append((head, lead, tuple(tail)))
    for byte, name in byte_rule.items():
        gnf_prods.append((name, byte, ()))
    _check_cap(len(gnf_prods), max_productions, "terminal promotion")

    # Source symbols that only derived epsilon leave dead tails behind;
    # drop productions that can never complete a parse, then symbols that
    # ended up unreachable from the new start.
    productive = _productive_set([(head, tail) for head, _, tail in gnf_prods])
    gnf_prods = [
        p for p in gnf_prods if p[0] in productive and all(s in productive for s in p[2])
    ]
    edges: dict[str, list[str]] = {}
    for head, _, tail in gnf_prods:
        edges.setdefault(head, []).extend(tail)
    reach = reachable(edges, (start,))
    gnf_prods = [p for p in gnf_prods if p[0] in reach]

    nonterminals: list[str] = []
    for head, _, tail in gnf_prods:
        if head not in nonterminals:
            nonterminals.append(head)
        for s in tail:
            if s not in nonterminals:
                nonterminals.append(s)
    if start not in nonterminals:
        # Language is exactly {epsilon}: keep the bare start symbol.
        nonterminals.insert(0, start)
    alphabet = frozenset(term for _, term, _ in gnf_prods)

    return GnfGrammar(
        nonterminals=tuple(nonterminals),
        alphabet=alphabet,
        productions=tuple(gnf_prods),
        start=start,
        start_derives_epsilon=eps_in_language,
    )


def render_gnf(g: GnfGrammar) -> str:
    """Dump a GNF grammar in the grammar file format (tails as rule refs)."""
    return render_grammar(gnf_to_cfg(g))


def gnf_to_cfg(g: GnfGrammar) -> Cfg:
    """View a GNF grammar as a plain Cfg (the epsilon flag becomes a real
    epsilon production on the start symbol, listed last)."""
    prods: list[tuple[str, tuple[int | str, ...]]] = [
        (head, (term,) + tail) for head, term, tail in g.productions
    ]
    if g.start_derives_epsilon:
        prods.append((g.start, ()))
    return Cfg(
        nonterminals=g.nonterminals,
        alphabet=g.alphabet,
        productions=tuple(prods),
        start=g.start,
    )


def _pda_run(g: GnfGrammar, w: bytes, prune: bool) -> set[tuple[str, ...]]:
    """The stacks the nondeterministic PDA reaches from (S) on all of
    ``w`` (non-empty); empty once no path survives.  With ``prune``, a
    stack taller than the input left is dropped: each later byte shrinks
    the stack by at most one, so it can never drain."""
    states = {(g.start,)}
    for i, byte in enumerate(w):
        cap = len(w) - i - 1 if prune else float("inf")
        states = {
            tail + stack[1:]
            for stack in states
            if stack
            for tail in g.delta(byte, stack[0])
            if len(tail) + len(stack) - 1 <= cap
        }
        if not states:
            break
    return states


def pda_accepts(g: GnfGrammar, w: bytes) -> bool:
    """Nondeterministic PDA run from stack (S): accept iff the stack is
    empty exactly when the input ends."""
    if not w:
        return g.start_derives_epsilon
    return () in _pda_run(g, w, prune=True)


def pda_prefix_viable(g: GnfGrammar, w: bytes) -> bool:
    """True iff some PDA path consumes all of ``w`` from stack (S).

    For a GNF grammar with every nonterminal productive this is exactly
    prefix-language membership.
    """
    return not w or bool(_pda_run(g, w, prune=False))
