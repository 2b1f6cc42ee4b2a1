"""Stack-adjacency precomputation for pruning displacement backtracks.

A backtrack hypothesises a fresh symbol at the bottom of the stack.  It
can only be correct if that symbol could actually be popped right after
the symbol whose consumption emptied the stack, in some parse from the
start symbol.  The pairs admissible that way form the stack-adjacency
relation computed here.

Only symbols with a unary production (``Y -> y``, empty tail) can empty
the stack on a pop, so only those appear as first components.  The
second components come from walking each production's tail: for a tail
``... B Z ...`` the symbol popped just before ``Z`` is the last symbol
to die inside ``B``'s subtree, which is found by chasing rightmost tail
symbols from ``B``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gnf import GnfGrammar
from .grammar import reachable


@dataclass(frozen=True)
class RightmostGraph:
    """Directed graph with an edge head -> last tail symbol per production."""

    vertices: tuple[str, ...]
    edges: dict

    def successors(self, nt: str) -> frozenset[str]:
        return self.edges.get(nt, frozenset())


@dataclass(frozen=True)
class StackAdjacency:
    """The set of (popped-before, popped-after) pairs admitting a backtrack."""

    pairs: frozenset
    by_first: dict

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair in self.pairs

    def after(self, nt: str) -> frozenset[str]:
        return self.by_first.get(nt, frozenset())

    def sorted_pairs(self) -> list[tuple[str, str]]:
        return sorted(self.pairs)


def build_rightmost_graph(g: GnfGrammar) -> RightmostGraph:
    """One vertex per nonterminal; edge A -> B per production A -> a ... B."""
    edges: dict[str, set[str]] = {}
    for head, _, tail in g.productions:
        if tail:
            edges.setdefault(head, set()).add(tail[-1])
    return RightmostGraph(
        vertices=tuple(g.nonterminals),
        edges={k: frozenset(v) for k, v in edges.items()},
    )


def build_stack_adjacency(g: GnfGrammar) -> StackAdjacency:
    """Pairs (Y, Z) such that Y can be popped immediately before Z.

    For every production tail position holding Z with a predecessor B, all
    symbols reachable from B in the rightmost graph (including B itself:
    an empty descent) that own a unary production are paired with Z.
    """
    h = build_rightmost_graph(g)
    unary_heads = {head for head, _, tail in g.productions if not tail}

    reach: dict[str, frozenset[str]] = {}
    pairs: set[tuple[str, str]] = set()
    for _, _, tail in g.productions:
        for idx in range(1, len(tail)):
            b, z = tail[idx - 1], tail[idx]
            if b not in reach:
                reach[b] = reachable(h.edges, (b,))
            for y in reach[b]:
                if y in unary_heads:
                    pairs.add((y, z))

    by_first: dict[str, set[str]] = {}
    for y, z in pairs:
        by_first.setdefault(y, set()).add(z)
    return StackAdjacency(
        pairs=frozenset(pairs),
        by_first={k: frozenset(v) for k, v in by_first.items()},
    )
