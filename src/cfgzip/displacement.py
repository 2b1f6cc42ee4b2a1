"""Stack displacements, found by a forward walk over a byte trie of tokens.

A token's displacement is the set of (input stack, output stack) pairs
the PDA can realise while consuming exactly that token: the input stack
is the sequence of symbols that had to be hypothesised at the bottom of
the stack (via backtracks), the output stack is whatever is left when the
last byte is consumed.  Tokens with equal displacement sets are
interchangeable under the grammar, which is what the class table exploits.

The walk mirrors the nondeterministic PDA byte by byte, forward.  Its
state set after a prefix maps (output stack, previous symbol) to the set
of input queues that reach it.  A byte pops the top of the output stack
and pushes a tail; when the output stack is empty the walk "backtracks":
it picks a production producing the byte, appends its head to every
input queue and continues with its tail.  Backtracks are pruned through
the stack-adjacency relation keyed on the previous symbol (the most
recent pop, or the previously enqueued head when backtracks chain); the
first byte has no predecessor and is never pruned.

A state set depends only on the bytes consumed so far, so the sweep walks
the distinct tokens in sorted byte order and keeps one state set per
depth: each token starts from the deepest state set it shares with the
token before it.  The node budget counts the states expanded along a
token's bytes, its shared prefix included, so a token's outcome does not
depend on the tokens swept with it.  Once a prefix is over budget, every
token extending it is a fallback and is not walked again.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

from .adjacency import StackAdjacency
from .gnf import GnfGrammar

DEFAULT_NODE_BUDGET = 10_000_000

EMPTY_PAIRS: frozenset = frozenset()


class SearchBudgetExceeded(RuntimeError):
    """The walk over one token expanded more states than its node budget."""

    def __init__(self, token: bytes, budget: int):
        self.token = token
        self.budget = budget
        super().__init__(f"displacement walk for token {token!r} exceeded {budget} states")


@dataclass(frozen=True)
class Displacement:
    """Set of (input stack, output stack) pairs for one token.

    Equality and hashing go through the frozenset, so class identity is
    independent of discovery order; ``sorted_pairs`` gives the canonical
    ordering used for dumps and serialisation.
    """

    pairs: frozenset

    def __bool__(self) -> bool:
        return bool(self.pairs)

    def sorted_pairs(self) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
        return sorted(self.pairs)

    def max_input_len(self) -> int:
        return max((len(a) for a, _ in self.pairs), default=0)


EPSILON_DISPLACEMENT = Displacement(frozenset({((), ())}))


# The state set before any byte: empty output stack, no previous symbol,
# one empty input queue; and the number of states expanded to reach it.
_START = ({((), None): frozenset({()})}, 0)


def _step(
    states: dict, byte: int, g: GnfGrammar, adj: StackAdjacency | None, depth: int
) -> dict:
    """Advance a state set by one byte, the ``depth``-th of the token."""
    found: dict[tuple, list] = {}
    for (out, prev), queues in states.items():
        if out:
            top, rest = out[0], out[1:]
            for tail in g.delta(byte, top):
                found.setdefault((tail + rest, top), []).append(queues)
        else:
            allowed = None if adj is None or prev is None else adj.after(prev)
            # A backtrack consumes a byte, so no input stack outgrows the token.
            assert max(map(len, queues)) < depth, "input stack outgrew the token"
            for head, tail in g.by_byte.get(byte, ()):
                if allowed is not None and head not in allowed:
                    continue
                moved = frozenset(q + (head,) for q in queues)
                found.setdefault((tail, head), []).append(moved)
    return {k: v[0] if len(v) == 1 else frozenset().union(*v) for k, v in found.items()}


def _extend(
    levels: list, token: bytes, g: GnfGrammar, adj: StackAdjacency | None, budget: int
) -> bool:
    """Walk ``token`` on from the deepest state set in ``levels``.

    ``levels[d]`` holds the state set after ``token[:d]`` and the states
    expanded to reach it; one level is appended per byte.  Returns False,
    leaving the levels reached so far, once more than ``budget`` states
    would be expanded.
    """
    for byte in token[len(levels) - 1 :]:
        states, expanded = levels[-1]
        expanded += len(states)
        if expanded > budget:
            return False
        levels.append((_step(states, byte, g, adj, len(levels)), expanded))
    return True


def _displacement(states: dict) -> Displacement:
    return Displacement(
        frozenset((q, out) for (out, _), queues in states.items() for q in queues)
    )


def _trivial(token: bytes, g: GnfGrammar) -> Displacement | None:
    """The displacement of a token that needs no walk, else None."""
    if not token:
        # The empty token moves no stack: a dedicated always-congruent value.
        return EPSILON_DISPLACEMENT
    if not g.alphabet.issuperset(token):
        return Displacement(EMPTY_PAIRS)
    return None


def compute_displacement(
    token: bytes,
    g: GnfGrammar,
    adj: StackAdjacency | None,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Displacement:
    """Walk one token.

    Passing ``adj=None`` disables backtrack pruning (the raw search),
    which explores every hypothetical input stack.  Raises
    SearchBudgetExceeded when more than ``budget`` states are expanded.
    """
    d = _trivial(token, g)
    if d is not None:
        return d
    levels = [_START]
    if not _extend(levels, token, g, adj, budget):
        raise SearchBudgetExceeded(token, budget)
    return _displacement(levels[-1][0])


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
    This is a backward, memoized search sharing no code with the forward
    walk, so the check stays independent of it.
    """
    if not token:
        return EPSILON_DISPLACEMENT, EPSILON_DISPLACEMENT
    if any(b not in g.alphabet for b in token):
        empty = Displacement(EMPTY_PAIRS)
        return empty, empty

    n = len(token)
    nodes = 0
    memo: dict[tuple, frozenset] = {}

    def search(pos: int, out: tuple[str, ...], prev: str | None) -> frozenset:
        # Elements are (appended input symbols, final stack, all checks passed).
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(token, budget)
        key = (pos, out, prev)
        got = memo.get(key)
        if got is not None:
            return got
        if pos == n:
            res = frozenset({((), out, True)})
        elif not out:
            acc = set()
            for head, tail in g.by_byte.get(token[pos], ()):
                ok_here = prev is None or (prev, head) in adj
                for appended, final, ok in search(pos + 1, tail, head):
                    acc.add(((head,) + appended, final, ok and ok_here))
            res = frozenset(acc)
        else:
            acc = set()
            top = out[0]
            rest = out[1:]
            for tail in g.delta(token[pos], top):
                acc |= search(pos + 1, tail + rest, top)
            res = frozenset(acc)
        memo[key] = res
        return res

    triples = search(0, (), None)
    raw = Displacement(frozenset((a, f) for a, f, _ in triples))
    filtered = Displacement(frozenset((a, f) for a, f, ok in triples if ok))
    return raw, filtered


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
    determinism.  Exponential in the worst case: intended for small
    inspection grammars only.
    """
    if not token:
        return [((), (), ())]
    n = len(token)
    results = []
    nodes = 0

    def walk(pos, inq, out, steps):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(token, budget)
        if pos == n:
            results.append((inq, out, tuple(steps)))
            return
        byte = token[pos]
        if not out:
            for head, tail in g.by_byte.get(byte, ()):
                step = TraceStep(byte, head, tail, True, inq + (head,), tail)
                walk(pos + 1, inq + (head,), tail, steps + [step])
        else:
            top, rest = out[0], out[1:]
            for tail in g.delta(byte, top):
                new_out = tail + rest
                step = TraceStep(byte, top, tail, False, inq, new_out)
                walk(pos + 1, inq, new_out, steps + [step])

    walk(0, (), (), [])
    return sorted(results, key=lambda t: (t[0], t[1]))


@dataclass
class SweepResult:
    """Displacements for a whole vocabulary plus budget bookkeeping."""

    displacements: list
    budget_exceeded: list


def compute_all_displacements(
    vocab_tokens,
    g: GnfGrammar,
    adj: StackAdjacency | None,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SweepResult:
    """Displacement sweep over a vocabulary.

    Byte-identical tokens are computed once, and the distinct tokens are
    walked in sorted byte order, each from the deepest state set it shares
    with the token walked before it.  Every token's displacement equals
    ``compute_displacement``'s, budget included: tokens that blow the
    budget get ``None`` entries (the class table gives them safe singleton
    classes), and the sweep itself never aborts.

    The cyclic garbage collector is paused during the sweep and left as
    the caller had it.  The sweep builds no reference cycles, but it
    allocates millions of tuples and sets, and collections triggered by
    those allocations would traverse them over and over.
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
    distinct: dict[bytes, Displacement | None] = dict.fromkeys(tokens)
    levels = [_START]
    path = b""  # the bytes walked to reach levels[-1]
    over: bytes | None = None  # the last prefix found over budget
    for t in sorted(distinct):
        d = _trivial(t, g)
        if d is None:
            if over is not None and t.startswith(over):
                continue
            shared = 0
            for a, b in zip(path, t):
                if a != b:
                    break
                shared += 1
            del levels[shared + 1 :]
            if _extend(levels, t, g, adj, budget):
                d = _displacement(levels[-1][0])
            else:
                over = t[: len(levels)]
            path = t[: len(levels) - 1]
        distinct[t] = d

    displacements = [distinct[t] for t in tokens]
    exceeded = [i for i, d in enumerate(displacements) if d is None]
    return SweepResult(displacements=displacements, budget_exceeded=exceeded)
