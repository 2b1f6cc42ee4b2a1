"""How a token moves stacks: the displacement search step by step.

Reproduces the worked example from the test suite: a six-byte token over
a small inspection grammar, showing the backtrack at 'a' (hypothesising A
at the stack bottom), the pops of B and C, the second backtrack at 'x',
and the final displacement pair (A X) -> (J K).
"""

from cfgzip import (
    GnfGrammar,
    build_rightmost_graph,
    build_stack_adjacency,
    compute_displacement,
    trace_displacement,
)

toy = GnfGrammar(
    nonterminals=("A", "B", "C", "X", "Y", "Z", "J", "K"),
    alphabet=frozenset(b"abcxyz"),
    productions=(
        ("A", ord("a"), ("B", "C")),
        ("B", ord("b"), ()),
        ("C", ord("c"), ()),
        ("X", ord("x"), ("Y",)),
        ("Y", ord("y"), ("Z", "J", "K")),
        ("Z", ord("z"), ()),
    ),
    start="A",
)

token = b"abcxyz"
for inq, out, steps in trace_displacement(token, toy):
    print(f"accepting path: input stack {inq}, output stack {out}")
    for s in steps:
        kind = "backtrack" if s.backtrack else "pop      "
        print(
            f"  byte {chr(s.byte)!r}: {kind} {s.head} -> {s.tail or '()'}   "
            f"in={s.input_queue} out={s.output_stack}"
        )

d = compute_displacement(token, toy, None)
print("\ndisplacement:", d.sorted_pairs())

# The adjacency relation prunes backtrack hypotheses.  For this fragment,
# only B-before-C and Z-before-J are admissible pop pairs:
h = build_rightmost_graph(toy)
adj = build_stack_adjacency(toy)
print("rightmost graph edges:", {k: sorted(v) for k, v in h.edges.items()})
print("stack adjacency:", adj.sorted_pairs())
