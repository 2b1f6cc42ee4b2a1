"""Where the speedup comes from: mask latency, naive versus compressed.

The naive mask trial-advances every vocabulary token; the compressed mask
tries the class representatives only, in one walk over their byte trie
that shares the frontiers of common prefixes.  This demo constructs a
vocabulary whose class ratio is around 10:1 (long letter runs inside JSON
strings all behave identically) and measures both paths on the same
decoding walk.
"""

import itertools
import statistics

import numpy as np

from cfgzip import (
    FuzzConfig,
    Vocabulary,
    build_class_table,
    build_stack_adjacency,
    compute_all_displacements,
    fuzz_decode,
    parse_grammar,
    to_gnf,
    validate,
)

JSON_MINI = """
value ::= string | number | array | object
string ::= "\\"" chars "\\""
chars ::= "" | char chars
char ::= "a" | "b"
number ::= "-" digits | digits
digits ::= digit | digit digits
digit ::= "0" | "1"
array ::= "[" "]" | "[" elements "]"
elements ::= value | value "," elements
object ::= "{" "}" | "{" members "}"
members ::= pair | pair "," members
pair ::= string ":" value
"""

g = validate(parse_grammar(JSON_MINI))
gnf = to_gnf(g)
adj = build_stack_adjacency(gnf)

letters = [ord("a"), ord("b")]
alpha = sorted(g.alphabet)
tokens = [bytes(p) for n in range(1, 8) for p in itertools.product(letters, repeat=n)]
tokens.extend(bytes([b]) for b in alpha)
tokens.extend(bytes(p) for p in itertools.product(alpha, repeat=2))
tokens.append(b"\x00")
eos = len(tokens) - 1
vocab = Vocabulary(tokens=tuple(tokens), specials=frozenset({eos}), eos_id=eos)

sweep = compute_all_displacements(vocab.tokens, gnf, adj)
tbl = build_class_table(vocab, sweep.displacements)
print(f"|T|={len(vocab)} |E|={tbl.class_count} class ratio={tbl.class_count/len(vocab):.3f}")

report = fuzz_decode(g, vocab, tbl, FuzzConfig(seed=5, steps=50, runs=6))
naive, comp = report.mask_times_ns()


def stats(ns):
    arr = np.asarray(ns) / 1000.0
    return f"mean={arr.mean():8.1f}us  p50={np.percentile(arr, 50):8.1f}us  p99={np.percentile(arr, 99):8.1f}us"


print(f"steps measured: {len(naive)}")
print("naive     ", stats(naive))
print("compressed", stats(comp))
ratio = statistics.fmean(comp) / statistics.fmean(naive)
print(f"per-step time ratio: {ratio:.4f}  (speedup {1/ratio:.1f}x)")
print(f"mask mismatches: {report.total_mismatches} (lossless by construction)")
