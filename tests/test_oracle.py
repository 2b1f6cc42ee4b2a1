"""The oracles themselves: membership, prefix, congruence, fuzz determinism."""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfgzip import (
    FuzzConfig,
    OracleBoundError,
    build_stack_adjacency,
    build_class_table,
    compute_all_displacements,
    context_signature,
    distinguishing_context,
    fuzz_decode,
    oracle_congruence_sample,
    oracle_membership,
    oracle_prefix,
    parse_grammar,
    pda_accepts,
    to_gnf,
    validate,
)
from cfgzip.oracle import bounded_language

from conftest import random_grammars, suite_grammar, suite_vocabulary


def test_membership_basics():
    dyck = suite_grammar("dyck1")
    assert oracle_membership(dyck, b"()") is True
    assert oracle_membership(dyck, b")(") is False
    assert oracle_membership(dyck, b"") is True
    arith = suite_grammar("arith")
    assert oracle_membership(arith, b"n+n") is True
    assert oracle_membership(arith, b"n+") is False


def test_membership_agrees_with_pda_exhaustively():
    # The GNF acceptance oracle: CYK on the original grammar and the
    # nondeterministic delta simulation must agree on every short string.
    g = suite_grammar("dyck2")
    gnf = to_gnf(g)
    for n in range(0, 7):
        for tup in itertools.product(sorted(g.alphabet), repeat=n):
            w = bytes(tup)
            assert oracle_membership(g, w) == pda_accepts(gnf, w), w


def test_membership_bound():
    g = suite_grammar("dyck1")
    with pytest.raises(OracleBoundError):
        oracle_membership(g, b"()" * 20)
    assert oracle_membership(g, b"()" * 20, bound=64) is True


def test_cnf_refuses_too_many_nullable_symbols_before_building_variants():
    # The first body's 20 nullable symbols pass the guard, the second's 21
    # do not; the 2^20 variants of the first must not be built either.
    names = [f"o{k}" for k in range(21)]
    text = "root ::= " + " ".join(names[:20]) + " | " + " ".join(names) + "\n"
    text += "\n".join(f'{name} ::= "x" | ""' for name in names)
    g = validate(parse_grammar(text))
    t0 = time.perf_counter()
    with pytest.raises(OracleBoundError, match="21 nullable symbols"):
        oracle_membership(g, b"xx")
    assert time.perf_counter() - t0 < 1.0


def test_prefix_basics():
    dyck = suite_grammar("dyck1")
    assert oracle_prefix(dyck, b"(((") is True
    assert oracle_prefix(dyck, b"())") is False  # unmatched close: frozen golden
    assert oracle_prefix(dyck, b"") is True
    assert oracle_prefix(suite_grammar("arith"), b"") is True


def test_prefix_by_exhaustive_completion():
    # Cross-check the straddle DP against explicit completion search.
    g = suite_grammar("dyck1")
    words = bounded_language(g, 10)
    for n in range(0, 5):
        for tup in itertools.product(sorted(g.alphabet), repeat=n):
            w = bytes(tup)
            brute = any(word[: len(w)] == w for word in words)
            assert oracle_prefix(g, w) == brute, w


def test_congruence_identical_tokens():
    g = suite_grammar("dyck1")
    assert oracle_congruence_sample(g, b"((", b"((", 4) is True


def test_congruence_refutes_open_close():
    g = suite_grammar("dyck1")
    assert oracle_congruence_sample(g, b"(", b")", 4) is False
    w, z = distinguishing_context(g, b"(", b")", 4)
    assert (oracle_membership(g, w + b"(" + z)) != (oracle_membership(g, w + b")" + z))


def _brute_signature(g, t, bound):
    alpha = sorted(g.alphabet)
    ctx = [bytes(p) for n in range(bound + 1) for p in itertools.product(alpha, repeat=n)]
    return frozenset((w, z) for w in ctx for z in ctx if oracle_membership(g, w + t + z))


# Bound 1 on the two larger alphabets keeps direct enumeration cheap.
BRUTE_FORCE_CASES = {
    "dyck1": (2, (b"(", b")", b"()", b"((", b"()(", b"(((")),
    "dyck2": (2, (b"[", b"(]", b"([", b"[]", b")(", b"([])")),
    "arith": (2, (b"n", b"+", b"n+n", b"(n)", b"nn", b"*(")),
    "json_mini": (1, (b'"', b"-1", b'a"', b"1,", b"{}", b'{"":1')),
    "mini_c": (1, (b";", b"x=1", b"if(", b"{;", b"=y()", b"y=x*1;")),
}


@pytest.mark.parametrize("name", sorted(BRUTE_FORCE_CASES))
def test_signature_matches_brute_force(name):
    # The segment fixpoint against direct enumeration of every context pair.
    g = suite_grammar(name)
    bound, tokens = BRUTE_FORCE_CASES[name]
    for t in (b"",) + tokens:
        assert context_signature(g, t, bound) == _brute_signature(g, t, bound), t


@st.composite
def small_grammars(draw):
    g, alphabet = draw(random_grammars(("free", "left", "unit", "eps")))
    # Tokens are random strings or infixes of words up to five bytes; the
    # infixes are the ones likely to have non-empty signatures.
    words = bounded_language(g, 5)
    infixes = sorted({w[i:j] for w in words for i in range(len(w)) for j in range(i + 1, i + 4)})
    tokens = st.lists(st.sampled_from(alphabet), min_size=1, max_size=3).map(bytes)
    if infixes:
        tokens = st.one_of(tokens, st.sampled_from(infixes))
    return g, draw(tokens)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(small_grammars())
def test_signature_matches_brute_force_on_random_grammars(case):
    g, t = case
    assert context_signature(g, t, 2) == _brute_signature(g, t, 2)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(random_grammars(("eps", "unit", "left")), st.integers(0, 5))
def test_bounded_language_matches_cyk_on_random_grammars(case, n):
    # The yield enumerator against CYK membership of every string of at
    # most n bytes, on grammars with epsilon, unit and left-recursive bodies.
    g, alphabet = case
    strings = [bytes(p) for k in range(n + 1) for p in itertools.product(alphabet, repeat=k)]
    assert bounded_language(g, n) == {w for w in strings if oracle_membership(g, w)}


def test_left_quotient_formulation():
    # Same-class tokens have identical bounded left quotients: for every
    # short prefix w, the completions of w+t and w+u coincide.
    g = suite_grammar("dyck1")
    t, u = b"(()", b"("  # certified congruent at bound 4
    assert oracle_congruence_sample(g, t, u, 4)
    alpha = sorted(g.alphabet)
    zs = [bytes(p) for n in range(5) for p in itertools.product(alpha, repeat=n)]
    for n in range(5):
        for tup in itertools.product(alpha, repeat=n):
            w = bytes(tup)
            qt = {z for z in zs if oracle_membership(g, w + t + z, bound=16)}
            qu = {z for z in zs if oracle_membership(g, w + u + z, bound=16)}
            assert qt == qu, w


def test_concatenation_preserves_certified_congruence():
    # Certified pairs compose: with t~u and t'~u' at bound 4, no context of
    # size up to 4 minus the length growth tells tt' from uu'.
    g = suite_grammar("dyck1")
    t, u = b"(()", b"("
    t2, u2 = b"())", b")"
    assert oracle_congruence_sample(g, t, u, 4)
    assert oracle_congruence_sample(g, t2, u2, 4)
    reduced_bound = 4 - max(map(len, (t, u, t2, u2)))
    alpha = sorted(g.alphabet)
    ctx = [bytes(p) for n in range(reduced_bound + 1) for p in itertools.product(alpha, repeat=n)]
    for w in ctx:
        for z in ctx:
            assert oracle_membership(g, w + t + t2 + z) == oracle_membership(
                g, w + u + u2 + z
            ), (w, z)


def test_pipeline_classes_never_refuted_small():
    # Spot form of the refinement theorem (the acceptance suite does all
    # classes on all grammars): displacement-equal implies congruent.
    g = suite_grammar("dyck1")
    gnf = to_gnf(g)
    adj = build_stack_adjacency(gnf)
    vocab = suite_vocabulary("dyck1", long_tokens=10)
    sweep = compute_all_displacements(vocab.tokens, gnf, adj)
    tbl = build_class_table(vocab, sweep.displacements)
    members = tbl.class_members()
    for k, mem in enumerate(members):
        if k in tbl.passthrough:
            continue
        rep = vocab.tokens[int(tbl.r[k])]
        for tid in mem:
            assert oracle_congruence_sample(g, rep, vocab.tokens[tid], 4), (rep, vocab.tokens[tid])


def test_fuzz_deterministic_repeat():
    g = suite_grammar("arith")
    vocab = suite_vocabulary("arith", long_tokens=5)
    cfg = FuzzConfig(seed=42, steps=15, runs=3)
    a = fuzz_decode(g, vocab, None, cfg)
    b = fuzz_decode(g, vocab, None, cfg)
    assert [r.output for r in a.runs] == [r.output for r in b.runs]
    assert [r.outcome for r in a.runs] == [r.outcome for r in b.runs]
    assert [[s.sampled_token for s in r.steps] for r in a.runs] == [
        [s.sampled_token for s in r.steps] for r in b.runs
    ]
    assert [[s.state_digest for s in r.steps] for r in a.runs] == [
        [s.state_digest for s in r.steps] for r in b.runs
    ]


def test_fuzz_completed_outputs_are_words():
    g = suite_grammar("json_mini")
    vocab = suite_vocabulary("json_mini", long_tokens=10)
    report = fuzz_decode(g, vocab, None, FuzzConfig(seed=2, steps=12, runs=6))
    completed = [r for r in report.runs if r.outcome == "completed"]
    assert completed, "expected at least one completed run"
    for r in completed:
        assert oracle_membership(g, r.output, bound=64)
