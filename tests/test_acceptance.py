"""Acceptance criteria.

One test per criterion; each prints an `ACCEPTANCE <name>: PASS/FAIL`
line (visible with ``pytest -s`` or in captured output).  Tolerances are
pinned here and nowhere else: the mask and congruence checks are
zero-tolerance, the speedup check allows 2.5x slack on the ideal ratio,
and the cache budget is exactly one mebibyte.

Run: ``pytest tests/test_acceptance.py -v -s``
"""

import itertools
import os
import random
import statistics
import time

import pytest

import cfgzip as cz
from cfgzip.gnf import gnf_to_cfg
from cfgzip.oracle import bounded_language

from conftest import (
    GRAMMARS,
    figure_grammar,
    hosted_figure_grammar,
    suite_grammar,
    suite_vocabulary,
)

SEEDS = 5
STEPS_PER_SEED = 1000
CONTEXT_BOUND = 4


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def pipelines():
    out = {}
    for name in sorted(GRAMMARS):
        g = suite_grammar(name)
        gnf = cz.to_gnf(g)
        adj = cz.build_stack_adjacency(gnf)
        vocab = suite_vocabulary(name)
        sweep = cz.compute_all_displacements(vocab.tokens, gnf, adj)
        tbl = cz.build_class_table(vocab, sweep.displacements)
        out[name] = (g, gnf, adj, vocab, sweep, tbl)
    return out


def test_losslessness_zero_tolerance(pipelines):
    # Expanded compressed masks must equal naive masks on 100% of steps
    # across the whole suite, five seeds, 1000 steps each.
    t0 = time.perf_counter()
    total_steps = 0
    mismatches = 0
    first = None
    for name, (g, _, _, vocab, _, tbl) in pipelines.items():
        for seed in range(SEEDS):
            rep = cz.fuzz_decode(
                g,
                vocab,
                tbl,
                cz.FuzzConfig(seed=seed, steps=100, runs=400),
                stop_after_steps=STEPS_PER_SEED,
            )
            assert rep.total_steps >= STEPS_PER_SEED, (name, seed, rep.total_steps)
            total_steps += rep.total_steps
            mismatches += rep.total_mismatches
            for run in rep.runs:
                if run.first_mismatch and first is None:
                    first = (name, run.first_mismatch)
    wall = time.perf_counter() - t0
    report(
        "losslessness",
        mismatches == 0,
        f"steps={total_steps} mismatches={mismatches} wall={wall:.0f}s"
        + (f" first={first}" if first else ""),
    )


def test_refinement_zero_refuted_pairs(pipelines):
    # Every pipeline-assigned class: the bounded-context oracle must refute
    # no representative/member pair.
    pairs = refuted = 0
    witness = None
    for name, (g, _, _, vocab, _, tbl) in pipelines.items():
        members = tbl.class_members()
        for k, mem in enumerate(members):
            if k in tbl.passthrough:
                continue
            rep_tok = vocab.tokens[int(tbl.r[k])]
            seen = {rep_tok}
            for tid in mem:
                tok = vocab.tokens[tid]
                if tok in seen:
                    continue
                seen.add(tok)
                pairs += 1
                if not cz.oracle_congruence_sample(g, rep_tok, tok, CONTEXT_BOUND):
                    refuted += 1
                    if witness is None:
                        ctx = cz.distinguishing_context(g, rep_tok, tok, CONTEXT_BOUND)
                        witness = (name, k, rep_tok, tok, ctx)
    report(
        "theorem2-refinement",
        refuted == 0,
        f"pairs={pairs} refuted={refuted}" + (f" witness={witness}" if witness else ""),
    )


def test_same_class_substitution_preserves_prefix_validity(pipelines):
    # 200 random element-wise same-class substitutions per grammar must
    # not change prefix validity of the concatenated bytes.
    violations = 0
    checked = 0
    for name, (g, _, _, vocab, _, tbl) in pipelines.items():
        rng = random.Random(2024)
        members = tbl.class_members()
        normal_ids = [i for i in range(len(vocab)) if i not in vocab.specials]
        done = 0
        while done < 200:
            k = rng.randint(1, 5)
            ids = [rng.choice(normal_ids) for _ in range(k)]
            tau = b"".join(vocab.tokens[i] for i in ids)
            if len(tau) > 20:
                continue
            subs = [rng.choice(members[int(tbl.c[i])]) for i in ids]
            tau2 = b"".join(vocab.tokens[i] for i in subs)
            done += 1
            checked += 1
            if cz.oracle_prefix(g, tau, bound=40) != cz.oracle_prefix(g, tau2, bound=40):
                violations += 1
    report(
        "theorem1-substitution",
        violations == 0,
        f"substitutions={checked} violations={violations}",
    )


def test_gnf_language_agreement_exhaustive(pipelines):
    # Membership of every string up to 8 bytes agrees between the original
    # grammar and its GNF: word sets computed by derivation closure on each
    # side are compared as sets, which covers the whole cube.
    bad = []
    for name, (g, gnf, _, _, _, _) in pipelines.items():
        orig_words = bounded_language(g, 8)
        gnf_words = bounded_language(gnf_to_cfg(gnf), 8)
        if orig_words != gnf_words:
            bad.append((name, sorted(orig_words ^ gnf_words)[:3]))
        if gnf.start_derives_epsilon != (b"" in orig_words):
            bad.append((name, "epsilon flag"))
    report("gnf-correctness", not bad, f"grammars={len(pipelines)} disagreements={bad}")


def test_adjacency_pruning_losslessness(pipelines):
    # (a) Verification outcomes with pruning disabled match the default;
    # (b) per token, the pruned displacement equals the raw search filtered
    # by replayed adjacency checks.
    filter_mismatches = []
    verify_results = []
    for name, (g, gnf, adj, vocab, _, tbl) in pipelines.items():
        raw_sweep = cz.compute_all_displacements(vocab.tokens, gnf, None)
        raw_tbl = cz.build_class_table(vocab, raw_sweep.displacements)
        for which, table in (("pruned", tbl), ("raw", raw_tbl)):
            rep = cz.fuzz_decode(
                g, vocab, table, cz.FuzzConfig(seed=77, steps=60, runs=6)
            )
            verify_results.append((name, which, rep.total_mismatches == 0))
        for token in dict.fromkeys(vocab.tokens):
            raw, filtered = cz.compute_displacement_annotated(token, gnf, adj)
            pruned = cz.compute_displacement(token, gnf, adj)
            if frozenset(pruned.pairs) != frozenset(filtered.pairs):
                filter_mismatches.append((name, token))
    verify_ok = all(ok for _, _, ok in verify_results)
    same_outcome = len({ok for _, _, ok in verify_results}) == 1
    report(
        "adjacency-pruning-losslessness",
        verify_ok and same_outcome and not filter_mismatches,
        f"verify={verify_results if not verify_ok else 'all-pass'} "
        f"filter_mismatches={filter_mismatches[:3]}",
    )


def test_walkthrough_token_golden_trace():
    # The six-production inspection grammar: the raw search must find
    # exactly one displacement pair for "abcxyz" and walk the six recorded
    # steps; the host-wrapped variant reproduces it with pruning enabled.
    toy = figure_grammar()
    d = cz.compute_displacement(b"abcxyz", toy, None)
    golden_pair = (("A", "X"), ("J", "K"))
    ok = frozenset(d.pairs) == frozenset({golden_pair})
    paths = cz.trace_displacement(b"abcxyz", toy)
    ok = ok and len(paths) == 1
    inq, out, steps = paths[0]
    expected_snapshots = [
        (("A",), ("B", "C")),
        (("A",), ("C",)),
        (("A",), ()),
        (("A", "X"), ("Y",)),
        (("A", "X"), ("Z", "J", "K")),
        (("A", "X"), ("J", "K")),
    ]
    ok = ok and [(s.input_queue, s.output_stack) for s in steps] == expected_snapshots
    hosted = hosted_figure_grammar()
    hosted_adj = cz.build_stack_adjacency(hosted)
    hosted_pairs = cz.compute_displacement(b"abcxyz", hosted, hosted_adj).pairs
    ok = ok and frozenset(hosted_pairs) == frozenset({golden_pair})
    report("walkthrough-golden-trace", ok, f"pairs={sorted(d.pairs)}")


def test_speedup_at_ten_to_one_compression():
    # Constructed vocabulary with a class ratio near 0.1: per-token
    # compressed mask time must be at most 0.25x the naive time.
    t0 = time.perf_counter()
    g = suite_grammar("json_mini")
    gnf = cz.to_gnf(g)
    adj = cz.build_stack_adjacency(gnf)
    letters = [ord("a"), ord("b")]
    alpha = sorted(g.alphabet)
    tokens = [bytes(p) for n in range(1, 8) for p in itertools.product(letters, repeat=n)]
    tokens.extend(bytes([b]) for b in alpha)
    tokens.extend(bytes(p) for p in itertools.product(alpha, repeat=2))
    tokens.append(b"\x00")
    eos = len(tokens) - 1
    vocab = cz.Vocabulary(tokens=tuple(tokens), specials=frozenset({eos}), eos_id=eos)
    sweep = cz.compute_all_displacements(vocab.tokens, gnf, adj)
    tbl = cz.build_class_table(vocab, sweep.displacements)
    class_ratio = tbl.class_count / len(vocab)
    rep = cz.fuzz_decode(g, vocab, tbl, cz.FuzzConfig(seed=5, steps=50, runs=6))
    naive, comp = rep.mask_times_ns()
    time_ratio = statistics.fmean(comp) / statistics.fmean(naive)
    wall = time.perf_counter() - t0
    ok = 0.05 <= class_ratio <= 0.2 and time_ratio <= 0.25
    report(
        "speedup-scaling",
        ok,
        f"|T|={len(vocab)} |E|={tbl.class_count} class_ratio={class_ratio:.3f} "
        f"time_ratio={time_ratio:.4f} (threshold 0.25) speedup={1/time_ratio:.1f}x "
        f"steps={rep.total_steps} wall={wall:.0f}s",
    )


def test_cache_size_128k_vocabulary(tmp_path):
    # A realistic-scale synthetic vocabulary: the cache file must fit in
    # one mebibyte.
    g = suite_grammar("dyck1")
    gnf = cz.to_gnf(g)
    adj = cz.build_stack_adjacency(gnf)
    rng = random.Random(99)
    count = 128256
    tokens = [
        bytes(rng.choice(b"()") for _ in range(rng.randint(1, 6))) for _ in range(count - 1)
    ]
    tokens.append(b"\x00")
    vocab = cz.Vocabulary(
        tokens=tuple(tokens), specials=frozenset({count - 1}), eos_id=count - 1
    )
    sweep = cz.compute_all_displacements(vocab.tokens, gnf, adj)
    tbl = cz.build_class_table(vocab, sweep.displacements)
    path = tmp_path / "large.czc"
    cz.save_cache(tbl, path)
    size = path.stat().st_size
    ok = size <= (1 << 20) and tbl.token_count == count
    report(
        "cache-size",
        ok,
        f"|T|={tbl.token_count} |E|={tbl.class_count} bytes={size} (cap {1 << 20})",
    )
    assert cz.load_cache(path) == tbl


@pytest.mark.skipif(
    not (os.environ.get("CFGZIP_REAL_VOCAB") and os.environ.get("CFGZIP_REAL_GRAMMAR")),
    reason="set CFGZIP_REAL_VOCAB and CFGZIP_REAL_GRAMMAR to run the data-dependent check",
)
def test_real_vocabulary_compression_ratio():
    # Optional, data-dependent: with a real ~128k-token vocabulary and a
    # JSON-subset grammar the compression ratio must beat 40:1.
    vocab = cz.load_vocabulary(os.environ["CFGZIP_REAL_VOCAB"])
    with open(os.environ["CFGZIP_REAL_GRAMMAR"], encoding="utf-8") as fh:
        g = cz.validate(cz.parse_grammar(fh.read()))
    gnf = cz.to_gnf(g)
    adj = cz.build_stack_adjacency(gnf)
    sweep = cz.compute_all_displacements(vocab.tokens, gnf, adj)
    tbl = cz.build_class_table(vocab, sweep.displacements)
    ratio = tbl.compression_ratio()
    report("real-vocab-ratio", ratio > 40.0, f"ratio={ratio:.1f}:1")
