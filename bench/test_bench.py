"""Self-tests for the benchmark: ``python3 -m pytest -q bench``."""

from __future__ import annotations

import random
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import cfgzip as cz  # noqa: E402
import gen  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import REF_S, Speedometer  # noqa: E402


def test_generators_are_deterministic_per_seed():
    assert gen.json_grammar() == gen.json_grammar()
    assert gen.expr_grammar(3) == gen.expr_grammar(3)
    assert gen.expr_vocabulary(3) == gen.expr_vocabulary(3)
    assert gen.expr_docs(3, 5) == gen.expr_docs(3, 5)
    assert gen.toolcall_docs(3, 5) == gen.toolcall_docs(3, 5)
    assert gen.longtext_docs(3, 2) == gen.longtext_docs(3, 2)
    pool = gen.substring_pool(500, corpus_docs=100)
    assert pool == gen.substring_pool(500, corpus_docs=100)
    assert gen.bpe_vocabularies(pool, 400, 3, seed=1) == gen.bpe_vocabularies(pool, 400, 3, seed=1)
    # Different seeds give different inputs.
    assert gen.toolcall_docs(3, 5) != gen.toolcall_docs(4, 5)
    assert gen.expr_grammar(3) != gen.expr_grammar(4)
    assert gen.bpe_vocabularies(pool, 400, 3, seed=1) != gen.bpe_vocabularies(pool, 400, 3, seed=2)


def test_vocabulary_draws_hold_the_same_tokens_for_every_seed():
    pool = gen.substring_pool(500, corpus_docs=100)
    one, two = gen.bpe_vocabularies(pool, 400, 3, seed=1), gen.bpe_vocabularies(pool, 400, 3, seed=2)
    assert [set(t) for t, _ in one] == [set(t) for t, _ in two]
    assert [t for t, _ in one] != [t for t, _ in two]


def test_vocabulary_draws_are_disjoint_and_cover_the_pool():
    pool = gen.substring_pool(600, corpus_docs=100)
    draws = gen.bpe_vocabularies(pool, 457, 3, seed=9)
    subs = [set(tokens[256:eos]) for tokens, eos in draws]
    assert all(len(s) == 200 for s in subs)
    assert not (subs[0] & subs[1]) and not (subs[1] & subs[2]) and not (subs[0] & subs[2])
    assert set().union(*subs) == set(pool)
    for tokens, eos in draws:
        assert tokens[:256] == [bytes([b]) for b in range(256)] and tokens[eos] == gen.EOS


def test_targets_are_in_the_language_and_tokenization_round_trips():
    pool = gen.substring_pool(800, corpus_docs=300)
    tokens, _ = gen.bpe_vocabularies(pool, 1024, 1, seed=5)[0]
    s0 = cz.new_state(cz.validate(cz.parse_grammar(gen.json_grammar())))
    for doc in gen.toolcall_docs(5, 50) + gen.longtext_docs(5, 3):
        ids = gen.greedy_tokenize(doc, tokens)
        assert b"".join(tokens[i] for i in ids) == doc
        assert any(len(tokens[i]) > 1 for i in ids)
        assert cz.try_advance(s0, doc).complete
    expr_tokens, _ = gen.expr_vocabulary(5)
    e0 = cz.new_state(cz.validate(cz.parse_grammar(gen.expr_grammar(5))))
    for doc in gen.expr_docs(5, 30):
        ids = gen.greedy_tokenize(doc, expr_tokens)
        assert b"".join(expr_tokens[i] for i in ids) == doc
        assert cz.try_advance(e0, doc).complete


def _small_json_run(tmp_path):
    run = wl.Run(Tracer(False), tmp_path, random.Random(0))
    pool = gen.substring_pool(143, corpus_docs=200)
    tokens, eos = gen.bpe_vocabularies(pool, 400, 1, seed=7)[0]
    inp = wl.Inputs(gen.json_grammar(), tokens, eos)
    _, vocab, _ = run.load_inputs(inp)
    c = run.compile(inp, vocab, tmp_path / "cache.czc")
    return run, c


def _merge(tbl, keep: int, drop: int):
    """``tbl`` with class ``drop`` folded into class ``keep``."""
    c = tbl.c.astype(np.int64)
    c[c == drop] = keep
    c[c > drop] -= 1
    return cz.ClassTable(
        c=c.astype(np.uint32),
        r=np.delete(tbl.r, drop),
        class_count=tbl.class_count - 1,
        grammar_digest=tbl.grammar_digest,
        vocab_digest=tbl.vocab_digest,
        passthrough=frozenset(k - (k > drop) for k in tbl.passthrough),
    )


def test_checks_pass_on_the_real_table(tmp_path):
    run, c = _small_json_run(tmp_path)
    run.serve(c, cz.new_state(c.g), iter(gen.toolcall_docs(7, 100)), seconds=0, min_steps=60, naive_rate=1.0, probe=True)
    assert run.failed == 0, run.problems
    assert run.attempted == 1 + run.stream.steps
    assert len(run.stream.naive_ms) == run.stream.requests >= 2 and run.stream.trial_us


def test_checks_bite_on_a_merged_table(tmp_path):
    run, c = _small_json_run(tmp_path)
    tbl = c.tbl
    keep, drop = int(tbl.c[ord("a")]), int(tbl.c[ord('"')])
    assert keep != drop
    merged = replace(c, tbl=_merge(tbl, keep, drop))
    run.serve(merged, cz.new_state(c.g), iter(gen.toolcall_docs(7, 100)), seconds=0, min_steps=60, naive_rate=1.0, probe=False)
    assert run.failed > 0
    assert run.failed / run.attempted > 0


def test_compile_check_catches_a_bad_representative(tmp_path):
    run, c = _small_json_run(tmp_path)
    assert run.failed == 0
    tbl = c.tbl
    lengths = np.array([len(t) for t in c.vocab.tokens])
    spread = [np.ptp(lengths[tbl.c == k]) for k in range(tbl.class_count)]
    k = int(np.argmax(spread))
    assert spread[k] > 0
    r = tbl.r.copy()
    r[k] = np.flatnonzero(tbl.c == k)[np.argmax(lengths[tbl.c == k])]
    bad = replace(tbl, r=r)
    cz.save_cache(bad, c.cache_path)
    run.check_table(bad, c.vocab.tokens, c.cache_path)
    assert run.failed == 1 and "byte-shortest" in run.problems[0]


def test_speedometer_scales_an_interval_by_the_probes_around_it():
    sp = Speedometer()
    sp.ends = [1.0, 2.0, 3.0, 4.0, 5.0]
    sp.probes = [REF_S, REF_S / 2, REF_S / 2, REF_S, REF_S / 4]
    sp.handler_s = [0.1] * 5
    # Ticks 2 and 3 fall inside; ticks 1 and 4 are the neighbours.
    assert sp.scaled(1.5, 3.5) == pytest.approx((2.0 - 0.2) * (1 + 2 + 2 + 1) / 4)
    assert sp.scaled(5.5, 6.0) == pytest.approx(0.5 * 4)


def test_speedometer_samples_while_running_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sp = Speedometer()
    sp.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
    finally:
        sp.stop()
    assert len(sp.probes) >= 5 and all(p > 0 for p in sp.probes)
    assert signal.getsignal(signal.SIGALRM) is before
    assert 0 < sp.scaled(t0, t0 + 0.2) < 0.2 * REF_S / min(sp.probes) + 1e-9


@pytest.mark.parametrize("trace", ["0", "1"])
def test_exits_nonzero_without_the_program(tmp_path, trace):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "compile-expr", "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert p.returncode != 0
    assert p.stdout == ""
