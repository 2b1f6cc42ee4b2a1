"""The four subcommands and their exit-code contract."""

import argparse
import dataclasses
import json
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from cfgzip import (
    Vocabulary,
    build_stack_adjacency,
    compute_all_displacements,
    load_cache,
    load_vocabulary,
    save_cache,
    to_gnf,
)
from cfgzip.cli import build_parser, main

from conftest import GRAMMARS, rewrite_cache_id, suite_grammar, suite_vocabulary


@pytest.fixture()
def dyck1_files(tmp_path):
    grammar = tmp_path / "dyck1.cfg"
    grammar.write_text(GRAMMARS["dyck1"] + "\n")
    vocab = tmp_path / "dyck1.vocab"
    vocab.write_text(suite_vocabulary("dyck1", long_tokens=10).render())
    cache = tmp_path / "dyck1.czc"
    return grammar, vocab, cache


def run_cli(*args):
    return main([str(a) for a in args])


def compile_args(grammar, vocab, cache, *extra):
    return ["compile", "--grammar", grammar, "--vocab", vocab, "--cache", cache, *extra]


def test_compile_writes_cache_and_summary(dyck1_files, capsys):
    grammar, vocab, cache = dyck1_files
    assert run_cli(*compile_args(grammar, vocab, cache)) == 0
    out = capsys.readouterr().out
    assert "tokens=" in out and "classes=" in out and "ratio=" in out and "fallbacks=0" in out
    assert cache.exists()


def test_compile_deterministic_bytes(dyck1_files, tmp_path):
    grammar, vocab, cache = dyck1_files
    other = tmp_path / "again.czc"
    assert run_cli(*compile_args(grammar, vocab, cache)) == 0
    assert run_cli(*compile_args(grammar, vocab, other)) == 0
    assert cache.read_bytes() == other.read_bytes()


def test_compile_strict_compression_on_mini_c(tmp_path, capsys):
    grammar = tmp_path / "mini.cfg"
    grammar.write_text(GRAMMARS["mini_c"] + "\n")
    vocab = tmp_path / "mini.vocab"
    vocab.write_text(suite_vocabulary("mini_c").render())
    cache = tmp_path / "mini.czc"
    assert run_cli(*compile_args(grammar, vocab, cache, "--format", "json-lines")) == 0
    rec = json.loads(capsys.readouterr().out.strip())
    assert rec["classes"] < rec["tokens"]


def test_compile_reports_stage_breakdown(tmp_path, capsys):
    grammar = tmp_path / "arith.cfg"
    grammar.write_text(GRAMMARS["arith"] + "\n")
    vocab = tmp_path / "arith.vocab"
    vocab.write_text(suite_vocabulary("arith").render())
    cache = tmp_path / "arith.czc"
    assert run_cli(*compile_args(grammar, vocab, cache, "--format", "json-lines")) == 0
    rec = json.loads(capsys.readouterr().out.strip())
    stages = ["gnf_s", "adjacency_s", "sweep_s", "classing_s", "save_s"]
    counts = ["gnf_productions", "pairs", "state_sets", "steps"]
    for key in stages + counts + ["wall_s"]:
        assert rec[key] >= 0, key
    assert sum(rec[k] for k in stages) <= rec["wall_s"]
    assert all(rec[k] > 0 for k in counts)
    # The sweep's counters are its own: one step per distinct (state set,
    # byte), fewer than the bytes of the walked tokens.
    gnf = to_gnf(suite_grammar("arith"))
    tokens = suite_vocabulary("arith").tokens
    sweep = compute_all_displacements(tokens, gnf, build_stack_adjacency(gnf))
    assert (rec["state_sets"], rec["steps"]) == (sweep.state_sets, sweep.steps)
    walked = sum(len(t) for t in set(tokens) if gnf.alphabet.issuperset(t))
    assert rec["state_sets"] <= rec["steps"] < walked
    assert run_cli(*compile_args(grammar, vocab, cache)) == 0
    text = capsys.readouterr().out
    assert all(f"{k}=" in text for k in stages + counts)
    assert f"state_sets={rec['state_sets']} steps={rec['steps']} " in text


def test_compile_bad_grammar_exits_2(tmp_path, capsys):
    grammar = tmp_path / "bad.cfg"
    grammar.write_text('root ::= "a\n')
    vocab = tmp_path / "v.vocab"
    vocab.write_text("61\n")
    assert run_cli(*compile_args(grammar, vocab, tmp_path / "c.czc")) == 2
    assert "line 1" in capsys.readouterr().err


def test_compile_missing_file_exits_2(tmp_path, capsys):
    assert run_cli(*compile_args(tmp_path / "nope.cfg", tmp_path / "nope.vocab", "x.czc")) == 2


def test_compile_oversized_gnf_exits_2(tmp_path, capsys):
    # 21 nullable symbols in one body: epsilon elimination refuses to explode.
    grammar = tmp_path / "big.cfg"
    grammar.write_text("root ::= " + " ".join(["opt"] * 21) + '\nopt ::= "x" | ""\n')
    vocab = tmp_path / "v.vocab"
    vocab.write_text("78\n")
    cache = tmp_path / "big.czc"
    assert run_cli(*compile_args(grammar, vocab, cache)) == 2
    assert capsys.readouterr().err.startswith("cfgzip: ")
    assert not cache.exists()
    assert not list(tmp_path.glob("*.czc"))


def test_compile_dump_gnf(dyck1_files, tmp_path):
    grammar, vocab, cache = dyck1_files
    dump = tmp_path / "dyck1.gnf"
    assert run_cli(*compile_args(grammar, vocab, cache, "--dump-gnf", dump)) == 0
    text = dump.read_text()
    assert "::=" in text
    from cfgzip import parse_grammar, validate

    validate(parse_grammar(text))  # the dump reparses


def test_verify_fresh_cache_passes(dyck1_files, capsys):
    grammar, vocab, cache = dyck1_files
    run_cli(*compile_args(grammar, vocab, cache))
    rc = run_cli(
        "verify", "--grammar", grammar, "--vocab", vocab, "--cache", cache,
        "--steps", "25", "--runs", "4", "--congruence-pairs", "20",
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "mismatches=0" in out and "refuted=0" in out and "ok=True" in out


def test_verify_corrupted_cache_fails(dyck1_files, capsys):
    grammar, vocab, cache = dyck1_files
    run_cli(*compile_args(grammar, vocab, cache))
    data = bytearray(cache.read_bytes())
    data[len(data) // 2] ^= 1
    cache.write_bytes(bytes(data))
    rc = run_cli("verify", "--grammar", grammar, "--vocab", vocab, "--cache", cache)
    assert rc == 1
    assert "checksum" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "bench", "inspect"])
@pytest.mark.parametrize("field", ["r", "passthrough"])
def test_out_of_range_cache_ids_fail_to_load(dyck1_files, command, field, capsys):
    # The checksum is valid; only one representative or pass-through id is wrong.
    grammar, vocab, cache = dyck1_files
    run_cli(*compile_args(grammar, vocab, cache))
    rewrite_cache_id(cache, field, 99)
    rc = run_cli(command, "--grammar", grammar, "--vocab", vocab, "--cache", cache)
    err = capsys.readouterr().err
    assert rc == 1
    assert f"{command}: cache failed to load" in err and "out of range" in err
    assert "Traceback" not in err


def test_verify_stale_cache_fails(dyck1_files, tmp_path, capsys):
    grammar, vocab, cache = dyck1_files
    run_cli(*compile_args(grammar, vocab, cache))
    vocab.write_text(suite_vocabulary("dyck1", long_tokens=11).render())
    rc = run_cli("verify", "--grammar", grammar, "--vocab", vocab, "--cache", cache)
    assert rc == 1
    assert "different vocabulary" in capsys.readouterr().err


def test_cache_is_keyed_on_vocabulary_content(dyck1_files, tmp_path):
    # A file with uppercase hex and a comment holds the same vocabulary as
    # its canonical rendering, so a cache built from one verifies with the other.
    grammar, vocab, cache = dyck1_files
    canonical = vocab.read_text()
    lines = canonical.splitlines()
    specials = [ln for ln in lines if ln.startswith("#special")]
    tokens = [ln.upper() for ln in lines if not ln.startswith("#")]
    vocab.write_text("\n".join(specials + ["# uppercase hex"] + tokens) + "\n")
    assert load_vocabulary(vocab).render() == canonical
    assert run_cli(*compile_args(grammar, vocab, cache)) == 0
    vocab.write_text(canonical)
    assert run_cli("verify", "--grammar", grammar, "--vocab", vocab, "--cache", cache) == 0


def wide_files(tmp_path):
    """A compiled grammar with 40 one-byte alternatives: 40^4 = 2.56M
    strings of 4 bytes, more than the congruence oracle enumerates.  "a"
    and "b" share a class, so verify's congruence check has a pair."""
    grammar = tmp_path / "wide.cfg"
    alts = " | ".join(f'"{chr(b)}"' for b in b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMN")
    grammar.write_text(f's ::= c s | ""\nc ::= {alts}\n')
    vocab = tmp_path / "wide.vocab"
    vocab.write_text(Vocabulary((b"a", b"b", b"ab", b"\x00"), frozenset({3}), 3).render())
    cache = tmp_path / "wide.czc"
    assert run_cli(*compile_args(grammar, vocab, cache)) == 0
    return grammar, vocab, cache


def test_verify_fails_fast_on_too_many_short_strings(tmp_path, capsys):
    # The congruence check must stop with an input error.
    grammar, vocab, cache = wide_files(tmp_path)
    capsys.readouterr()
    start = time.perf_counter()
    rc = run_cli(
        "verify", "--grammar", grammar, "--vocab", vocab, "--cache", cache,
        "--steps", "5", "--runs", "1", "--congruence-bound", "4",
    )
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert rc == 2
    assert "at most 4 bytes" in err and "lower the bound" in err
    assert elapsed < 20  # the guard stops the enumeration in about 0.1 s


def test_verify_checks_congruence_before_the_fuzz(tmp_path, capsys, monkeypatch):
    # The oracle's input error comes before any fuzz step is spent.
    grammar, vocab, cache = wide_files(tmp_path)

    def no_fuzz(*args, **kwargs):
        raise AssertionError("the fuzz ran before the congruence check")

    monkeypatch.setattr("cfgzip.cli.fuzz_decode", no_fuzz)
    rc = run_cli(
        "verify", "--grammar", grammar, "--vocab", vocab, "--cache", cache,
        "--congruence-bound", "4",
    )
    assert rc == 2
    assert "lower the bound" in capsys.readouterr().err


def write_lossy_cache(grammar, vocab, cache):
    """Compile, then put ")" in the class of "(": a cache whose compressed
    mask differs from the naive one at the first step."""
    run_cli(*compile_args(grammar, vocab, cache))
    tbl = load_cache(cache)
    tokens = load_vocabulary(vocab).tokens
    c = tbl.c.copy()
    c[tokens.index(b")")] = c[tokens.index(b"(")]
    save_cache(dataclasses.replace(tbl, c=c), cache)


def test_verify_reports_a_mask_mismatch_ahead_of_a_refuted_pair(dyck1_files, capsys):
    # On the lossy cache the fuzz finds a mask mismatch at the first step
    # and the congruence check refutes the pair.  The fuzz mismatch is the
    # failure reported, although the pair is checked first.
    grammar, vocab, cache = dyck1_files
    write_lossy_cache(grammar, vocab, cache)
    capsys.readouterr()
    rc = run_cli(
        "verify", "--grammar", grammar, "--vocab", vocab, "--cache", cache,
        "--steps", "5", "--runs", "1", "--format", "json-lines",
    )
    rec = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert rec["mask_mismatches"] > 0 and rec["congruence_refuted"] > 0
    assert rec["first_failure"]["step"] == 0 and "rep" not in rec["first_failure"]


def test_verify_names_a_class_whose_representative_is_not_shortest(dyck1_files, capsys):
    # The only fault is a representative swapped for a longer member of its
    # class: no mask mismatch, no refuted pair, one structure problem, which
    # both formats report as the first failure.
    grammar, vocab, cache = dyck1_files
    run_cli(*compile_args(grammar, vocab, cache))
    tbl = load_cache(cache)
    tokens = load_vocabulary(vocab).tokens
    k, longer = next(
        (k, m)
        for k, mem in enumerate(tbl.class_members())
        for m in mem
        if len(tokens[m]) > len(tokens[int(tbl.r[k])])
    )
    r = tbl.r.copy()
    r[k] = longer
    save_cache(dataclasses.replace(tbl, r=r), cache)
    capsys.readouterr()
    verify = ["verify", "--grammar", grammar, "--vocab", vocab, "--cache", cache,
              "--steps", "10", "--runs", "2"]
    assert run_cli(*verify, "--format", "json-lines") == 1
    rec = json.loads(capsys.readouterr().out)
    assert rec["ok"] is False and rec["structure_problems"] == 1
    assert (rec["mask_mismatches"], rec["congruence_refuted"]) == (0, 0)
    assert rec["first_failure"]["class"] == k
    assert run_cli(*verify) == 1
    text = capsys.readouterr().out
    assert f"first_failure={json.dumps(rec['first_failure'])} ok=False" in text


def test_bench_json_lines_and_speedup(dyck1_files, capsys):
    grammar, vocab, cache = dyck1_files
    run_cli(*compile_args(grammar, vocab, cache))
    capsys.readouterr()  # drain compile output
    rc = run_cli(
        "bench", "--grammar", grammar, "--vocab", vocab, "--cache", cache,
        "--steps", "20", "--runs", "3", "--format", "json-lines",
    )
    assert rc == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().split("\n")]
    runs = [r for r in lines if r["record"] == "run"]
    summary = [r for r in lines if r["record"] == "summary"]
    assert len(runs) == 3 and len(summary) == 1
    s = summary[0]
    assert s["naive"]["mean_us"] > 0 and s["compressed"]["mean_us"] > 0
    assert s["speedup"] is not None
    assert s["mask_mismatches"] == 0
    for r in runs:
        assert {"outcome", "steps", "naive_total_ms", "compressed_total_ms"} <= set(r)


def test_bench_fails_on_mask_mismatches(dyck1_files, capsys):
    grammar, vocab, cache = dyck1_files
    write_lossy_cache(grammar, vocab, cache)
    bench = ["bench", "--grammar", grammar, "--vocab", vocab, "--cache", cache,
             "--steps", "20", "--runs", "3"]
    capsys.readouterr()
    assert run_cli(*bench, "--format", "json-lines") == 1
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().split("\n")]
    summary = [r for r in lines if r["record"] == "summary"]
    assert len(summary) == 1 and summary[0]["mask_mismatches"] > 0
    assert run_cli(*bench) == 1
    text = capsys.readouterr().out.strip().split("\n")[-1]
    assert f"mismatches={summary[0]['mask_mismatches']}" in text


def test_bench_naive_cost_scales_linearly_in_vocab(tmp_path):
    # Mean naive mask time against |T| for 100/1k/10k-token vocabularies
    # fits a line: dead-token checks dominate and are constant-cost.
    import random

    from cfgzip import FuzzConfig, Vocabulary, fuzz_decode
    from conftest import suite_grammar

    g = suite_grammar("dyck1")
    rng = random.Random(9)
    sizes = [100, 1000, 10000]
    means = []
    for size in sizes:
        tokens = [
            bytes(rng.choice(b"()") for _ in range(rng.randint(1, 6))) for _ in range(size - 1)
        ]
        tokens.append(b"\x00")
        vocab = Vocabulary(
            tokens=tuple(tokens), specials=frozenset({size - 1}), eos_id=size - 1
        )
        report = fuzz_decode(g, vocab, None, FuzzConfig(seed=4, steps=12, runs=2))
        naive, _ = report.mask_times_ns()
        means.append(sum(naive) / len(naive))
    x = np.array(sizes, dtype=float)
    y = np.array(means)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    assert 1 - ss_res / ss_tot >= 0.9
    assert means[2] > means[0]


def test_bench_speedup_tracks_class_ratio_for_duplicates(tmp_path):
    # Ten byte-identical copies of each token: |E|/|T| lands near 0.1, the
    # measured speedup is at least 5x, and the compressed mask does exactly
    # the work it does on the deduplicated vocabulary: it closes the same
    # frontiers in every state.
    import itertools
    import statistics

    from cfgzip import (
        FuzzConfig,
        Vocabulary,
        build_class_table,
        build_stack_adjacency,
        compute_all_displacements,
        compute_mask_compressed,
        fuzz_decode,
        new_state,
        to_gnf,
        try_advance,
    )
    from conftest import counting_closes, suite_grammar

    g = suite_grammar("dyck1")
    gnf = to_gnf(g)
    adj = build_stack_adjacency(gnf)
    distinct = [bytes(p) for n in range(1, 4) for p in itertools.product(b"()", repeat=n)]
    tokens = tuple(distinct * 10) + (b"\x00",)
    eos = len(tokens) - 1
    vocab = Vocabulary(tokens=tokens, specials=frozenset({eos}), eos_id=eos)
    sweep = compute_all_displacements(vocab.tokens, gnf, adj)
    tbl = build_class_table(vocab, sweep.displacements)
    class_ratio = tbl.class_count / len(vocab)
    assert 0.05 <= class_ratio <= 0.15
    report = fuzz_decode(g, vocab, tbl, FuzzConfig(seed=8, steps=40, runs=4))
    naive, comp = report.mask_times_ns()
    speedup = statistics.fmean(naive) / statistics.fmean(comp)
    assert speedup >= 5.0, f"speedup {speedup:.1f}x below 5x"

    tokens = tuple(distinct) + (b"\x00",)
    eos = len(tokens) - 1
    dedup = Vocabulary(tokens=tokens, specials=frozenset({eos}), eos_id=eos)
    dedup_tbl = build_class_table(dedup, compute_all_displacements(tokens, gnf, adj).displacements)
    prefixes = [bytes(p) for n in range(7) for p in itertools.product(b"()", repeat=n)]
    states = [s for s in (try_advance(new_state(g), p) for p in prefixes) if s is not None]
    closes = []
    for v, t in ((vocab, tbl), (dedup, dedup_tbl)):
        with counting_closes() as closed:
            for s in states:
                compute_mask_compressed(s, t, v)
        closes.append(closed)
    assert sum(closes[0].values()) > 0
    assert closes[0] == closes[1]


def test_compressed_unaffected_by_byte_duplicates(tmp_path, capsys):
    # Duplicating tokens byte-for-byte leaves |E| unchanged.
    grammar = tmp_path / "g.cfg"
    grammar.write_text(GRAMMARS["dyck1"] + "\n")
    base = suite_vocabulary("dyck1", long_tokens=10)
    v1 = tmp_path / "v1.vocab"
    v1.write_text(base.render())
    doubled = base.tokens[: base.eos_id] * 2 + (base.tokens[base.eos_id],)
    from cfgzip import (
    Vocabulary,
    build_stack_adjacency,
    compute_all_displacements,
    load_cache,
    load_vocabulary,
    save_cache,
    to_gnf,
)

    v2 = tmp_path / "v2.vocab"
    v2.write_text(
        Vocabulary(
            tokens=doubled, specials=frozenset({len(doubled) - 1}), eos_id=len(doubled) - 1
        ).render()
    )
    sizes = []
    for v, c in ((v1, tmp_path / "c1.czc"), (v2, tmp_path / "c2.czc")):
        run_cli(*compile_args(grammar, v, c, "--format", "json-lines"))
        sizes.append(json.loads(capsys.readouterr().out.strip())["classes"])
    assert sizes[0] == sizes[1]


def test_inspect_lists_classes_and_tags(tmp_path, capsys):
    # arith has dead tokens (juxtaposed operands like "nn" fit no context).
    grammar = tmp_path / "arith.cfg"
    grammar.write_text(GRAMMARS["arith"] + "\n")
    vocab = tmp_path / "arith.vocab"
    vocab.write_text(suite_vocabulary("arith", long_tokens=5).render())
    cache = tmp_path / "arith.czc"
    run_cli(*compile_args(grammar, vocab, cache))
    rc = run_cli("inspect", "--grammar", grammar, "--vocab", vocab, "--cache", cache)
    out = capsys.readouterr().out
    assert rc == 0
    assert "never valid" in out
    assert "pass-through" in out


def test_inspect_partition_sums(dyck1_files, capsys):
    grammar, vocab, cache = dyck1_files
    run_cli(*compile_args(grammar, vocab, cache))
    capsys.readouterr()  # drain compile output
    run_cli(
        "inspect", "--grammar", grammar, "--vocab", vocab, "--cache", cache,
        "--format", "json-lines",
    )
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().split("\n")]
    classes = [r for r in lines if "size" in r]
    totals = [r for r in lines if "non_special_tokens" in r][0]
    assert sum(r["size"] for r in classes) == totals["tokens"]
    specials = sum(r["size"] for r in classes if "pass-through" in r.get("tags", []))
    assert totals["non_special_tokens"] == totals["tokens"] - specials


def test_inspect_token_query(dyck1_files, capsys):
    grammar, vocab, cache = dyck1_files
    run_cli(*compile_args(grammar, vocab, cache))
    capsys.readouterr()  # drain compile output
    rc = run_cli(
        "inspect", "--grammar", grammar, "--vocab", vocab, "--cache", cache,
        "--token-id", "0", "--format", "json-lines",
    )
    assert rc == 0
    rec = json.loads(capsys.readouterr().out.strip())
    assert rec["token"] == 0 and "class" in rec and "representative" in rec


def test_inspect_dump_adjacency(dyck1_files, capsys):
    grammar, vocab, cache = dyck1_files
    run_cli(*compile_args(grammar, vocab, cache))
    capsys.readouterr()
    rc = run_cli(
        "inspect", "--grammar", grammar, "--vocab", vocab, "--cache", cache,
        "--dump-adjacency",
    )
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert out, "expected at least one adjacency pair for dyck1"
    assert all(len(line.split()) == 2 for line in out)


def test_inspect_dump_adjacency_reads_only_the_grammar(dyck1_files, tmp_path, capsys):
    grammar, _, _ = dyck1_files
    rc = run_cli(
        "inspect", "--grammar", grammar, "--vocab", tmp_path / "nope.vocab",
        "--cache", tmp_path / "nope.czc", "--dump-adjacency",
    )
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert out and all(len(line.split()) == 2 for line in out)


def test_inspect_tags_budget_fallbacks(tmp_path, capsys):
    # At budget 50 the mini_c sweep gives 137 tokens singleton classes; the
    # listing re-sweeps their representatives and tags them instead of raising.
    grammar = tmp_path / "mini.cfg"
    grammar.write_text(GRAMMARS["mini_c"] + "\n")
    vocab = tmp_path / "mini.vocab"
    vocab.write_text(suite_vocabulary("mini_c").render())
    cache = tmp_path / "mini.czc"
    assert run_cli(*compile_args(grammar, vocab, cache, "--budget", "50")) == 0
    capsys.readouterr()
    rc = run_cli(
        "inspect", "--grammar", grammar, "--vocab", vocab, "--cache", cache,
        "--budget", "50", "--format", "json-lines",
    )
    assert rc == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().split("\n")]
    fallbacks = [r for r in lines if "budget fallback" in r.get("tags", [])]
    assert len(fallbacks) == 137
    assert all(r["size"] == 1 for r in fallbacks)


def test_inspect_unknown_token_exits_2(dyck1_files, capsys):
    grammar, vocab, cache = dyck1_files
    run_cli(*compile_args(grammar, vocab, cache))
    rc = run_cli(
        "inspect", "--grammar", grammar, "--vocab", vocab, "--cache", cache,
        "--token-id", "99999",
    )
    assert rc == 2


def test_cache_dir_env_var(dyck1_files, tmp_path, monkeypatch, capsys):
    grammar, vocab, _ = dyck1_files
    cache_dir = tmp_path / "cachehome"
    monkeypatch.setenv("CFGZIP_CACHE_DIR", str(cache_dir))
    assert run_cli("compile", "--grammar", grammar, "--vocab", vocab) == 0
    out = capsys.readouterr().out
    written = list(cache_dir.glob("*.czc"))
    assert len(written) == 1
    assert str(written[0]) in out
    assert (
        run_cli("verify", "--grammar", grammar, "--vocab", vocab, "--steps", "10", "--runs", "2")
        == 0
    )


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cfgzip.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "compile" in proc.stdout and "inspect" in proc.stdout


class _ReadRecorder(argparse.Namespace):
    """A namespace that records which attributes are read after parsing."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "__dict__").setdefault("_reads", set()).add(name)
        return object.__getattribute__(self, name)


def _unread_flags(argv):
    ns = build_parser().parse_args([str(a) for a in argv], namespace=_ReadRecorder())
    accepted = {k for k in vars(ns) if not k.startswith("_")} - {"command", "func"}
    ns.__dict__["_reads"] = set()
    assert ns.func(ns) == 0
    return accepted, ns.__dict__["_reads"]


def test_every_accepted_flag_is_read(dyck1_files, capsys):
    grammar, vocab, cache = dyck1_files
    files = ["--grammar", grammar, "--vocab", vocab, "--cache", cache]
    runs = {
        "compile": [[]],
        "verify": [["--steps", "5", "--runs", "1", "--congruence-pairs", "2"]],
        "bench": [["--steps", "5", "--runs", "1"]],
        "inspect": [[], ["--token-id", "0"], ["--dump-adjacency"]],
    }
    unread = {}
    for command, modes in runs.items():
        accepted, read = set(), set()
        for extra in modes:
            a, r = _unread_flags([command, *files, *extra])
            accepted |= a
            read |= r
        if accepted - read:
            unread[command] = sorted(accepted - read)
    capsys.readouterr()
    assert unread == {}


def test_json_lines_records_have_no_private_keys(dyck1_files, capsys):
    # The text of a record is for text mode only: no json-lines record of
    # any subcommand carries it, or any other key starting with "_".
    grammar, vocab, cache = dyck1_files
    files = ["--grammar", grammar, "--vocab", vocab, "--cache", cache, "--format", "json-lines"]
    runs = [
        ["compile"],
        ["verify", "--steps", "5", "--runs", "1", "--congruence-pairs", "2"],
        ["bench", "--steps", "5", "--runs", "2"],
        ["inspect"],
        ["inspect", "--token-id", "0"],
        ["inspect", "--dump-adjacency"],
    ]
    for command, *extra in runs:
        assert run_cli(command, *files, *extra) == 0
        records = [json.loads(l) for l in capsys.readouterr().out.strip().split("\n")]
        assert records, command
        for rec in records:
            assert not [k for k in rec if k.startswith("_")], (command, extra, rec)


def _text_value(value):
    return json.dumps(value) if value is None or isinstance(value, (list, dict)) else str(value)


def test_text_prints_the_json_lines_records(dyck1_files, capsys):
    # Text mode prints each record's keys as key=value pairs; json-lines
    # prints the same record with its keys sorted.  Where the output holds
    # no timings, each text line is the json-lines record, value for value.
    grammar, vocab, cache = dyck1_files
    files = ["--grammar", grammar, "--vocab", vocab, "--cache", cache]
    runs = [
        (["compile"], False),
        (["verify", "--steps", "5", "--runs", "1", "--congruence-pairs", "2"], True),
        (["bench", "--steps", "5", "--runs", "2"], False),
        (["inspect"], True),
        (["inspect", "--token-id", "3"], True),
        (["inspect", "--dump-adjacency"], True),
    ]
    for (command, *extra), deterministic in runs:
        assert run_cli(command, *files, *extra, "--format", "json-lines") == 0
        records = [json.loads(l) for l in capsys.readouterr().out.strip().split("\n")]
        assert run_cli(command, *files, *extra) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == len(records), command
        for line, rec in zip(lines, records):
            keys = re.findall(r"(?:^| )(\w+)=", line)
            assert len(set(keys)) == len(keys) and sorted(keys) == list(rec), (line, rec)
            if deterministic:
                assert line == " ".join(f"{k}={_text_value(rec[k])}" for k in keys)


@pytest.mark.parametrize("command", ["compile", "verify", "bench", "inspect"])
@pytest.mark.parametrize("flag", [["--seeds", "2"], ["--no-adjacency"]])
def test_removed_flags_are_rejected(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, "--grammar", "g", "--vocab", "v", *flag])
    assert exc.value.code == 2
