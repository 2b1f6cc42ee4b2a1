"""Command-line pipeline: compile, verify, bench, inspect.

Every subcommand reads ``--grammar``, ``--vocab``, ``--cache`` and
``--format``; beyond those, each takes only the flags it reads:

- compile: ``--budget`` for the sweep, ``--dump-gnf``; it reports the
  seconds of each stage, the GNF's size, the distinct displacements'
  pair count, and the sweep's distinct state sets and byte steps;
- verify: ``--seed/--steps/--runs`` for the fuzz, ``--congruence-pairs/-bound``;
- bench: ``--seed/--steps/--runs`` for the fuzz; a mask mismatch in it
  is a verification failure;
- inspect: ``--budget`` for the class listing, ``--token-id``, ``--dump-adjacency``;
  tokens print as hex ``bytes`` and as escaped ``text``.

Exit codes are a stable contract: 0 success, 1 verification failure
(a corrupt or stale cache included), 2 input error.  Each subcommand
builds its output records once: ``--format json-lines`` prints each as
one JSON object, and text (the default) prints the same keys as
``key=value`` pairs.  verify's ``first_failure`` is the first mask
mismatch, else the first refuted pair, else the first structure problem.
The default cache location honours the CFGZIP_CACHE_DIR environment
variable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from .adjacency import build_stack_adjacency
from .classtable import (
    CacheError,
    build_class_table,
    load_cache,
    load_vocabulary,
    save_cache,
)
from .displacement import compute_all_displacements
from .fuzz import FuzzConfig, fuzz_decode
from .gnf import render_gnf, to_gnf
from .grammar import GrammarSource, parse_grammar, validate
from .grammar import _escape_bytes
from .oracle import oracle_congruence_sample

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2


def _emit(records, fmt: str):
    """Print each record: as sorted JSON, or as ``key=value`` pairs in
    record order, where lists, dicts and None print as JSON."""
    for rec in records:
        if fmt == "json-lines":
            print(json.dumps(rec, sort_keys=True))
        else:
            print(
                " ".join(
                    f"{k}={json.dumps(v) if v is None or isinstance(v, (list, dict)) else v}"
                    for k, v in rec.items()
                )
            )


def _load_grammar(ns):
    grammar_bytes = Path(ns.grammar).read_bytes()
    g = validate(parse_grammar(GrammarSource(grammar_bytes.decode("utf-8"), ns.grammar)))
    return g, hashlib.sha256(grammar_bytes).digest()


def _load_inputs(ns):
    g, gdig = _load_grammar(ns)
    vocab = load_vocabulary(ns.vocab)
    return g, vocab, gdig, vocab.digest()


def _default_cache_path(gdig: bytes, vdig: bytes) -> Path:
    base = Path(os.environ.get("CFGZIP_CACHE_DIR", "."))
    return base / f"{gdig.hex()[:12]}-{vdig.hex()[:12]}.czc"


def cmd_compile(ns) -> int:
    t_start = time.perf_counter()
    g, vocab, gdig, vdig = _load_inputs(ns)
    stages: dict[str, float] = {}

    def timed(stage, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        stages[stage] = round(time.perf_counter() - t0, 6)
        return out

    gnf = timed("gnf_s", to_gnf, g)
    if ns.dump_gnf:
        Path(ns.dump_gnf).write_text(render_gnf(gnf))
    adj = timed("adjacency_s", build_stack_adjacency, gnf)
    sweep = timed("sweep_s", compute_all_displacements, vocab.tokens, gnf, adj, budget=ns.budget)
    tbl = timed(
        "classing_s",
        build_class_table,
        vocab,
        sweep.displacements,
        grammar_digest=gdig,
        vocab_digest=vdig,
    )
    cache_path = Path(ns.cache) if ns.cache else _default_cache_path(gdig, vdig)
    cache_path.parent.mkdir(parents=True, exist_ok=True)
    timed("save_s", save_cache, tbl, cache_path)
    wall = round(time.perf_counter() - t_start, 6)
    # Equal displacements share a key, so each distinct one counts once.
    pairs = sum(map(len, {d.key for d in sweep.displacements if d is not None}))
    _emit(
        [
            {
                "tokens": tbl.token_count,
                "classes": tbl.class_count,
                "ratio": round(tbl.compression_ratio(), 3),
                "budget_fallbacks": len(sweep.budget_exceeded),
                "gnf_productions": len(gnf.productions),
                "pairs": pairs,
                "state_sets": sweep.state_sets,
                "steps": sweep.steps,
                **stages,
                "wall_s": wall,
                "cache": str(cache_path),
            }
        ],
        ns.format,
    )
    return EXIT_OK


def _load_cache_for(ns, gdig, vdig):
    cache_path = Path(ns.cache) if ns.cache else _default_cache_path(gdig, vdig)
    return load_cache(cache_path, grammar_digest=gdig, vocab_digest=vdig)


def _fuzz(ns, g, vocab, tbl):
    return fuzz_decode(g, vocab, tbl, FuzzConfig(seed=ns.seed, steps=ns.steps, runs=ns.runs))


def cmd_verify(ns) -> int:
    g, vocab, gdig, vdig = _load_inputs(ns)
    tbl = _load_cache_for(ns, gdig, vdig)

    # Structural invariants first: partition, self-map, minimality.
    problems = []
    for k in range(tbl.class_count):
        rid = int(tbl.r[k])
        if int(tbl.c[rid]) != k:
            problem = f"representative {rid} is in class {int(tbl.c[rid])}"
            problems.append({"class": k, "problem": problem})
    members = tbl.class_members()
    for k, mem in enumerate(members):
        if not mem:
            problems.append({"class": k, "problem": "empty"})
            continue
        rep_len = len(vocab.tokens[int(tbl.r[k])])
        if any(len(vocab.tokens[m]) < rep_len for m in mem):
            problems.append({"class": k, "problem": "representative is not byte-shortest"})

    # Refinement spot check: same-class pairs must never be refuted.  It
    # runs before the fuzz, so a grammar the oracle refuses to enumerate
    # (exit 2) is reported without waiting for the fuzz.
    refuted = 0
    checked_pairs = 0
    first_refuted = None
    if ns.congruence_pairs > 0:
        for k, mem in enumerate(members):
            if k in tbl.passthrough or checked_pairs >= ns.congruence_pairs:
                continue
            rep_tok = vocab.tokens[int(tbl.r[k])]
            seen = {rep_tok}
            for m in mem:
                if checked_pairs >= ns.congruence_pairs:
                    break
                tok = vocab.tokens[m]
                if tok in seen:
                    continue
                seen.add(tok)
                checked_pairs += 1
                if not oracle_congruence_sample(g, rep_tok, tok, ns.congruence_bound):
                    refuted += 1
                    if first_refuted is None:
                        first_refuted = {"class": k, "rep": rep_tok.hex(), "member": tok.hex()}

    # Losslessness sweep: expanded compressed masks must equal naive masks.
    # The first failure reported is a mask mismatch, else a refuted pair,
    # else a structure problem.
    report = _fuzz(ns, g, vocab, tbl)
    mismatches = report.total_mismatches
    first = next(
        (run.first_mismatch for run in report.runs if run.first_mismatch),
        first_refuted or next(iter(problems), None),
    )

    ok = not problems and mismatches == 0 and refuted == 0
    _emit(
        [
            {
                "fuzz_steps": report.total_steps,
                "mask_mismatches": mismatches,
                "structure_problems": len(problems),
                "congruence_pairs": checked_pairs,
                "congruence_refuted": refuted,
                "first_failure": first,
                "ok": ok,
            }
        ],
        ns.format,
    )
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _quantiles(values):
    if not values:
        return {"mean_us": None, "p50_us": None, "p99_us": None}
    arr = np.asarray(values, dtype=np.float64) / 1000.0
    return {
        "mean_us": round(float(arr.mean()), 2),
        "p50_us": round(float(np.percentile(arr, 50)), 2),
        "p99_us": round(float(np.percentile(arr, 99)), 2),
    }


def cmd_bench(ns) -> int:
    g, vocab, gdig, vdig = _load_inputs(ns)
    tbl = _load_cache_for(ns, gdig, vdig)
    report = _fuzz(ns, g, vocab, tbl)
    all_naive, all_comp = report.mask_times_ns()
    stuck = sum(1 for r in report.runs if r.outcome == "stuck")
    mismatches = report.total_mismatches
    records = []
    for run in report.runs:
        run_naive = [st.naive_ns for st in run.steps]
        run_comp = [st.compressed_ns for st in run.steps if st.compressed_ns is not None]
        records.append(
            {
                "record": "run",
                "seed": run.seed,
                "run": run.run_index,
                "outcome": run.outcome,
                "steps": len(run.steps),
                "naive_total_ms": round(sum(run_naive) / 1e6, 3),
                "compressed_total_ms": round(sum(run_comp) / 1e6, 3),
            }
        )
    speedup = (
        round(statistics.fmean(all_naive) / statistics.fmean(all_comp), 2)
        if all_comp and all_naive
        else None
    )
    summary = {
        "record": "summary",
        "tokens": tbl.token_count,
        "classes": tbl.class_count,
        "naive": _quantiles(all_naive),
        "compressed": _quantiles(all_comp),
        "speedup": speedup,
        "stuck_runs_excluded": stuck,
        "mask_mismatches": mismatches,
    }
    _emit(records + [summary], ns.format)
    return EXIT_OK if mismatches == 0 else EXIT_VERIFY_FAILED


def cmd_inspect(ns) -> int:
    if ns.dump_adjacency:
        g, _ = _load_grammar(ns)
        adj = build_stack_adjacency(to_gnf(g))
        _emit([{"before": y, "after": z} for y, z in adj.sorted_pairs()], ns.format)
        return EXIT_OK

    g, vocab, gdig, vdig = _load_inputs(ns)
    tbl = _load_cache_for(ns, gdig, vdig)
    if ns.token_id is not None:
        tid = ns.token_id
        if not 0 <= tid < tbl.token_count:
            print(f"inspect: token id {tid} out of range", file=sys.stderr)
            return EXIT_INPUT_ERROR
        k = int(tbl.c[tid])
        rep = int(tbl.r[k])
        _emit(
            [
                {
                    "token": tid,
                    "bytes": vocab.tokens[tid].hex(),
                    "text": _escape_bytes(vocab.tokens[tid]),
                    "class": k,
                    "representative": rep,
                    "representative_text": _escape_bytes(vocab.tokens[rep]),
                }
            ],
            ns.format,
        )
        return EXIT_OK

    # Tag never-valid and over-budget classes by re-sweeping the representatives.
    gnf = to_gnf(g)
    reps = [vocab.tokens[int(rep_id)] for rep_id in tbl.r]
    disps = compute_all_displacements(
        reps, gnf, build_stack_adjacency(gnf), budget=ns.budget
    ).displacements
    members = tbl.class_members()
    records = []
    order = sorted(range(tbl.class_count), key=lambda k: (-len(members[k]), k))
    for k in order:
        rep_id = int(tbl.r[k])
        rep_bytes = reps[k]
        tags = []
        if k in tbl.passthrough:
            tags.append("pass-through")
        elif disps[k] is None:
            tags.append("budget fallback")
        elif not disps[k]:
            tags.append("never valid")
        records.append(
            {
                "class": k,
                "representative": rep_id,
                "bytes": rep_bytes.hex(),
                "text": _escape_bytes(rep_bytes),
                "size": len(members[k]),
                "members": [_escape_bytes(vocab.tokens[m]) for m in members[k][:5]],
                "tags": tags,
            }
        )
    non_special = tbl.token_count - sum(len(members[k]) for k in tbl.passthrough)
    records.append(
        {
            "classes": tbl.class_count,
            "tokens": tbl.token_count,
            "non_special_tokens": non_special,
        }
    )
    _emit(records, ns.format)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="cfgzip", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def inputs(p):
        p.add_argument("--grammar", required=True, help="grammar file")
        p.add_argument("--vocab", required=True, help="vocabulary file (hex lines)")
        p.add_argument("--cache", help="cache file (default: CFGZIP_CACHE_DIR)")
        p.add_argument("--format", choices=["text", "json-lines"], default="text")

    def budget(p):
        p.add_argument(
            "--budget",
            type=int,
            default=10_000_000,
            help="cap on search states expanded along one token's bytes, "
            "plus the next step's bound on what it builds",
        )

    def fuzz(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--steps", type=int, default=50, help="max tokens per run")
        p.add_argument("--runs", type=int, default=4, help="seeded decoding runs")

    p = sub.add_parser("compile", help="precompute and cache the class table")
    inputs(p)
    budget(p)
    p.add_argument("--dump-gnf", help="also write the GNF grammar to this path")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("verify", help="check losslessness and class structure")
    inputs(p)
    fuzz(p)
    p.add_argument("--congruence-pairs", type=int, default=50)
    p.add_argument("--congruence-bound", type=int, default=4)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="measure naive vs compressed mask latency")
    inputs(p)
    fuzz(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("inspect", help="list classes or query a token")
    inputs(p)
    budget(p)
    p.add_argument("--token-id", type=int, help="query one token id")
    p.add_argument(
        "--dump-adjacency",
        action="store_true",
        help="print the stack-adjacency pairs instead of the class listing",
    )
    p.set_defaults(func=cmd_inspect)
    return top


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except CacheError as exc:
        print(f"{ns.command}: cache failed to load: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (OSError, ValueError) as exc:
        print(f"cfgzip: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
