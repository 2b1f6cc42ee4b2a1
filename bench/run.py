"""cfgzip benchmark: one seeded workload per run.

    python3 bench/run.py --workload decode-toolcall --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; cfgzip is imported from its ``src``.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The inputs, the cache, the result and (traced) the spans
are written under ``bench/results/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_cfgzip():
    sys.path.insert(0, str(SRC))
    try:
        import cfgzip
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import cfgzip from {SRC}: {exc}")
    if Path(cfgzip.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"bench: cfgzip was imported from {cfgzip.__file__}, not from {SRC}")


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    _import_cfgzip()
    import workloads as wl
    from spans import Tracer, span_cost_ns
    from speed import REF_S, Speedometer

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)

    out_dir = ROOT / "bench" / "results" / f"{ns.workload}-seed{ns.seed}-trace{ns.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    tr = Tracer(bool(ns.trace))
    run = wl.Run(tr, out_dir, random.Random(f"checks:{ns.seed}"))
    speed = Speedometer()
    t0 = time.perf_counter()
    speed.start()
    try:
        wl.WORKLOADS[ns.workload](run, ns.seed, ns.seconds, bool(ns.trace))
    finally:
        speed.stop()
    wall_s = time.perf_counter() - t0

    e2e = wl.end_to_end(run, speed)
    raw = wl.end_to_end(run)
    fail_frac = run.failed / run.attempted
    print(f"workload {ns.workload} seed {ns.seed} trace {ns.trace}: wall {wall_s:.1f} s")
    print(
        f"  compiles {len(run.compiles)}, steps {run.stream.steps} in {run.stream.requests} requests, "
        f"naive checks {len(run.stream.naive_ms)}"
    )
    print(f"  times at reference speed (probe {REF_S * 1e6:g} us; {len(speed.probes)} probes, "
          f"median {_fmt(float(np.median(speed.probes)) * 1e6)} us); as measured in brackets")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<14} {_fmt(value):>12} {unit:<6} ({_fmt(raw[name][0])})")
    print(f"  {'fail_frac':<14} {_fmt(fail_frac):>12} fraction ({run.failed} of {run.attempted} operations)")
    for problem in run.problems:
        print(f"  FAILED: {problem}")
    buckets = wl.mask_buckets(run)
    print("  mask_ms by bytes emitted: " + ", ".join(
        f"{k} {_fmt(v) if v is not None else '-'} ({n} steps)" for k, (v, n) in buckets.items()
    ))

    result = {
        "workload": ns.workload,
        "seed": ns.seed,
        "trace": ns.trace,
        "wall_s": wall_s,
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_frac": fail_frac,
        "steps": run.stream.steps,
        "problems": run.problems,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "end_to_end_as_measured": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "mask_ms_by_out_bytes": {k: {"value": v, "steps": n} for k, (v, n) in buckets.items()},
        "replay": "cfgzip verify --grammar grammar.cfg --vocab vocab.vocab --cache cache.czc",
    }
    metrics = e2e
    if ns.trace:
        layers = wl.per_layer(run, tr, span_cost_ns(), wall_s)
        for name, (value, unit) in layers.items():
            print(f"  {name:<32} {_fmt(value):>12} {unit}")
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        untraced = out_dir.parent / f"{ns.workload}-seed{ns.seed}-trace0" / "result.json"
        if untraced.exists():
            base = json.loads(untraced.read_text())["end_to_end"]
            overhead = {k: e2e[k][0] - base[k]["value"] for k in e2e if k in base}
            result["trace_overhead"] = overhead
            print("  tracing overhead (traced - untraced, same seed): " + ", ".join(
                f"{k} {_fmt(v)} {e2e[k][1]}" for k, v in overhead.items()
            ))
        else:
            print(f"  tracing overhead: no untraced run of seed {ns.seed} to compare; "
                  f"estimated from span cost: {_fmt(layers['trace.overhead_frac'][0])} of the wall time")
        tr.write(out_dir / "spans.jsonl")
        metrics = layers
    (out_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")

    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
