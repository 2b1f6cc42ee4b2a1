"""The benchmark's workloads: offline compiles and a closed-loop decode
stream, timed around calls to ``cfgzip.__all__`` with default knobs.

Every correctness check runs outside the timed regions and counts into
``failed``.  A decode step is timed in two parts, mask (compressed mask
plus expand) and commit; the naive-mask reference, the real-bytes state
and the probes run between them, untimed.

Each timed operation also keeps the intervals it ran in, so that
``end_to_end`` can report its time at reference speed (see ``speed``).
"""

from __future__ import annotations

import gc
import hashlib
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cfgzip as cz
import gen
from spans import Tracer
from speed import Speedometer

_now = time.perf_counter

# Sizes, fixed for every seed.  A decode run sets up MIN_COMPILES times,
# on as many of the JSON_DRAWS disjoint JSON_VOCAB-token draws from one
# substring pool; compile-expr compiles at least MIN_COMPILES times.
JSON_VOCAB = 3072
JSON_DRAWS = 8
MIN_COMPILES = 3
INPUT_PARSES = 100  # input parses per set-up on compile-expr, timed together
MIN_STEPS = 100  # p90 needs at least ten steps beyond it
CHECK_STEPS = 3000  # check stream of compile-expr
CHECK_CHUNK = 1000  # its steps after each compile (whole requests)
PROBE_TOKENS = {"json": 200, "expr": 24}
PROBE_EVERY = 10  # trial probe on every tenth decode step (traced runs)


Interval = tuple[float, float]  # (start, end) of a timed stretch, perf_counter seconds


def _lengths(intervals: list[Interval]) -> list[float]:
    return [b - a for a, b in intervals]


def _p(values, q: float) -> float:
    """The q-quantile (0..1) of ``values``, linear between order statistics."""
    return float(np.quantile(np.asarray(values, dtype=float), q))


@dataclass
class Inputs:
    """One draw of the program's inputs."""

    grammar_text: str
    tokens: list
    eos_id: int

    def vocab_text(self) -> str:
        vocab = cz.Vocabulary(tuple(self.tokens), frozenset({self.eos_id}), self.eos_id)
        return vocab.render()


@dataclass
class Compiled:
    """What a server keeps from a compile: the table is the one loaded back
    from the cache, and the GNF and the sweep are already dropped."""

    g: object
    vocab: object
    tbl: object
    cache_path: Path


class Run:
    """Measurements and failures of one benchmark run."""

    def __init__(self, tr: Tracer, out_dir: Path, rng: random.Random):
        self.tr = tr
        self.out_dir = out_dir
        self.rng = rng
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setups: list[list[Interval]] = []  # the stretches of each set-up
        self.setup_repeats = 1  # set-ups timed together in one entry of setups
        self.compiles: list[Interval] = []
        self.classes: list[int] = []
        self.stages: dict[str, list[float]] = {}
        self.shape: dict[str, float] = {}  # sizes of the last compile
        self.probe_token_us: list[float] = []
        self.loads: list[Interval] = []
        self.new_states: list[Interval] = []
        self.stream = Stream()
        self.compiled: Compiled | None = None

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    # -- offline path ------------------------------------------------------

    def load_inputs(self, inp: Inputs, repeats: int = 1):
        """Parse the grammar and vocabulary text, the inputs a compile
        reads, ``repeats`` times; return the last parse and the interval
        of all of them."""
        tr = self.tr
        vocab_text = inp.vocab_text()
        t0 = _now()
        for _ in range(repeats):
            g = tr.call("grammar.parse_grammar", cz.parse_grammar, cz.GrammarSource(inp.grammar_text, "bench"))
            g = tr.call("grammar.validate", cz.validate, g)
            vocab = tr.call("classtable.parse_vocabulary", cz.parse_vocabulary, vocab_text)
        return g, vocab, (t0, _now())

    def compile(self, inp: Inputs, vocab, cache_path: Path, probe: int = 0) -> Compiled:
        """Parse, GNF, adjacency, sweep, classing and cache write, timed
        per stage; then, untimed, the table checks and ``probe`` timed
        ``compute_displacement`` calls."""
        tr = self.tr
        gc.collect()
        t0 = _now()
        g = tr.call("grammar.parse_grammar", cz.parse_grammar, cz.GrammarSource(inp.grammar_text, "bench"))
        g = tr.call("grammar.validate", cz.validate, g)
        t1 = _now()
        gnf = tr.call("gnf.to_gnf", cz.to_gnf, g)
        t2 = _now()
        adj = tr.call("adjacency.build_stack_adjacency", cz.build_stack_adjacency, gnf)
        t3 = _now()
        sweep = tr.call("displacement.compute_all_displacements", cz.compute_all_displacements, vocab.tokens, gnf, adj)
        t4 = _now()
        gdig = hashlib.sha256(inp.grammar_text.encode()).digest()
        tbl = tr.call("classtable.build_class_table", cz.build_class_table, vocab, sweep.displacements, grammar_digest=gdig)
        t5 = _now()
        tr.call("classtable.save_cache", cz.save_cache, tbl, cache_path)
        t6 = _now()
        for name, seconds in (
            ("grammar.parse", t1 - t0),
            ("gnf.to_gnf", t2 - t1),
            ("adjacency.build", t3 - t2),
            ("displacement.sweep", t4 - t3),
            ("classtable.build", t5 - t4),
            ("classtable.save", t6 - t5),
        ):
            self.stages.setdefault(name, []).append(seconds)
        self.compiles.append((t0, t6))
        self.classes.append(tbl.class_count)
        fanout: dict[int, int] = {}
        for _, term, _ in gnf.productions:
            fanout[term] = fanout.get(term, 0) + 1
        pairs = [len(d.pairs) for d in dict(zip(vocab.tokens, sweep.displacements)).values() if d is not None]
        self.shape = {
            "grammar.productions": len(g.productions),
            "gnf.productions": len(gnf.productions),
            "gnf.max_fanout": max(fanout.values()),
            "adjacency.pairs": len(adj.pairs),
            "displacement.distinct_tokens": len(set(vocab.tokens)),
            "displacement.pairs_p50": _p(pairs, 0.5),
            "displacement.pairs_max": max(pairs),
            "displacement.fallbacks": len(sweep.budget_exceeded),
        }
        loaded = self.check_table(tbl, vocab.tokens, cache_path)
        if probe:
            self.probe_displacement(vocab, gnf, adj, probe)
        return Compiled(g, vocab, loaded, cache_path)

    def check_table(self, tbl, tokens, cache_path: Path):
        """Check the table and its cache round trip; return the loaded table."""
        self.attempted += 1
        problems = []
        counts = np.bincount(tbl.c, minlength=tbl.class_count)
        if (counts == 0).any():
            problems.append(f"{int((counts == 0).sum())} empty classes")
        reps = tbl.r.astype(np.int64)
        if not np.array_equal(tbl.c[reps], np.arange(tbl.class_count)):
            problems.append("a representative is outside its own class")
        lengths = np.fromiter((len(t) for t in tokens), dtype=np.int64, count=len(tokens))
        shortest = np.full(tbl.class_count, np.iinfo(np.int64).max)
        np.minimum.at(shortest, tbl.c.astype(np.int64), lengths)
        if not np.array_equal(lengths[reps], shortest):
            problems.append("a representative is not byte-shortest in its class")
        t0 = _now()
        loaded = self.tr.call(
            "classtable.load_cache",
            cz.load_cache,
            cache_path,
            grammar_digest=tbl.grammar_digest,
            vocab_digest=tbl.vocab_digest,
        )
        self.loads.append((t0, _now()))
        if loaded != tbl:
            problems.append("save_cache/load_cache did not round-trip")
        if problems:
            self.fail("compile: " + "; ".join(problems))
        return loaded

    def probe_displacement(self, vocab, gnf, adj, n: int) -> None:
        """Time ``compute_displacement`` on a seeded sample of distinct tokens."""
        distinct = sorted(set(vocab.tokens) - {vocab.tokens[i] for i in vocab.specials})
        for tok in self.rng.sample(distinct, min(n, len(distinct))):
            t0 = _now()
            self.tr.call("displacement.compute_displacement", cz.compute_displacement, tok, gnf, adj)
            self.probe_token_us.append((_now() - t0) * 1e6)

    def new_state(self, g):
        t0 = _now()
        s0 = self.tr.call("engine.new_state", cz.new_state, g)
        self.new_states.append((t0, _now()))
        return s0

    # -- online path -------------------------------------------------------

    def serve(self, c: Compiled, s0, docs, *, seconds: float, min_steps: int, naive_rate: float, probe: bool):
        """Closed loop, one stream: teacher-force the greedy tokenization of
        each document drawn from the iterator ``docs``, then EOS, until the
        run's stream holds ``seconds`` of decode-loop time and ``min_steps``
        steps (whole requests only)."""
        st = self.stream
        vocab, tbl = c.vocab, c.tbl
        tokens, eos = vocab.tokens, vocab.eos_id
        passthrough = sorted(tbl.passthrough)
        trials = tbl.class_count - len(passthrough)
        reps = [tokens[int(tbl.r[k])] for k in range(tbl.class_count) if k not in tbl.passthrough]
        gc.collect()
        while st.loop_s < seconds or st.steps < min_steps:
            doc = next(docs)
            targets = gen.greedy_tokenize(doc, tokens) + [eos]
            # At least one naive check per stream, then one in 1/naive_rate requests.
            sampled = st.requests == 0 or self.rng.random() < naive_rate
            naive_at = self.rng.randrange(len(targets)) if sampled else -1
            self.tr.request = f"request-{st.requests}"
            st.requests += 1
            s = real = s0
            out = 0
            emitted = []
            with self.tr.span("bench.request"):
                for i, tid in enumerate(targets):
                    t0 = _now()
                    m = self.tr.call("engine.compute_mask_compressed", cz.compute_mask_compressed, s, tbl, vocab)
                    t1 = _now()
                    bits = self.tr.call("classtable.expand_class_mask", cz.expand_class_mask, m.bits, tbl)
                    t2 = _now()
                    ok = bool(bits[tid])
                    # Untimed: the real-bytes reference and the trial probe.
                    problem = None if ok else f"target token {tid} masked at byte {out}"
                    if ok and i == naive_at:
                        n0 = _now()
                        # The reference is not on the served path: no layer owns its span.
                        naive = self.tr.call("reference.compute_mask_naive", cz.compute_mask_naive, real, vocab)
                        st.naive_ms.append((_now() - n0) * 1e3)
                        if not np.array_equal(naive.bits, bits):
                            problem = f"compressed mask != naive mask at byte {out}"
                    if probe and i % PROBE_EVERY == 0:
                        for rep in reps:
                            p0 = _now()
                            self.tr.call("engine.try_advance", cz.try_advance, s, rep)
                            st.trial_us.append((_now() - p0) * 1e6)
                    t3 = _now()
                    if ok and tid != eos:
                        try:
                            s = self.tr.call("engine.commit_token", cz.commit_token, s, tid, tbl, vocab)
                        except cz.MaskedTokenError as exc:
                            problem = str(exc)
                    t4 = _now()
                    st.steps += 1
                    st.loop_s += (t2 - t0) + (t4 - t3)
                    st.masks.append((t0, t2))
                    st.commits.append((t3, t4))
                    st.engine_mask_ms.append((t1 - t0) * 1e3)
                    st.expand_us.append((t2 - t1) * 1e6)
                    st.out_bytes.append(out)
                    allowed = int(m.bits.sum()) - int(m.bits[passthrough].sum())
                    st.trials += trials
                    st.accepted += allowed
                    if tid == eos:
                        if problem is None and (bytes().join(tokens[t] for t in emitted) != doc or not real.complete):
                            problem = "output differs from the target at EOS"
                    elif problem is None:
                        st.commit_us.append((t4 - t3) * 1e6)
                        st.committed += 1
                        emitted.append(tid)
                        out += len(tokens[tid])
                        real = cz.try_advance(real, tokens[tid])
                        if real is None:
                            problem = f"real bytes of token {tid} rejected at byte {out}"
                    self.attempted += 1
                    if problem is not None:
                        self.fail(f"request {st.requests - 1}: {problem}")
                        break
        self.tr.request = None


@dataclass
class Stream:
    masks: list = field(default_factory=list)  # Interval of each step's mask
    commits: list = field(default_factory=list)  # and of its commit
    engine_mask_ms: list = field(default_factory=list)
    expand_us: list = field(default_factory=list)
    commit_us: list = field(default_factory=list)
    out_bytes: list = field(default_factory=list)
    naive_ms: list = field(default_factory=list)
    trial_us: list = field(default_factory=list)
    loop_s: float = 0.0
    steps: int = 0
    committed: int = 0
    requests: int = 0
    trials: int = 0
    accepted: int = 0


# ---------------------------------------------------------------------------
# Workloads


def _json_draws(seed: int) -> list[Inputs]:
    pool = gen.substring_pool((JSON_VOCAB - 257) * JSON_DRAWS)
    grammar = gen.json_grammar()
    return [Inputs(grammar, t, eos) for t, eos in gen.bpe_vocabularies(pool, JSON_VOCAB, JSON_DRAWS, seed)]


def _expr_draw(seed: int, i: int) -> Inputs:
    key = f"{seed}:{i}"
    tokens, eos = gen.expr_vocabulary(key)
    return Inputs(gen.expr_grammar(key), tokens, eos)


def _write_inputs(run: Run, inp: Inputs) -> None:
    """Leave the last inputs next to the cache so that ``cfgzip compile``
    and ``cfgzip verify`` can replay them."""
    (run.out_dir / "grammar.cfg").write_text(inp.grammar_text)
    (run.out_dir / "vocab.vocab").write_text(inp.vocab_text())


def run_compile(run: Run, seed: int, seconds: float, trace: bool) -> None:
    """Repeated expression-grammar compiles, each on a distinct seeded
    draw and each followed by a short check stream through its table, so
    that the stream's mask times come from the whole run."""
    cache = run.out_dir / "cache.czc"
    i = 0
    while i < MIN_COMPILES or sum(_lengths(run.compiles)) < seconds:
        inp = _expr_draw(seed, i)
        c = None  # drop the previous table before the next collect
        g, vocab, setup = run.load_inputs(inp, INPUT_PARSES)
        run.setups.append([setup])
        run.setup_repeats = INPUT_PARSES
        run.tr.request = f"compile-{i}"
        c = run.compile(inp, vocab, cache, probe=PROBE_TOKENS["expr"] if trace and i == 0 else 0)
        run.tr.request = None
        docs = iter(gen.expr_docs(f"{seed}:{i}", 10000))
        s0 = run.new_state(c.g)
        run.serve(c, s0, docs, seconds=0.0, min_steps=run.stream.steps + CHECK_CHUNK, naive_rate=0.5, probe=trace)
        i += 1
    # Top the check stream up to CHECK_STEPS through the last table.
    run.serve(c, s0, docs, seconds=0.0, min_steps=CHECK_STEPS, naive_rate=0.5, probe=trace)
    _write_inputs(run, inp)
    run.compiled = c


def run_decode(run: Run, kind: str, seed: int, seconds: float, trace: bool) -> None:
    """Set up a server (compile, save, load, new_state) MIN_COMPILES
    times on distinct draws, then serve a closed-loop stream of
    ``kind`` documents through the last setup."""
    draws = _json_draws(seed)
    cache = run.out_dir / "cache.czc"
    for i in range(MIN_COMPILES):
        inp = draws[i]
        c = s0 = None
        gc.collect()
        run.tr.request = f"setup-{i}"
        g, vocab, inputs = run.load_inputs(inp)
        c = run.compile(inp, vocab, cache, probe=PROBE_TOKENS["json"] if trace and i == 0 else 0)
        s0 = run.new_state(c.g)
        run.setups.append([inputs, run.compiles[-1], run.loads[-1], run.new_states[-1]])
        run.tr.request = None
    _write_inputs(run, inp)
    if kind == "toolcall":
        docs, rate = iter(gen.toolcall_docs(seed, 10000)), 0.3
    else:
        docs, rate = iter(gen.longtext_docs(seed, 1000)), 0.5
    run.serve(c, s0, docs, seconds=seconds, min_steps=MIN_STEPS, naive_rate=rate, probe=trace)
    run.compiled = c


WORKLOADS = {
    "compile-expr": run_compile,
    "decode-toolcall": lambda run, seed, seconds, trace: run_decode(run, "toolcall", seed, seconds, trace),
    "decode-longtext": lambda run, seed, seconds, trace: run_decode(run, "longtext", seed, seconds, trace),
}


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(run: Run, speed: Speedometer | None = None) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, with times at the reference speed of
    ``speed``, or as measured without it."""
    st = run.stream

    def seconds(iv: Interval) -> float:
        return speed.scaled(*iv) if speed else iv[1] - iv[0]

    mask_ms = [seconds(iv) * 1e3 for iv in st.masks]
    loop_s = sum(mask_ms) / 1e3 + sum(seconds(iv) for iv in st.commits)
    return {
        "setup_s": (statistics.median(sum(seconds(iv) for iv in ivs) for ivs in run.setups) / run.setup_repeats, "s"),
        "compile_s": (statistics.median(seconds(iv) for iv in run.compiles), "s"),
        # The compiles every seed makes: how many more run depends on the CPU's speed.
        "classes": (statistics.median(run.classes[:MIN_COMPILES]), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "mask_ms_p50": (_p(mask_ms, 0.5), "ms"),
        "mask_ms_p90": (_p(mask_ms, 0.9), "ms"),
        "decode_tok_s": (st.committed / loop_s, "tok/s"),
    }


def per_layer(run: Run, tr: Tracer, span_ns: float, wall_s: float) -> dict[str, tuple[float, str]]:
    st = run.stream
    c = run.compiled
    med = statistics.median
    out = np.asarray(st.out_bytes, dtype=float)
    mask = np.asarray(_lengths(st.masks)) * 1e3
    low = mask[out < 128]
    slope = float(np.polyfit(out, mask, 1)[0]) * 1e3 if np.ptp(out) > 0 else 0.0
    self_s = tr.self_seconds()
    m = {
        "grammar.parse_ms": (med(run.stages["grammar.parse"]) * 1e3, "ms"),
        "grammar.productions": (run.shape["grammar.productions"], "count"),
        "gnf.to_gnf_ms": (med(run.stages["gnf.to_gnf"]) * 1e3, "ms"),
        "gnf.productions": (run.shape["gnf.productions"], "count"),
        "gnf.max_fanout": (run.shape["gnf.max_fanout"], "count"),
        "adjacency.build_ms": (med(run.stages["adjacency.build"]) * 1e3, "ms"),
        "adjacency.pairs": (run.shape["adjacency.pairs"], "count"),
        "displacement.sweep_s": (med(run.stages["displacement.sweep"]), "s"),
        "displacement.distinct_tokens": (run.shape["displacement.distinct_tokens"], "count"),
        "displacement.token_us_p50": (_p(run.probe_token_us, 0.5), "us"),
        "displacement.token_us_p99": (_p(run.probe_token_us, 0.99), "us"),
        "displacement.token_us_max": (max(run.probe_token_us), "us"),
        "displacement.pairs_p50": (run.shape["displacement.pairs_p50"], "count"),
        "displacement.pairs_max": (run.shape["displacement.pairs_max"], "count"),
        "displacement.fallbacks": (run.shape["displacement.fallbacks"], "count"),
        "classtable.build_ms": (med(run.stages["classtable.build"]) * 1e3, "ms"),
        "classtable.save_ms": (med(run.stages["classtable.save"]) * 1e3, "ms"),
        "classtable.load_ms": (med(_lengths(run.loads)) * 1e3, "ms"),
        "classtable.ratio": (c.tbl.compression_ratio(), "tokens/class"),
        "classtable.cache_bytes": (c.cache_path.stat().st_size, "bytes"),
        "classtable.expand_us_p50": (_p(st.expand_us, 0.5), "us"),
        "engine.new_state_ms": (med(_lengths(run.new_states)) * 1e3, "ms"),
        "engine.mask_ms_p50": (_p(st.engine_mask_ms, 0.5), "ms"),
        "engine.trials_per_step": (st.trials / st.steps, "count"),
        "engine.trial_accept_frac": (st.accepted / st.trials, "fraction"),
        "engine.trial_us_p50": (_p(st.trial_us, 0.5), "us"),
        "engine.trial_us_p90": (_p(st.trial_us, 0.9), "us"),
        "engine.mask_ms.out_0_127": (float(np.median(low)), "ms"),
        "engine.mask_us_per_out_byte": (slope, "us/byte"),
        "engine.commit_us_p50": (_p(st.commit_us, 0.5), "us"),
        "engine.naive_check_ms": (_p(st.naive_ms, 0.5), "ms"),
    }
    for layer in ("grammar", "gnf", "adjacency", "displacement", "classtable", "engine"):
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    overhead_s = len(tr.spans) * span_ns / 1e9
    m["trace.spans"] = (len(tr.spans), "count")
    m["trace.overhead_frac"] = (overhead_s / wall_s, "fraction")
    return m


def mask_buckets(run: Run) -> dict[str, tuple[float | None, int]]:
    """Median mask ms by bytes emitted so far in the request, with counts."""
    out = np.asarray(run.stream.out_bytes)
    mask = np.asarray(_lengths(run.stream.masks)) * 1e3
    res = {}
    for name, lo, hi in (("out_0_127", 0, 128), ("out_128_255", 128, 256), ("out_256_511", 256, 512), ("out_512_plus", 512, 1 << 62)):
        sel = mask[(out >= lo) & (out < hi)]
        res[name] = (float(np.median(sel)) if len(sel) else None, int(len(sel)))
    return res
