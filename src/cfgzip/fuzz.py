"""Seeded decoding simulator: a uniform random sampler plays the LLM.

Each run decodes tokens until end-of-sequence is sampled, the step cap is
hit, or no token is viable (a stuck state, reported rather than raised).
When a class table is supplied the run keeps two states: the engine's,
advanced by each sampled token's class representative, and a reference
advanced by the sampled token's real bytes.  Every step computes the
naive mask on the reference and the compressed mask on the engine's
state, times both, and records whether the expanded compressed mask is
bit-identical to the naive one; sampling always uses the naive mask so a
mismatch cannot silently steer a run.  A run whose sampled token the
compressed mask blocked ends "diverged": the engine cannot commit it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

import numpy as np

from .classtable import ClassTable, Vocabulary, expand_class_mask
from .engine import (
    commit_token,
    compute_mask_compressed,
    compute_mask_naive,
    new_state,
    try_advance,
)
from .grammar import Cfg


@dataclass(frozen=True)
class FuzzConfig:
    seed: int = 0
    steps: int = 100  # max tokens per run
    runs: int = 1

    def __post_init__(self):
        if self.steps < 1 or self.runs < 1:
            raise ValueError("steps and runs must be at least 1")


@dataclass
class StepRecord:
    state_digest: str
    sampled_token: int | None
    masks_equal: bool | None
    naive_ns: int
    compressed_ns: int | None


@dataclass
class RunReport:
    seed: int
    run_index: int
    outcome: str  # "completed" | "stuck" | "truncated" | "diverged"
    output: bytes
    steps: list[StepRecord]
    first_mismatch: dict | None = None

    @property
    def mismatches(self) -> int:
        return sum(1 for s in self.steps if s.masks_equal is False)


@dataclass
class FuzzReport:
    runs: list[RunReport] = field(default_factory=list)

    @property
    def total_steps(self) -> int:
        return sum(len(r.steps) for r in self.runs)

    @property
    def total_mismatches(self) -> int:
        return sum(r.mismatches for r in self.runs)

    def mask_times_ns(self) -> tuple[list[int], list[int]]:
        """Per-step (naive, compressed) mask times; stuck runs are excluded
        so degenerate states cannot skew latency aggregates."""
        naive: list[int] = []
        compressed: list[int] = []
        for run in self.runs:
            if run.outcome == "stuck":
                continue
            for s in run.steps:
                naive.append(s.naive_ns)
                if s.compressed_ns is not None:
                    compressed.append(s.compressed_ns)
        return naive, compressed


def fuzz_decode(
    g: Cfg,
    vocab: Vocabulary,
    tbl: ClassTable | None,
    cfg: FuzzConfig,
    stop_after_steps: int | None = None,
) -> FuzzReport:
    """Run ``cfg.runs`` seeded decoding runs of up to ``cfg.steps`` tokens.

    Identical inputs give identical reports (wall times aside).  With a
    class table, every step checks expanded-compressed == naive, the
    compressed mask on the state advanced by representatives and the
    naive mask on the state advanced by the sampled bytes.
    ``stop_after_steps`` skips remaining runs once that many steps have
    accumulated (runs are seeded independently, so this stays deterministic).
    """
    root = new_state(g)
    report = FuzzReport()
    for ri in range(cfg.runs):
        if stop_after_steps is not None and report.total_steps >= stop_after_steps:
            break
        rng = random.Random(cfg.seed * 1_000_003 + ri)
        state = real = root
        out = bytearray()
        steps: list[StepRecord] = []
        outcome = "truncated"
        first_mismatch = None
        for si in range(cfg.steps):
            t0 = time.perf_counter_ns()
            naive = compute_mask_naive(real, vocab)
            t1 = time.perf_counter_ns()
            compressed_ns = None
            masks_equal = None
            if tbl is not None:
                t2 = time.perf_counter_ns()
                comp = compute_mask_compressed(state, tbl, vocab)
                t3 = time.perf_counter_ns()
                compressed_ns = t3 - t2
                expanded = expand_class_mask(comp.bits, tbl)
                masks_equal = bool(np.array_equal(expanded, naive.bits))
                if not masks_equal and first_mismatch is None:
                    diff = int(np.flatnonzero(expanded != naive.bits)[0])
                    first_mismatch = {
                        "run": ri,
                        "step": si,
                        "state": state.digest(),
                        "token": diff,
                        "naive_bit": bool(naive.bits[diff]),
                        "compressed_bit": bool(expanded[diff]),
                    }
            allowed = np.flatnonzero(naive.bits)
            sampled = None
            if len(allowed):
                sampled = int(allowed[rng.randrange(len(allowed))])
            steps.append(
                StepRecord(
                    state_digest=state.digest(),
                    sampled_token=sampled,
                    masks_equal=masks_equal,
                    naive_ns=t1 - t0,
                    compressed_ns=compressed_ns,
                )
            )
            if sampled is None:
                outcome = "stuck"
                break
            if sampled == vocab.eos_id:
                outcome = "completed"
                break
            if masks_equal is False and not expanded[sampled]:
                # A lossy table masked the sampled token: the engine's
                # state cannot follow the real stream.
                outcome = "diverged"
                break
            state = commit_token(state, sampled, tbl, vocab)
            real = state if tbl is None else try_advance(real, vocab.tokens[sampled])
            out += vocab.tokens[sampled]
        report.runs.append(
            RunReport(
                seed=cfg.seed,
                run_index=ri,
                outcome=outcome,
                output=bytes(out),
                steps=steps,
                first_mismatch=first_mismatch,
            )
        )
    return report
