"""The four workloads, and the closed loop that measures them.

Every workload is an endless, seeded stream of operations run one at a
time by a single caller. An operation is timed alone; its output is checked
afterwards, outside the timed section. triqent is reached only through its
public entry points: the library API and ``triqent.cli.main`` in-process.
"""
from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import oracles
from census_inputs import CensusOp, census_stream
from speed import SpeedProbe

# operations run untimed before measuring, so lazy set-up is done
WARMUP = {"census": 64, "chain-sweep": 2, "scatter": 3, "selfcheck": 1}
# census reports job_s over blocks of this many operations; elsewhere a
# job is one cli.main call
CENSUS_JOB_OPS = 100
SCATTER_N = 250


class Op:
    """One operation: ``run`` is timed, ``check`` is not."""

    def run(self):
        raise NotImplementedError

    def check(self, result) -> str | None:
        raise NotImplementedError

    def rows(self, result) -> int:
        return 1


# ---------------------------------------------------------------------------
# census

class StateOp(Op):
    """normalize -> classify -> canonical_decompose -> bloch_triple -> tangle
    -> three concurrence_pair calls."""

    def __init__(self, tq, op: CensusOp):
        self.tq, self.op = tq, op

    def run(self):
        tq = self.tq
        s = tq.normalize(self.op.amp)
        label = tq.classify(s)
        cf = tq.canonical_decompose(s)
        bt = tq.bloch_triple(s)
        tau = tq.tangle(s)
        conc = tuple(tq.concurrence_pair(s, p) for p in ("AB", "AC", "BC"))
        return label, cf, bt, tau, conc

    def check(self, result):
        return oracles.check_state(self.op.expect, result, self.tq.reconstruct,
                                   self.tq.ZERO_TOL)


class DrawOp(Op):
    """One sample_type draw."""

    def __init__(self, tq, op: CensusOp):
        self.tq, self.op = tq, op

    def run(self):
        return self.tq.sample_type(*self.op.draw)

    def check(self, result):
        return oracles.check_draw(self.op.draw[0], self.tq.classify(result).kind)


def census_ops(tq, seed: int):
    for op in census_stream(seed):
        yield DrawOp(tq, op) if op.draw is not None else StateOp(tq, op)


# ---------------------------------------------------------------------------
# CLI jobs

class CliJob(Op):
    """One in-process cli.main call writing to a file; the oracle reads it."""

    def __init__(self, tq, argv: list[str], out: str, oracle):
        self.tq, self.argv, self.out, self.oracle = tq, argv, out, oracle

    def run(self):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out)
        return self.tq.cli.main(self.argv + ["--out", self.out])

    def check(self, code):
        if code != 0:
            return f"exit code {code} from {' '.join(self.argv)}"
        with open(self.out) as fh:
            self.text = fh.read()
        return self.oracle(self.text)

    def rows(self, code):
        return max(self.text.count("\n") - 1, 0)


# Grid points per job, sized so every job of a cycle takes about the same
# time (0.17 s on a 2-core Xeon): a cycle of equal jobs keeps op_p50_us off
# the gap between two job sizes.
SWEEP_JOBS = (("tfim", "grid", 11), ("xx", "grid", 11), ("xxx", "grid", 8),
              ("xzx", "grid", 11), ("xxx", "mc", 7), (None, "grid", 100))


def _sweep_jobs(rng: np.random.Generator):
    """One cycle: each model on the grid policy, xxx on mc, one perturbed
    sweep of a random model (the numeric-only eigensystem path)."""
    for model, policy, points in SWEEP_JOBS:
        perturb = 0.0
        if model is None:
            model = ("tfim", "xx", "xxx", "xzx")[int(rng.integers(4))]
            perturb = float(10.0 ** rng.uniform(-3.0, -2.0))
        lo = float(rng.uniform(-1.0, 0.0) if model == "xxx" else rng.uniform(0.0, 1.0))
        hi = lo + float(rng.uniform(1.0, 2.0))
        argv = ["sweep", "--model", model, "--delta-min", repr(lo),
                "--delta-max", repr(hi), "--points", str(points),
                "--params-policy", policy, "--seed", str(int(rng.integers(1 << 31)))]
        if perturb:
            argv += ["--perturb", repr(perturb)]
        grid = np.linspace(lo, hi, points)
        yield argv, (lambda text, m=model, g=grid, p=bool(perturb):
                     oracles.check_sweep(text, m, g, p))


def cli_ops(tq, workload: str, seed: int, out: str):
    """Endless job stream; cycle c draws its parameters from rng([seed, c])."""
    c = 0
    while True:
        rng = np.random.default_rng([seed, c])
        if workload == "chain-sweep":
            jobs = list(_sweep_jobs(rng))
        elif workload == "scatter":
            argv = ["sample", "--type", "all", "--n", str(SCATTER_N),
                    "--format", "csv", "--seed", str(int(rng.integers(1 << 31)))]
            jobs = [(argv, lambda text: oracles.check_sample(text, SCATTER_N))]
        else:
            # the battery with its default seed 0, as `triqent verify` runs it;
            # its haar-symmetry check is a 3-sigma test that fails at about one
            # seed in a hundred (11 of seeds 0-999), so other seeds would fail
            # by chance
            n_checks = len(tq.check_names())
            argv = ["verify", "--seed", "0"]
            jobs = [(argv, lambda text, k=n_checks: oracles.check_verify(text, k))]
        for argv, oracle in jobs:
            yield CliJob(tq, argv, out, oracle)
        c += 1


def cycle_len(workload: str) -> int:
    """Operations in one cycle of the stream; a run measures whole cycles."""
    return len(SWEEP_JOBS) if workload == "chain-sweep" else 1


def op_stream(tq, workload: str, seed: int, out: str):
    if workload == "census":
        return census_ops(tq, seed)
    return cli_ops(tq, workload, seed, out)


# ---------------------------------------------------------------------------
# the closed loop

@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)
    # per operation, the machine's slowdown while it ran
    slowdowns: list[float] = field(default_factory=list)
    rows: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        """Count another tally's operations and failures into this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems

    def normalised(self) -> list[float]:
        """Latencies on the nominal machine: each divided by its slowdown."""
        return [t / s for t, s in zip(self.latencies, self.slowdowns)]

    def raw(self) -> "Tally":
        """The same tally with every slowdown 1: the figures as measured."""
        return dataclasses.replace(self, slowdowns=[1.0] * len(self.latencies))


def measure(ops, seconds: float | None = None, count: int | None = None,
            cycle: int = 1, quiet=contextlib.nullcontext,
            probe: SpeedProbe | None = None) -> Tally:
    """Run ops one after another until ``seconds`` of timed work and a whole
    number of cycles are done, or exactly ``count`` ops.

    An op that raises, returns a nonzero exit code or fails its check counts
    as failed. ``quiet`` wraps each check (the tracer pauses there). With a
    speed probe, latencies are read from its clock and each operation gets
    the machine's slowdown at the time it ran.
    """
    tally = Tally()
    clock = perf_counter if probe is None else probe.clock
    spans = []
    busy = 0.0
    with probe if probe is not None else contextlib.nullcontext():
        while (tally.attempted < count if count is not None
               else busy < seconds or tally.attempted % cycle):
            op = next(ops)
            tally.attempted += 1
            t0 = clock()
            try:
                result = op.run()
                problem = None
            except Exception as exc:  # any escape is a failed operation, not a crash
                problem = f"{type(exc).__name__}: {exc}"
            t1 = clock()
            spans.append((t0, t1))
            tally.latencies.append(t1 - t0)
            busy += t1 - t0
            if problem is None:
                with quiet():
                    try:
                        problem = op.check(result)
                    except Exception as exc:  # an unreadable output is a failed check
                        problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                tally.failed += 1
                tally.problems.append(problem)
                continue
            tally.rows += op.rows(result)
    tally.slowdowns = [1.0] * len(spans) if probe is None else probe.slowdowns(spans)
    return tally


# With at least P99_WHOLE operations (10 beyond the p99) op_p99_us is the p99
# of the whole run. A job workload runs fewer than 100 jobs, so its p99 is the
# slowest job; there it is the median of the slowest jobs of up to P99_WINDOWS
# consecutive windows of at least P99_MIN_WINDOW jobs, so one burst of
# interference on a shared machine moves at most one of them.
P99_WHOLE = 1000
P99_WINDOWS = 5
P99_MIN_WINDOW = 3


def p99_windows(n: int) -> int:
    """Number of windows op_p99_us is taken over, for n operations."""
    if n >= P99_WHOLE:
        return 1
    return max(min(P99_WINDOWS, n // P99_MIN_WINDOW), 1)


def _p99(lat: list[float]) -> float:
    lat = sorted(lat)
    return lat[max(math.ceil(0.99 * len(lat)) - 1, 0)]


def end_to_end(workload: str, tally: Tally) -> dict[str, float]:
    """The end-to-end metrics of the timed loop, on the nominal machine."""
    lat = tally.normalised()
    busy = sum(lat)
    if workload == "census":
        jobs = [sum(lat[i:i + CENSUS_JOB_OPS])
                for i in range(0, len(lat) - CENSUS_JOB_OPS + 1, CENSUS_JOB_OPS)]
    else:
        jobs = lat
    w = len(lat) // p99_windows(len(lat))
    return {
        "ops_per_s": (tally.attempted - tally.failed) / busy,
        "op_p50_us": statistics.median(lat) * 1e6,
        "op_p99_us": statistics.median(_p99(lat[i:i + w])
                                       for i in range(0, len(lat) - w + 1, w)) * 1e6,
        "rows_per_s": tally.rows / busy,
        "job_s": statistics.median(jobs),
    }
