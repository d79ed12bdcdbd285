#!/usr/bin/env python3
"""Benchmark of triqent: one workload per run, untraced or traced.

Run from the root of a checkout:

    python3 bench/run.py --workload census --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 1

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it give the environment and a readable report. --workload all runs
each workload in a fresh process and prints every report.
"""
from __future__ import annotations

import os

# BLAS is pinned to one thread; this must happen before numpy is imported
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402
from speed import SpeedProbe  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("census", "chain-sweep", "scatter", "selfcheck")
# fresh interpreters timed per run for setup_s; the median is reported
SETUP_PROBES = 5
SETUP_PROBE = ("import time; t0 = time.perf_counter(); import triqent; "
               "from triqent import cli; cli.build_parser(); "
               "t = time.perf_counter() - t0; import speed; "
               "print(repr(t), repr(speed.block_slowdown(0.05)))")


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# environment

def _git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:  # no git installed
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS, "commit": _git_commit()}


# ---------------------------------------------------------------------------
# one workload

def setup_seconds() -> list[tuple[float, float]]:
    """Import triqent and build the CLI parser in fresh interpreters.

    Each probe gives (seconds, slowdown of the machine right after)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH))))
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        t, slow = proc.stdout.split()
        out.append((float(t), float(slow)))
    return out


def import_triqent():
    sys.path.insert(0, str(SRC))
    import triqent
    import triqent.cli  # noqa: F401

    if Path(triqent.__file__).resolve().parent != SRC / "triqent":
        fail(f"imported triqent from {triqent.__file__}, not from {SRC}")
    return triqent


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (SRC / "triqent" / "__init__.py").is_file():
        fail(f"no triqent sources under {SRC}; run from the root of a checkout")
    probes = [] if trace else setup_seconds()
    tq = import_triqent()
    env = environment()
    work = tempfile.mkdtemp(prefix=".work-", dir=BENCH)
    try:
        out = os.path.join(work, "job.out")
        cycle = wl.cycle_len(name)
        ops = wl.op_stream(tq, name, seed, out)
        total = wl.measure(ops, count=wl.WARMUP[name])
        if not trace:
            probe = SpeedProbe()
            tally = wl.measure(ops, seconds=seconds, cycle=cycle, probe=probe)
            total.add(tally)
            metrics = wl.end_to_end(name, tally)
            metrics["setup_s"] = statistics.median(t / slow for t, slow in probes)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            raw = wl.end_to_end(name, tally.raw())
            raw["setup_s"] = statistics.median(t for t, _ in probes)
            raw["peak_rss_mb"] = metrics["peak_rss_mb"]
            report = _report_e2e(name, tally, total, metrics, raw, probes, probe)
        else:
            probe = SpeedProbe()
            tr = tracing.Tracer(clock=probe.clock)
            tr.install()
            try:
                tally = wl.measure(ops, seconds=seconds, cycle=cycle, quiet=tr.paused,
                                   probe=probe)
            finally:
                tr.uninstall()
            total.add(tally)
            # the same operations again, untraced, give the tracing overhead
            replay_ops = wl.op_stream(tq, name, seed, out)
            total.add(wl.measure(replay_ops, count=wl.WARMUP[name]))
            replay = wl.measure(replay_ops, count=tally.attempted, probe=SpeedProbe())
            total.add(replay)
            overhead = sum(tally.normalised()) / sum(replay.normalised()) - 1.0
            metrics = tr.metrics(overhead)
            spans_dir = BENCH / ".trace"
            spans_dir.mkdir(exist_ok=True)
            tr.write_spans(spans_dir / f"spans-{name}.csv")
            report = _report_layers(name, tally, total, metrics, tr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"env": env, "report": report, "total": total,
            "metrics": metrics}


def _report_e2e(name, tally, total, metrics, raw, probes, probe) -> list[str]:
    n = len(tally.latencies)
    lines = [f"{name}: {n} ops in {sum(tally.latencies):.3f} s of timed work, "
             f"closed loop, 1 caller; machine slowdown {probe.slowdown():.4f} "
             f"(median of {len(probe.blocks)} reference blocks)",
             f"  {'failed_frac':<12} {total.failed / total.attempted:<14.6g} "
             f"({total.failed} of {total.attempted} operations)"]
    for key in ("setup_s", "peak_rss_mb", "ops_per_s", "op_p50_us", "op_p99_us",
                "rows_per_s", "job_s"):
        note = f"raw {raw[key]:.6g}"
        if key == "setup_s":
            note += f", median of {len(probes)} fresh interpreters"
        elif key == "op_p50_us":
            note += f", {n} samples"
        elif key == "op_p99_us":
            n_win = wl.p99_windows(n)
            note += (f", {n} samples, {n // 100} beyond it" if n_win == 1 else
                     f", median over {n_win} windows of {n // n_win} samples")
        lines.append(f"  {key:<12} {metrics[key]:<14.6g} {unit(key):<4} ({note})")
    lines += [f"  problem: {p}" for p in total.problems[:5]]
    return lines


def _report_layers(name, tally, total, metrics, tr) -> list[str]:
    busy = sum(tally.latencies)
    lines = [f"{name}: traced run, {len(tally.latencies)} ops in {busy:.3f} s, "
             f"{len(tr.spans)} spans, trace.overhead_frac "
             f"{metrics['trace.overhead_frac']:.4f}",
             f"  {'layer':<14} {'self_s':>9} {'share':>7} {'calls':>9} {'errors':>7}"]
    layers = sorted(tracing.TRACED, key=lambda la: -metrics[f"{la}.self_s"])
    for la in layers:
        lines.append(f"  {la:<14} {metrics[f'{la}.self_s']:>9.4f} "
                     f"{metrics[f'{la}.self_s'] / busy:>7.1%} "
                     f"{metrics[f'{la}.calls']:>9} {metrics[f'{la}.errors']:>7}")
    outside = busy - sum(metrics[f"{la}.self_s"] for la in tracing.TRACED)
    lines.append(f"  {'(rest)':<14} {outside:>9.4f} {outside / busy:>7.1%}")
    fns = [(metrics[f"{la}.{f}.self_s"], f"{la}.{f}", metrics[f"{la}.{f}.calls"])
           for la, names in tracing.TRACED.items() for f in names]
    lines.append("  functions by self_s share:")
    for self_s, fn, calls in sorted(fns, reverse=True):
        if calls:
            lines.append(f"    {fn:<38} {self_s:>9.4f} {self_s / busy:>7.1%} {calls:>9}")
    for key in ("qstate.sample_type.classify_per_draw", "entanglement.tangle.check_share",
                "canonical.canonical_decompose.degenerate_frac", "qstate.batch_rows",
                "entanglement.batch_rows", "entanglement.batch_bytes", "cli.format_share"):
        label = " (computed: rows x 128)" if key == "entanglement.batch_bytes" else ""
        lines.append(f"  {key:<46} {metrics[key]:.6g}{label}")
    lines.append(f"  missing traced names: {', '.join(tr.missing) or 'none'}")
    lines += [f"  problem: {p}" for p in total.problems[:5]]
    return lines


def emit(res: dict) -> None:
    total = res["total"]
    print("env " + json.dumps(res["env"]))
    for line in res["report"]:
        print(line)
    metrics = {k: {"value": v, "unit": unit(k)} for k, v in res["metrics"].items()}
    print(json.dumps({"correct": total.failed == 0, "attempted": total.attempted,
                      "failed": total.failed, "metrics": metrics}), flush=True)


@functools.cache
def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def unit(name: str) -> str:
    """A metric's unit as BENCHMARK.json declares it."""
    return _units()[name]


# ---------------------------------------------------------------------------

def run_all(args) -> int:
    """Each workload in a fresh process; their reports, then a summary."""
    results, code = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            code = 1
            continue
        for line in lines[:-1]:
            print(line)
        results[name] = json.loads(lines[-1])
        code |= 0 if results[name]["correct"] else 1
    print(json.dumps(results))
    return code


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    emit(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
