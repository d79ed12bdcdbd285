#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

Each injected fault must raise failed_frac above 0, and the same operations
without the fault must leave it at 0. Run from the root of a checkout:

    python3 bench/selftest.py
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile

import numpy as np

import run  # pins BLAS threads before numpy is used
import tracer as tracing
import workloads as wl
from census_inputs import census_stream


class Corrupted(wl.Op):
    """A CLI job whose output file is edited after cli.main wrote it."""

    def __init__(self, job: wl.CliJob, edit):
        self.job, self.edit = job, edit

    def run(self):
        code = self.job.run()
        with open(self.job.out) as fh:
            text = fh.read()
        with open(self.job.out, "w") as fh:
            fh.write(self.edit(text))
        return code

    def check(self, code):
        return self.job.check(code)

    def rows(self, code):
        return self.job.rows(code)


def edit_cell(line_no: int, column: int, new):
    """Replace one cell of one CSV line; new maps the old cell to the new one."""
    def edit(text: str) -> str:
        lines = text.split("\n")
        cells = lines[line_no].split(",")
        cells[column] = new(cells[column])
        lines[line_no] = ",".join(cells)
        return "\n".join(lines)
    return edit


def cases(tq, out: str):
    """(name, control ops, faulted ops) for every fault the checks must catch."""
    sweep = next(wl.op_stream(tq, "chain-sweep", 0, out))
    sample = next(wl.op_stream(tq, "scatter", 0, out))
    typed = next(op for op in census_stream(0) if op.expect is not None)
    wrong = "2b" if typed.expect != "2b" else "3a"
    bad_args = wl.CliJob(tq, ["sweep", "--model", "tfim", "--delta-min", "1",
                              "--delta-max", "0", "--points", "3"], out, lambda text: None)
    zero = dataclasses.replace(typed, amp=np.zeros(8, dtype=complex), expect=None)
    return [
        ("corrupted scatter row (r_a = 1.5)", [sample],
         [Corrupted(sample, edit_cell(5, 1, lambda c: "1.5"))]),
        ("corrupted sweep row (tau_numeric + 1e-6)", [sweep],
         [Corrupted(sweep, edit_cell(3, 8, lambda c: repr(float(c) + 1e-6)))]),
        ("mislabelled state", [wl.StateOp(tq, typed)],
         [wl.StateOp(tq, dataclasses.replace(typed, expect=wrong))]),
        ("nonzero exit code", [sample], [bad_args]),
        ("operation raises", [wl.StateOp(tq, typed)], [wl.StateOp(tq, zero)]),
    ]


def metric_names_match() -> bool:
    """The metrics a run prints are exactly those BENCHMARK.json lists."""
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    tally = wl.Tally(latencies=[1.0, 2.0], slowdowns=[1.0, 1.0], attempted=2)
    e2e = set(wl.end_to_end("scatter", tally)) | {"setup_s", "peak_rss_mb"}
    layers = set(tracing.Tracer().metrics(0.0))
    ok = (e2e == {m["name"] for m in spec["end_to_end"]}
          and layers == {m["name"] for m in spec["per_layer"]})
    print(f"{'ok  ' if ok else 'FAIL'} metric names match BENCHMARK.json")
    return ok


def main() -> int:
    tq = run.import_triqent()
    work = tempfile.mkdtemp(prefix=".work-", dir=run.BENCH)
    ok = metric_names_match()
    try:
        for name, control, faulted in cases(tq, f"{work}/job.out"):
            base = wl.measure(iter(control), count=len(control))
            hit = wl.measure(iter(faulted), count=len(faulted))
            caught = base.failed == 0 and hit.failed > 0
            ok &= caught
            print(f"{'ok  ' if caught else 'FAIL'} {name}: failed_frac "
                  f"{hit.failed / hit.attempted:g} (control {base.failed / base.attempted:g})"
                  f"{': ' + hit.problems[0] if hit.problems else ''}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest: " + ("every fault raised failed_frac above 0" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
