"""Output checks for the four workloads.

Each check returns None when the output is correct and a one-line reason
when it is not. They run outside the timed sections. Bloch norms and the
tangle of a reconstructed state are computed here from its amplitudes, not
by triqent, so a fault in triqent's invariants cannot hide itself.
"""
from __future__ import annotations

import csv
import io
import math

import numpy as np

TOL = 1e-9
# tau at or below this counts as zero, above it as nonzero; r at or above
# 1 - TOL counts as one (the same 1e-9 that classify uses)
TAU_ZERO = 1e-9
R_ONE = 1.0 - TOL

SWEEP_COLUMNS = ("delta", "n", "energy_numeric", "energy_closed", "multiplicity",
                 "k", "p", "m_z", "tau_numeric", "tau_closed",
                 "r_a", "r_b", "r_c", "crossing_flag")
SAMPLE_COLUMNS = ("type", "r_a", "r_b", "r_c", "big_r", "tau", "d")
SAMPLE_TYPES = ("1", "2a", "2b", "3a", "3b", "4a", "4b", "4c", "5")
W_TYPES = ("2a", "3a", "4a")  # tau = 0 (2a is biseparable)

# rows per grid point of an unperturbed sweep: each non-degenerate level
# gives one row, each degenerate level 40 members (5 magnitudes x 8 phases
# on the grid policy, 40 random draws on mc or for four-fold levels)
SWEEP_ROWS_PER_POINT = {"tfim": 4 + 2 * 40, "xx": 4 + 2 * 40,
                        "xxx": 3 * 40, "xzx": 4 + 2 * 40}
PERTURBED_ROWS_PER_POINT = 8
D_MAX = math.sqrt(2.0 / 3.0)  # distance of (1, 0, 0) to the diagonal


def coarse(kind: str) -> str:
    """Coarse type of a fine kind: 3b-12 -> 3b, 4b-l2 -> 4b."""
    return kind.split("-")[0]


def bloch_norms(amp: np.ndarray) -> np.ndarray:
    """(r_A, r_B, r_C) from the one-qubit marginals of a state."""
    t = np.asarray(amp, dtype=complex).reshape(2, 2, 2)
    out = []
    for axis in range(3):
        m = np.moveaxis(t, axis, 0).reshape(2, 4)
        rho = m @ m.conj().T
        out.append(math.hypot((rho[0, 0] - rho[1, 1]).real, 2.0 * abs(rho[0, 1])))
    return np.array(out)


def tangle_of(amp: np.ndarray) -> float:
    """4 |Hdet|, with Hdet the discriminant of det(z T0 + w T1) in z/w."""
    t = np.asarray(amp, dtype=complex).reshape(2, 2, 2)
    det = lambda m: m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]  # noqa: E731
    a, c = det(t[1]), det(t[0])
    m = det(t[0] + t[1]) - a - c
    return 4.0 * abs(m * m - 4.0 * a * c)


# ---------------------------------------------------------------------------
# census

def check_state(expect: str | None, out, reconstruct, zero_tol: float) -> str | None:
    """Outputs of one analysis operation.

    out is (label, canonical form, Bloch triple, tau, (C_AB, C_AC, C_BC)).
    The round trip allows, on top of TOL, the one change the canonical form
    makes by contract: when l1 is below zero_tol its phase is reported as 0,
    which moves r_B and r_C by at most 4 l1 and leaves r_A and tau alone.
    """
    label, cf, bt, tau, conc = out
    if expect is not None and coarse(label.kind) != expect:
        return f"classified {label.kind}, expected type {expect}"
    r = np.array([bt.r_a, bt.r_b, bt.r_c])
    back = reconstruct(cf).amp
    slack = np.array([0.0, 1.0, 1.0]) * 4.0 * cf.lambdas[1] if cf.lambdas[1] < zero_tol else 0.0
    excess = float(np.max(np.abs(bloch_norms(back) - r) - slack))
    if excess > TOL:
        return f"round trip moves the Bloch triple {excess:.3e} beyond its allowance"
    err_tau = abs(tangle_of(back) - tau)
    if err_tau > TOL:
        return f"round trip moves tau by {err_tau:.3e}"
    ckw = abs(1.0 - bt.r_a ** 2 - conc[0] ** 2 - conc[1] ** 2 - tau)
    if ckw > TOL:
        return f"CKW monogamy off by {ckw:.3e}"
    return None


def check_draw(requested: str, kind: str) -> str | None:
    """A sample_type draw must classify as the type requested (or a sub-kind)."""
    if kind == requested or kind.startswith(requested + "-"):
        return None
    return f"sample_type({requested!r}) drew a state of type {kind}"


# ---------------------------------------------------------------------------
# CLI outputs

def _rows(text: str, columns: tuple[str, ...]) -> tuple[list[dict], str | None]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != columns:
        return [], f"unexpected CSV header {header}"
    rows = []
    for line in reader:
        if len(line) != len(columns):
            return [], f"CSV row with {len(line)} cells, expected {len(columns)}"
        rows.append(dict(zip(columns, line)))
    return rows, None


def _num(cell: str) -> float | None:
    return float(cell) if cell != "" else None


def check_sweep(text: str, model: str, grid: np.ndarray, perturbed: bool) -> str | None:
    """CSV of one sweep job over the given delta grid."""
    rows, bad = _rows(text, SWEEP_COLUMNS)
    if bad:
        return bad
    per_point = PERTURBED_ROWS_PER_POINT if perturbed else SWEEP_ROWS_PER_POINT[model]
    if len(rows) != per_point * len(grid):
        return f"{len(rows)} rows, expected {per_point * len(grid)}"
    try:
        for i, row in enumerate(rows):
            delta = float(row["delta"])
            if abs(delta - grid[i // per_point]) > 1e-12:
                return f"row {i}: delta {delta}, expected {grid[i // per_point]}"
            for col in ("r_a", "r_b", "r_c"):
                if not 0.0 <= float(row[col]) <= 1.0:
                    return f"row {i}: {col} = {row[col]} outside [0, 1]"
            tau = float(row["tau_numeric"])
            if not 0.0 <= tau <= 1.0 + TOL:
                return f"row {i}: tau = {tau} outside [0, 1]"
            e_cl, tau_cl = _num(row["energy_closed"]), _num(row["tau_closed"])
            if perturbed:
                if e_cl is not None or tau_cl is not None:
                    return f"row {i}: perturbed row carries closed-form columns"
                continue
            if e_cl is None or tau_cl is None:
                return f"row {i}: closed-form columns missing"
            if abs(float(row["energy_numeric"]) - e_cl) > TOL:
                return f"row {i}: |E_numeric - E_closed| = {abs(float(row['energy_numeric']) - e_cl):.3e}"
            if abs(tau - tau_cl) > TOL:
                return f"row {i}: |tau_numeric - tau_closed| = {abs(tau - tau_cl):.3e}"
    except ValueError as exc:
        return f"unparsable cell: {exc}"
    return None


def _sample_pattern(kind: str, r: tuple[float, float, float], tau: float) -> str | None:
    ones = sum(x >= R_ONE for x in r)
    if kind == "1" and ones != 3:
        return "type 1 needs all three r = 1"
    if kind == "2a" and ones != 1:
        return f"type 2a needs exactly one r = 1, has {ones}"
    if kind in W_TYPES and tau > TAU_ZERO:
        return f"type {kind} needs tau = 0, has {tau:.3e}"
    if kind not in W_TYPES and kind != "1" and tau <= TAU_ZERO:
        return f"GHZ-class type {kind} needs tau > 0, has {tau:.3e}"
    return None


def check_sample(text: str, n: int) -> str | None:
    """CSV of one `sample --type all --n n` job: 9 n rows in type order."""
    rows, bad = _rows(text, SAMPLE_COLUMNS)
    if bad:
        return bad
    if len(rows) != len(SAMPLE_TYPES) * n:
        return f"{len(rows)} rows, expected {len(SAMPLE_TYPES) * n}"
    try:
        for i, row in enumerate(rows):
            kind = SAMPLE_TYPES[i // n]
            if row["type"] != kind:
                return f"row {i}: type {row['type']}, expected {kind}"
            r = tuple(float(row[c]) for c in ("r_a", "r_b", "r_c"))
            big_r, tau, d = float(row["big_r"]), float(row["tau"]), float(row["d"])
            if not all(0.0 <= x <= 1.0 for x in r):
                return f"row {i}: Bloch norm outside [0, 1]: {r}"
            if not 0.0 <= tau <= 1.0 + TOL:
                return f"row {i}: tau = {tau} outside [0, 1]"
            if not 0.0 <= big_r <= math.sqrt(3.0) or abs(big_r - math.hypot(*r)) > TOL:
                return f"row {i}: big_r = {big_r} does not match the Bloch norms"
            if not 0.0 <= d <= D_MAX + TOL:
                return f"row {i}: d = {d} outside [0, sqrt(2/3)]"
            bad = _sample_pattern(kind, r, tau)
            if bad:
                return f"row {i}: {bad}"
    except ValueError as exc:
        return f"unparsable cell: {exc}"
    return None


def check_verify(text: str, n_checks: int) -> str | None:
    """Text output of `verify`: one ok line per check and the summary line."""
    lines = text.splitlines()
    if len(lines) != n_checks + 1:
        return f"{len(lines)} output lines, expected {n_checks + 1}"
    failing = [ln for ln in lines[:-1] if not ln.startswith("ok  ")]
    if failing:
        return f"check failed: {failing[0]}"
    if not lines[-1].startswith(f"passed {n_checks}/{n_checks} checks"):
        return f"unexpected summary: {lines[-1]}"
    return None
