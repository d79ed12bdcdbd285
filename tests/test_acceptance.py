"""Acceptance battery: one pass/fail line per criterion, full sample counts.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Counts here are the large Monte Carlo sizes, so this file takes noticeably
longer than the unit suite.
"""
from __future__ import annotations

import hashlib

import numpy as np

from triqent import (
    R_STAR,
    R_W,
    PureState3,
    SuperpositionParams,
    big_r,
    bloch_triple,
    bound_curve,
    canonical_decompose,
    chains,
    in_stratum,
    normalize,
    reconstruct,
    sample_type,
    tangle,
)
from triqent.canonical import _branch_form, det_zero_solutions
from triqent.entanglement import invariants
from triqent.qstate import _haar_amps, _sample_type_batch, slice_state
from triqent.cli import main


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num}: {detail}"


def _ghz() -> PureState3:
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1.0
    return normalize(v)


def _w() -> PureState3:
    v = np.zeros(8, dtype=complex)
    v[1] = v[2] = v[4] = 1.0
    return normalize(v)


def test_criterion_1_canonical_anchors():
    ghz, w = _ghz(), _w()
    devs = [abs(tangle(ghz) - 1.0), abs(tangle(w))]
    devs.append(float(np.max(np.abs(bloch_triple(w).as_array() - 1.0 / 3.0))))
    devs.append(float(np.max(np.abs(bloch_triple(ghz).as_array()))))
    root2, root3 = np.sqrt(0.5), np.sqrt(1.0 / 3.0)
    cd = np.asarray(canonical_decompose(ghz).lambdas)
    devs.append(float(np.max(np.abs(cd - (root2, 0, 0, 0, root2)))))
    cd = np.asarray(canonical_decompose(w).lambdas)
    devs.append(float(np.max(np.abs(cd - (root3, 0, root3, root3, 0)))))
    worst = max(devs)
    _report(1, worst <= 1e-10, f"worst anchor deviation {worst:.3e}")


def test_criterion_2_monogamy_and_pivot_tangles():
    n = 100_000
    amps = _haar_amps(n, np.random.default_rng(20_001))
    r, c, hdet = invariants(amps)
    c2 = c ** 2  # columns AB, AC, BC
    tau = 4.0 * np.abs(hdet)
    pair_sum = np.stack([c2[:, 0] + c2[:, 1],   # pivot A: AB + AC
                         c2[:, 0] + c2[:, 2],   # pivot B: AB + BC
                         c2[:, 1] + c2[:, 2]])  # pivot C: AC + BC
    one_vs_rest2 = 1.0 - r.T ** 2
    monogamy = float(np.max(np.abs(one_vs_rest2[0] - pair_sum[0] - tau)))
    pivot_tau = one_vs_rest2 - pair_sum
    pivots = float(np.max(np.abs(pivot_tau - tau[None, :])))
    ok = monogamy <= 1e-9 and pivots <= 1e-9
    _report(2, ok, f"monogamy residual {monogamy:.3e}, "
                   f"pivot disagreement {pivots:.3e}")


def test_criterion_3_decomposition_round_trip():
    n = 10_000
    amps = _haar_amps(n, np.random.default_rng(20_003))
    back = np.empty_like(amps)
    branch_gap = 0.0
    for i in range(n):
        s = normalize(amps[i])
        amps[i] = s.amp
        back[i] = reconstruct(canonical_decompose(s)).amp
        pairs = det_zero_solutions(slice_state(s, "A")).pairs
        taus = [4.0 * (_branch_form(s.tensor, pr)[0][0]
                       * _branch_form(s.tensor, pr)[0][4]) ** 2
                for pr in pairs]
        branch_gap = max(branch_gap, abs(taus[0] - taus[1]))
    (r, c, hdet), (r_back, c_back, hdet_back) = invariants(amps), invariants(back)
    drift = max(
        float(np.max(np.abs(r - r_back))),
        float(np.max(np.abs(4.0 * np.abs(hdet) - 4.0 * np.abs(hdet_back)))),
        float(np.max(np.abs(c - c_back))),
    )
    ok = drift <= 1e-9 and branch_gap <= 1e-10
    _report(3, ok, f"invariant drift {drift:.3e}, branch gap {branch_gap:.3e}")


def test_criterion_4_sampled_strata():
    per_type = 1_000
    base = np.random.default_rng(20_004)
    bad = []
    for kind in ("1", "2a", "2b", "3a", "3b", "4a", "4b", "4c", "5"):
        seeds = base.integers(1 << 32, size=per_type)
        r = np.array([bloch_triple(sample_type(kind, int(seed))).as_array() for seed in seeds])
        ok = in_stratum(kind, r)
        if not ok.all():
            bad.append((kind, int(seeds[np.argmin(ok)])))
    _report(4, not bad, f"stratum misses {bad}")


def test_criterion_5_bound_curves():
    n = 100_000
    base = np.random.default_rng(20_005)
    msgs = []
    for kind in ("2b", "3b", "4b", "4c", "5"):
        amps = _sample_type_batch(kind, n, int(base.integers(1 << 32)))
        r, _, hdet = invariants(amps)
        big = np.sqrt(np.sum(r * r, axis=1))
        tau = 4.0 * np.abs(hdet)
        if kind == "2b":
            dev = float(np.max(np.abs(tau - (1.0 - big ** 2 / 3.0))))
            if dev > 1e-10:
                msgs.append(f"2b off the top curve by {dev:.3e}")
        elif kind in ("3b", "4b"):
            lo = bound_curve("tau_star", big)
            hi = 1.0 - big ** 2 / 3.0
            if not np.all((tau >= lo - 0.02) & (tau <= hi + 1e-9)):
                msgs.append(f"{kind} escapes the star/top band")
        else:
            inside = (big >= R_W) & (big <= R_STAR)
            up = bound_curve("tau_up", big[inside])
            down = bound_curve("tau_down", big[inside])
            gap = (tau[inside] > up + 0.02) & (tau[inside] < down - 0.02)
            if np.any(gap):
                msgs.append(f"{kind} enters the forbidden band "
                            f"({int(gap.sum())} times)")
    for value, expect in ((bound_curve("tau_down", R_W), 0.0),
                          (bound_curve("tau_down", R_STAR), 0.25),
                          (bound_curve("tau_up", R_STAR), 12.0 / 49.0)):
        if abs(value - expect) > 1e-12:
            msgs.append(f"endpoint {value} != {expect}")
    _report(5, not msgs, "; ".join(msgs))


def test_criterion_6_type_identities():
    n = 10_000
    base = np.random.default_rng(20_006)
    devs = {}
    amps = _sample_type_batch("3b", n, int(base.integers(1 << 32)))
    r, _, hdet = invariants(amps)
    tau = 4.0 * np.abs(hdet)
    devs["3b"] = float(np.max(np.abs(1.0 - tau - np.max(r, axis=1) ** 2)))
    amps = _sample_type_batch("4b-l2", n, int(base.integers(1 << 32)))
    r, _, hdet = invariants(amps)
    r, tau = r ** 2, 4.0 * np.abs(hdet)
    devs["4b-l2"] = float(np.max(np.abs(
        1.0 - tau - (r[:, 2] - r[:, 1] + r[:, 0]))))
    amps = _sample_type_batch("4b-l3", n, int(base.integers(1 << 32)))
    r, _, hdet = invariants(amps)
    r, tau = r ** 2, 4.0 * np.abs(hdet)
    devs["4b-l3"] = float(np.max(np.abs(
        1.0 - tau - (r[:, 1] - r[:, 2] + r[:, 0]))))
    worst = max(devs.values())
    _report(6, worst <= 1e-10, f"identity residuals {devs}")


_GRIDS = {
    "tfim": np.linspace(0.0, 2.5, 101),
    "xx": np.linspace(0.0, 3.5, 101),
    "xxx": np.linspace(-2.0, 2.0, 101),
    "xzx": np.linspace(0.0, 2.5, 101),
}
_LEVELS = {"tfim": 6, "xx": 6, "xxx": 3, "xzx": 6}


def test_criterion_7_chain_oracles():
    rng = np.random.default_rng(20_007)
    spec_dev = resid = tau_dev = 0.0
    for name, grid in _GRIDS.items():
        for d in grid:
            d = float(d)
            h = chains.build_hamiltonian(name, d)
            evals, _ = chains.eigensystem(h)
            spectrum = chains.closed_form_spectrum(name, d)
            closed = np.sort(np.repeat([e for e, _ in spectrum],
                                       [m for _, m in spectrum]))
            spec_dev = max(spec_dev, float(np.max(np.abs(closed - evals))))
            for n in range(_LEVELS[name]):
                fam = chains._DEG_FAMILY.get((name, n))
                fused = chains._at_fusion(name, n, d)
                if fused:
                    params = chains._random_params(3, rng)
                elif fam is not None:
                    params = chains._random_params(len(fam[0]), rng)
                else:
                    params = None
                s = chains.closed_form_eigenstate(name, n, d, params)
                e = spectrum[n][0]
                resid = max(resid, float(np.linalg.norm(h @ s.amp - e * s.amp)))
                if fused:
                    continue  # the meeting point is covered separately
                tau_cl = chains.closed_form_tangle(name, n, d, params)
                tau_dev = max(tau_dev, abs(tau_cl - tangle(s)))
    oracle = abs(chains.closed_form_tangle("xzx", 1, 0.0) - 1.0 / 3.0)
    ok = (spec_dev <= 1e-10 and resid <= 1e-9 and tau_dev <= 1e-8
          and oracle <= 1e-12)
    _report(7, ok, f"spectrum {spec_dev:.3e}, residual {resid:.3e}, "
                   f"tangle {tau_dev:.3e}, single-point oracle {oracle:.3e}")


def test_criterion_8_crossings_and_robustness():
    msgs = []
    grid = [round(0.1 * i, 10) for i in range(21)]
    records = chains.sweep("tfim", grid, params_policy="mc", seed=8)
    flagged = {rec.delta for rec in records if rec.crossing_flag}
    if flagged != {0.0, 1.0}:
        msgs.append(f"crossing flags at {sorted(flagged)}")

    rng = np.random.default_rng(20_008)
    fused_dev = 0.0
    for _ in range(50):
        p = chains._random_params(3, rng)
        s = chains.closed_form_eigenstate("tfim", 2, 1.0, p)
        fused_dev = max(fused_dev,
                        abs(chains.closed_form_tangle("tfim", 2, 1.0, p)
                            - tangle(s)))
    if fused_dev > 1e-9:
        msgs.append(f"fused formula off by {fused_dev:.3e}")
    for th in (0.0, 1.1, 2.3, 4.0):
        a = 0.6 * np.exp(1j * th)
        p0 = SuperpositionParams(alpha=a, beta=0.8, gamma=0j)
        if chains.closed_form_tangle("tfim", 2, 1.0, p0) > 1e-12:
            msgs.append("tangle-free member is not tangle-free")

    xi, d = 1e-3, 0.75
    probe = xi * chains.pauli_string("ZII")
    for name in ("xx", "xxx"):
        evals, vecs = chains.eigensystem(chains.build_hamiltonian(name, d) + probe)
        taus = 4.0 * np.abs(invariants(vecs.T)[2])
        if float(np.max(taus)) >= 1e-2:
            msgs.append(f"{name} probe tangle {np.max(taus):.3e}")
    plain_levels = {"tfim": (0, 1, 2, 5), "xzx": (0, 1, 4, 5)}
    for name, levels in plain_levels.items():
        evals, vecs = chains.eigensystem(chains.build_hamiltonian(name, d) + probe)
        taken = np.zeros(8, dtype=bool)
        for n, (e, mult) in enumerate(chains.closed_form_spectrum(name, d)):
            free = np.flatnonzero(~taken)
            order = free[np.argsort(np.abs(evals[free] - e), kind="stable")]
            chosen = order[:mult]
            taken[chosen] = True
            if n not in levels:
                continue
            shift = abs(tangle(PureState3(vecs[:, chosen[0]]))
                        - chains.closed_form_tangle(name, n, d))
            if shift > 10.0 * xi:
                msgs.append(f"{name} level {n} shifts by {shift:.3e}")
    _report(8, not msgs, "; ".join(msgs))


def test_criterion_9_dataset_regeneration_is_deterministic(tmp_path):
    def digest(argv, target):
        assert main(argv + ["--out", str(target)]) == 0
        return hashlib.sha256(target.read_bytes()).hexdigest()

    sample_args = ["sample", "--n", "200", "--seed", "5"]
    sweep_args = ["sweep", "--model", "xzx", "--delta-min", "0",
                  "--delta-max", "2.5", "--points", "26", "--seed", "5"]
    ok = True
    for tag, argv in (("sample", sample_args), ("sweep", sweep_args)):
        first = digest(argv, tmp_path / f"{tag}-1.csv")
        second = digest(argv, tmp_path / f"{tag}-2.csv")
        ok = ok and first == second
    _report(9, ok, "regenerated datasets differ between runs")
