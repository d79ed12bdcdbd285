"""Acceptance battery: one pass/fail line per criterion, full sample counts.

Criteria 1-8 run registered `triqent verify` checks (triqent.verify) at full
Monte Carlo sizes, each criterion on its own generator default_rng(20_00N);
criterion 9 hashes regenerated CLI datasets. Run with
`pytest -s tests/test_acceptance.py` to see the per-criterion lines and each
check's summary. This file takes noticeably longer than the unit suite.
"""
from __future__ import annotations

import hashlib

import numpy as np

from triqent.cli import main
from triqent.verify import check


def _criterion(num: int, seed: int, *runs: tuple[str, dict]) -> None:
    """Run the (check name, sizes) pairs on one generator and report."""
    rng = np.random.default_rng(seed)
    try:
        details = [f"{name}: {check(name)(rng, **sizes)}" for name, sizes in runs]
    except Exception:
        print(f"criterion {num}: FAIL")
        raise
    print(f"criterion {num}: PASS ({'; '.join(details)})")


def test_criterion_1_canonical_anchors():
    _criterion(1, 20_001, ("tangle-anchors", {}), ("cd-anchors", {}))


def test_criterion_2_monogamy_and_pivot_tangles():
    # seeded 20_001 since its first version; kept so its states stay the same
    _criterion(2, 20_001, ("monogamy-pivots", {"n": 100_000}))


def test_criterion_3_decomposition_round_trip():
    _criterion(3, 20_003, ("cd-roundtrip", {"n": 10_000}))


def test_criterion_4_sampled_strata():
    _criterion(4, 20_004, ("strata-membership", {"n": 1_000, "draws": 1_000}))


def test_criterion_5_bound_curves():
    _criterion(5, 20_005, ("bound-curves", {"n": 100_000}))


def test_criterion_6_type_identities():
    _criterion(6, 20_006, ("ansatz-identities", {"n": 10_000}))


def test_criterion_7_chain_oracles():
    _criterion(7, 20_007, ("chain-spectra", {"points": 101}),
               ("chain-eigenstates", {"points": 101}), ("chain-tangles", {"points": 101}))


def test_criterion_8_crossings_and_robustness():
    _criterion(8, 20_008, ("sweep-determinism", {"points": 21}),
               ("chain-tangles", {"fused": 50}), ("perturbation-probe", {}))


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num}: {detail}"


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
