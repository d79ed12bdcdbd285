"""State container, gauge fixing, local unitaries, and the seeded samplers."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import ghz, haar_state, ket
from triqent import (
    QUBITS,
    TYPE_IDS,
    BadNormalization,
    LocalUnitary,
    PureState3,
    ValidationError,
    ZeroVector,
    apply_local_unitary,
    bloch_triple,
    classify,
    classify_rows,
    concurrence_pair,
    normalize,
    reassemble,
    sample_haar,
    sample_type,
    slice_state,
    tangle,
)
from triqent.qstate import NORM_TOL, _check_norms, _haar_u2_batch, _sample_type_batch


def test_normalize_fixes_scale_and_global_phase():
    rng = np.random.default_rng(11)
    for _ in range(200):
        raw = rng.normal(size=8) + 1j * rng.normal(size=8)
        s = normalize(raw)
        assert abs(np.linalg.norm(s.amp) - 1.0) <= 1e-12
        lead = s.amp[int(np.argmax(np.abs(s.amp) > 1e-12))]
        assert abs(lead.imag) <= 1e-12
        assert lead.real >= 0.0
        # any rescale and rephase of the input lands on the same representative
        z = (0.5 + rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        assert np.max(np.abs(normalize(z * raw).amp - s.amp)) <= 1e-12


def test_normalize_rejects_zero_vector():
    with pytest.raises(ZeroVector):
        normalize(np.zeros(8, dtype=complex))


def test_non_finite_amplitudes_are_rejected_and_extreme_scales_are_not():
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        raw = np.ones(8, dtype=complex)
        raw[3] = bad
        with pytest.raises(ValidationError):
            normalize(raw)
        with pytest.raises(ValidationError):
            PureState3(raw)
    for wrong in (np.ones(7), np.ones((2, 8)), ["a"] * 8):
        with pytest.raises(ValidationError):
            normalize(wrong)
        with pytest.raises(ValidationError):
            PureState3(wrong)
    raw = np.array([1.0, 1j]) @ np.random.default_rng(13).normal(size=(2, 8))
    for scale in (1e-14, 1e307):
        assert np.max(np.abs(normalize(scale * raw).amp - normalize(raw).amp)) <= 1e-15


def test_row_norm_check_accepts_unit_rows_and_names_the_first_bad_one():
    rows = np.stack([ghz().amp] * 3)
    _check_norms(rows)
    for scale, norm in ((1.0 + 4 * NORM_TOL, r"1\.00000000000"), (np.nan, "nan")):
        wrong = rows.copy()
        wrong[1:] *= scale
        with pytest.raises(BadNormalization, match=f"^state norm {norm}"):
            _check_norms(wrong)


def test_amplitudes_are_frozen():
    s = ghz()
    with pytest.raises(ValueError):
        s.amp[0] = 1.0


def test_tensor_view_matches_flat_order():
    rng = np.random.default_rng(3)
    s = haar_state(rng)
    t = s.tensor
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert t[i, j, k] == s.amp[4 * i + 2 * j + k]


def test_json_round_trip_recovers_the_state():
    # parsing re-normalizes, so agreement is to rounding, not bit-exact
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = haar_state(rng)
        back = PureState3.from_json(s.to_json())
        assert np.max(np.abs(back.amp - s.amp)) <= 1e-15
    with pytest.raises(ValidationError):
        PureState3.from_json("[1, 2, 3]")


def test_local_unitaries_preserve_entanglement_invariants():
    rng = np.random.default_rng(29)
    for _ in range(60):
        s = haar_state(rng)
        before = (bloch_triple(s).as_array(), tangle(s),
                  [concurrence_pair(s, p) for p in ("AB", "AC", "BC")])
        t = s
        for q in QUBITS:
            t = apply_local_unitary(t, LocalUnitary(_haar_u2_batch(1, rng)[0], q))
        after = (bloch_triple(t).as_array(), tangle(t),
                 [concurrence_pair(t, p) for p in ("AB", "AC", "BC")])
        assert np.max(np.abs(before[0] - after[0])) <= 1e-10
        assert abs(before[1] - after[1]) <= 1e-10
        assert np.max(np.abs(np.array(before[2]) - np.array(after[2]))) <= 1e-10


def test_local_unitary_validation():
    with pytest.raises(ValidationError):
        LocalUnitary(np.eye(2), "D")
    bad = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        apply_local_unitary(ghz(), LocalUnitary(bad, "A"))


def test_slice_reassemble_round_trip_bit_exact():
    rng = np.random.default_rng(101)
    for _ in range(50):
        s = haar_state(rng)
        for q in QUBITS:
            st = slice_state(s, q)
            assert st.T0.shape == (2, 2)
            assert np.array_equal(reassemble(st).amp, s.amp)
    with pytest.raises(ValidationError):
        slice_state(ghz(), "Q")


def test_sample_haar_seed_determinism():
    a = sample_haar(1234)
    b = sample_haar(1234)
    c = sample_haar(1235)
    assert np.array_equal(a.amp, b.amp)
    assert not np.array_equal(a.amp, c.amp)


def test_haar_samples_treat_the_qubits_alike():
    # no qubit should be statistically special under the invariant measure
    n = 3000
    rs = np.empty((n, 3))
    for i in range(n):
        bt = bloch_triple(sample_haar(50_000 + i))
        rs[i] = bt.as_array()
    for a in range(3):
        for b in range(a + 1, 3):
            diff = rs[:, a] - rs[:, b]
            assert abs(diff.mean()) <= 4.0 * diff.std(ddof=1) / np.sqrt(n)


def test_sample_type_round_trips_through_classify():
    rng = np.random.default_rng(7)
    fine = [t for t in TYPE_IDS if t not in ("3b", "4b")]
    for t in fine:
        for _ in range(3):
            seed = int(rng.integers(1 << 32))
            s = sample_type(t, seed)
            assert classify(s).kind == t
    for t in ("3b", "4b"):
        seed = int(rng.integers(1 << 32))
        got = classify(sample_type(t, seed)).kind
        assert got.startswith(t)


def test_batch_rows_classify_as_their_type():
    # 4c rows drawn with l0^2 < 1/2 would decompose on the other branch
    # and classify as type 5
    for i, t in enumerate(TYPE_IDS):
        for got in classify_rows(_sample_type_batch(t, 500, 900 + i))[1]:
            assert got == t or got.startswith(t + "-"), (t, got)


def test_sample_type_seed_determinism():
    for t in ("2b", "4c", "5"):
        a = sample_type(t, 99)
        b = sample_type(t, 99)
        assert np.array_equal(a.amp, b.amp)


def test_sample_type_rejects_unknown_id():
    with pytest.raises(ValidationError):
        sample_type("6", 0)


def test_named_states_have_expected_support():
    assert np.count_nonzero(ghz().amp) == 2
    assert np.count_nonzero(ket((5, 1.0)).amp) == 1
