"""Five-coefficient canonical form: structure, branches, anchors, classify."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import ghz, haar_state, ket, w_state
from triqent import (
    TYPE_KINDS,
    BadNormalization,
    CanonicalForm,
    ValidationError,
    bloch_triple,
    canonical_decompose,
    classify,
    concurrence_pair,
    det_zero_solutions,
    reconstruct,
    sample_type,
    slice_state,
    tangle,
)
from triqent.canonical import _branch_form
from triqent.qstate import (
    QUBITS,
    LocalUnitary,
    _draw_lambdas,
    _haar_u2_batch,
    apply_local_unitary,
)

S2 = 1.0 / np.sqrt(2.0)
S3 = 1.0 / np.sqrt(3.0)


def _invariants(s):
    return np.array([*bloch_triple(s).as_array(), tangle(s, check=False),
                     concurrence_pair(s, "AB"), concurrence_pair(s, "AC"),
                     concurrence_pair(s, "BC")])


def test_coefficients_are_normalized_and_phase_in_range():
    rng = np.random.default_rng(8)
    for _ in range(200):
        cf = canonical_decompose(haar_state(rng))
        lam = np.asarray(cf.lambdas)
        assert lam.min() >= 0.0
        assert abs(float((lam ** 2).sum()) - 1.0) <= 1e-12
        assert 0.0 <= cf.phi <= np.pi + 1e-12
        assert cf.branch in ("plus", "minus")


def test_reconstruction_lives_on_the_five_slot_support():
    rng = np.random.default_rng(13)
    for _ in range(50):
        back = reconstruct(canonical_decompose(haar_state(rng)))
        assert np.max(np.abs(back.amp[[1, 2, 3]])) <= 1e-12


def test_branch_choice_maximizes_leading_coefficient():
    rng = np.random.default_rng(19)
    for _ in range(150):
        s = haar_state(rng)
        cf = canonical_decompose(s)
        bz = det_zero_solutions(slice_state(s, "A"))
        best = max(_branch_form(s.tensor, pr)[0][0] for pr in bz.pairs)
        assert cf.lambdas[0] >= best - 1e-9


def test_det_zero_pairs_really_kill_the_slice_determinant():
    rng = np.random.default_rng(37)
    for _ in range(150):
        s = haar_state(rng)
        t = s.tensor
        for z, w in det_zero_solutions(slice_state(s, "A")).pairs:
            assert abs(abs(z) ** 2 + abs(w) ** 2 - 1.0) <= 1e-12
            m = z * t[0] + w * t[1]
            assert abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) <= 1e-9


def test_round_trip_preserves_the_seven_invariants():
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(500):
        s = haar_state(rng)
        back = reconstruct(canonical_decompose(s))
        worst = max(worst, float(np.max(np.abs(_invariants(back) - _invariants(s)))))
    assert worst <= 1e-9


def test_both_branches_agree_on_the_tangle():
    rng = np.random.default_rng(47)
    for _ in range(300):
        s = haar_state(rng)
        bz = det_zero_solutions(slice_state(s, "A"))
        taus = [4.0 * (_branch_form(s.tensor, pr)[0][0]
                       * _branch_form(s.tensor, pr)[0][4]) ** 2
                for pr in bz.pairs]
        assert abs(taus[0] - taus[1]) <= 1e-10
        assert abs(taus[0] - tangle(s, check=False)) <= 1e-9


def test_ghz_and_w_anchor_decompositions():
    cf = canonical_decompose(ghz())
    assert np.max(np.abs(np.asarray(cf.lambdas) - (S2, 0, 0, 0, S2))) <= 1e-10
    assert cf.degenerate  # both slice roots coincide for this state
    cf = canonical_decompose(w_state())
    assert np.max(np.abs(np.asarray(cf.lambdas) - (S3, 0, S3, S3, 0))) <= 1e-10
    assert abs(cf.phi) <= 1e-10
    assert cf.degenerate  # zero tangle means a double slice root


def test_scrambled_tangle_free_states_keep_clean_coefficients():
    # the slice quadratic of a tangle-free state has a double root; naive
    # root finding splits it by sqrt(eps) and leaks ~1e-8 into the two
    # coefficients that must vanish, flipping the type reading
    rng = np.random.default_rng(53)
    for _ in range(300):
        lam = _draw_lambdas((0, 2, 3), 1, rng)[0]
        s = reconstruct(CanonicalForm(lambdas=tuple(lam), phi=0.0,
                                      branch="plus"))
        for q in QUBITS:
            s = apply_local_unitary(s, LocalUnitary(_haar_u2_batch(1, rng)[0], q))
        cf = canonical_decompose(s)
        assert cf.degenerate
        assert max(cf.lambdas[1], cf.lambdas[4]) <= 1e-9
        assert classify(s).kind == "3a"


def test_product_and_biseparable_anchor_decompositions():
    cases = [
        (ket((0, 1.0)), (1, 0, 0, 0, 0)),
        (ket((7, 1.0)), (1, 0, 0, 0, 0)),
        (ket((0, 1.0), (3, 1.0)), (0, S2, 0, 0, S2)),
        (ket((0, 1.0), (5, 1.0)), (S2, 0, S2, 0, 0)),
        (ket((0, 1.0), (6, 1.0)), (S2, 0, 0, S2, 0)),
    ]
    for s, lam in cases:
        cf = canonical_decompose(s)
        assert np.max(np.abs(np.asarray(cf.lambdas) - np.asarray(lam))) <= 1e-10


def test_classify_anchor_labels():
    assert (classify(ghz()).slocc, classify(ghz()).kind) == ("GHZ", "2b")
    assert (classify(w_state()).slocc, classify(w_state()).kind) == ("W", "3a")
    assert classify(ket((0, 1.0))).slocc == "A-B-C"
    assert classify(ket((0, 1.0), (3, 1.0))).slocc == "A-BC"
    assert classify(ket((0, 1.0), (5, 1.0))).slocc == "B-AC"
    assert classify(ket((0, 1.0), (6, 1.0))).slocc == "C-AB"


def test_classify_recovers_every_sampled_kind():
    rng = np.random.default_rng(59)
    for kind in TYPE_KINDS:
        for _ in range(3):
            s = sample_type(kind, int(rng.integers(1 << 32)))
            assert classify(s).kind == kind


def test_classify_tolerance_validation():
    with pytest.raises(ValidationError):
        classify(ghz(), tol=0.0)


def test_reconstruct_rejects_unnormalized_coefficients():
    with pytest.raises(BadNormalization):
        reconstruct(CanonicalForm(lambdas=(1.0, 0.0, 0.0, 0.0, 1.0), phi=0.0, branch="plus"))


def test_decompose_handles_degenerate_slice_pencils():
    # biseparable states where both quadratic coefficients vanish exercise
    # the stacked-SVD fallback instead of the two-root path
    for s, lam in ((ket((0, 1.0), (5, 1.0)), (S2, 0, S2, 0, 0)),
                   (ket((0, 1.0), (6, 1.0)), (S2, 0, 0, S2, 0))):
        cf = canonical_decompose(s)
        assert np.max(np.abs(np.asarray(cf.lambdas) - np.asarray(lam))) <= 1e-10
        back = reconstruct(cf)
        assert np.max(np.abs(_invariants(back) - _invariants(s))) <= 1e-10
