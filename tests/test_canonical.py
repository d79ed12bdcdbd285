"""Five-coefficient canonical form: structure, branches, anchors, classify."""
from __future__ import annotations

import hashlib
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ghz, haar_state, ket, w_state
from triqent import (
    TYPE_IDS,
    TYPE_KINDS,
    BadNormalization,
    CanonicalForm,
    NumericalError,
    PureState3,
    TriqentError,
    ValidationError,
    bloch_triple,
    canonical,
    canonical_decompose,
    classify,
    classify_rows,
    concurrence_pair,
    decompose_rows,
    det_zero_solutions,
    normalize,
    normalize_rows,
    reconstruct,
    sample_type,
    slice_state,
    tangle,
)
from triqent.qstate import (
    _CD_AMP_IDX,
    QUBITS,
    LocalUnitary,
    _draw_lambdas,
    _haar_amps,
    _haar_u2_batch,
    _sample_type_batch,
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
    # each branch's l0 is the top singular value of its rotated first slice
    rng = np.random.default_rng(19)
    for _ in range(150):
        s = haar_state(rng)
        cf = canonical_decompose(s)
        bz = det_zero_solutions(slice_state(s, "A"))
        t = s.tensor
        best = max(np.linalg.svd(z * t[0] + w * t[1], compute_uv=False)[0] for z, w in bz.pairs)
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
    states = [haar_state(rng) for _ in range(300)]
    lam = decompose_rows(np.array([s.amp for s in states])).branch_lambdas
    taus = 4.0 * (lam[:, :, 0] * lam[:, :, 4]) ** 2
    assert np.max(np.abs(taus[:, 0] - taus[:, 1])) <= 1e-10
    assert np.max(np.abs(taus[:, 0] - [tangle(s, check=False) for s in states])) <= 1e-9


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
        for q, u in zip(QUBITS, _haar_u2_batch(1, rng)[:, 0]):
            s = apply_local_unitary(s, LocalUnitary(u, q))
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


# ---------------------------------------------------------------------------
# the batch entry points and their one-row calls

_ANCHORS = (ghz(), w_state(), ket((0, 1.0)), ket((7, 1.0)), ket((0, 1.0), (3, 1.0)),
            ket((0, 1.0), (5, 1.0)), ket((0, 1.0), (6, 1.0)))


@st.composite
def _amp_row(draw):
    """A unit row: an anchor (GHZ, W, product, biseparable, the two
    vanishing pencils), a canonical row with exact zero amplitudes, a
    scrambled typed row, or a typed row near W (l0 about 0 included) plus
    noise of size 1e-12 to 1e-3."""
    shape = draw(st.sampled_from(("anchor", "aligned", "typed", "near-w")))
    if shape == "anchor":
        return draw(st.sampled_from(_ANCHORS)).amp
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if shape == "typed":
        return _sample_type_batch(draw(st.sampled_from(TYPE_IDS)), 1, rng)[0]
    if shape == "aligned":
        support = draw(st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True))
        lam = np.zeros(5, dtype=complex)
        lam[support] = rng.uniform(0.1, 1.0, size=len(support))
        lam[1] *= np.exp(1j * draw(st.sampled_from((0.0, np.pi / 3, np.pi))))
        amp = np.zeros(8, dtype=complex)
        amp[list(_CD_AMP_IDX)] = lam
        return normalize(amp).amp
    base = _sample_type_batch(draw(st.sampled_from(("3a", "4a", "2a"))), 1, rng)[0]
    noise = _haar_amps(1, rng)[0]
    return normalize(base + 10.0 ** draw(st.floats(-12.0, -3.0)) * noise).amp


_ROW_FIELDS = ("lambdas", "phi", "branch", "degenerate", "pairs", "branch_lambdas")


def _digest_rows() -> np.ndarray:
    """A fixed set of unit rows: 40 scrambled rows of each of TYPE_KINDS,
    every aligned zero pattern of (l0..l4) at phases 0, pi/3 and pi, 20
    scrambled rows of each kind plus noise of size 1e-12 to 1e-3, and the
    anchors."""
    rng = np.random.default_rng(2020)
    typed = [_sample_type_batch(k, 40, rng) for k in TYPE_KINDS]
    aligned = []
    for size in range(1, 6):
        for support in combinations(range(5), size):
            for phase in (0.0, np.pi / 3, np.pi):
                amp = np.zeros(8, dtype=complex)
                amp[[_CD_AMP_IDX[j] for j in support]] = rng.uniform(0.1, 1.0, size=size)
                amp[4] *= np.exp(1j * phase)
                aligned.append(amp)
    noisy = [_sample_type_batch(k, 20, rng)
             + 10.0 ** rng.uniform(-12.0, -3.0, size=(20, 1)) * _haar_amps(20, rng)
             for k in TYPE_KINDS]
    return np.concatenate([normalize_rows(np.concatenate(typed + [np.array(aligned)] + noisy)),
                           [s.amp for s in _ANCHORS]])


# sha256 of decompose_rows' lambdas, phi, branch and degenerate and of the
# classify_rows labels over _digest_rows, taken before the one-row path of
# decompose_rows and classify was trimmed; re-pinned when the slice
# discriminant took invariants' arithmetic: lambdas moved on 105 of 820 rows
# by at most 7.5e-8 and phi on 52 by at most 1.4e-5; every move beyond 1e-10
# is on a row with a canonical coefficient below 5e-5, where the roots or
# phi are ill-conditioned; branch, degenerate and every label are unchanged
DECOMPOSE_DIGEST = "8d35542fb26a0a124587100d3c597ddc708f03fc4826ce3e2789cabc944d5a61"


def test_decompositions_and_labels_match_their_golden_digest():
    amps = _digest_rows()
    cd = decompose_rows(amps)
    h = hashlib.sha256()
    for name in ("lambdas", "phi", "branch", "degenerate"):
        h.update(getattr(cd, name).tobytes())
    for labels in classify_rows(amps):
        h.update(" ".join(labels).encode())
    assert h.hexdigest() == DECOMPOSE_DIGEST


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.lists(_amp_row(), min_size=1, max_size=8))
def test_batch_rows_equal_their_one_row_calls(rows):
    amps = np.array(rows)
    cd = decompose_rows(amps)
    slocc, kind = classify_rows(amps)
    for i, amp in enumerate(amps):
        one = decompose_rows(amps[i:i + 1])
        for name in _ROW_FIELDS:
            a, b = getattr(cd, name)[i:i + 1], getattr(one, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert [x[0] for x in classify_rows(amps[i:i + 1])] == [slocc[i], kind[i]]
        s = PureState3(amp)
        assert canonical_decompose(s) == cd.form(i)
        label = classify(s)
        assert (label.slocc, label.kind) == (slocc[i], kind[i])


def test_classify_then_decompose_runs_one_decomposition(monkeypatch):
    calls = []
    kernel = canonical._decompose

    def counted(amps):
        calls.append(len(amps))
        return kernel(amps)

    monkeypatch.setattr(canonical, "_decompose", counted)
    s = haar_state(np.random.default_rng(61))
    assert classify(s).kind == "5"
    cf = canonical_decompose(s)
    assert canonical_decompose(s) is cf
    assert calls == [1]


def test_off_norm_rows_raise_bad_normalization():
    rows = np.array([ghz().amp, w_state().amp])
    rows[1] *= 1.0 + 1e-9
    for call in (decompose_rows, classify_rows):
        with pytest.raises(BadNormalization, match="^state norm 1.000000001"):
            call(rows)


def _hostile_inputs() -> dict:
    """Amplitude inputs that no entry point may answer with anything but a
    result or a TriqentError."""
    base = np.array([ghz().amp, w_state().amp])
    cases = {}
    for name, bad in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf),
                      ("nan-imag", complex(0.0, np.nan))):
        rows = base.copy()
        rows[1, 3] = bad
        cases[name] = rows
    cases.update({
        "zero-row": np.array([ghz().amp, np.zeros(8)]),
        "off-norm": base * (1.0 + 1e-9),
        "huge": base * 1e300,
        "tiny": base * 1e-300,
        "empty": np.zeros((0, 8)),
        "wrong-width": base[:, :7],
        "one-axis": base[0],
        "three-axis": base[:, :, None],
        "scalar": 1.0,
        "ragged": [list(base[0]), [1.0]],
        "text": [["a"] * 8],
        "none": None,
        "objects": np.array([[object()] * 8]),
    })
    return cases


_HOSTILE = _hostile_inputs()
_ENTRY_CALLS = {
    "decompose_rows": decompose_rows,
    "classify_rows": classify_rows,
    "normalize_rows": normalize_rows,
    # a one-row entry gets the input's last row, or the input itself
    "normalize": lambda x: normalize(x[-1] if isinstance(x, np.ndarray) and x.ndim == 2
                                     and len(x) else x),
    "classify": classify,
    "canonical_decompose": canonical_decompose,
}


def _only_triqent_errors(call):
    """Run call: it may return or raise a TriqentError, nothing else, and may
    not warn."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call()
        except TriqentError:
            pass


@pytest.mark.parametrize("case", _HOSTILE)
@pytest.mark.parametrize("entry", _ENTRY_CALLS)
def test_hostile_amplitudes_raise_only_triqent_errors(entry, case):
    _only_triqent_errors(lambda: _ENTRY_CALLS[entry](_HOSTILE[case]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, 0.0, "x", None, 1j])
def test_hostile_tolerances_raise_only_triqent_errors(bad):
    for call in (lambda: classify(ghz(), tol=bad), lambda: classify(ghz(), cd_tol=bad),
                 lambda: classify_rows([ghz().amp], tol=bad),
                 lambda: classify_rows([ghz().amp], cd_tol=bad)):
        _only_triqent_errors(call)


@pytest.mark.parametrize("t,seed", [("6", 0), ("", 0), ("3b-", 0), (None, 0), (5, 0), (["5"], 0),
                                    ("5", -1), ("5", 1.5), ("5", "x"), ("5", [0, -2])])
def test_hostile_sample_type_calls_raise_triqent_errors(t, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TriqentError):
            sample_type(t, seed)


def test_determinant_residual_names_the_first_bad_row(monkeypatch):
    amps = _haar_amps(3, np.random.default_rng(67))
    real = canonical._pencil

    def off(T0, T1):
        c, m, a = real(T0, T1)
        return c + np.array([0.0, 1e-3, 1e-3]), m, a

    monkeypatch.setattr(canonical, "_pencil", off)
    with pytest.raises(NumericalError, match="in row 1$"):
        decompose_rows(amps)
