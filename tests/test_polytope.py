"""Bloch-norm geometry: regions, bound curves, the tangle surface, ansatz."""
from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ghz, haar_state, ket, w_state
from triqent import (
    CURVE_KINDS,
    FACE_SIGNS,
    REGION_KINDS,
    R_STAR,
    R_W,
    BlochTriple,
    BoundCurve,
    CanonicalForm,
    ComplexTau,
    OutOfDomain,
    Region,
    TriqentError,
    UnknownRegion,
    UnknownType,
    UnsupportedType,
    ValidationError,
    ansatz_tau,
    big_r,
    big_r_from_cf,
    bloch_triple,
    bound_curve,
    canonical_decompose,
    classify_rows,
    decompose_rows,
    dist_to_diagonal,
    f_lowest_order,
    in_stratum,
    lambda3_star,
    membership,
    normalize_rows,
    reconstruct,
    sweep,
    tau_surface,
)
from triqent.entanglement import invariants
from triqent.qstate import _draw_lambdas, _sample_type_batch

SQRT3 = np.sqrt(3.0)


# ---------------------------------------------------------------------------
# R and the diagonal distance

def test_big_r_anchors():
    assert big_r(bloch_triple(ghz())) <= 1e-12
    assert abs(big_r(bloch_triple(w_state())) - R_W) <= 1e-12
    assert abs(big_r(bloch_triple(ket((0, 1.0)))) - SQRT3) <= 1e-12


def test_big_r_from_coefficients_matches_geometry():
    rng = np.random.default_rng(211)
    worst = 0.0
    for _ in range(400):
        s = haar_state(rng)
        worst = max(worst, abs(big_r(bloch_triple(s))
                               - big_r_from_cf(canonical_decompose(s))))
    assert worst <= 1e-9


def test_big_r_from_cf_cross_terms_are_load_bearing():
    """An early draft dropped the l1 l4 and interference cross terms from the
    compact R^2 expression; keep that variant pinned as wrong."""
    rng = np.random.default_rng(223)
    worst = 0.0
    for _ in range(100):
        cf = canonical_decompose(haar_state(rng))
        l0, l1, l2, l3, l4 = cf.lambdas
        no_cross = 3.0 - 4.0 * l0 ** 2 * (3.0 - 3.0 * l0 ** 2 - 3.0 * l1 ** 2
                                          - l2 ** 2 - l3 ** 2) - 8.0 * (l2 * l3) ** 2
        true_r2 = big_r_from_cf(cf) ** 2
        worst = max(worst, abs(no_cross - true_r2))
    assert worst > 1e-3


def test_dist_to_diagonal_values():
    assert dist_to_diagonal(BlochTriple(0.3, 0.3, 0.3)) <= 1e-15
    d = dist_to_diagonal(BlochTriple(1.0, 0.0, 0.0))
    assert abs(d - np.sqrt(2.0 / 3.0)) <= 1e-12


def test_dist_to_diagonal_is_stable_near_the_diagonal():
    # differences at the last-bit level must not inflate through cancellation
    x = 0.7422949785107591
    assert dist_to_diagonal(BlochTriple(x, x + 1e-16, x)) <= 1e-12


# ---------------------------------------------------------------------------
# regions

def test_region_validation():
    with pytest.raises(UnknownRegion):
        Region("sphere")
    with pytest.raises(UnknownRegion):
        Region("face")  # faces need their sign pattern
    with pytest.raises(UnknownRegion):
        Region("diagonal", signs=(1, 1, 1))


def test_membership_anchor_points():
    assert membership(BlochTriple(1 / 3, 1 / 3, 1 / 3), Region("diagonal"))
    assert membership(bloch_triple(w_state()), Region("face", signs=(-1, 1, 1)))
    assert membership(BlochTriple(0.2, 0.2, 0.2), Region("bipyramid"))
    assert not membership(BlochTriple(0.9, 0.9, 0.05), Region("bipyramid"))
    assert membership(BlochTriple(0.9, 0.9, 0.9), Region("upper-tetrahedron"))
    assert membership(BlochTriple(0.2, 0.2, 0.6), Region("triangle-12"))
    assert not membership(BlochTriple(0.2, 0.2, 0.1), Region("triangle-12"))
    assert membership(BlochTriple(0.5, 0.2, 0.6), Region("wedge-l2"))
    assert membership(BlochTriple(0.5, 0.6, 0.2), Region("wedge-l3"))


def test_haar_states_never_leave_the_bipyramid():
    rng = np.random.default_rng(227)
    reg = Region("bipyramid")
    for _ in range(800):
        assert membership(bloch_triple(haar_state(rng)), reg)


def _stratum_regions(kind):
    if kind == "3b":
        return [Region(t) for t in ("triangle-12", "triangle-23", "triangle-13")]
    if kind == "4b":
        return [Region(t) for t in ("wedge-l2", "wedge-l3")]
    if kind in ("4c", "5"):
        return [Region("bipyramid")]
    return None


def test_sampled_types_land_in_their_strata():
    rng = np.random.default_rng(229)
    for kind in ("1", "2a", "2b", "3a", "3b", "4a", "4b", "4c", "5"):
        r = invariants(_sample_type_batch(kind, 200, int(rng.integers(1 << 32))))[0]
        for row in r:
            bt = BlochTriple(*map(float, row))
            if kind == "1":
                assert np.max(np.abs(row - 1.0)) <= 1e-9
            elif kind == "2a":
                hi = int(np.argmax(row))
                rest = np.delete(row, hi)
                assert abs(row[hi] - 1.0) <= 1e-9
                assert abs(rest[0] - rest[1]) <= 1e-9
            elif kind == "2b":
                assert membership(bt, Region("diagonal"))
            elif kind == "3a":
                assert any(membership(bt, Region("face", signs=sg))
                           for sg in FACE_SIGNS)
                assert float(row.sum()) >= 1.0 - 1e-9
            elif kind == "4a":
                assert membership(bt, Region("upper-tetrahedron"))
            else:
                assert any(membership(bt, reg) for reg in _stratum_regions(kind))


# ---------------------------------------------------------------------------
# bound curves

def test_bound_curve_endpoint_values():
    assert abs(bound_curve("tau_down", R_W)) <= 1e-12
    assert abs(bound_curve("tau_down", R_STAR) - 0.25) <= 1e-12
    assert abs(bound_curve("tau_up", R_STAR) - 12.0 / 49.0) <= 1e-12
    assert bound_curve("tau_max", 0.0) == 1.0
    assert abs(bound_curve("tau_max", SQRT3)) <= 1e-12


def test_bound_curve_domains():
    assert np.isnan(bound_curve("tau_up", 0.9))
    assert np.isnan(bound_curve("tau_down", 0.5))
    assert np.isnan(bound_curve("tau_down", 0.8))
    with pytest.raises(OutOfDomain):
        bound_curve("tau_max", 2.0)
    with pytest.raises(OutOfDomain):
        bound_curve("tau_star", -0.5)
    with pytest.raises(ValidationError):
        bound_curve("tau_side", 0.5)
    assert BoundCurve("tau_max").at(0.5) == bound_curve("tau_max", 0.5)


def test_lower_bound_stays_below_the_top_curve():
    for r in np.linspace(0.0, SQRT3, 300):
        assert bound_curve("tau_star", float(r)) <= bound_curve("tau_max", float(r)) + 1e-12


def test_two_branch_band_is_ordered():
    for r in np.linspace(R_W, R_STAR, 150):
        assert bound_curve("tau_down", float(r)) >= bound_curve("tau_up", float(r)) - 1e-12


def test_diagonal_states_sit_on_the_top_curve():
    rng = np.random.default_rng(233)
    amps = _sample_type_batch("2b", 2000, int(rng.integers(1 << 32)))
    r, _, hdet = invariants(amps)
    tau = 4.0 * np.abs(hdet)
    r2 = (r ** 2).sum(axis=1)
    assert float(np.abs(tau - (1.0 - r2 / 3.0)).max()) <= 1e-10


def test_norm_identities_for_single_zero_patterns():
    rng = np.random.default_rng(239)
    plans = {
        "3b-12": lambda r: r[:, 2] ** 2,
        "3b-23": lambda r: r[:, 0] ** 2,
        "3b-13": lambda r: r[:, 1] ** 2,
        "4b-l2": lambda r: r[:, 2] ** 2 - r[:, 1] ** 2 + r[:, 0] ** 2,
        "4b-l3": lambda r: r[:, 1] ** 2 - r[:, 2] ** 2 + r[:, 0] ** 2,
    }
    for kind, rhs in plans.items():
        amps = _sample_type_batch(kind, 2000, int(rng.integers(1 << 32)))
        r, _, hdet = invariants(amps)
        tau = 4.0 * np.abs(hdet)
        assert float(np.abs(1.0 - tau - rhs(r)).max()) <= 1e-10, kind


# ---------------------------------------------------------------------------
# tangle surface

def test_tau_surface_fibration_identities():
    for r in np.linspace(0.0, 1.4, 29):
        for branch in ("plus", "minus"):
            assert abs(tau_surface(float(r), 0.0, 0.0, branch)
                       - (1.0 - r * r / 3.0)) <= 1e-12
    assert abs(tau_surface(1.0, 0.0, 1.0 / np.sqrt(2.0), "plus")) <= 1e-12
    for r in np.linspace(0.05, 1.0, 20):
        assert abs(tau_surface(float(r), 0.0, float(r / np.sqrt(2.0)), "plus")
                   - (1.0 - r * r)) <= 1e-12
    assert abs(tau_surface(R_W, 1.0 / SQRT3, 1.0 / SQRT3, "minus")) <= 1e-12


def test_tau_surface_branches_meet_at_saturation():
    for r in np.linspace(0.05, 0.56, 18):
        sat = lambda3_star(float(r))
        up = tau_surface(float(r), 0.0, sat, "plus")
        dn = tau_surface(float(r), 0.0, sat, "minus")
        assert abs(up - dn) <= 1e-10
        assert abs(up - bound_curve("tau_star", float(r))) <= 1e-10


def test_minimizing_over_the_fiber_recovers_the_lower_bound():
    # the crossover constant in tau_star is a shipped value; this is the
    # slow numerical route it summarizes
    for r in (0.3, 0.45):
        grid = np.linspace(0.0, lambda3_star(r), 800)
        vals = [tau_surface(r, 0.0, float(l3)) for l3 in grid]
        star = bound_curve("tau_star", r)
        assert abs(min(vals) - star) <= 0.02 * star


def test_tau_surface_covers_reconstructed_states():
    rng = np.random.default_rng(241)
    for _ in range(40):
        lam = _draw_lambdas((0, 2, 3, 4), 1, rng)[0]
        s = reconstruct(CanonicalForm(lambdas=tuple(lam), phi=0.0, branch="plus"))
        rr = big_r(bloch_triple(s))
        tau = 4.0 * abs(invariants(s.amp)[2][0])
        best = min(abs(tau_surface(rr, float(lam[2]), float(lam[3]), b) - tau)
                   for b in ("plus", "minus"))
        assert best <= 1e-9


def test_tau_surface_errors():
    with pytest.raises(ComplexTau):
        tau_surface(0.3, 1.0, 0.0)
    with pytest.raises(ValidationError):
        tau_surface(0.3, 0.1, 0.1, "middle")
    with pytest.raises(OutOfDomain):
        tau_surface(0.3, 1.2, 0.0)
    with pytest.raises(OutOfDomain):
        lambda3_star(1.5)


# ---------------------------------------------------------------------------
# lowest-order ansatz

def test_ansatz_reduces_to_top_curve_on_the_diagonal():
    bt = BlochTriple(0.4, 0.4, 0.4)
    assert abs(ansatz_tau(bt, 7.0) - (1.0 - 0.16)) <= 1e-12
    with pytest.raises(ValidationError):
        ansatz_tau(bt, -1.0)


def test_triangle_ansatz_residual_has_a_closed_form():
    # for the r_a = r_b triangle the ansatz misses by exactly (2/3)(r_c - r_a)^2
    rng = np.random.default_rng(251)
    amps = _sample_type_batch("3b-12", 400, int(rng.integers(1 << 32)))
    r, _, hdet = invariants(amps)
    tau = 4.0 * np.abs(hdet)
    for i in range(len(r)):
        bt = BlochTriple(*map(float, r[i]))
        guess = ansatz_tau(bt, f_lowest_order("3b-12", bt))
        expect = (2.0 / 3.0) * (bt.r_c - bt.r_a) ** 2
        assert abs((float(tau[i]) - guess) - expect) <= 1e-9


def test_wedge_ansatz_prefers_the_suppressed_norm_pairing():
    rng = np.random.default_rng(257)
    for kind in ("4b-l2", "4b-l3"):
        amps = _sample_type_batch(kind, 800, int(rng.integers(1 << 32)))
        r, _, hdet = invariants(amps)
        tau = 4.0 * np.abs(hdet)
        err_default, err_other = [], []
        for i in range(len(r)):
            bt = BlochTriple(*map(float, r[i]))
            err_default.append(abs(ansatz_tau(bt, f_lowest_order(kind, bt))
                                   - float(tau[i])))
            err_other.append(abs(ansatz_tau(
                bt, f_lowest_order(kind, bt, pairing="swapped")) - float(tau[i])))
        assert float(np.median(err_default)) < float(np.median(err_other))


def test_ansatz_error_shrinks_near_the_diagonal():
    rng = np.random.default_rng(263)
    for kind, cutoff, cap in (("3b-12", 0.1, 0.02), ("3b-23", 0.1, 0.02),
                              ("3b-13", 0.1, 0.02), ("4b-l2", 0.05, 0.1),
                              ("4b-l3", 0.05, 0.1)):
        amps = _sample_type_batch(kind, 1200, int(rng.integers(1 << 32)))
        r, _, hdet = invariants(amps)
        tau = 4.0 * np.abs(hdet)
        for i in range(len(r)):
            bt = BlochTriple(*map(float, r[i]))
            if dist_to_diagonal(bt) >= cutoff:
                continue
            guess = ansatz_tau(bt, f_lowest_order(kind, bt))
            assert abs(guess - float(tau[i])) <= cap, kind


def test_f_lowest_order_validation():
    bt = BlochTriple(0.4, 0.4, 0.4)
    with pytest.raises(UnsupportedType):
        f_lowest_order("5", bt)
    with pytest.raises(ValidationError):
        f_lowest_order("4b-l2", bt, pairing="dominant")


# ---------------------------------------------------------------------------
# batch calls and the error contract

_REGIONS = [Region(k) for k in REGION_KINDS if k != "face"] + [
    Region("face", signs=sg) for sg in FACE_SIGNS]
_F_KINDS = ("3b-12", "3b-23", "3b-13", "4b-l2", "4b-l3")
_STRATUM_KINDS = ("1", "2a", "2b", "3a", "3b", "4a", "4b", "4c", "5")
_norm = st.one_of(st.sampled_from([0.0, 1.0, 1.0 / 3.0, 0.5]), st.floats(0.0, 1.0))


@st.composite
def _bloch_row(draw):
    """A row in [0, 1]^3: free, on the diagonal, with an equal pair, or on a face."""
    x, y, z = draw(_norm), draw(_norm), draw(_norm)
    shape = draw(st.sampled_from(("free", "diagonal", "pair", "face")))
    if shape == "diagonal":
        return (x, x, x)
    if shape == "pair":
        return draw(st.sampled_from(((x, x, z), (x, z, x), (z, x, x))))
    if shape == "face":
        sa, sb, sc = draw(st.sampled_from(FACE_SIGNS))
        return (x, y, min(max((sa * x - sb * y + 1.0) / sc, 0.0), 1.0))
    return (x, y, z)


def _same(batch, row_values):
    assert np.array_equal(batch, np.array(row_values), equal_nan=True)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.lists(_bloch_row(), min_size=1, max_size=8))
def test_array_calls_equal_their_stacked_one_row_calls(rows):
    r = np.array(rows)
    bts = [BlochTriple(*row) for row in rows]
    _same(big_r(r), [big_r(bt) for bt in bts])
    _same(dist_to_diagonal(r), [dist_to_diagonal(bt) for bt in bts])
    for reg in _REGIONS:
        _same(membership(r, reg), [membership(bt, reg) for bt in bts])
    for kind in _STRATUM_KINDS:
        _same(in_stratum(kind, r), [in_stratum(kind, bt) for bt in bts])
    for kind in _F_KINDS:
        f = f_lowest_order(kind, r)
        _same(f, [f_lowest_order(kind, bt) for bt in bts])
        _same(ansatz_tau(r, f), [ansatz_tau(bt, fi) for bt, fi in zip(bts, f)])
    big = big_r(r)
    for kind in CURVE_KINDS:
        _same(bound_curve(kind, big), [bound_curve(kind, x) for x in big])
    _same(lambda3_star(np.minimum(big, 1.0)), [lambda3_star(min(x, 1.0)) for x in big])
    try:
        surface = tau_surface(big, r[:, 0], r[:, 1], "minus")
    except ComplexTau:
        # the batch refuses exactly when some row does
        with pytest.raises(ComplexTau):
            for x, row in zip(big, rows):
                tau_surface(x, row[0], row[1], "minus")
    else:
        _same(surface, [tau_surface(x, row[0], row[1], "minus") for x, row in zip(big, rows)])


_ROW = np.array([[0.2, 0.3, 0.4], [0.5, 0.5, 0.5]])
_CF = canonical_decompose(w_state())
_AMPS = np.array([ghz().amp, w_state().amp])


def _with_bad_row(bad):
    rows = _ROW.copy()
    rows[1, 2] = bad
    return rows


def _with_bad_amp(bad):
    amps = _AMPS.copy()
    amps[1, 3] = bad
    return amps


# (name, call with one bad value substituted); every public polytope function
_BAD_VALUE_CALLS = [
    ("big_r", lambda x: big_r(_with_bad_row(x))),
    ("big_r/triple", lambda x: big_r(BlochTriple(0.1, x, 0.2))),
    ("dist_to_diagonal", lambda x: dist_to_diagonal(_with_bad_row(x))),
    ("membership", lambda x: membership(_with_bad_row(x), Region("bipyramid"))),
    ("Region.tol", lambda x: membership(_ROW, Region("bipyramid", tol=x))),
    # min(x, -1.0) is -1.0 for x = inf: a finite negative tolerance
    ("Region.tol/negative", lambda x: Region("diagonal", tol=min(x, -1.0))),
    ("in_stratum", lambda x: in_stratum("3b", _with_bad_row(x))),
    ("in_stratum/tol", lambda x: in_stratum("2a", _ROW, tol=x)),
    ("bound_curve", lambda x: bound_curve("tau_max", x)),
    ("bound_curve/array", lambda x: bound_curve("tau_up", np.array([0.1, x]))),
    ("BoundCurve.at", lambda x: BoundCurve("tau_down").at(x)),
    ("lambda3_star", lambda x: lambda3_star(x)),
    ("tau_surface/r", lambda x: tau_surface(x, 0.1, 0.1)),
    ("tau_surface/l2", lambda x: tau_surface(0.5, x, 0.1)),
    ("tau_surface/l3", lambda x: tau_surface(0.5, 0.1, np.array([0.1, x]))),
    ("ansatz_tau/rows", lambda x: ansatz_tau(_with_bad_row(x), 1.0)),
    ("ansatz_tau/f", lambda x: ansatz_tau(_ROW, np.array([1.0, x]))),
    ("f_lowest_order", lambda x: f_lowest_order("4b-l2", _with_bad_row(x))),
    ("big_r_from_cf/lambda", lambda x: big_r_from_cf(
        CanonicalForm(lambdas=(x,) + _CF.lambdas[1:], phi=0.0, branch="plus"))),
    ("big_r_from_cf/phi", lambda x: big_r_from_cf(
        CanonicalForm(lambdas=_CF.lambdas, phi=x, branch="plus"))),
    ("decompose_rows", lambda x: decompose_rows(_with_bad_amp(x))),
    ("classify_rows", lambda x: classify_rows(_with_bad_amp(x))),
    ("normalize_rows", lambda x: normalize_rows(_with_bad_amp(x))),
    ("classify_rows/tol", lambda x: classify_rows(_AMPS, tol=x)),
    ("classify_rows/cd_tol", lambda x: classify_rows(_AMPS, cd_tol=x)),
    ("classify_rows/negative", lambda x: classify_rows(_AMPS, cd_tol=min(x, -1.0))),
    ("sweep/perturb", lambda x: sweep("tfim", [0.5], perturb=x)),
    ("sweep/grid", lambda x: sweep("xxx", [0.5, x])),
]

_BAD_SHAPE_CALLS = [
    ("big_r/two-axis", lambda: big_r(np.zeros((4, 2)))),
    ("big_r/scalar", lambda: big_r(0.5)),
    ("dist_to_diagonal/ragged", lambda: dist_to_diagonal([[0.1, 0.2, 0.3], [0.1]])),
    ("membership/four-axis", lambda: membership(np.zeros(4), Region("diagonal"))),
    ("in_stratum/two-axis", lambda: in_stratum("5", np.zeros((3, 2)))),
    ("ansatz_tau/f-shape", lambda: ansatz_tau(_ROW, np.ones(3))),
    ("f_lowest_order/two-axis", lambda: f_lowest_order("3b-12", np.zeros(2))),
    ("tau_surface/broadcast", lambda: tau_surface(np.zeros(2), np.zeros(3), 0.0)),
    ("bound_curve/complex", lambda: bound_curve("tau_max", 0.5 + 0.1j)),
    ("big_r/text", lambda: big_r(["a", "b", "c"])),
    ("decompose_rows/trailing", lambda: decompose_rows(_AMPS[:, :7])),
    ("decompose_rows/one-axis", lambda: decompose_rows(_AMPS[0])),
    ("decompose_rows/ragged", lambda: decompose_rows([list(_AMPS[0]), [1.0]])),
    ("decompose_rows/text", lambda: decompose_rows([["a"] * 8])),
    ("classify_rows/trailing", lambda: classify_rows(np.zeros((2, 9)))),
    ("classify_rows/ragged", lambda: classify_rows([list(_AMPS[0]), [1.0]])),
    ("classify_rows/text", lambda: classify_rows([["1"] * 8])),
    ("normalize_rows/trailing", lambda: normalize_rows(_AMPS[:, :7])),
    ("normalize_rows/one-axis", lambda: normalize_rows(_AMPS[0])),
    ("normalize_rows/ragged", lambda: normalize_rows([list(_AMPS[0]), [1.0]])),
    ("normalize_rows/text", lambda: normalize_rows([["a"] * 8])),
    ("sweep/perturb-none", lambda: sweep("tfim", [0.5], perturb=None)),
    ("sweep/perturb-text", lambda: sweep("tfim", [0.5], perturb="x")),
    ("sweep/seed-negative", lambda: sweep("xxx", [0.5], params_policy="mc", seed=-1)),
    ("sweep/seed-fraction", lambda: sweep("xxx", [0.5], params_policy="mc", seed=1.7)),
    ("sweep/grid-scalar", lambda: sweep("tfim", 0.5)),
    ("sweep/grid-two-axis", lambda: sweep("tfim", [[0.5]])),
    ("sweep/grid-text", lambda: sweep("tfim", ["a"])),
]


def _refuses(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TriqentError) as info:
            call()
    return info.value


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name,call", _BAD_VALUE_CALLS, ids=[n for n, _ in _BAD_VALUE_CALLS])
def test_non_finite_input_raises_a_validation_error(name, call, bad):
    assert isinstance(_refuses(lambda: call(bad)), ValidationError)


@pytest.mark.parametrize("name,call", _BAD_SHAPE_CALLS, ids=[n for n, _ in _BAD_SHAPE_CALLS])
def test_wrong_shapes_raise_a_validation_error(name, call):
    assert isinstance(_refuses(call), ValidationError)


def test_in_stratum_refuses_unknown_types():
    with pytest.raises(UnknownType):
        in_stratum("6", _ROW)
