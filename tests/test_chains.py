"""Four solvable rings: spectra, eigenstates, tangles, symmetries, sweeps."""
from __future__ import annotations

import hashlib
import re
import warnings

import numpy as np
import pytest

from conftest import ghz, haar_state, ket, w_state
from triqent import chains, entanglement
from triqent import (
    CROSSINGS,
    MODELS,
    SWEEP_FIELDS,
    CrossingPoint,
    NeedParams,
    NotDegenerate,
    NumericalError,
    OutOfDomain,
    PureState3,
    SuperpositionParams,
    SymmetryLabels,
    UnknownModel,
    UnsupportedType,
    ValidationError,
    WT1_KET,
    WT2_KET,
    X3WT1_KET,
    X3WT2_KET,
    bloch_triple,
    build_hamiltonian,
    canonical_decompose,
    closed_form_eigenstate,
    closed_form_spectrum,
    closed_form_tangle,
    degenerate_bloch_family,
    eigensystem,
    merge_levels,
    pauli_string,
    sweep,
    symmetry_labels,
    tangle,
)
from triqent.chains import (
    DELTA_RANGES,
    GAP_TOL,
    LEVEL_COUNT,
    _DEG_FAMILY,
    _NONDEG,
    _draw_members,
    _energies,
    _level_fg,
    _level_members,
    _level_tangles,
    _random_params,
    symmetry_label_rows,
)

GRIDS = {
    "tfim": np.linspace(0.0, 2.5, 21),
    "xx": np.linspace(0.0, 3.5, 21),
    "xxx": np.linspace(-2.0, 2.0, 21),
    "xzx": np.linspace(0.0, 2.5, 21),
}
# the levels of tangle c f^p / g^4 as (model, level, p): f grows with the
# coupling on the first, and tends to 0 on the second
_GROWING = [(name, n, tau[1]) for (name, n), (form, _, _, tau) in _NONDEG.items() if form < 2]
_DECAYING = [(name, n, tau[1]) for (name, n), (form, _, _, tau) in _NONDEG.items() if form >= 2]


def _nondeg_levels(name):
    return [n for m, n in _NONDEG if m == name]


def _members(name, n, d, rng):
    """One representative per level; a few random ones when degenerate."""
    key = (name, n)
    if key in _DEG_FAMILY:
        size = len(_DEG_FAMILY[key][0])
        out = []
        for _ in range(3):
            p = _random_params(size, rng)
            out.append((closed_form_eigenstate(name, n, d, p), p))
        return out
    return [(closed_form_eigenstate(name, n, d), None)]


# ---------------------------------------------------------------------------
# construction and spectra

def test_pauli_string_validation():
    assert pauli_string("III").shape == (8, 8)
    assert np.max(np.abs(pauli_string("ZII")
                         - np.diag([1, 1, 1, 1, -1, -1, -1, -1]))) == 0
    with pytest.raises(ValidationError):
        pauli_string("XY")
    with pytest.raises(ValidationError):
        pauli_string("ABC")


def test_hamiltonians_are_hermitian():
    for name in MODELS:
        h = build_hamiltonian(name, 0.7)
        assert h.shape == (8, 8)
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12
    with pytest.raises(UnknownModel):
        build_hamiltonian("heisenberg2", 0.5)
    with pytest.raises(OutOfDomain):
        build_hamiltonian("tfim", -0.2)
    # only the isotropic model admits negative couplings
    build_hamiltonian("xxx", -1.3)


def test_spectra_match_diagonalization_everywhere():
    for name in MODELS:
        for d in GRIDS[name]:
            evals, evecs = eigensystem(build_hamiltonian(name, float(d)))
            closed = closed_form_spectrum(name, float(d))
            expanded = np.sort(np.repeat([e for e, _ in closed],
                                         [m for _, m in closed]))
            assert expanded.size == 8
            assert np.max(np.abs(evals - expanded)) <= 1e-10, (name, d)


def test_eigensystem_residuals_and_phase_convention():
    h = build_hamiltonian("xzx", 1.3)
    evals, evecs = eigensystem(h)
    assert np.max(np.linalg.norm(h @ evecs - evecs * evals, axis=0)) <= 1e-9
    for j in range(8):
        lead = evecs[np.argmax(np.abs(evecs[:, j])), j]
        assert abs(lead.imag) <= 1e-12
        assert lead.real > 0.0
    assert np.all(np.diff(evals) >= -1e-12)


@pytest.mark.parametrize("h", [np.full((8, 8), np.nan), np.diag(np.full(8, np.inf))],
                         ids=["nan", "inf"])
def test_eigensystem_refuses_non_finite_matrices(h):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError):
            eigensystem(h)


def _bits(x) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.parametrize("name", MODELS)
def test_stacked_calls_equal_their_one_coupling_calls(name):
    grid = np.linspace(*DELTA_RANGES[name], 2000)
    probe = 1e-3 * pauli_string("ZII")
    stack = build_hamiltonian(name, grid)
    one = np.array([build_hamiltonian(name, float(d)) for d in grid])
    assert stack.shape == (2000, 8, 8)
    assert np.array_equal(_bits(stack), _bits(one))
    for hs in (stack, stack + probe):
        evals, vecs = eigensystem(hs)
        pairs = [eigensystem(h) for h in hs]
        assert np.array_equal(_bits(evals), _bits(np.array([e for e, _ in pairs])))
        assert np.array_equal(_bits(vecs), _bits(np.array([v for _, v in pairs])))
    # the closed forms a sweep computes over its whole grid
    energies, mults = _energies(name, grid)
    one = [closed_form_spectrum(name, float(d)) for d in grid]
    assert np.array_equal(_bits(np.stack(energies, axis=1)),
                          _bits(np.array([[e for e, _ in s] for s in one])))
    assert all(list(mults) == [m for _, m in s] for s in one)
    for n in range(LEVEL_COUNT[name]):
        if (name, n) not in _DEG_FAMILY:
            amps = _level_members(name, n, grid, None)
            assert amps.shape == (2000, 8)
            assert _same_bits(amps, [closed_form_eigenstate(name, n, float(d)).amp for d in grid])
        if name != "xxx":
            taus = _level_tangles(name, n, grid, None)
            assert taus.shape == (2000,)
            assert _same_bits(taus, [closed_form_tangle(name, n, float(d)) for d in grid])


def test_a_bad_matrix_or_coupling_anywhere_in_a_stack_is_refused():
    hs = build_hamiltonian("xzx", np.linspace(0.0, 2.0, 50))
    nan = hs.copy()
    nan[17] = np.nan
    skew = hs.copy()
    skew[31, 0, 5] += 1e-6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad, why in ((nan, "non-finite"), (skew, "not Hermitian")):
            with pytest.raises(ValidationError, match=why):
                eigensystem(bad)
    with pytest.raises(ValidationError):
        eigensystem(hs[:, :, :4])
    with pytest.raises(ValidationError):
        build_hamiltonian("tfim", [[0.5]])
    with pytest.raises(OutOfDomain, match="-0.001"):
        build_hamiltonian("tfim", [0.0, 0.5, -1e-3, 1.0])
    with pytest.raises(OutOfDomain, match="nan"):
        build_hamiltonian("xxx", [-1.0, np.nan])
    with pytest.raises(OutOfDomain):
        sweep("tfim", [-0.2, 0.5])
    assert build_hamiltonian("xxx", [-1.3, 0.4]).shape == (2, 8, 8)


@pytest.mark.parametrize("name", MODELS)
def test_closed_forms_refuse_couplings_where_they_overflow(name):
    # d^2 overflows past about 1.3e154 and 3 d past about 6e307; every call
    # names the coupling instead of returning inf or nan, and warns nowhere
    huge = -1e308 if name == "xxx" else 1e308
    big = huge if name in ("xx", "xxx") else 1e200
    calls = [(big, lambda: closed_form_spectrum(name, big)),
             (huge, lambda: build_hamiltonian(name, huge)),
             (huge, lambda: build_hamiltonian(name, [0.5, huge]))]
    # a lone coupling is the 0-d case of a grid, whatever its Python type
    calls += [(big, lambda d=d: _energies(name, d))
              for d in (big, np.float64(big), int(big), [0.5, big])]
    if name in ("tfim", "xzx"):
        calls += [(big, lambda: sweep(name, [0.5, big])),
                  (big, lambda: closed_form_eigenstate(name, 0, big)),
                  (big, lambda: closed_form_tangle(name, 0, big))]
        for n in _nondeg_levels(name):
            for bad, d in ((big, np.float64(big)), (big, int(big)),
                           (big, np.array([0.5, big, 1.0])), (huge, np.array([0.5, huge]))):
                calls += [(bad, lambda n=n, d=d: _level_members(name, n, d, None)),
                          (bad, lambda n=n, d=d: _level_tangles(name, n, d, None))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad, call in calls:
            with pytest.raises(OutOfDomain, match=re.escape(f"delta = {bad:g}")):
                call()


@pytest.mark.parametrize("name,n,p", _DECAYING)
def test_a_level_whose_f_tends_to_zero_is_refused_where_its_model_overflows(name, n, p):
    # the model's largest normalizer overflows past about 3.4e153, and each
    # of its levels refuses those couplings instead of returning a tangle
    # near 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in (5e153, 1e154, 1.2e154):
            calls = (lambda: closed_form_eigenstate(name, n, d),
                     lambda: closed_form_tangle(name, n, d),
                     lambda: _level_members(name, n, np.array([0.5, d]), None),
                     lambda: _level_tangles(name, n, np.array([0.5, d]), None))
            for call in calls:
                with pytest.raises(OutOfDomain, match=re.escape(f"delta = {d:g}")):
                    call()


def test_closed_tangles_stay_finite_where_g_to_the_fourth_overflows():
    # g ** 4 overflows a float past g = 2 ** 256; the tangle there is tiny
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, n, _ in _GROWING:
            s = closed_form_eigenstate(name, n, 1e80)
            assert 0.0 <= closed_form_tangle(name, n, 1e80) <= 1e-79
            assert tangle(s) <= 1e-12
    assert closed_form_tangle("tfim", 0, 1e80) == pytest.approx(2.5e-241, rel=1e-12)
    assert closed_form_tangle("tfim", 1, 1e80) == pytest.approx(4.0 / 3.0 * 1e-80, rel=1e-12)


@pytest.mark.parametrize("name,n,p", _DECAYING)
def test_closed_tangles_follow_their_power_law_at_large_coupling(name, n, p):
    # f = (2b + d + 1) / (b + d)^2 or (2a + d - 1) / (a + d)^2 tends to
    # 3 / (4 d) without cancellation, so tau tends to 4 / (3 d) on the p = 1
    # levels and 1 / (4 d^3) on the p = 3 levels, with a relative correction
    # of at most 1.5 / d; it never goes negative, and where the law drops
    # below the normal floats only tau >= 0 is checked
    d = np.logspace(5, 150, 2000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tau = _level_tangles(name, n, d, None)
    assert (tau >= 0.0).all()
    law = 4.0 / 3.0 / d if p == 1 else 0.25 / d / d / d
    normal = law >= np.finfo(float).tiny
    assert normal[:1300].all()
    ratio = tau[normal] / law[normal]
    assert (np.abs(ratio - 1.0) <= 2.0 / d[normal] + 1e-14).all()


def test_a_coupling_beyond_the_float_range_is_out_of_domain():
    huge = 10 ** 400
    calls = (lambda: closed_form_spectrum("tfim", huge), lambda: closed_form_tangle("tfim", 0, huge),
             lambda: build_hamiltonian("tfim", [0.5, huge]), lambda: sweep("tfim", [0.5, huge]))
    for call in calls:
        with pytest.raises(OutOfDomain, match="finite delta"):
            call()


# sha256 of the closed energies, members and tangles of every level of every
# model over a grid reaching 1e153, with 50 seeded members per degenerate
# level, then of 50 members of the fused transverse-field subspace
CLOSED_FORM_DIGEST = "fa05a0b6b87a4c36b80ded66d4d5b39ea3f64d5b3165ec3339955255ead47650"


def test_closed_forms_match_their_digest():
    h = hashlib.sha256()
    rng = np.random.default_rng(23)
    for name in MODELS:
        grid = np.concatenate([np.linspace(*DELTA_RANGES[name], 501), np.logspace(-12, 153, 250)])
        h.update(np.stack(_energies(name, grid)[0]).tobytes())
        for n in range(LEVEL_COUNT[name]):
            family = _DEG_FAMILY.get((name, n))
            coeffs = None if family is None else _draw_members(len(family[0]), 50, rng)
            h.update(_level_members(name, n, grid, coeffs).tobytes())
            h.update(_level_tangles(name, n, grid, coeffs).tobytes())
    coeffs = _draw_members(3, 50, rng)
    h.update(_level_members("tfim", 2, 1.0, coeffs).tobytes())
    h.update(_level_tangles("tfim", 2, 1.0, coeffs).tobytes())
    assert h.hexdigest() == CLOSED_FORM_DIGEST


def test_merge_levels_sorts_and_fuses():
    merged = merge_levels(closed_form_spectrum("tfim", 1.0))
    assert sum(m for _, m in merged) == 8
    assert all(b - a > GAP_TOL for (a, _), (b, _) in zip(merged, merged[1:]))
    # levels 2 and 3 coincide there, so the merged list is shorter
    assert len(merged) < 6


def test_crossings_show_level_coincidences():
    for name, spots in CROSSINGS.items():
        for dc in spots:
            flat = sorted(e for e, m in closed_form_spectrum(name, float(dc))
                          for _ in range(m))
            assert min(np.diff(flat)) <= GAP_TOL, (name, dc)
        # midpoints between crossings stay gapped for the merged spectrum
        probe = 0.75 if name != "xxx" else 0.25
        flat = merge_levels(closed_form_spectrum(name, probe))
        assert all(b - a > 1e-6 for (a, _), (b, _) in zip(flat, flat[1:]))


# ---------------------------------------------------------------------------
# closed-form eigenstates

def test_closed_eigenstates_satisfy_the_eigenvalue_equation():
    rng = np.random.default_rng(307)
    for name in MODELS:
        for d in GRIDS[name][::4]:
            d = float(d)
            if name == "tfim" and abs(d - 1.0) <= GAP_TOL:
                continue
            h = build_hamiltonian(name, d)
            closed = closed_form_spectrum(name, d)
            for n in range(LEVEL_COUNT[name]):
                for s, _ in _members(name, n, d, rng):
                    e = closed[n][0]
                    assert np.linalg.norm(h @ s.amp - e * s.amp) <= 1e-9, (name, n, d)


def test_degenerate_levels_demand_params():
    with pytest.raises(NeedParams):
        closed_form_eigenstate("xxx", 0, 1.0)
    with pytest.raises(NeedParams):
        closed_form_eigenstate("tfim", 3, 0.5)
    for closed in (closed_form_eigenstate, closed_form_tangle):
        with pytest.raises(ValidationError, match="non-degenerate"):
            closed("tfim", 0, 0.5, _random_params(2, np.random.default_rng(1)))


def test_fused_subspace_members_only_exist_at_the_meeting_point():
    rng = np.random.default_rng(311)
    p3 = _random_params(3, rng)
    s = closed_form_eigenstate("tfim", 2, 1.0, p3)
    h = build_hamiltonian("tfim", 1.0)
    e = closed_form_spectrum("tfim", 1.0)[2][0]
    assert np.linalg.norm(h @ s.amp - e * s.amp) <= 1e-9
    with pytest.raises(CrossingPoint):
        closed_form_eigenstate("tfim", 2, 0.7, p3)
    with pytest.raises(ValidationError):
        closed_form_eigenstate("xx", 4, 0.7, p3)


def test_superposition_params_validation():
    with pytest.raises(ValidationError):
        SuperpositionParams(alpha=1.0, beta=0.0, delta=0.5)  # delta needs gamma
    with pytest.raises(ValidationError):
        SuperpositionParams(alpha=0.9, beta=0.9)  # not normalized
    p = SuperpositionParams(alpha=0.6, beta=0.8)
    assert p.n_components == 2


def test_a_nearly_real_beta_is_stored_as_its_real_part():
    p = SuperpositionParams(alpha=0.6, beta=0.8 + 1e-13j)
    assert type(p.beta) is float and p.beta == 0.8
    bt = degenerate_bloch_family("xxx", 0, p)
    assert bt == degenerate_bloch_family("xxx", 0, SuperpositionParams(alpha=0.6, beta=0.8))
    with pytest.raises(ValidationError):
        SuperpositionParams(alpha=0.6, beta=0.8 + 1e-11j)


# ---------------------------------------------------------------------------
# closed-form tangles

def test_closed_tangles_match_the_polynomial_route():
    rng = np.random.default_rng(313)
    worst = 0.0
    for name in MODELS:
        for d in GRIDS[name][::4]:
            d = float(d)
            if name == "tfim" and abs(d - 1.0) <= GAP_TOL:
                continue
            for n in range(LEVEL_COUNT[name]):
                for s, p in _members(name, n, d, rng):
                    closed = closed_form_tangle(name, n, d, p)
                    worst = max(worst, abs(closed - tangle(s)))
    assert worst <= 1e-8


def test_cluster_point_single_excitation_tangle_is_one_third():
    assert abs(closed_form_tangle("xzx", 1, 0.0) - 1.0 / 3.0) <= 1e-12
    # the two single-excitation bands meet there
    assert abs(closed_form_tangle("xzx", 4, 0.0) - 1.0 / 3.0) <= 1e-12


def test_fused_subspace_tangle_formula():
    rng = np.random.default_rng(317)
    for _ in range(25):
        p = _random_params(3, rng)
        s = closed_form_eigenstate("tfim", 2, 1.0, p)
        assert abs(closed_form_tangle("tfim", 2, 1.0, p) - tangle(s)) <= 1e-9
    # without any weight on the even component the member is tangle-free
    p0 = SuperpositionParams(alpha=0.6 + 0.0j, beta=0.8, gamma=0j)
    assert closed_form_tangle("tfim", 2, 1.0, p0) <= 1e-12
    with pytest.raises(CrossingPoint):
        closed_form_tangle("tfim", 2, 0.4, p0)


def test_isotropic_band_tangles():
    rng = np.random.default_rng(331)
    with pytest.raises(NeedParams):
        closed_form_tangle("xxx", 2, 0.3)
    for _ in range(10):
        p2 = _random_params(2, rng)
        b2 = float(p2.beta) ** 2
        assert abs(closed_form_tangle("xxx", 0, 0.3, p2)
                   - 4.0 * b2 * (1.0 - b2)) <= 1e-12
        assert abs(closed_form_tangle("xxx", 1, 0.3, p2)
                   - closed_form_tangle("xxx", 0, 0.3, p2) / 3.0) <= 1e-12
        p4 = _random_params(4, rng)
        s = closed_form_eigenstate("xxx", 2, 0.3, p4)
        assert abs(closed_form_tangle("xxx", 2, 0.3, p4) - tangle(s)) <= 1e-10


# ---------------------------------------------------------------------------
# canonical-form anchors of chain levels

def test_tfim_level_decompositions_follow_the_f_over_g_pattern():
    for d in (0.3, 0.8, 1.7):
        for n in (0, 2):
            f, g = _level_fg("tfim", n, d)
            lam = np.asarray(canonical_decompose(
                closed_form_eigenstate("tfim", n, d)).lambdas)
            expect = np.array([
                np.sqrt(f + 1.0),
                np.sqrt(f) * abs(f - 1.0) / np.sqrt(f + 1.0),
                abs(f - 1.0) / np.sqrt(f + 1.0),
                abs(f - 1.0) / np.sqrt(f + 1.0),
                2.0 * np.sqrt(f) / np.sqrt(f + 1.0),
            ]) / g
            assert abs(float((expect ** 2).sum()) - 1.0) <= 1e-10
            assert np.max(np.abs(lam - expect)) <= 1e-9, (n, d)


def test_tfim_top_level_coefficient_pattern():
    # the repeated pair is lambda2 = lambda3; the tuple must normalize
    for d in (0.4, 1.0, 2.1):
        f, g = _level_fg("tfim", 5, d)
        lam = np.asarray(canonical_decompose(
            closed_form_eigenstate("tfim", 5, d)).lambdas)
        expect = np.array([
            np.sqrt(f) * np.sqrt(f + 3.0),
            np.sqrt(3.0) * abs(f - 3.0) / np.sqrt(f + 3.0),
            np.sqrt(f) * abs(f - 3.0) / np.sqrt(f + 3.0),
            np.sqrt(f) * abs(f - 3.0) / np.sqrt(f + 3.0),
            2.0 * np.sqrt(3.0) * f / np.sqrt(f + 3.0),
        ]) / g
        assert abs(float((expect ** 2).sum()) - 1.0) <= 1e-10
        assert np.max(np.abs(lam - expect)) <= 1e-9, d
        assert abs(lam[2] - lam[3]) <= 1e-10
        assert abs(lam[1] - lam[3]) > 1e-3  # the pair is 2-3, not 1-3


def test_xx_single_excitation_decomposition():
    s3 = 1.0 / np.sqrt(3.0)
    for d in (0.2, 1.4):
        for n in (0, 1):
            lam = np.asarray(canonical_decompose(
                closed_form_eigenstate("xx", n, d)).lambdas)
            assert np.max(np.abs(lam - (s3, 0.0, s3, s3, 0.0))) <= 1e-10


def test_xxx_field_aligned_pair_decomposition():
    rng = np.random.default_rng(337)
    for _ in range(10):
        p = _random_params(2, rng)
        lam = np.asarray(canonical_decompose(
            closed_form_eigenstate("xxx", 0, 0.6, p)).lambdas)
        hi = max(float(p.beta), abs(complex(p.alpha)))
        lo = min(float(p.beta), abs(complex(p.alpha)))
        assert abs(lam[0] - hi) <= 1e-10
        assert abs(lam[4] - lo) <= 1e-10
        assert np.max(np.abs(lam[[1, 2, 3]])) <= 1e-9


def test_xxx_single_excitation_band_decomposition():
    rng = np.random.default_rng(347)
    for _ in range(10):
        p = _random_params(2, rng)
        b = float(p.beta)
        lam = np.asarray(canonical_decompose(
            closed_form_eigenstate("xxx", 1, -0.4, p)).lambdas)
        mid = np.sqrt(max(0.0, 1.0 / 3.0 + b * b * (b * b - 1.0)))
        expect = np.array([1.0 / np.sqrt(3.0), b * np.sqrt(1.0 - b * b),
                           mid, mid, b * np.sqrt(1.0 - b * b)])
        assert np.max(np.abs(lam - expect)) <= 1e-9


def test_xzx_level_decompositions_follow_the_f_over_g_pattern():
    for d in (0.3, 1.2):
        f0, g0 = _level_fg("xzx", 0, d)
        lam = np.asarray(canonical_decompose(
            closed_form_eigenstate("xzx", 0, d)).lambdas)
        expect = np.array([
            np.sqrt(f0) * np.sqrt(f0 + 3.0),
            abs(f0 - 3.0) * np.sqrt(3.0) / np.sqrt(f0 + 3.0),
            np.sqrt(f0) * abs(f0 - 3.0) / np.sqrt(f0 + 3.0),
            np.sqrt(f0) * abs(f0 - 3.0) / np.sqrt(f0 + 3.0),
            2.0 * np.sqrt(3.0) * f0 / np.sqrt(f0 + 3.0),
        ]) / g0
        assert np.max(np.abs(lam - expect)) <= 1e-9, d
        lam = np.asarray(canonical_decompose(
            closed_form_eigenstate("xzx", 1, d)).lambdas)
        root = g0 / np.sqrt(3.0)  # the level-1 tuple carries no extra sqrt(3)
        expect = np.array([
            np.sqrt(f0 + 1.0),
            np.sqrt(f0) * abs(f0 - 1.0) / np.sqrt(f0 + 1.0),
            abs(f0 - 1.0) / np.sqrt(f0 + 1.0),
            abs(f0 - 1.0) / np.sqrt(f0 + 1.0),
            2.0 * np.sqrt(f0) / np.sqrt(f0 + 1.0),
        ]) / root
        assert np.max(np.abs(lam - expect)) <= 1e-9, d
        f4, g4 = _level_fg("xzx", 4, d)
        lam = np.asarray(canonical_decompose(
            closed_form_eigenstate("xzx", 4, d)).lambdas)
        expect = np.array([
            np.sqrt(f4) * np.sqrt(f4 + 3.0),
            abs(f4 - 3.0) * np.sqrt(3.0) / np.sqrt(f4 + 3.0),
            np.sqrt(f4) * abs(f4 - 3.0) / np.sqrt(f4 + 3.0),
            np.sqrt(f4) * abs(f4 - 3.0) / np.sqrt(f4 + 3.0),
            2.0 * np.sqrt(3.0) * f4 / np.sqrt(f4 + 3.0),
        ]) / g4
        assert np.max(np.abs(lam - expect)) <= 1e-9, d
        f5, g5 = _level_fg("xzx", 5, d)
        lam = np.asarray(canonical_decompose(
            closed_form_eigenstate("xzx", 5, d)).lambdas)
        expect = np.array([
            np.sqrt(f5 + 1.0),
            np.sqrt(f5) * abs(f5 - 1.0) / np.sqrt(f5 + 1.0),
            abs(f5 - 1.0) / np.sqrt(f5 + 1.0),
            abs(f5 - 1.0) / np.sqrt(f5 + 1.0),
            2.0 * np.sqrt(f5) / np.sqrt(f5 + 1.0),
        ]) / g5
        assert abs(float((expect ** 2).sum()) - 1.0) <= 1e-10
        assert np.max(np.abs(lam - expect)) <= 1e-9, d


# ---------------------------------------------------------------------------
# degenerate Bloch families and symmetry labels

def test_degenerate_bloch_families_match_numeric_reductions():
    rng = np.random.default_rng(353)
    for (name, n) in _DEG_FAMILY:
        if (name, n) == ("xxx", 2):
            continue
        d = 0.4 if name != "xxx" else -0.6
        for _ in range(4):
            p = _random_params(2, rng)
            bt = degenerate_bloch_family(name, n, p)
            num = bloch_triple(closed_form_eigenstate(name, n, d, p))
            assert np.max(np.abs(bt.as_array() - num.as_array())) <= 1e-10, (name, n)


def test_degenerate_bloch_family_errors():
    rng = np.random.default_rng(359)
    with pytest.raises(UnsupportedType):
        degenerate_bloch_family("xxx", 2, _random_params(4, rng))
    with pytest.raises(NotDegenerate):
        degenerate_bloch_family("tfim", 0, _random_params(2, rng))


def test_symmetry_labels_of_reference_states():
    lab = symmetry_labels(w_state())
    assert (lab.k, lab.m_z, lab.zflip, lab.refl) == (0, 1, -1, 1)
    lab = symmetry_labels(ghz())
    assert (lab.k, lab.p, lab.refl) == (0, 1, 1)
    assert lab.m_z is None
    for ket_, kk, mm in ((WT1_KET, 1, 1), (WT2_KET, 2, 1),
                         (X3WT1_KET, 1, -1), (X3WT2_KET, 2, -1)):
        lab = symmetry_labels(PureState3(ket_))
        assert (lab.k, lab.m_z) == (kk, mm)


def test_symmetry_labels_of_chain_states():
    lab = symmetry_labels(closed_form_eigenstate("tfim", 0, 0.7))
    assert (lab.k, lab.zflip) == (0, 1)
    assert lab.m_z is None
    lab = symmetry_labels(closed_form_eigenstate("tfim", 1, 0.7))
    assert (lab.k, lab.zflip) == (0, -1)
    assert symmetry_labels(closed_form_eigenstate("xzx", 5, 0.7)).k == 0


def test_batch_labels_match_the_per_state_labels():
    rng = np.random.default_rng(368)
    # ket 0 - ket 7 has spin-flip sign -1, ket 1 - ket 4 reversal sign -1
    states = [PureState3(WT1_KET), PureState3(X3WT2_KET), ghz(), w_state(),
              ket((0, 1.0), (7, -1.0)), ket((1, 1.0), (4, -1.0))]
    states += [closed_form_eigenstate("tfim", n, 0.7) for n in _nondeg_levels("tfim")]
    states += [closed_form_eigenstate("xxx", 1, 0.3, _random_params(2, rng)),
               closed_form_eigenstate("xzx", 4, 1.3)]
    states += [haar_state(rng) for _ in range(4)]
    cols = symmetry_label_rows(np.array([s.amp for s in states]))
    assert tuple(cols) == ("k", "p", "m_z", "refl", "zflip")
    rows = [SymmetryLabels(*row) for row in zip(*cols.values())]
    assert rows == [symmetry_labels(s) for s in states]
    for field, col in cols.items():
        seen = set(col)
        assert None in seen and len(seen) >= 3, field
    some = symmetry_label_rows(np.array([s.amp for s in states]), names=("m_z", "k"))
    assert tuple(some) == ("m_z", "k")
    assert all(np.array_equal(some[f], cols[f]) for f in some)
    with pytest.raises(ValidationError):
        symmetry_label_rows(np.array([s.amp for s in states]), names=("k", "spin"))


def test_generic_states_carry_no_labels():
    lab = symmetry_labels(haar_state(np.random.default_rng(367)))
    assert lab.k is None and lab.p is None
    assert lab.m_z is None and lab.refl is None and lab.zflip is None


# ---------------------------------------------------------------------------
# sweeps

def _same_bits(a, b) -> bool:
    def bits(x):
        return np.asarray(x, dtype=complex).reshape(-1).view(float)
    return np.array_equal(bits(a), bits(b))


@pytest.mark.parametrize("k", (2, 3, 4))
def test_one_row_draws_are_rows_of_the_batch_draw(k):
    rng_one, rng_batch = np.random.default_rng(8), np.random.default_rng(8)
    batch = _draw_members(k, 25, rng_batch)
    for row in batch:
        p = _random_params(k, rng_one)
        fields = (p.alpha, p.beta, p.gamma, p.delta)[:k]
        assert _same_bits(fields, row)
    assert rng_one.normal() == rng_batch.normal()


def _levels():
    """Every degenerate and non-degenerate level at one coupling per model,
    and the fused transverse-field subspace at delta = 1."""
    for name in MODELS:
        d = -0.6 if name == "xxx" else 0.7
        for n in range(LEVEL_COUNT[name]):
            family = _DEG_FAMILY.get((name, n))
            yield name, n, d, None if family is None else len(family[0])
    yield "tfim", 2, 1.0, 3
    yield "tfim", 3, 1.0, 3


@pytest.mark.parametrize("name, n, d, k", list(_levels()))
def test_one_row_calls_are_rows_of_the_batch_builders(name, n, d, k):
    coeffs = None if k is None else _draw_members(k, 30, np.random.default_rng(n))
    amps = _level_members(name, n, d, coeffs)
    taus = _level_tangles(name, n, d, coeffs)
    assert amps.shape == (len(taus), 8) and len(taus) == (1 if k is None else 30)
    rows = [None] if k is None else coeffs
    for row, amp, tau in zip(rows, amps, taus):
        params = None if row is None else SuperpositionParams(row[0], row[1].real, *row[2:])
        assert _same_bits(closed_form_eigenstate(name, n, d, params).amp, amp)
        assert _same_bits(closed_form_tangle(name, n, d, params), tau)


def test_sweep_rows_are_reproducible_and_complete():
    grid = [0.0, 0.5, 1.0, 1.7]
    first = sweep("tfim", grid, params_policy="mc", seed=5)
    again = sweep("tfim", grid, params_policy="mc", seed=5)
    for f in SWEEP_FIELDS:
        assert np.array_equal(getattr(first, f), getattr(again, f)), f
        assert len(getattr(first, f)) == len(first)
    assert sorted(set(first.delta)) == grid


def test_sweep_crossing_flags():
    table = sweep("tfim", [0.0, 0.3, 1.0, 2.0], params_policy="grid", seed=0)
    flagged = sorted({d for d, flag in zip(table.delta, table.crossing_flag) if flag})
    assert flagged == [0.0, 1.0]


def test_perturbed_sweep_drops_closed_columns():
    table = sweep("xx", [0.3, 0.8], perturb=1e-3, seed=2)
    assert len(table) == 16
    for col in (table.energy_closed, table.tau_closed):
        assert col.shape == (16,) and np.isnan(col).all()
    assert np.isfinite(table.tau_numeric).all()


@pytest.mark.parametrize("perturb", [1e307, 1e308, -1e308, 1.7e308, -1.7e308])
def test_a_probe_field_near_the_float_limit_sweeps_without_a_warning(perturb):
    # the levels lie near +-perturb, so the gap between levels of opposite
    # sign overflows a float; such a gap groups nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in MODELS:
            table = sweep(name, [0.3, 0.8], perturb=perturb, seed=2)
            assert len(table) == 16
            assert ((table.multiplicity >= 1) & (table.multiplicity <= 4)).all()
            assert ((table.tau_numeric >= 0.0) & (table.tau_numeric <= 1.0)).all()


@pytest.mark.parametrize("name, grid", [
    pytest.param("tfim", np.linspace(0.0, 2.5, 26), id="tfim"),
    pytest.param("xzx", np.linspace(0.0, 2.5, 26), id="xzx"),
    # eigh rounds relative to the spectrum, so at these couplings a level's
    # numeric energies lie more than GAP_TOL from the closed ones
    pytest.param("tfim", [1e6], id="tfim-1e6"),
    pytest.param("xzx", [1e6], id="xzx-1e6"),
    pytest.param("xx", [1e7], id="xx-1e7"),
])
def test_sweep_tangles_never_exceed_one(name, grid):
    # level 1 of tfim and level 0 of xzx are GHZ-like at delta = 0, where
    # rounding lands 4 |Hdet| and the closed form a few ulp above 1
    table = sweep(name, grid)
    assert max(table.tau_numeric) <= 1.0
    assert max(table.tau_closed) <= 1.0
    assert closed_form_tangle("tfim", 1, 0.0) <= 1.0


@pytest.mark.parametrize("name, policy, perturb", [
    ("tfim", "grid", 0.0), ("xx", "grid", 0.0), ("xzx", "grid", 0.0), ("xxx", "grid", 0.0),
    ("tfim", "mc", 0.0), ("xxx", "mc", 0.0), ("xzx", "grid", 1e-3), ("xxx", "grid", 1e-3)])
@pytest.mark.parametrize("points", (1, 11))
def test_sweep_measures_its_whole_grid_in_one_batch(monkeypatch, name, policy, perturb, points):
    calls = {"check_monogamy": 0, "_level_members": 0, "_level_tangles": 0}
    rows = {"invariants": [], "symmetry_label_rows": []}

    def counted(module, fname):
        fn = getattr(module, fname)

        def wrapper(*args, **kwargs):
            if fname in rows:
                rows[fname].append(len(args[0]))
            else:
                calls[fname] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, fname, wrapper)

    # the monogamy check runs inside entanglement._tangles
    counted(chains, "invariants")
    counted(chains, "symmetry_label_rows")
    counted(entanglement, "check_monogamy")
    # the closed forms are built once per level over the whole grid
    counted(chains, "_level_members")
    counted(chains, "_level_tangles")
    lo = -1.0 if name == "xxx" else 0.0
    table = sweep(name, np.linspace(lo, lo + 2.0, points), params_policy=policy,
                  perturb=perturb, seed=1)
    assert len(table) == points * (8 if perturb else 120 if name == "xxx" else 84)
    levels = 0 if perturb else LEVEL_COUNT[name]
    assert calls == {"check_monogamy": 1, "_level_members": levels, "_level_tangles": levels}
    if perturb or policy == "mc":
        # no member repeats: each row is its own
        distinct = len(table)
    else:
        # four non-degenerate levels per point and two 40-member lattices,
        # or for xxx two lattices and a four-fold level drawn per point
        distinct = 40 * points + 80 if name == "xxx" else 4 * points + 80
    # each distinct member is measured once, in one batch
    assert rows == {"invariants": [distinct], "symmetry_label_rows": [distinct]}


@pytest.mark.parametrize("policy", ("grid", "mc"))
@pytest.mark.parametrize("name", MODELS)
def test_gathered_sweep_columns_equal_those_of_the_expanded_rows(monkeypatch, name, policy):
    # 9 points keep the expanded batch within 1,365 rows (at most 120 per
    # point), the batch sizes over which invariants gives a row the same bits
    built = []
    closed_grid = chains._closed_grid

    def recorded(*args):
        built.append(closed_grid(*args))
        return built[-1]
    monkeypatch.setattr(chains, "_closed_grid", recorded)
    lo = -1.5 if name == "xxx" else 0.2
    table = sweep(name, np.linspace(lo, lo + 2.0, 9), params_policy=policy, seed=6)
    [(amps, index)] = built
    expanded = amps[index]
    assert len(expanded) == len(table) <= 1365
    r, c, hdet = entanglement.invariants(expanded)
    labels = symmetry_label_rows(expanded, names=("k", "p", "m_z"))
    assert _same_bits(table.tau_numeric, entanglement._tangles(hdet, r, c))
    for i, f in enumerate(("r_a", "r_b", "r_c")):
        assert _same_bits(getattr(table, f), r[:, i]), f
    for f, col in labels.items():
        assert getattr(table, f).tolist() == col.tolist(), f


@pytest.mark.parametrize("d, shift", [(0.5, 1e-8), (1e6, 1e-2)])
def test_a_wrong_closed_energy_is_refused_at_any_scale(monkeypatch, d, shift):
    # the matching tolerance is GAP_TOL scaled by the spectrum's size, about
    # 3e-3 at d = 1e6: a shift above it is a miss there, as 1e-8 is at 0.5
    energies = chains._energies

    def shifted(name, grid):
        levels, mults = energies(name, grid)
        return (levels[0] + shift, *levels[1:]), mults
    monkeypatch.setattr(chains, "_energies", shifted)
    with pytest.raises(NumericalError, match=f"tfim level 0 at delta = {d}:"):
        sweep("tfim", [d])


def test_sweep_validation():
    with pytest.raises(ValidationError):
        sweep("tfim", [0.5, 0.5])
    with pytest.raises(ValidationError):
        sweep("tfim", [0.5], params_policy="latin")
    with pytest.raises(UnknownModel):
        sweep("ising4", [0.5])


def test_field_probe_separates_degenerate_and_gapped_levels():
    xi = 1e-3
    z0 = pauli_string("ZII")
    d = 0.75
    # every level of the planar and isotropic rings is tangle-free, and a
    # small field picks out members that stay that way
    for name in ("xx", "xxx"):
        _, evecs = eigensystem(build_hamiltonian(name, d) + xi * z0)
        for j in range(8):
            assert tangle(PureState3(evecs[:, j])) < 1e-2
    # gapped levels of the other two rings barely move
    for name in ("tfim", "xzx"):
        ep, vp = eigensystem(build_hamiltonian(name, d) + xi * z0)
        closed = closed_form_spectrum(name, d)
        for n in _nondeg_levels(name):
            jp = int(np.argmin(np.abs(ep - closed[n][0])))
            shift = abs(tangle(PureState3(vp[:, jp]))
                        - closed_form_tangle(name, n, d))
            assert shift <= 10.0 * xi, (name, n)
