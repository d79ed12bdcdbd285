"""Reduced densities, entropies, concurrences, hyperdeterminant, tangle."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import ghz, haar_state, ket, w_state
from triqent import (
    GHZ_KET,
    PAIRS,
    NumericalError,
    OutOfRange,
    PureState3,
    ValidationError,
    bloch_triple,
    concurrence_one_vs_rest,
    concurrence_pair,
    entropy_from_norm,
    hyperdeterminant,
    normalize,
    reduce_one,
    tangle,
)
from triqent.entanglement import _pair_rho, _YY, invariants
from triqent.qstate import _sample_type_batch


def test_reduced_density_is_a_valid_qubit_state():
    rng = np.random.default_rng(17)
    for _ in range(60):
        s = haar_state(rng)
        for q in ("A", "B", "C"):
            den = reduce_one(s, q)
            assert np.max(np.abs(den.rho - den.rho.conj().T)) <= 1e-12
            ev = np.linalg.eigvalsh(den.rho)
            assert ev.min() >= -1e-12
            assert abs(ev.sum() - 1.0) <= 1e-12
            # Bloch-vector norm against the purity route
            r_purity = np.sqrt(max(0.0, 2.0 * float(np.trace(den.rho @ den.rho).real) - 1.0))
            assert abs(den.r - r_purity) <= 1e-10
    with pytest.raises(ValidationError):
        reduce_one(s, "AB")


def test_marginal_entropy_routes_agree():
    rng = np.random.default_rng(23)
    for _ in range(40):
        s = haar_state(rng)
        den = reduce_one(s, "B")
        p = np.clip(np.linalg.eigvalsh(den.rho), 1e-300, None)
        assert abs(entropy_from_norm(den.r) + float((p * np.log(p)).sum())) <= 1e-10


def test_entropy_endpoints_and_units():
    assert entropy_from_norm(1.0) == 0.0
    assert abs(entropy_from_norm(0.0) - np.log(2.0)) <= 1e-15
    assert abs(entropy_from_norm(0.0, bits=True) - 1.0) <= 1e-15
    expect = -(0.8 * np.log(0.8) + 0.2 * np.log(0.2))
    assert abs(entropy_from_norm(0.6) - expect) <= 1e-15
    vals = [entropy_from_norm(r) for r in np.linspace(0.0, 1.0, 64)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_entropy_domain_errors():
    with pytest.raises(OutOfRange):
        entropy_from_norm(1.01)
    with pytest.raises(OutOfRange):
        entropy_from_norm(-0.01)
    with pytest.raises(OutOfRange):
        entropy_from_norm(np.nan)


def test_bloch_anchors():
    assert np.max(np.abs(bloch_triple(ghz()).as_array())) <= 1e-12
    assert np.max(np.abs(bloch_triple(w_state()).as_array() - 1.0 / 3.0)) <= 1e-12
    assert np.max(np.abs(bloch_triple(ket((0, 1.0))).as_array() - 1.0)) <= 1e-12


def test_one_vs_rest_concurrence_matches_norm():
    rng = np.random.default_rng(31)
    for _ in range(30):
        s = haar_state(rng)
        bt = bloch_triple(s)
        for q, r in zip("ABC", bt.as_array()):
            assert abs(concurrence_one_vs_rest(s, q)
                       - np.sqrt(1.0 - r * r)) <= 1e-12


def test_pair_concurrence_agrees_with_eigenvalue_route():
    """The production singular-value route against the textbook
    sqrt-eigenvalues-of-rho-rho-tilde route, which loses more digits but is
    an independent derivation."""
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(300):
        s = haar_state(rng)
        for pair in PAIRS:
            rho = _pair_rho(s.amp, pair)[0]
            rt = rho @ _YY @ rho.conj() @ _YY
            mu = np.sqrt(np.sort(np.clip(np.linalg.eigvals(rt).real, 0.0, None))[::-1])
            ref = max(0.0, mu[0] - mu[1] - mu[2] - mu[3])
            worst = max(worst, abs(concurrence_pair(s, pair) - ref))
    assert worst <= 1e-7


def test_kernel_matches_the_density_matrix_and_svd_routes():
    """Kernel Bloch norms against reduce_one and kernel concurrences against
    the singular values of F^dagger (Y x Y) F^*, F the state as a 4 x 2
    pair-by-complement matrix, on every coarse type; the 3a and 4c strata
    hold Bloch norms where a purity route cancels."""
    pair_axes = ((0, 1, 2), (0, 2, 1), (1, 2, 0))  # PAIRS, complement last
    for i, kind in enumerate(("1", "2a", "2b", "3a", "3b", "4a", "4b", "4c", "5")):
        amps = _sample_type_batch(kind, 2000, 1000 + i)
        r, c, _ = invariants(amps)
        ref = np.array([[np.linalg.norm(reduce_one(PureState3(a), q).bloch)
                         for q in "ABC"] for a in amps])
        assert float(np.abs(r - ref).max()) <= 1e-14, kind
        t = amps.reshape(-1, 2, 2, 2)
        for j, axes in enumerate(pair_axes):
            f = np.transpose(t, (0, *(ax + 1 for ax in axes))).reshape(-1, 4, 2)
            sv = np.linalg.svd(np.conj(f).transpose(0, 2, 1) @ _YY @ np.conj(f),
                               compute_uv=False)
            gap = np.clip(sv[:, 0] - sv[:, 1], 0.0, None)
            assert float(np.abs(c[:, j] - gap).max()) <= 1e-14, (kind, PAIRS[j])


def test_concurrence_anchors():
    for pair in PAIRS:
        assert abs(concurrence_pair(w_state(), pair) - 2.0 / 3.0) <= 1e-12
    bell_bc = ket((0, 1.0), (3, 1.0))
    assert abs(concurrence_pair(bell_bc, "BC") - 1.0) <= 1e-12
    assert concurrence_pair(bell_bc, "AB") <= 1e-12
    assert concurrence_pair(bell_bc, "AC") <= 1e-12
    with pytest.raises(ValidationError):
        concurrence_pair(bell_bc, "CA")


def test_tangle_anchors():
    assert abs(tangle(ghz()) - 1.0) <= 1e-12
    assert abs(abs(hyperdeterminant(ghz())) - 0.25) <= 1e-12
    assert tangle(w_state()) <= 1e-12
    assert tangle(ket((0, 1.0))) <= 1e-12
    for idx in (3, 5, 6):
        assert tangle(ket((0, 1.0), (idx, 1.0))) <= 1e-12


def test_monogamy_and_pivot_independence():
    n = 2000
    rng = np.random.default_rng(53)
    amps = np.empty((n, 8), dtype=complex)
    for i in range(n):
        amps[i] = haar_state(rng).amp
    r, c, hdet = invariants(amps)
    tau = 4.0 * np.abs(hdet)
    cap = 1.0 - r ** 2
    ab2, ac2, bc2 = c[:, 0] ** 2, c[:, 1] ** 2, c[:, 2] ** 2
    assert float((ab2 + ac2 - cap[:, 0]).max()) <= 1e-9
    assert float((ab2 + bc2 - cap[:, 1]).max()) <= 1e-9
    assert float((ac2 + bc2 - cap[:, 2]).max()) <= 1e-9
    # residual tangle is the same no matter which qubit plays the pivot
    for piv in (cap[:, 0] - ab2 - ac2, cap[:, 1] - ab2 - bc2,
                cap[:, 2] - ac2 - bc2):
        assert float(np.abs(piv - tau).max()) <= 1e-9


def test_tangle_stays_in_unit_interval():
    rng = np.random.default_rng(61)
    for _ in range(150):
        t = tangle(haar_state(rng))
        assert -1e-12 <= t <= 1.0 + 1e-12


def test_tangle_clips_only_a_rounding_excess():
    s = normalize(GHZ_KET)
    assert 4.0 * abs(hyperdeterminant(s)) > 1.0  # rounds 2 ulp above 1
    assert tangle(s) == 1.0
    # a tangle far above 1 is a defect, not rounding, with or without the
    # monogamy cross-check
    far = normalize(GHZ_KET)
    r, c, _ = far.invariants
    far.__dict__["invariants"] = (r, c, 0.325 + 0j)
    with pytest.raises(NumericalError, match="disagree"):
        tangle(far)
    with pytest.raises(NumericalError, match="exceeds 1"):
        tangle(far, check=False)


def test_tangle_cross_check_can_be_disabled():
    rng = np.random.default_rng(71)
    for _ in range(20):
        s = haar_state(rng)
        assert tangle(s, check=False) == pytest.approx(tangle(s), abs=1e-15)
