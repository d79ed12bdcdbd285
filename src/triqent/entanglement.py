"""Entanglement observables: reduced densities, Bloch data, entropies,
concurrences, the Cayley hyperdeterminant, and the tangle.

invariants is the one implementation of the Bloch norms, pair concurrences
and hyperdeterminant, over (n, 8) amplitude rows. The scalar functions read
a state's row of it, which PureState3.invariants computes once per state;
reduce_one is the density-matrix route kept as an accessor and reference.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, OutOfRange, ValidationError
from .qstate import QUBITS, PureState3

PAIRS = ("AB", "AC", "BC")

_REDUCE_SPEC = {"A": "ajk,bjk->ab", "B": "jak,jbk->ab", "C": "jka,jkb->ab"}
_PAIR_SPEC = {"AB": "nijc,nklc->nijkl", "AC": "nibk,njbl->nikjl", "BC": "naik,najl->nikjl"}

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SY, _SY).real


@dataclass(frozen=True, eq=False)
class Qubit1Density:
    """One-qubit reduced density matrix with its Bloch vector."""

    rho: np.ndarray
    bloch: np.ndarray

    @property
    def r(self) -> float:
        """Bloch norm; 1 iff the marginal is pure."""
        return min(float(np.linalg.norm(self.bloch)), 1.0)


@dataclass(frozen=True)
class BlochTriple:
    """The three Bloch norms (r_A, r_B, r_C), each in [0, 1]."""

    r_a: float
    r_b: float
    r_c: float

    def as_array(self) -> np.ndarray:
        return np.array([self.r_a, self.r_b, self.r_c])


def reduce_one(s: PureState3, qubit: str) -> Qubit1Density:
    """Partial trace down to the named qubit."""
    if qubit not in _REDUCE_SPEC:
        raise ValidationError(f"qubit must be one of A, B, C, got {qubit!r}")
    t = s.tensor
    rho = np.einsum(_REDUCE_SPEC[qubit], t, t.conj())
    bloch = np.array(
        [
            2.0 * rho[0, 1].real,
            -2.0 * rho[0, 1].imag,
            (rho[0, 0] - rho[1, 1]).real,
        ]
    )
    return Qubit1Density(rho=rho, bloch=bloch)


def bloch_triple(s: PureState3) -> BlochTriple:
    return BlochTriple(*map(float, s.invariants[0]))


def entropy_from_norm(r: float, bits: bool = False) -> float:
    """Von Neumann entropy of a qubit marginal with Bloch norm r.

    S = ((1+r)/2) log(2/(1+r)) + ((1-r)/2) log(2/(1-r)), natural log by
    default; pass bits=True for log base 2. The r = 1 endpoint is exact.
    """
    # written so that NaN fails too
    if not -1e-12 <= r <= 1.0 + 1e-12:
        raise OutOfRange(f"Bloch norm {r} outside [0, 1]")
    r = min(max(float(r), 0.0), 1.0)
    p = 0.5 * (1.0 + r)
    q = 0.5 * (1.0 - r)
    s = p * np.log(2.0 / (1.0 + r))
    if q > 0.0:
        s += q * np.log(2.0 / (1.0 - r))
    return float(s / np.log(2.0)) if bits else float(s)


def concurrence_one_vs_rest(s: PureState3, qubit: str) -> float:
    """Concurrence of one qubit against the other two: sqrt(1 - r^2)."""
    if qubit not in QUBITS:
        raise ValidationError(f"qubit must be one of {QUBITS}, got {qubit!r}")
    r = float(s.invariants[0][QUBITS.index(qubit)])
    return float(np.sqrt(max(0.0, 1.0 - r * r)))


def _pair_rho(amps: np.ndarray, pair: str) -> np.ndarray:
    """The pair's two-qubit reduced density of each (n, 8) row, (n, 4, 4)."""
    t = amps.reshape(-1, 2, 2, 2)
    return np.einsum(_PAIR_SPEC[pair], t, t.conj()).reshape(-1, 4, 4)


def concurrence_pair(s: PureState3, pair: str) -> float:
    """Wootters concurrence of a two-qubit marginal (see invariants)."""
    if pair not in PAIRS:
        raise ValidationError(f"pair must be one of {PAIRS}, got {pair!r}")
    return float(s.invariants[1][PAIRS.index(pair)])


def hyperdeterminant(s: PureState3) -> complex:
    """Degree-4 polynomial invariant of the 2x2x2 amplitude tensor."""
    return s.invariants[2]


# how far above 1 a tangle may land before it is an error, not rounding: a
# state within NORM_TOL = 1e-12 of norm 1 has 4|Hdet| up to about 1 + 4e-12
_TAU_SLACK = 1e-10


def tangle(s: PureState3, check: bool = True) -> float:
    """Tripartite tangle tau = 4 |Hdet|, clipped at 1: GHZ reaches 1 up to
    rounding, which can land a few ulp above it. NumericalError if tau
    exceeds 1 by more than _TAU_SLACK.

    With check=True (default) the unclipped value is cross-validated by
    check_monogamy. One row of _tangles.
    """
    r, c, hdet = s.invariants
    return float(_tangles(np.array([hdet]), *((r[None], c[None]) if check else ()))[0])


def _tangles(hdet: np.ndarray, r=None, c=None) -> np.ndarray:
    """Tangles 4 |Hdet| of hdet (n,) from invariants, |.| by libm's hypot
    (as abs() of a complex scalar), clipped at 1; NumericalError if one
    exceeds 1 by more than _TAU_SLACK. Given the rows' r and c,
    check_monogamy cross-checks the unclipped values first."""
    tau = 4.0 * np.hypot(hdet.real, hdet.imag)
    if r is not None:
        check_monogamy(r, c, tau)
    top = tau.max(initial=0.0)
    if top > 1.0 + _TAU_SLACK:
        raise NumericalError(f"tangle {top} exceeds 1 by more than {_TAU_SLACK}")
    return np.minimum(tau, 1.0) if top > 1.0 else tau


def check_monogamy(r: np.ndarray, c: np.ndarray, tau: np.ndarray) -> None:
    """Raise unless every tangle tau (n,) matches the monogamy route
    C_A(BC)^2 - C_AB^2 - C_AC^2 of its row of r, c (from invariants) to
    1e-9; both routes are exact for pure states."""
    alt = np.maximum(0.0, 1.0 - r[:, 0] ** 2) - c[:, 0] ** 2 - c[:, 1] ** 2
    i = int(np.argmax(np.abs(tau - alt)))
    if abs(tau[i] - alt[i]) > 1e-9:
        raise NumericalError(
            f"tangle routes disagree: 4|Hdet| = {tau[i]}, monogamy = {alt[i]}")


# Flat amplitude indices of the two slices (T0, T1) along each qubit, each
# slice a 2x2 matrix over the other two qubits in lexicographic order.
_SLICES = np.array([
    [[0, 1, 2, 3], [4, 5, 6, 7]],
    [[0, 1, 4, 5], [2, 3, 6, 7]],
    [[0, 2, 4, 6], [1, 3, 5, 7]],
]).reshape(3, 2, 2, 2)


def _pencil(T0: np.ndarray, T1: np.ndarray):
    """Coefficients of det(z T0 + w T1) = c z^2 + m z w + a w^2.

    T0 and T1 are (..., 2, 2) slices; returns (c, m, a) = (det T0, mixed
    term, det T1). The discriminant m^2 - 4 a c is the Cayley
    hyperdeterminant, whichever qubit the slices were taken along.
    """
    c = T0[..., 0, 0] * T0[..., 1, 1] - T0[..., 0, 1] * T0[..., 1, 0]
    a = T1[..., 0, 0] * T1[..., 1, 1] - T1[..., 0, 1] * T1[..., 1, 0]
    m = (T0[..., 0, 0] * T1[..., 1, 1] + T1[..., 0, 0] * T0[..., 1, 1]
         - T0[..., 0, 1] * T1[..., 1, 0] - T1[..., 0, 1] * T0[..., 1, 0])
    return c, m, a


def invariants(amps: np.ndarray):
    """Bloch norms, pair concurrences and hyperdeterminant of (n, 8) rows.

    Returns r (n, 3) in qubit order A, B, C, c (n, 3) in PAIRS order and
    hdet (n,). With x0, x1 the slices along a qubit, its Bloch norm is
    hypot(|x0|^2 - |x1|^2, 2 |<x1, x0>|). The pair concurrence is the
    singular-value gap of N = [[2c, m], [m, 2a]], the pencil of the slices
    along the complementary qubit (N is F^dagger (Y x Y) F^* up to sign and
    conjugation, F the state as a pair-by-complement matrix), in the closed
    form sqrt((A00 - A11)^2 + 4 |A01|^2) / sqrt(|N|_F^2 + 2 |det N|) with
    A = N^dagger N, which keeps the gap accurate when it is small.
    """
    x = np.asarray(amps, dtype=complex).reshape(-1, 8)[:, _SLICES]
    x0, x1 = x[:, :, 0], x[:, :, 1]
    p = (x.real ** 2 + x.imag ** 2).sum(axis=(3, 4))
    rho01 = (x0 * x1.conj()).sum(axis=(2, 3))
    r = np.minimum(np.hypot(p[..., 0] - p[..., 1], 2.0 * np.abs(rho01)), 1.0)
    c, m, a = _pencil(x0, x1)
    hdet = m * m - 4.0 * a * c
    c2, a2 = np.abs(c) ** 2, np.abs(a) ** 2
    gap = 4.0 * np.hypot(c2 - a2, np.abs(c * m.conj() + m * a.conj()))
    scale = np.sqrt(4.0 * (c2 + a2) + 2.0 * np.abs(m) ** 2 + 2.0 * np.abs(hdet))
    # slices along C, B, A give the pairs AB, AC, BC; a product pair has N = 0
    conc = np.divide(gap, scale, out=np.zeros_like(gap), where=scale > 0.0)[:, ::-1]
    return r, conc, hdet[:, 0]
