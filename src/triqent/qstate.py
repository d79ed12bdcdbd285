"""Pure three-qubit states: representation, local operations, samplers.

Amplitudes t_ijk are stored flat in lexicographic order of (i, j, k) with
qubit A the leftmost (slowest) index: t_000, t_001, ..., t_111.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadNormalization,
    NonUnitary,
    NumericalError,
    UnknownType,
    ValidationError,
    ZeroVector,
)

QUBITS = ("A", "B", "C")
_AXIS = {"A": 0, "B": 1, "C": 2}

NORM_TOL = 1e-12
_ZERO_AMP = 1e-15
# below this magnitude an amplitude is skipped when fixing the global phase,
# so numerical dust cannot rotate the whole state
_PHASE_REF = 1e-12


@dataclass(frozen=True, eq=False)
class PureState3:
    """Normalized pure state of three qubits (8 complex amplitudes)."""

    amp: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amp, dtype=complex).reshape(8).copy()
        n = float(np.linalg.norm(amp))
        # written so that a NaN norm (from NaN or inf amplitudes) fails too
        if not abs(n - 1.0) <= NORM_TOL:
            raise BadNormalization(f"state norm {n} deviates from 1 beyond {NORM_TOL}")
        amp.flags.writeable = False
        object.__setattr__(self, "amp", amp)

    @property
    def tensor(self) -> np.ndarray:
        """The amplitudes as a (2, 2, 2) array indexed (A, B, C)."""
        return self.amp.reshape(2, 2, 2)

    @cached_property
    def invariants(self) -> tuple[np.ndarray, np.ndarray, complex]:
        """Bloch norms (A, B, C), pair concurrences (AB, AC, BC) and the
        hyperdeterminant: the one row of entanglement.invariants for this
        state, computed on first use."""
        from .entanglement import invariants

        r, c, hdet = invariants(self.amp[None, :])
        r, c = r[0], c[0]
        r.flags.writeable = c.flags.writeable = False
        return r, c, complex(hdet[0])

    def to_json(self) -> str:
        """Serialize as a JSON array of 8 [re, im] pairs."""
        return json.dumps([[a.real, a.imag] for a in self.amp])

    @classmethod
    def from_json(cls, text: str) -> "PureState3":
        pairs = json.loads(text)
        if not isinstance(pairs, list) or len(pairs) != 8:
            raise ValidationError("expected a JSON array of 8 [re, im] pairs")
        raw = np.array([complex(p[0], p[1]) for p in pairs])
        return normalize(raw)


@dataclass(frozen=True, eq=False)
class LocalUnitary:
    """A 2x2 unitary acting on one named qubit.

    The matrix is expected to satisfy u+ u = 1 to 1e-12; enforcement happens
    in apply_local_unitary (at 1e-10) so near-miss inputs fail loudly there.
    """

    u: np.ndarray
    target: str

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex).reshape(2, 2).copy()
        u.flags.writeable = False
        object.__setattr__(self, "u", u)
        if self.target not in QUBITS:
            raise ValidationError(f"target must be one of {QUBITS}, got {self.target!r}")


@dataclass(frozen=True, eq=False)
class SliceTensors:
    """The two 2x2 slices of the amplitude tensor along one qubit's index.

    Row/column of each slice are the remaining qubits in lexicographic order.
    """

    T0: np.ndarray
    T1: np.ndarray
    qubit: str


def _phase_fix(amp: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the first significant amplitude is real >= 0."""
    for a in amp:
        if abs(a) > _PHASE_REF:
            return amp * (np.conj(a) / abs(a))
    return amp


def normalize(raw) -> PureState3:
    """Build a PureState3 from arbitrary amplitudes.

    Divides by the 2-norm and fixes the global phase so the first nonzero
    amplitude (lexicographic order) is real and non-negative.
    """
    arr = np.array(raw, dtype=complex).reshape(8)
    big = float(np.abs(arr.view(float)).max())
    if not math.isfinite(big):
        raise ValidationError("amplitudes must be finite")
    if np.all(np.abs(arr) < _ZERO_AMP):
        raise ZeroVector("all amplitudes are below 1e-15 in magnitude")
    # scaling by a power of two is exact, so the norm cannot overflow and
    # ordinary inputs normalize to the same bits as without it
    arr = arr * 2.0 ** -math.frexp(big)[1]
    arr = arr / np.linalg.norm(arr)
    return PureState3(_phase_fix(arr))


def apply_local_unitary(s: PureState3, lu: LocalUnitary) -> PureState3:
    """Apply a single-qubit unitary; all entanglement invariants are preserved."""
    dev = float(np.max(np.abs(lu.u.conj().T @ lu.u - np.eye(2))))
    if dev > 1e-10:
        raise NonUnitary(f"u+u deviates from identity by {dev:.3e}")
    ax = _AXIS[lu.target]
    t = np.tensordot(lu.u, s.tensor, axes=([1], [ax]))
    t = np.moveaxis(t, 0, ax)
    return normalize(t.reshape(8))


def slice_state(s: PureState3, qubit: str) -> SliceTensors:
    """Pull out the chosen qubit's index: T0 and T1 are the two 2x2 slices."""
    if qubit not in QUBITS:
        raise ValidationError(f"qubit must be one of {QUBITS}, got {qubit!r}")
    t = s.tensor
    ax = _AXIS[qubit]
    T0 = np.take(t, 0, axis=ax)
    T1 = np.take(t, 1, axis=ax)
    return SliceTensors(T0=T0, T1=T1, qubit=qubit)


def reassemble(st: SliceTensors) -> PureState3:
    """Inverse of slice_state, bit-exact."""
    ax = _AXIS[st.qubit]
    t = np.stack([st.T0, st.T1], axis=ax)
    return PureState3(t.reshape(8))


def sample_haar(seed: int) -> PureState3:
    """A Haar-random pure state: 8 iid standard complex Gaussians, normalized."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    return normalize(v)


def _haar_amps(n: int, rng: np.random.Generator) -> np.ndarray:
    """n Haar-random amplitude rows, shape (n, 8); no phase convention applied."""
    v = rng.normal(size=(n, 8)) + 1j * rng.normal(size=(n, 8))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _haar_u2_batch(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


# Support patterns over the canonical coefficients (l0, l1, l2, l3, l4) for
# each entanglement type. Coarse ids with several sub-kinds list them all;
# the sampler picks one per draw. Amplitude slots: l0 -> t000, l1 -> t100,
# l2 -> t101, l3 -> t110, l4 -> t111.
_CD_AMP_IDX = (0, 4, 5, 6, 7)

_TYPE_SUPPORTS = {
    "1": ((0,),),
    "2a": ((1, 4), (0, 2), (0, 3)),  # splits A-BC, B-AC, C-AB
    "2b": ((0, 4),),
    "3a": ((0, 2, 3),),
    "3b": ((0, 3, 4), (0, 1, 4), (0, 2, 4)),
    "3b-12": ((0, 3, 4),),
    "3b-23": ((0, 1, 4),),
    "3b-13": ((0, 2, 4),),
    "4a": ((0, 1, 2, 3),),
    "4b": ((0, 1, 3, 4), (0, 1, 2, 4)),
    "4b-l2": ((0, 1, 3, 4),),
    "4b-l3": ((0, 1, 2, 4),),
    "4c": ((0, 2, 3, 4),),
    "5": ((0, 1, 2, 3, 4),),
}

TYPE_IDS = tuple(_TYPE_SUPPORTS)

# keep every active squared coefficient above this floor so sampled states sit
# safely away from neighboring strata
_LAMBDA2_FLOOR = 1e-4


def _draw_lambdas(support, rng: np.random.Generator):
    """One Dirichlet draw of squared coefficients on the support, floored."""
    for _ in range(200):
        lam2 = rng.dirichlet(np.ones(len(support)))
        if len(support) == 1 or lam2.min() >= _LAMBDA2_FLOOR:
            lam = np.zeros(5)
            lam[list(support)] = np.sqrt(lam2)
            return lam
    raise NumericalError("simplex sampler failed to clear the floor")


def sample_type(t: str, seed: int) -> PureState3:
    """A random state of the requested entanglement type.

    Draws canonical coefficients with the type's zero pattern (squared values
    uniform on the simplex, floored at 1e-4), a phase uniform on [0, pi] when
    l1 is active, reconstructs, then scrambles with three independent
    Haar-random local unitaries. The result is checked to classify back to
    the requested type; coarse ids accept their refined sub-kinds.
    """
    from .canonical import CanonicalForm, classify, reconstruct

    if t not in _TYPE_SUPPORTS:
        raise UnknownType(f"unknown entanglement type {t!r}")
    rng = np.random.default_rng(seed)
    supports = _TYPE_SUPPORTS[t]
    for _ in range(100):
        support = supports[int(rng.integers(len(supports)))]
        lam = _draw_lambdas(support, rng)
        phi = float(rng.uniform(0.0, np.pi)) if lam[1] > 0 else 0.0
        out = reconstruct(CanonicalForm(lambdas=tuple(lam), phi=phi, branch="plus"))
        for q in QUBITS:
            out = apply_local_unitary(out, LocalUnitary(_haar_u2_batch(1, rng)[0], q))
        got = classify(out)
        if got.kind == t or got.kind.startswith(t + "-"):
            return out
    raise NumericalError(f"could not produce a state classifying as {t!r}")


def _sample_type_batch(t: str, n: int, seed: int) -> np.ndarray:
    """n amplitude rows of the given type, vectorized, without classify checks.

    Same construction as sample_type (Dirichlet coefficients, floored, local
    unitary scramble); used by the Monte Carlo verification passes where the
    per-sample classify round-trip would dominate the runtime.
    """
    if t not in _TYPE_SUPPORTS:
        raise UnknownType(f"unknown entanglement type {t!r}")
    rng = np.random.default_rng(seed)
    supports = _TYPE_SUPPORTS[t]
    pick = rng.integers(len(supports), size=n)
    amp = np.zeros((n, 8), dtype=complex)
    for si, support in enumerate(supports):
        mask = pick == si
        k = int(mask.sum())
        if k == 0:
            continue
        lam2 = rng.dirichlet(np.ones(len(support)), size=k)
        if len(support) > 1:
            for _ in range(200):
                bad = lam2.min(axis=1) < _LAMBDA2_FLOOR
                if not bad.any():
                    break
                lam2[bad] = rng.dirichlet(np.ones(len(support)), size=int(bad.sum()))
        lam = np.sqrt(lam2)
        sub = np.zeros((k, 8), dtype=complex)
        for j, slot in enumerate(support):
            sub[:, _CD_AMP_IDX[slot]] = lam[:, j]
        if 1 in support:
            sub[:, 4] = sub[:, 4] * np.exp(1j * rng.uniform(0.0, np.pi, size=k))
        amp[mask] = sub
    t3 = amp.reshape(n, 2, 2, 2)
    u = _haar_u2_batch(n, rng)
    t3 = np.einsum("nij,njbc->nibc", u, t3)
    u = _haar_u2_batch(n, rng)
    t3 = np.einsum("nij,najc->naic", u, t3)
    u = _haar_u2_batch(n, rng)
    t3 = np.einsum("nij,nabj->nabi", u, t3)
    return t3.reshape(n, 8)
