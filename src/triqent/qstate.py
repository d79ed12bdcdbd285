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
        amp = _amps8(self.amp)
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
        try:
            pairs = json.loads(text)
            if isinstance(pairs, list) and len(pairs) == 8 and all(
                    isinstance(p, list) and len(p) == 2
                    and all(type(x) in (int, float) for x in p) for p in pairs):
                return normalize([complex(re, im) for re, im in pairs])
        except (ValueError, OverflowError) as exc:
            raise ValidationError(f"could not parse a state: {exc}") from None
        raise ValidationError("expected a JSON array of 8 [re, im] pairs of real numbers")


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


def _check_norms(amps: np.ndarray) -> None:
    """The PureState3 norm check over every row of (m, 8) amplitudes: raise
    BadNormalization unless each row has norm 1 within NORM_TOL."""
    norms = np.linalg.norm(amps, axis=-1)
    bad = ~(np.abs(norms - 1.0) <= NORM_TOL)  # NaN norms fail too
    if bad.any():
        raise BadNormalization(f"state norm {norms[bad][0]} deviates from 1 beyond {NORM_TOL}")


def _amps8(raw) -> np.ndarray:
    """raw as a new flat array of 8 complex amplitudes."""
    try:
        arr = np.array(raw, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError("amplitudes must be complex numbers") from None
    if arr.size != 8:
        raise ValidationError(f"a state has 8 amplitudes, got {arr.size}")
    return arr.reshape(8)


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
    arr = _amps8(raw)
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


def sample_haar(seed) -> PureState3:
    """A Haar-random pure state: one row of _haar_amps, normalized."""
    return normalize(_haar_amps(1, np.random.default_rng(seed))[0])


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


def _draw_lambdas(support, n: int, rng: np.random.Generator,
                  lead: float = 0.0) -> np.ndarray:
    """n rows of canonical coefficients (l0..l4) on the support, shape (n, 5).

    The squared values are lead on the first support slot plus (1 - lead)
    times a Dirichlet(1, ..., 1) draw, i.e. uniform on the part of the
    simplex where that slot holds at least lead; rows with an active value
    below the floor are redrawn, for at most 200 rounds.
    """
    k, e0 = len(support), np.eye(len(support))[0]

    def draw(m):
        return lead * e0 + (1.0 - lead) * rng.dirichlet(np.ones(k), size=m)

    lam2 = draw(n)
    for _ in range(200):
        bad = lam2.min(axis=1) < _LAMBDA2_FLOOR
        if not bad.any():
            break
        lam2[bad] = draw(int(bad.sum()))
    else:
        raise NumericalError("simplex sampler failed to clear the floor")
    lam = np.zeros((n, 5))
    lam[:, list(support)] = np.sqrt(lam2)
    return lam


def sample_type(t: str, seed) -> PureState3:
    """A random state of the requested entanglement type.

    One row of _sample_type_batch, normalized, checked to classify back to
    the requested type (coarse ids accept their refined sub-kinds) and
    redrawn from the same generator if it does not.
    """
    from .canonical import classify

    rng = np.random.default_rng(seed)
    for _ in range(100):
        out = normalize(_sample_type_batch(t, 1, rng)[0])
        got = classify(out).kind
        if got == t or got.startswith(t + "-"):
            return out
    raise NumericalError(f"could not produce a state classifying as {t!r}")


def _sample_type_batch(t: str, n: int, seed) -> np.ndarray:
    """n amplitude rows of the given type, shape (n, 8).

    Canonical coefficients with the type's zero pattern (squared values
    uniform on the simplex, floored at 1e-4; one support per row for coarse
    ids with several), a phase uniform on [0, pi] when l1 is active, then
    three independent Haar-random local unitaries. seed may be an int or a
    Generator.
    """
    if t not in _TYPE_SUPPORTS:
        raise UnknownType(f"unknown entanglement type {t!r}")
    rng = np.random.default_rng(seed)
    supports = _TYPE_SUPPORTS[t]
    pick = rng.integers(len(supports), size=n)
    # With l1 = 0 the pencil det(z T0 + w T1) is w (z l0 l4 - w l2 l3); its
    # other root, w/z = x = l0 l4 / (l2 l3), gives l0'^2 = (l0^2 + x^2 (1 -
    # l0^2)) / (1 + x^2), which beats l0^2 exactly when l0^2 < 1/2, and
    # canonical_decompose keeps the larger l0. So a 4c canonical form has
    # l0^2 >= 1/2, and 4c is drawn there only.
    lead = 0.5 if t == "4c" else 0.0
    amp = np.zeros((n, 8), dtype=complex)
    for si, support in enumerate(supports):
        mask = pick == si
        k = int(mask.sum())
        lam = _draw_lambdas(support, k, rng, lead).astype(complex)
        if 1 in support:
            lam[:, 1] *= np.exp(1j * rng.uniform(0.0, np.pi, size=k))
        amp[np.ix_(mask, _CD_AMP_IDX)] = lam
    t3 = amp.reshape(n, 2, 2, 2)
    for spec in ("nij,njbc->nibc", "nij,najc->naic", "nij,nabj->nabi"):
        t3 = np.einsum(spec, _haar_u2_batch(n, rng), t3)
    return t3.reshape(n, 8)
