"""Pure three-qubit states: representation, local operations, samplers.

Amplitudes t_ijk are stored flat in lexicographic order of (i, j, k) with
qubit A the leftmost (slowest) index: t_000, t_001, ..., t_111.
"""
from __future__ import annotations

import json
import math
import numbers
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
        # np.linalg.norm's arithmetic for a complex vector, without its
        # argument handling
        re, im = amp.real, amp.imag
        n = math.sqrt(re.dot(re) + im.dot(im))
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

    @cached_property
    def canonical(self) -> "CanonicalForm":
        """The canonical form: the one row of canonical.decompose_rows for
        this state, computed on first use; the state's norm is already
        checked."""
        from .canonical import _decompose

        return _decompose(self.amp[None, :]).form(0)

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
        object.__setattr__(self, "u", _matrix2(self.u, "a local unitary"))
        _qubit(self.target, "target")


@dataclass(frozen=True, eq=False)
class SliceTensors:
    """The two 2x2 slices of the amplitude tensor along one qubit's index.

    Row/column of each slice are the remaining qubits in lexicographic order.
    """

    T0: np.ndarray
    T1: np.ndarray
    qubit: str

    def __post_init__(self):
        object.__setattr__(self, "T0", _matrix2(self.T0, "a slice"))
        object.__setattr__(self, "T1", _matrix2(self.T1, "a slice"))
        _qubit(self.qubit, "qubit")


def _matrix2(raw, what: str) -> np.ndarray:
    """raw as a new read-only 2x2 complex array; ValidationError unless it
    holds 4 complex numbers."""
    try:
        arr = np.array(raw, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or arr.size != 4:
        raise ValidationError(f"{what} must be a 2x2 complex matrix")
    arr = arr.reshape(2, 2)
    arr.flags.writeable = False
    return arr


def _qubit(q, what: str) -> str:
    """q, which must name one of QUBITS; ValidationError otherwise."""
    if not (isinstance(q, str) and q in QUBITS):
        raise ValidationError(f"{what} must be one of {QUBITS}, got {q!r}")
    return q


def _instance(x, cls):
    """x, which must be a cls; ValidationError otherwise."""
    if not isinstance(x, cls):
        raise ValidationError(f"expected a {cls.__name__}, got {type(x).__name__}")
    return x


def _check_tol(tol: float) -> None:
    """ValidationError unless tol is a finite non-negative real number."""
    # written so that NaN fails too
    if not isinstance(tol, numbers.Real) or not 0.0 <= tol < np.inf:
        raise ValidationError(f"tolerance must be finite and non-negative, got {tol}")


def _state(s) -> PureState3:
    """s, which must be a PureState3; ValidationError otherwise."""
    return _instance(s, PureState3)


def _check_norms(amps: np.ndarray) -> None:
    """The PureState3 norm check over every row of (m, 8) amplitudes: raise
    BadNormalization unless each row has norm 1 within NORM_TOL."""
    with np.errstate(over="ignore"):  # an overflowing norm is inf, and fails
        norms = np.linalg.norm(amps, axis=-1)
    bad = ~(np.abs(norms - 1.0) <= NORM_TOL)  # NaN norms fail too
    if bad.any():
        raise BadNormalization(f"state norm {norms[bad][0]} deviates from 1 beyond {NORM_TOL}")


def _rows8(raw) -> np.ndarray:
    """raw as C-contiguous (n, 8) complex rows; ValidationError otherwise."""
    try:
        arr = np.asarray(raw)
    except ValueError:  # ragged
        arr = None
    if arr is None or arr.dtype.kind not in "biufc" or arr.shape[1:] != (8,) or arr.ndim != 2:
        raise ValidationError("amplitude rows must be an (n, 8) array of complex numbers")
    return np.ascontiguousarray(arr, dtype=complex)


def _amp_rows(raw) -> np.ndarray:
    """raw as (n, 8) complex amplitude rows, each finite with norm 1 within
    NORM_TOL; ValidationError (BadNormalization for a norm) otherwise."""
    arr = _rows8(raw)
    if not np.isfinite(arr).all():
        raise ValidationError("amplitudes must be finite")
    _check_norms(arr)
    return arr


def _amps8(raw) -> np.ndarray:
    """raw as a new flat array of 8 complex amplitudes."""
    try:
        arr = np.array(raw, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError("amplitudes must be complex numbers") from None
    if arr.size != 8:
        raise ValidationError(f"a state has 8 amplitudes, got {arr.size}")
    return arr.reshape(8)


def normalize_rows(raw) -> np.ndarray:
    """Unit rows with normalize's phase convention, shape (n, 8).

    Each row is divided by its 2-norm and its global phase rotated so the
    first amplitude above 1e-12 in magnitude (lexicographic order) is real
    and non-negative. Row i is normalize(raw[i]).amp bit for bit: the norm
    is the BLAS dot of the real and imaginary parts, as np.linalg.norm
    computes it for one row, and magnitudes are hypot, as abs() of a complex
    scalar computes them. A row with a non-finite amplitude raises
    ValidationError and a row with every amplitude below 1e-15 ZeroVector.
    """
    arr = _rows8(raw)
    big = np.abs(arr.view(float)).max(axis=1, keepdims=True)
    # |z| is at least the larger of |Re z| and |Im z|, so only rows whose
    # parts are all below 1e-15 can be zero rows
    if len(arr) and not (big.min() >= _ZERO_AMP and big.max() < np.inf):
        if not np.isfinite(big).all():
            raise ValidationError("amplitudes must be finite")
        zero = (np.abs(arr) < _ZERO_AMP).all(axis=1)
        if zero.any():
            raise ZeroVector(f"all amplitudes of row {zero.argmax()} are below "
                             "1e-15 in magnitude")
    # scaling by the power of two frexp strips from the largest part is
    # exact, so the norm cannot overflow and ordinary inputs normalize to
    # the same bits as without it
    arr = arr * (np.frexp(big)[0] / big)
    re, im = arr.real[:, None], arr.imag[:, None]
    # a (1, 8) @ (8, 1) product per row is one BLAS dot, like norm's
    arr /= np.sqrt(re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0]
    # the column of each row's first significant amplitude: every unit row
    # has one
    lead = (np.hypot(arr.real, arr.imag) > _PHASE_REF).argmax(axis=1, keepdims=True)
    ref = arr[np.arange(len(arr))[:, None], lead]
    arr *= np.conj(ref) / np.hypot(ref.real, ref.imag)
    return arr


def normalize(raw) -> PureState3:
    """Build a PureState3 from arbitrary amplitudes: one row of
    normalize_rows.

    Divides by the 2-norm and fixes the global phase so the first nonzero
    amplitude (lexicographic order) is real and non-negative.
    """
    return PureState3(normalize_rows(_amps8(raw)[None])[0])


# einsum spec applying row n's 2x2 matrix to one qubit of (2, 2, 2, n)
# tensors, the row axis innermost in memory; unlike a matmul, it gives each
# row the same bits in any batch
_APPLY_SPEC = ("nij,jbcn->ibcn", "nij,ajcn->aicn", "nij,abjn->abin")


def _apply_rows(t3: np.ndarray, u: np.ndarray, axis: int) -> np.ndarray:
    """Row n of the (2, 2, 2, n) tensors with the 2x2 matrix u[n] applied
    to the qubit on the given axis (0, 1, 2 for A, B, C)."""
    return np.einsum(_APPLY_SPEC[axis], u, t3)


def _apply_local_rows(amps: np.ndarray, u: np.ndarray, target: str) -> np.ndarray:
    """Row i of the (n, 8) amplitudes with the 2x2 unitary u[i] applied to
    the target qubit, normalized; NonUnitary unless every u[i] is finite and
    u[i]+ u[i] is the identity within 1e-10."""
    with np.errstate(invalid="ignore", over="ignore"):
        dev = np.abs(np.conj(u).transpose(0, 2, 1) @ u - np.eye(2)).max(axis=(1, 2))
    bad = ~(dev <= 1e-10)  # a non-finite entry makes dev NaN or inf, which fails too
    if bad.any():
        i = int(bad.argmax())
        raise NonUnitary(f"u[{i}]+u[{i}] deviates from identity by {dev[i]:.3e}")
    t = _apply_rows(amps.T.reshape(2, 2, 2, -1), u, _AXIS[target])
    return normalize_rows(t.reshape(8, -1).T)


def apply_local_unitary(s: PureState3, lu: LocalUnitary) -> PureState3:
    """Apply a single-qubit unitary, one row of _apply_local_rows; all
    entanglement invariants are preserved."""
    lu = _instance(lu, LocalUnitary)
    return PureState3(_apply_local_rows(_state(s).amp[None], lu.u[None], lu.target)[0])


def slice_state(s: PureState3, qubit: str) -> SliceTensors:
    """Pull out the chosen qubit's index: T0 and T1 are the two 2x2 slices."""
    t = _state(s).tensor
    ax = _AXIS[_qubit(qubit, "qubit")]
    return SliceTensors(T0=np.take(t, 0, axis=ax), T1=np.take(t, 1, axis=ax), qubit=qubit)


def reassemble(st: SliceTensors) -> PureState3:
    """Inverse of slice_state, bit-exact."""
    ax = _AXIS[_instance(st, SliceTensors).qubit]
    t = np.stack([st.T0, st.T1], axis=ax)
    return PureState3(t.reshape(8))


def _generator(seed) -> np.random.Generator:
    """np.random.default_rng(seed): seed may be a non-negative int, a sequence
    of them, or a Generator; ValidationError otherwise."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise ValidationError(
            f"seed must be a non-negative integer or a Generator, got {seed!r}") from None


def sample_haar(seed) -> PureState3:
    """A Haar-random pure state: one row of _haar_amps, normalized."""
    return normalize(_haar_amps(1, _generator(seed))[0])


def _haar_amps(n: int, rng: np.random.Generator) -> np.ndarray:
    """n Haar-random amplitude rows, shape (n, 8); no phase convention applied."""
    v = rng.normal(size=(n, 8)) + 1j * rng.normal(size=(n, 8))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _haar_u2(g: np.ndarray) -> np.ndarray:
    """Haar-random unitaries from Ginibre matrices g (..., 2, 2).

    Each is the Q of g's QR factorization with R's diagonal made positive,
    which is Haar distributed (F. Mezzadri, Notices AMS 54, 592 (2007)), in
    closed form and real arithmetic: the first column is q1 = g[:, 0] /
    |g[:, 0]|, the second the complement (-conj q1[1], conj q1[0]) times the
    phase of R11 = q1[0] g[1, 1] - q1[1] g[0, 1]. Being elementwise, a row
    has the same bits in any batch.
    """
    re, im = g.real, g.imag
    ar, ai, br, bi = re[..., 0, 0], im[..., 0, 0], re[..., 1, 0], im[..., 1, 0]
    cr, ci, dr, di = re[..., 0, 1], im[..., 0, 1], re[..., 1, 1], im[..., 1, 1]
    norm = np.sqrt(ar * ar + ai * ai + br * br + bi * bi)
    x0, y0, x1, y1 = ar / norm, ai / norm, br / norm, bi / norm
    sr = x0 * dr - y0 * di - (x1 * cr - y1 * ci)
    si = x0 * di + y0 * dr - (x1 * ci + y1 * cr)
    mag = np.hypot(sr, si)
    pr, pi = sr / mag, si / mag
    # u[..., i, j] at out[i, j, ...]: each entry is one contiguous block
    # over the batch, so the returned view has the batch axes innermost
    out = np.empty((2, 2) + g.shape[:-2], dtype=complex)
    out.real[0, 0], out.imag[0, 0] = x0, y0
    out.real[1, 0], out.imag[1, 0] = x1, y1
    out.real[0, 1], out.imag[0, 1] = -(x1 * pr + y1 * pi), y1 * pr - x1 * pi
    out.real[1, 1], out.imag[1, 1] = x0 * pr + y0 * pi, x0 * pi - y0 * pr
    return out.transpose(*range(2, out.ndim), 0, 1)


def _haar_u2_batch(n: int, rng: np.random.Generator) -> np.ndarray:
    """n Haar-random unitaries per qubit, shape (3, n, 2, 2) in QUBITS order,
    the row axis innermost in memory.

    One normal draw holds, qubit after qubit, n real and then n imaginary
    2x2 parts: the same numbers as three successive draws of n matrices.
    """
    x = rng.normal(size=(3, 2, n, 2, 2))
    # one copy puts the rows innermost; the arithmetic after keeps that order
    x = x.transpose(0, 1, 3, 4, 2).copy().transpose(0, 1, 4, 2, 3)
    return _haar_u2(x[:, 0] + 1j * x[:, 1])


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


def _draw_squares(k: int, n: int, rng: np.random.Generator, lead: float = 0.0) -> np.ndarray:
    """n rows of k squared coefficients, shape (n, k): lead on the first
    slot plus (1 - lead) times a Dirichlet(1, ..., 1) draw, i.e. uniform on
    the part of the simplex where that slot holds at least lead; rows with a
    value below the floor are redrawn, for at most 200 rounds."""

    def draw(m):
        lam2 = rng.dirichlet(np.ones(k), size=m)
        if lead:
            lam2 *= 1.0 - lead
            lam2[:, 0] += lead
        return lam2

    lam2 = draw(n)
    for _ in range(200):
        if not lam2.min(initial=1.0) < _LAMBDA2_FLOOR:
            return lam2
        bad = lam2.min(axis=1) < _LAMBDA2_FLOOR
        lam2[bad] = draw(int(bad.sum()))
    raise NumericalError("simplex sampler failed to clear the floor")


def _draw_lambdas(support, n: int, rng: np.random.Generator,
                  lead: float = 0.0) -> np.ndarray:
    """n rows of canonical coefficients (l0..l4) on the support, shape (n, 5),
    their squares drawn by _draw_squares."""
    lam = np.zeros((n, 5))
    lam[:, list(support)] = np.sqrt(_draw_squares(len(support), n, rng, lead))
    return lam


def sample_type(t: str, seed) -> PureState3:
    """A random state of the requested entanglement type: one row of
    _sample_type_batch, normalized, so its coefficients carry the margins
    stated there. seed may be an int or a Generator."""
    return normalize(_sample_type_batch(t, 1, seed)[0])


def _sample_type_batch(t: str, n: int, seed) -> np.ndarray:
    """n amplitude rows of the given type, shape (n, 8).

    Canonical coefficients with the type's zero pattern (squared values
    uniform on the simplex, floored at 1e-4; one support per row for coarse
    ids with several), a phase uniform on [0, pi] when l1 is active, then
    three independent Haar-random local unitaries. seed may be an int or a
    Generator.

    The type holds by construction, with these margins against classify's
    tol = cd_tol = 1e-9:
    - every active coefficient of the draw is at least 1e-2. The draw is
      one of the row's canonical forms (a W type, 3a or 4a, has only one),
      and classify reads the one with the larger l0, so that l0 is at least
      1e-2 too. Its active l2, l3 and l4 are at least 1e-4, since l0^2 lj^2
      (j = 2, 3, 4) are local-unitary invariants (Acin et al., J. Phys. A 34,
      6725 (2001)) and l0 <= 1; so is an active l1 where l2 l3 = 0, since
      l1 l4 is then invariant too. A zero of the draw is zero on both forms
      but for l1 of 4c, which is drawn with l0^2 >= 1/2 (see the comment
      below). At the tie l0^2 -> 1/2 the other form's l1 shrinks with the l0
      gap, so where the 1e-12 tie-break may pick that form, its l1 is far
      below cd_tol;
    - a GHZ type has tau = 4 l0^2 l4^2 >= 4e-8; every other type has
      l0 l4 = 0, so tau = 0;
    - a qubit that is not split off has 1 - r^2 >= 4e-8: 1 - r_A^2 is
      4 l0^2 (l2^2 + l3^2 + l4^2), 1 - r_B^2 is at least 4 l0^2 (l3^2 +
      l4^2) and 1 - r_C^2 at least 4 l0^2 (l2^2 + l4^2), or 4 l1^2 l4^2
      where l0 = 0.
    Two readings have no margin. The other form of a type-5 draw has l1 = 0
    where it is a 4c form, a set of measure zero. And the zeros of l1 and l4
    of a W type are read through the decomposition's double-root cutoff,
    which misses on about 6 in a million 3a rows: their l1 reads above
    cd_tol and they classify as 4a.
    """
    if not isinstance(t, str) or t not in _TYPE_SUPPORTS:
        raise UnknownType(f"unknown entanglement type {t!r}")
    rng = _generator(seed)
    supports = _TYPE_SUPPORTS[t]
    # a type with one support draws no pick: integers(1) takes nothing from rng
    pick = rng.integers(len(supports), size=n) if len(supports) > 1 else None
    # With l1 = 0 the pencil det(z T0 + w T1) is w (z l0 l4 - w l2 l3); its
    # other root, w/z = x = l0 l4 / (l2 l3), gives l0'^2 = (l0^2 + x^2 (1 -
    # l0^2)) / (1 + x^2), which beats l0^2 exactly when l0^2 < 1/2, and
    # canonical_decompose keeps the larger l0. So a 4c canonical form has
    # l0^2 >= 1/2, and 4c is drawn there only.
    lead = 0.5 if t == "4c" else 0.0
    # rows innermost, as the applies want them
    amp = np.zeros((8, n), dtype=complex)
    for si, support in enumerate(supports):
        cols = np.arange(n) if pick is None else (pick == si).nonzero()[0]
        k = len(cols)
        if k == 0:  # an empty draw would take nothing from rng
            continue
        slots = np.array([_CD_AMP_IDX[j] for j in support])
        amp[slots[:, None], cols] = np.sqrt(_draw_squares(len(support), k, rng, lead)).T
        if 1 in support:
            amp[4, cols] *= np.exp(1j * rng.uniform(0.0, np.pi, size=k))
    t3 = amp.reshape(2, 2, 2, n)
    for axis, u in enumerate(_haar_u2_batch(n, rng)):
        t3 = _apply_rows(t3, u, axis)
    return np.ascontiguousarray(t3.reshape(8, n).T)
