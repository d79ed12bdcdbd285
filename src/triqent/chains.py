"""Four exactly solvable 3-site spin chains with periodic boundaries.

Builds the Hamiltonians, diagonalizes them numerically, evaluates every
closed-form level energy, eigenstate, tangle and Bloch norm, labels states
by their symmetry eigenvalues, sweeps the coupling, and probes how robust
each level's tangle is under a symmetry-breaking perturbation.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .entanglement import BlochTriple, _tangles, invariants
from .errors import (
    ConvergenceFailure,
    CrossingPoint,
    NeedParams,
    NotDegenerate,
    NumericalError,
    OutOfDomain,
    UnknownModel,
    UnsupportedType,
    ValidationError,
)
from .qstate import PureState3, _check_norms, _check_tol, _instance, _rows8, _state

MODELS = ("tfim", "xx", "xxx", "xzx")

# couplings where two or more closed-form levels coincide
CROSSINGS = {
    "tfim": (0.0, 1.0),
    "xx": (0.0, 0.5, 1.0, 2.0, 3.0),
    "xxx": (-0.5, 1.0),
    "xzx": (0.0, 1.0),
}

GAP_TOL = 1e-9

# a coupling window per model that contains all of its CROSSINGS
DELTA_RANGES = {
    "tfim": (0.0, 2.5),
    "xx": (0.0, 3.5),
    "xxx": (-2.0, 2.0),
    "xzx": (0.0, 2.5),
}

_I2 = np.eye(2, dtype=complex)
_PAULI = {
    "I": _I2,
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def pauli_string(s: str) -> np.ndarray:
    """Kronecker product of three single-site Pauli or identity factors."""
    if not isinstance(s, str) or len(s) != 3 or any(ch not in _PAULI for ch in s):
        raise ValidationError(f"expected a 3-letter string over I/X/Y/Z, got {s!r}")
    return np.kron(np.kron(_PAULI[s[0]], _PAULI[s[1]]), _PAULI[s[2]])


_TERMS = {
    "tfim": (
        ("unit", -1.0, "XXI"), ("unit", -1.0, "IXX"), ("unit", -1.0, "XIX"),
        ("delta", -1.0, "ZII"), ("delta", -1.0, "IZI"), ("delta", -1.0, "IIZ"),
    ),
    "xx": (
        ("unit", -1.0, "XXI"), ("unit", -1.0, "IXX"), ("unit", -1.0, "XIX"),
        ("unit", -1.0, "YYI"), ("unit", -1.0, "IYY"), ("unit", -1.0, "YIY"),
        ("delta", -1.0, "ZII"), ("delta", -1.0, "IZI"), ("delta", -1.0, "IIZ"),
    ),
    "xxx": (
        ("unit", 1.0, "XXI"), ("unit", 1.0, "IXX"), ("unit", 1.0, "XIX"),
        ("unit", 1.0, "YYI"), ("unit", 1.0, "IYY"), ("unit", 1.0, "YIY"),
        ("delta", 1.0, "ZZI"), ("delta", 1.0, "IZZ"), ("delta", 1.0, "ZIZ"),
    ),
    "xzx": (
        ("unit", -1.0, "XZX"), ("unit", -1.0, "XXZ"), ("unit", -1.0, "ZXX"),
        ("delta", -1.0, "ZII"), ("delta", -1.0, "IZI"), ("delta", -1.0, "IIZ"),
    ),
}


# every Pauli string of the Hamiltonians, ZII (the probe field) among them,
# built once and read-only
_PAULI_TABLE = {s: pauli_string(s) for terms in _TERMS.values() for _, _, s in terms}
for _m in _PAULI_TABLE.values():
    _m.flags.writeable = False
_EIGHT = np.arange(8)


def _finite(x) -> bool:
    """math.isfinite, where an int beyond the float range is not finite."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _couplings(name: str, delta) -> np.ndarray:
    """delta as a float array: OutOfDomain where a coupling lies beyond the
    float range, ValidationError where one is not a real number."""
    try:
        return np.asarray(delta, dtype=float)
    except OverflowError:
        raise OutOfDomain(f"{name} needs a finite delta, got one beyond the float range") from None
    except (TypeError, ValueError):
        raise ValidationError(f"couplings must be real numbers, got {delta!r}") from None


def _check_model(name: str, deltas=()) -> None:
    """Refuse an unknown model name, then the first coupling outside the
    model's domain: every delta must be finite, and non-negative except for
    xxx."""
    if name not in MODELS:
        raise UnknownModel(f"model must be one of {MODELS}, got {name!r}")
    for d in deltas:
        if not _finite(d):
            raise OutOfDomain(f"{name} needs a finite delta, got {d}")
        if name != "xxx" and d < 0.0:
            raise OutOfDomain(f"{name} needs delta >= 0, got {d}")


def _one_coupling(model, delta) -> tuple[str, float]:
    """The model's name and delta as one float coupling in its domain."""
    if delta is None:
        raise ValidationError("delta is required when the model is given by name")
    name = str(model)
    d = _couplings(name, delta)
    if d.ndim != 0:
        raise ValidationError(f"expected one coupling, got shape {d.shape}")
    _check_model(name, (float(d),))
    return name, float(d)


def build_hamiltonian(model, delta=None) -> np.ndarray:
    """Assemble the 8 by 8 Hamiltonian from the model's Pauli terms.

    With a model name and a 1-D sequence of P couplings, gives the (P, 8, 8)
    stack of their Hamiltonians, each summed term by term in the same order
    as a one-coupling call, so each matrix equals that call's bit for bit.
    """
    if np.ndim(delta) == 0:
        name, d = _one_coupling(model, delta)
    else:
        name = str(model)
        d = _couplings(name, delta)
        if d.ndim != 1:
            raise ValidationError(f"expected one coupling or a 1-D grid, got shape {d.shape}")
        _check_model(name, d.tolist())
        d = d[:, None, None]
    h = np.zeros(np.shape(d)[:1] + (8, 8), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for role, sign, s in _TERMS[name]:
            h += (sign if role == "unit" else sign * d) * _PAULI_TABLE[s]
    if not np.isfinite(h).all():
        finite = np.isfinite(h).reshape(-1, 64).all(axis=1)
        raise OutOfDomain(f"{name} Hamiltonian overflows at delta = {np.ravel(d)[~finite][0]}")
    return h


def eigensystem(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian h.

    Each eigenvector's phase is fixed by making its largest-magnitude
    component real and positive, so repeated runs on the same machine give
    identical output. A (P, 8, 8) stack gives (P, 8) eigenvalues and
    (P, 8, 8) eigenvectors from one solver call, each matrix's equal bit for
    bit to its one-matrix call.
    """
    try:
        h = np.asarray(h, dtype=complex)
    except (TypeError, ValueError):
        raise ValidationError("expected an 8 x 8 matrix of complex numbers") from None
    if h.ndim not in (2, 3) or h.shape[-2:] != (8, 8):
        raise ValidationError(
            f"expected an 8 x 8 matrix or a (P, 8, 8) stack, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValidationError("matrix has non-finite entries")
    if np.abs(h - h.swapaxes(-1, -2).conj()).max(initial=0.0) > 1e-10:
        raise ValidationError("matrix is not Hermitian within 1e-10")
    try:
        evals, vecs = np.linalg.eigh(h.reshape(-1, 8, 8))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from None
    lead = vecs[np.arange(len(vecs))[:, None], np.argmax(np.abs(vecs), axis=1), _EIGHT]
    vecs = vecs * (np.conj(lead) / _abs(lead))[:, None, :]
    return (evals, vecs) if h.ndim == 3 else (evals[0], vecs[0])


# The closed forms below take one coupling d or a grid d (P,), as a float, an
# int or an array, and give numpy values shaped like d: one coupling is the
# 0-d case of the grid formulas, so a coupling's bits do not depend on the
# grid it is in. Overflow to inf (and inf - inf) is silent and is refused by
# _refuse_overflow, which names the first coupling at fault. An f that tends
# to 0 as d grows is written without cancellation: with a, b = sqrt(1 +- d +
# d^2), 2b - 2d + 1 = (2b + d + 1) / (b + d)^2 and 2a - 2d - 1 = (2a + d - 1)
# / (a + d)^2, since a - d = (1 + d) / (a + d) and b - d = (1 - d) / (b + d).

def _ab(d):
    """d as floats, sqrt(1 + d + d^2) and sqrt(1 - d + d^2); inf where d^2
    overflows."""
    d = np.asarray(d, dtype=float)
    return d, np.sqrt(1.0 + d + d * d), np.sqrt(1.0 - d + d * d)


def _refuse_overflow(name: str, d, values) -> None:
    """Refuse the first coupling of d at which one of values, closed energies
    or normalizers, overflowed."""
    finite = np.isfinite(np.stack(values)).all(axis=0)
    if not finite.all():
        raise OutOfDomain(
            f"{name} closed form overflows at delta = {np.ravel(d)[~np.ravel(finite)][0]}")


# each model's closed energies in listing order, from (d, a, b) of _ab
_ENERGIES = {
    "tfim": lambda d, a, b: (-d - 2 * b - 1, d - 2 * a - 1, -d + 2 * b - 1, 1 - d, d + 1,
                             d + 2 * a - 1),
    "xx": lambda d, a, b: (-d - 4, d - 4, -3 * d, 3 * d, 2 - d, 2 + d),
    "xxx": lambda d, a, b: (3 * d, 4 - d, -d - 2),
    "xzx": lambda d, a, b: (d - 2 * a - 1, -d - 2 * a + 1, -1 + d, 1 - d, d + 2 * a - 1,
                            -d + 2 * a + 1),
}


def _energies(name: str, d) -> tuple[tuple, tuple[int, ...]]:
    """The closed energies of every level in listing order, and the generic
    multiplicities."""
    with np.errstate(over="ignore", invalid="ignore"):
        d, a, b = _ab(d)
        energies = _ENERGIES[name](d, a, b)
    _refuse_overflow(name, d, energies)
    return energies, _MULTS[name]


def closed_form_spectrum(model, delta: float | None = None) -> list[tuple[float, int]]:
    """Exact (energy, multiplicity) levels in their conventional listing order.

    The listing order is the stable label n used by the eigenstate and tangle
    formulas; it is ascending in energy for small coupling but levels may
    pass each other as delta grows. Multiplicities are the generic ones,
    valid away from crossings; use merge_levels to fold coincidences. The
    energies are the 0-d case of the formulas a sweep evaluates over its
    whole grid, so they equal that grid's bit for bit.
    """
    name, d = _one_coupling(model, delta)
    energies, mults = _energies(name, d)
    return [(float(e), m) for e, m in zip(energies, mults)]


def merge_levels(levels, tol: float = GAP_TOL) -> list[tuple[float, int]]:
    """Ascending levels with coincident energies merged into one entry."""
    _check_tol(tol)
    try:
        levels = [(e, m) for e, m in levels]
    except (TypeError, ValueError):
        raise ValidationError("levels must be (energy, multiplicity) pairs") from None
    for e, m in levels:
        if not (isinstance(e, numbers.Real) and _finite(e) and isinstance(m, numbers.Integral)
                and m >= 1):
            raise ValidationError(
                f"a level is a finite energy and a positive integer multiplicity, got {(e, m)}")
    out: list[list] = []
    for e, m in sorted(levels, key=lambda em: em[0]):
        if out and abs(e - out[-1][0]) <= tol:
            out[-1][1] += m
        else:
            out.append([float(e), int(m)])
    return [(e, m) for e, m in out]


def _ket(index: int) -> np.ndarray:
    v = np.zeros(8, dtype=complex)
    v[index] = 1.0
    return v


_SQRT3 = math.sqrt(3.0)
_OMEGA = np.exp(2j * np.pi / 3)

GHZ_KET = (_ket(0b000) + _ket(0b111)) / np.sqrt(2.0)
W_KET = (_ket(0b001) + _ket(0b010) + _ket(0b100)) / _SQRT3
X3W_KET = (_ket(0b110) + _ket(0b101) + _ket(0b011)) / _SQRT3
WT1_KET = (_ket(0b001) + _OMEGA * _ket(0b010) + _OMEGA ** 2 * _ket(0b100)) / _SQRT3
WT2_KET = (_ket(0b001) + _OMEGA ** 2 * _ket(0b010) + _OMEGA * _ket(0b100)) / _SQRT3
X3WT1_KET = (_ket(0b110) + _OMEGA * _ket(0b101) + _OMEGA ** 2 * _ket(0b011)) / _SQRT3
X3WT2_KET = (_ket(0b110) + _OMEGA ** 2 * _ket(0b101) + _OMEGA * _ket(0b011)) / _SQRT3

# the even combination completing the basis of the fused E = 0 subspace of
# the transverse-field chain at delta = 1
_FUSED_KET = 0.5 * (-_ket(0b000) + _ket(0b011) + _ket(0b101) + _ket(0b110))


@dataclass(frozen=True)
class SuperpositionParams:
    """Coefficients of a member of a degenerate eigenspace.

    Two-fold spaces use (alpha, beta); three- and four-fold spaces add gamma
    and delta. The total norm is 1 and beta carries no phase, since the
    global phase has already been spent making it real and non-negative. A
    complex beta within 1e-12 of the real axis is stored as its real part.
    """

    alpha: complex
    beta: float
    gamma: complex | None = None
    delta: complex | None = None

    def __post_init__(self):
        if self.delta is not None and self.gamma is None:
            raise ValidationError("a four-component superposition also needs gamma")
        coeffs = (self.alpha, self.beta, self.gamma, self.delta)[:self.n_components]
        for f, v in zip(fields(self), coeffs):
            if not isinstance(v, numbers.Complex) or not _finite(abs(v)):
                raise ValidationError(f"{f.name} must be a finite number, got {v!r}")
        beta = self.beta
        if isinstance(beta, complex):
            if abs(beta.imag) > 1e-12:
                raise ValidationError("beta must be real; the free phase is spent")
            beta = float(beta.real)
            object.__setattr__(self, "beta", beta)
        if beta < 0.0:
            raise ValidationError(f"beta must be non-negative, got {beta}")
        total = sum((abs(v) ** 2 for v in coeffs[2:]), abs(self.alpha) ** 2 + beta ** 2)
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"superposition norm squared is {total}, not 1")

    @property
    def n_components(self) -> int:
        return 2 + (self.gamma is not None) + (self.delta is not None)


# degenerate levels: basis kets in listing order and the column of the member
# coefficients (alpha, beta, gamma, delta) attached to each (conventions
# differ between models); a level's multiplicity is the number of its kets
_DEG_FAMILY = {
    ("tfim", 3): ((WT1_KET, WT2_KET), (0, 1)),
    ("tfim", 4): ((X3WT1_KET, X3WT2_KET), (0, 1)),
    ("xx", 4): ((WT1_KET, WT2_KET), (1, 0)),
    ("xx", 5): ((X3WT1_KET, X3WT2_KET), (1, 0)),
    ("xxx", 0): ((_ket(0b000), _ket(0b111)), (1, 0)),
    ("xxx", 1): ((X3W_KET, W_KET), (1, 0)),
    ("xxx", 2): ((WT1_KET, X3WT1_KET, WT2_KET, X3WT2_KET), (0, 1, 2, 3)),
    ("xzx", 2): ((X3WT1_KET, X3WT2_KET), (0, 1)),
    ("xzx", 3): ((WT1_KET, WT2_KET), (1, 0)),
}
# the fused E = 0 subspace of the transverse-field chain at delta = 1
_FUSED_FAMILY = ((_FUSED_KET, WT1_KET, WT2_KET), (2, 0, 1))

# the f of the non-degenerate tfim and xzx levels, from (d, a, b) of _ab
_F = (
    lambda d, a, b: -1.0 + 2.0 * d + 2.0 * b,
    lambda d, a, b: 2.0 * d + 2.0 * a + 1.0,
    lambda d, a, b: (2.0 * b + d + 1.0) / ((b + d) * (b + d)),
    lambda d, a, b: (2.0 * a + d - 1.0) / ((a + d) * (a + d)),
)

# non-degenerate tfim and xzx levels: the f of _F the level uses, the scale s
# of its normalizer g = s sqrt(f^2 + 3), its eigenvector (c0 f ket0 + c1 ket1)
# / g as ((c0, ket0), (c1, ket1)), and its tangle c f^p / g^4 as (c, p)
_NONDEG = {
    ("tfim", 0): (0, 1.0, ((1.0, _ket(0b000)), (_SQRT3, X3W_KET)), (16.0, 1)),
    ("tfim", 1): (1, _SQRT3, ((_SQRT3, W_KET), (3.0, _ket(0b111))), (48.0, 3)),
    ("tfim", 2): (2, 1.0, ((-1.0, _ket(0b000)), (_SQRT3, X3W_KET)), (16.0, 1)),
    ("tfim", 5): (3, _SQRT3, ((-_SQRT3, W_KET), (3.0, _ket(0b111))), (48.0, 3)),
    ("xzx", 0): (1, _SQRT3, ((-_SQRT3, W_KET), (3.0, _ket(0b111))), (48.0, 3)),
    ("xzx", 1): (1, _SQRT3, ((_SQRT3, _ket(0b000)), (3.0, X3W_KET)), (144.0, 1)),
    ("xzx", 4): (3, _SQRT3, ((_SQRT3, W_KET), (3.0, _ket(0b111))), (48.0, 3)),
    ("xzx", 5): (3, 1.0, ((-1.0, _ket(0b000)), (_SQRT3, X3W_KET)), (16.0, 1)),
}
# the non-degenerate xx levels: fixed kets, of tangle 0
_XX_KETS = {("xx", 0): W_KET, ("xx", 1): X3W_KET, ("xx", 2): _ket(0b000), ("xx", 3): _ket(0b111)}

# each model's generic multiplicities in listing order, and so its level
# count: 1 for a non-degenerate level, its basis size for a degenerate one
_MULTS = {name: tuple(len(_DEG_FAMILY[key][0]) if key in _DEG_FAMILY else 1
                      for key in sorted({*_DEG_FAMILY, *_NONDEG, *_XX_KETS}) if key[0] == name)
          for name in MODELS}
LEVEL_COUNT = {name: len(mults) for name, mults in _MULTS.items()}


def _params_row(params: SuperpositionParams | None) -> np.ndarray | None:
    """The coefficients (alpha, beta, gamma, delta) of params as one (1, k)
    row of a member batch; None stays None."""
    if params is None:
        return None
    params = _instance(params, SuperpositionParams)
    fields = (params.alpha, params.beta, params.gamma, params.delta)
    return np.array([[complex(v) for v in fields[:params.n_components]]])


def _level_fg(name: str, n: int, d) -> tuple[np.ndarray, np.ndarray]:
    """(f, g) of the non-degenerate tfim or xzx level n at each coupling of d,
    refused wherever any normalizer of the model overflows: where that of f1,
    its largest f, does."""
    form, scale = _NONDEG[(name, n)][:2]
    with np.errstate(over="ignore", invalid="ignore"):
        d, a, b = _ab(d)
        top = _F[1](d, a, b)
        _refuse_overflow(name, d, [top * top])
        f = _F[form](d, a, b)
        return f, scale * np.sqrt(f * f + 3.0)


def _check_level(name: str, n) -> int:
    count = LEVEL_COUNT[name]
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or not 0 <= n < count:
        raise ValidationError(f"{name} has levels 0..{count - 1}, got {n!r}")
    return int(n)


def _fused_member(name: str, n: int, d: float, k: int | None) -> bool:
    """Whether k-component members belong to the fused transverse-field subspace.

    Three-component params describe only that subspace (levels 2 and 3 at
    delta = 1); anywhere else they are refused.
    """
    if k != 3:
        return False
    if name != "tfim" or n not in (2, 3):
        raise ValidationError(
            "three-component params only describe the fused subspace of "
            "the transverse-field chain, levels 2 and 3"
        )
    if abs(d - 1.0) > GAP_TOL:
        raise CrossingPoint(
            f"levels 2 and 3 only fuse at delta = 1, got delta = {d}"
        )
    return True


def _member_family(name: str, n: int, d, coeffs: np.ndarray | None):
    """The (basis kets, coefficient columns) of level n's members, the fused
    family for three-component coeffs, or None for a non-degenerate level;
    refuses coeffs that do not fit the level."""
    k = None if coeffs is None else coeffs.shape[1]
    if _fused_member(name, n, d, k):
        return _FUSED_FAMILY
    family = _DEG_FAMILY.get((name, n))
    if k is not None:
        if family is None:
            raise ValidationError(f"{name} level {n} is non-degenerate; params do not apply")
        if k != len(family[0]):
            raise ValidationError(
                f"{name} level {n} takes {len(family[0])}-component superposition params, got {k}")
    return family


def _cmul(a, b) -> np.ndarray:
    """a * b as Python and numpy scalars multiply complex numbers; numpy's
    vectorised complex multiply fuses a multiply-add and can differ in the
    last bit."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _abs(z: np.ndarray) -> np.ndarray:
    """|z| as libm's hypot gives it, like abs() of a complex scalar; numpy's
    vectorised complex abs can differ in the last bit."""
    return np.hypot(z.real, z.imag)


def _level_members(name: str, n: int, d, coeffs: np.ndarray | None) -> np.ndarray:
    """(M, 8) closed-form members of level n at the coupling d, one per row of
    the (M, k) member coefficients (alpha, beta, gamma, delta)[:k].

    A non-degenerate level takes coeffs=None and gives its eigenvector at
    each coupling of d, one row per coupling: a lone coupling is the 0-d case
    of the same array formulas as a grid (P,). A degenerate level needs
    coeffs, whose members do not depend on d, three-component rows picking
    members of the fused transverse-field subspace (d one coupling then).
    Each member is summed coefficient by basis ket in the family's order.
    """
    family = _member_family(name, n, d, coeffs)
    if family is None:
        if name == "xx":
            return np.tile(_XX_KETS[(name, n)], (np.size(d), 1))
        f, g = (np.reshape(x, (-1, 1)) for x in _level_fg(name, n, d))
        (c0, ket0), (c1, ket1) = _NONDEG[(name, n)][2]
        return (c0 * f * ket0 + c1 * ket1) / g
    if coeffs is None:
        raise NeedParams(f"{name} level {n} is degenerate; pass SuperpositionParams")
    amps = np.zeros((len(coeffs), 8), dtype=complex)
    for ket, col in zip(*family):
        amps += coeffs[:, col, None] * ket
    return amps


def _level_tangles(name: str, n: int, d, coeffs: np.ndarray | None) -> np.ndarray:
    """(M,) closed-form tangles of the members _level_members builds from the
    same d and coeffs (one row per coupling for coeffs=None), clipped at 1
    like _tangles.

    One coupling and a grid share one set of array formulas. Member tangles
    form complex products without a fused multiply-add and magnitudes with
    libm's hypot, as Python complex scalars do, so a member's tangle does not
    depend on the batch it is in.
    """
    family = _member_family(name, n, d, coeffs)
    if family is _FUSED_FAMILY:
        al, be, g = coeffs.T
        xi = _cmul(al, _OMEGA.conjugate()) + _cmul(be, _OMEGA)
        eta = _cmul(al, _OMEGA) + _cmul(be, _OMEGA.conjugate())
        odd = (al + be) - (xi - eta)
        inner = _cmul(g, g) - _cmul(odd, odd) / 3.0 + _cmul(4.0 * eta / 3.0, al + be)
        mag = _abs(g)
        tau = mag * mag * _abs(inner)
    elif (name, n) in _NONDEG:
        c, p = _NONDEG[(name, n)][3]
        f, g = _level_fg(name, n, d)
        # Python floats keep libm's pow, whose bits numpy's vectorised power
        # does not match; where g ** 4 would overflow the tangle is below 1e-230
        tau = np.array([c * fi ** p / gi ** 4 if gi < 2.0 ** 255
                        else c * (fi / gi) ** p * (1.0 / gi) ** (4 - p)
                        for fi, gi in zip(np.ravel(f).tolist(), np.ravel(g).tolist())])
    elif name != "xxx":
        # every other tfim, xx and xzx level, and each member of one, has tangle 0
        tau = np.zeros(np.size(d) if coeffs is None else len(coeffs))
    # xxx: every level is degenerate and the tangle varies over each subspace
    elif coeffs is None:
        raise NeedParams(f"xxx level {n} tangle depends on the member; pass params")
    elif n in (0, 1):
        b2 = coeffs[:, 1].real * coeffs[:, 1].real
        tau = 4.0 * b2 * (1.0 - b2) / (1.0 if n == 0 else 3.0)
    else:
        al, be, ga, de = coeffs.T
        # pair the two k = 1, 2 kets of each magnetization sector
        s_ab = al + ga
        s_gd = be + de
        e_ab = _cmul(al, _OMEGA) + _cmul(ga, _OMEGA.conjugate())
        e_ba = _cmul(al, _OMEGA.conjugate()) + _cmul(ga, _OMEGA)
        e_gd = _cmul(be, _OMEGA) + _cmul(de, _OMEGA.conjugate())
        e_dg = _cmul(be, _OMEGA.conjugate()) + _cmul(de, _OMEGA)
        pair = _cmul(s_ab, s_gd) - (_cmul(e_ba, e_dg) - _cmul(e_ab, e_gd))
        val = _cmul(pair, pair) - _cmul(_cmul(_cmul(4.0 * s_ab, s_gd), e_ab), e_gd)
        tau = (4.0 / 9.0) * _abs(val)
    return np.minimum(tau, 1.0)


def closed_form_eigenstate(model, n: int, delta: float | None = None,
                           params: SuperpositionParams | None = None) -> PureState3:
    """Exact eigenstate of level n, as a normalized state.

    Degenerate levels describe a whole subspace, so a member must be picked
    with SuperpositionParams; non-degenerate levels take none. On the
    transverse-field chain at delta = 1 levels 2 and 3 fuse into a
    three-dimensional subspace whose members are reached with
    three-component params (gamma on the even basis ket). The one-coupling,
    one-member case of _level_members.
    """
    name, d = _one_coupling(model, delta)
    n = _check_level(name, n)
    return PureState3(_level_members(name, n, d, _params_row(params))[0])


def closed_form_tangle(model, n: int, delta: float | None = None,
                       params: SuperpositionParams | None = None) -> float:
    """Exact tangle of level n, or of a chosen member of a degenerate level.

    Levels whose tangle is constant across the whole degenerate subspace
    (the single-excitation families) report it without params. The
    one-coupling, one-member case of _level_tangles.
    """
    name, d = _one_coupling(model, delta)
    n = _check_level(name, n)
    return float(_level_tangles(name, n, d, _params_row(params))[0])


@dataclass(frozen=True)
class SymmetryLabels:
    """Eigenvalues of the chain symmetries, or None where not an eigenstate.

    k is the momentum under the cyclic site shift, p the spin-flip sign
    under X on every site, m_z the total magnetization, refl the site
    reversal sign, and zflip the sign under Z on every site.
    """

    k: int | None
    p: int | None
    m_z: int | None
    refl: int | None
    zflip: int | None


_MZ_DIAG = np.array([3, 1, 1, -1, 1, -1, -1, -3], dtype=float)
_ZFLIP_DIAG = np.array([1, -1, -1, 1, -1, 1, 1, -1], dtype=float)
_K_PHASES = tuple(np.exp(2j * np.pi * kk / 3.0) for kk in (0, 1, 2))


def _eigen_label(image: np.ndarray, amps: np.ndarray, tol: float,
                 values=(1, -1), labels=None) -> np.ndarray:
    """Per row, the label of the first eigenvalue v in values (by default
    v itself) with |image - v amp| <= tol, or None, as an object array;
    image and amps are (n, 8)."""
    out = np.full(len(amps), None, dtype=object)
    # the first matching eigenvalue wins, so assign in reverse order
    for v, lab in reversed(tuple(zip(values, labels or values))):
        out[np.linalg.norm(image - v * amps, axis=1) <= tol] = lab
    return out


def _site_permuted(amps: np.ndarray, axes) -> np.ndarray:
    return np.transpose(amps.reshape(-1, 2, 2, 2), axes).reshape(-1, 8)


# per SymmetryLabels field: the symmetry's image of (n, 8) rows, then its
# eigenvalues and their labels (None: the eigenvalues themselves)
_LABELS = {
    "k": (lambda a: _site_permuted(a, (0, 3, 1, 2)), _K_PHASES, (0, 1, 2)),
    "p": (lambda a: a[:, ::-1], (1, -1), None),
    "m_z": (lambda a: _MZ_DIAG * a, (3, 1, -1, -3), None),
    "refl": (lambda a: _site_permuted(a, (0, 3, 2, 1)), (1, -1), None),
    "zflip": (lambda a: _ZFLIP_DIAG * a, (1, -1), None),
}


def symmetry_label_rows(amps: np.ndarray, tol: float = 1e-9,
                        names=tuple(_LABELS)) -> dict[str, np.ndarray]:
    """The symmetry labels of each row of an (n, 8) amplitude array, as one
    object array of int or None per named SymmetryLabels field (all five by
    default; a bare string is one name), keyed by the field's name."""
    _check_tol(tol)
    if isinstance(names, str):
        names = (names,)
    try:
        unknown = set(names) - set(_LABELS)
    except TypeError:
        raise ValidationError(f"names must be label names, got {names!r}") from None
    if unknown:
        raise ValidationError(
            f"no symmetry label named {sorted(unknown)}; labels are {tuple(_LABELS)}")
    amps = _rows8(amps)
    return {f: _eigen_label(_LABELS[f][0](amps), amps, tol, *_LABELS[f][1:]) for f in names}


def symmetry_labels(s: PureState3, tol: float = 1e-9) -> SymmetryLabels:
    """The symmetry labels of one state: one row of symmetry_label_rows."""
    cols = symmetry_label_rows(_state(s).amp[None, :], tol)
    return SymmetryLabels(**{f: col[0] for f, col in cols.items()})


def degenerate_bloch_family(model, n: int, params: SuperpositionParams) -> BlochTriple:
    """Closed-form Bloch triple for a member of a degenerate level.

    Covers the two-fold single-excitation families of every model and the
    two-fold levels of the isotropic chain; its four-fold level has no
    closed Bloch form and is rejected.
    """
    name = str(model)
    _check_model(name)
    n = _check_level(name, n)
    family = _DEG_FAMILY.get((name, n))
    if family is None:
        raise NotDegenerate(f"{name} level {n} is non-degenerate")
    if name == "xxx" and n == 2:
        raise UnsupportedType("no closed Bloch form for the four-fold level")
    if _instance(params, SuperpositionParams).gamma is not None:
        raise ValidationError("two-component params expected for this family")
    if name == "xxx":
        a2 = abs(complex(params.alpha)) ** 2
        b2 = float(params.beta) ** 2
        if n == 0:
            r = abs(a2 - b2)
        else:
            r = float(np.sqrt((a2 - b2) ** 2 + 16.0 * a2 * b2) / 3.0)
        return BlochTriple(r, r, r)
    _, cols = family
    c1, c2 = (complex(c) for c in _params_row(params)[0, list(cols)])
    # rotate the member so the coefficient on the second basis ket is real,
    # which is the frame the closed triple is written in
    if abs(c2) > 1e-300:
        phase = np.conj(c2) / abs(c2)
        c1, c2 = c1 * phase, c2 * phase
    mag = abs(c1)
    th = np.angle(c1) if mag > 0 else 0.0
    b = abs(c2)
    ra = abs(1.0 + 2.0 * mag * b * (np.cos(th) + _SQRT3 * np.sin(th))) / 3.0
    rb = abs(1.0 + 2.0 * mag * b * (np.cos(th) - _SQRT3 * np.sin(th))) / 3.0
    rc = abs(1.0 - 4.0 * mag * b * np.cos(th)) / 3.0
    return BlochTriple(float(ra), float(rb), float(rc))


@dataclass(frozen=True, eq=False)
class SweepTable:
    """The rows of a coupling sweep as columns: one read-only 1-D array per
    field, each as long as the table (its len()). The closed columns are NaN
    on perturbed rows; k, p and m_z are object arrays of int or None."""

    delta: np.ndarray
    n: np.ndarray
    energy_numeric: np.ndarray
    energy_closed: np.ndarray
    multiplicity: np.ndarray
    k: np.ndarray
    p: np.ndarray
    m_z: np.ndarray
    tau_numeric: np.ndarray
    tau_closed: np.ndarray
    r_a: np.ndarray
    r_b: np.ndarray
    r_c: np.ndarray
    crossing_flag: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).flags.writeable = False

    def __len__(self) -> int:
        return len(self.delta)


SWEEP_FIELDS = tuple(f.name for f in fields(SweepTable))

# the dtype of each SweepTable column that is not float64
_SWEEP_DTYPES = {"n": np.int64, "multiplicity": np.int64, "k": object, "p": object,
                 "m_z": object, "crossing_flag": bool}

_MC_MEMBERS = 40


# the grid policy's members of a two-fold level: alpha on a lattice of five
# magnitudes and eight phases, beta real and non-negative
_GRID_MEMBERS = np.array([
    (mag * np.exp(1j * (2.0 * np.pi * j / 8)), float(np.sqrt(max(1.0 - mag * mag, 0.0))))
    for mag in (0.0, 0.25, 0.5, 0.75, 1.0) for j in range(8)])
_GRID_MEMBERS.flags.writeable = False


def _draw_members(k: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, k) random members: complex normal rows, normalized, with the
    global phase spent making beta (column 1) real and non-negative.

    The stream and the arithmetic are those of count one-row draws.
    """
    return _normal_members(rng.normal(size=(count, 2, k)))


def _normal_members(x: np.ndarray) -> np.ndarray:
    """(N, k) members from (N, 2, k) standard normals, the real and imaginary
    parts of each row; each row's norm comes from BLAS dot products of its
    real and imaginary parts, as np.linalg.norm computes it, so a row's bits
    do not depend on N."""
    raw = x[:, 0] + 1j * x[:, 1]
    re, im = raw.real[:, None, :], raw.imag[:, None, :]
    # a (1, k) @ (k, 1) product per row is one BLAS dot, like norm's
    sqnorm = (re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0]
    raw /= np.sqrt(sqnorm)
    lead = raw[:, 1:2]
    mag = _abs(lead)
    spin = mag[:, 0] > 1e-12
    raw[spin] *= np.conj(lead[spin]) / mag[spin]
    raw[:, 1] = raw[:, 1].real
    return raw


def _random_params(m: int, rng: np.random.Generator) -> SuperpositionParams:
    """A random m-component member: one row of _draw_members."""
    row = _draw_members(m, 1, rng)[0].tolist()
    return SuperpositionParams(row[0], row[1].real, *row[2:])


def _closed_grid(name: str, d: np.ndarray, energies: np.ndarray, mults, evals: np.ndarray,
                 policy: str, seed: int, levels: dict[str, np.ndarray]):
    """The closed-form members of an unperturbed grid d (P,), each level
    paired with its numeric energies from evals (P, 8): the distinct member
    rows (D, 8), the index (P * M,) of each output row into them, the same
    M members at each point, their closed tangles (D,), and the index
    (P * M,) of each output row into the (point, level) pairs, point-major.
    A level's members are built at their own lead, once per sweep for the
    lattice and once per point otherwise. Fills the n, energy_numeric,
    energy_closed and multiplicity columns of levels, one row per (point,
    level). A level matches when its numeric energies lie within GAP_TOL of
    the closed one, scaled by the point's largest |eigenvalue| where that
    exceeds 1, since eigh rounds relative to the spectrum.

    Each level is one array operation over the whole grid. Only the member
    draws run per point: the mc policy and four-fold levels draw from one
    generator default_rng([seed, i]) per point i, its levels in listing
    order.
    """
    points = np.arange(len(d))[:, None]
    taken = np.zeros(evals.shape, dtype=bool)
    worst = np.empty(energies.shape)
    e_num = np.empty(energies.shape)
    for n, mult in enumerate(mults):
        # a stable sort over the free columns: taken ones sort last
        gap = np.abs(evals - energies[:, n, None])
        gap[taken] = np.inf
        chosen = np.argsort(gap, axis=1, kind="stable")[:, :mult]
        taken[points, chosen] = True
        worst[:, n] = gap[points, chosen].max(axis=1)
        e_num[:, n] = evals[points, chosen].mean(axis=1)
    scale = np.maximum(1.0, np.abs(evals).max(axis=1))
    missed = np.argwhere(worst > GAP_TOL * scale[:, None])
    if len(missed):
        i, n = missed[0]
        raise NumericalError(
            f"{name} level {n} at delta = {float(d[i])}: closed energy {float(energies[i, n])} "
            f"misses the numeric spectrum by {worst[i, n]:.3e}"
        )
    families = [_DEG_FAMILY.get((name, n)) for n in range(len(mults))]
    # the grid policy's two-fold levels take the fixed lattice; every other
    # degenerate level draws _MC_MEMBERS members at each point
    sizes = {n: len(f[0]) for n, f in enumerate(families)
             if f is not None and not (policy == "grid" and len(f[0]) == 2)}
    draws = {}
    if sizes:
        widths = [2 * _MC_MEMBERS * k for k in sizes.values()]
        normals = np.array([np.random.default_rng([seed, i]).normal(size=sum(widths))
                            for i in range(len(d))])
        blocks = np.split(normals, np.cumsum(widths)[:-1], axis=1)
        for (n, k), block in zip(sizes.items(), blocks):
            draws[n] = _normal_members(block.reshape(-1, 2, k))
    member_blocks, tau_blocks, index_blocks = [], [], []
    start = 0
    for n, family in enumerate(families):
        coeffs = None if family is None else draws.get(n, _GRID_MEMBERS)
        # rows for every point, or the lattice's, the same at every point
        lead = len(d) if family is None or n in draws else 1
        member_blocks.append(_level_members(name, n, d, coeffs))
        tau_blocks.append(_level_tangles(name, n, d, coeffs))
        width = len(tau_blocks[-1]) // lead
        # point i reads the level's rows of point i, or the lattice's
        index_blocks.append(start + points % lead * width + np.arange(width))
        start += lead * width
    index = np.concatenate(index_blocks, axis=1).ravel()
    counts = [b.shape[1] for b in index_blocks]
    levels["n"] = np.tile(np.arange(len(mults)), len(d))
    levels["energy_numeric"] = e_num.ravel()
    levels["energy_closed"] = energies.ravel()
    levels["multiplicity"] = np.tile(mults, len(d))
    level_index = np.repeat(np.arange(e_num.size), np.tile(counts, len(d)))
    return np.concatenate(member_blocks), index, np.concatenate(tau_blocks), level_index


def _measured(amps: np.ndarray, tau_closed: np.ndarray) -> dict[str, np.ndarray]:
    """The member columns of a sweep, k to r_c, from its distinct member
    rows and their closed tangles: the norm check, invariants, the monogamy
    check and the labels, each one batch over the rows."""
    _check_norms(amps)
    r, c, hdet = invariants(amps)
    tau = _tangles(hdet, r, c)
    return {**symmetry_label_rows(amps, names=("k", "p", "m_z")), "tau_numeric": tau,
            "tau_closed": tau_closed, "r_a": r[:, 0], "r_b": r[:, 1], "r_c": r[:, 2]}


def _sweep_factors(model, delta_grid, params_policy: str = "grid", perturb: float = 0.0,
                   seed: int = 0) -> list[tuple[dict[str, np.ndarray], np.ndarray | None]]:
    """The rows of sweep() as factors, in SWEEP_FIELDS order. A factor is a
    block of adjacent columns over its distinct rows, by name, and the index
    of each row into them, or None where it has one row per row. An
    unperturbed sweep has three: delta, n, energy_numeric, energy_closed and
    multiplicity per (point, level); k to r_c per distinct member (one row
    per row where no member repeats, as on the mc policy); crossing_flag per
    point. A perturbed sweep, whose every row is its own, is one factor.
    """
    name = str(model)
    _check_model(name)
    if params_policy not in ("grid", "mc"):
        raise ValidationError(f"params_policy must be grid or mc, got {params_policy!r}")
    if not isinstance(perturb, numbers.Real) or not _finite(perturb):
        raise ValidationError(f"perturb must be a finite real number, got {perturb!r}")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    grid = _couplings(name, delta_grid)
    if grid.ndim != 1:
        raise ValidationError(f"delta grid must be one-dimensional, got shape {grid.shape}")
    if (np.diff(grid) <= 0.0).any():
        raise ValidationError("delta grid must be strictly increasing")
    if not len(grid):
        return [({f: np.empty(0, dtype=_SWEEP_DTYPES.get(f, float)) for f in SWEEP_FIELDS},
                 None)]
    perturb = float(perturb)
    h = build_hamiltonian(name, grid)
    if perturb != 0.0:
        h = h + perturb * _PAULI_TABLE["ZII"]
    evals, vecs = eigensystem(h)
    energies, mults = _energies(name, grid)
    energies = np.stack(energies, axis=1)
    crossing = (np.diff(np.sort(energies, axis=1), axis=1) <= GAP_TOL).any(axis=1)
    if perturb != 0.0:
        amps = vecs.swapaxes(1, 2).reshape(-1, 8)
        # levels of opposite sign near the float limit (perturb ~ 1e308) differ
        # by more than a float holds, and an overflowed gap is no group either
        with np.errstate(over="ignore"):
            group = np.abs(evals[:, :, None] - evals[:, None, :]) <= GAP_TOL
        closed = np.full(len(amps), np.nan)
        return [({"delta": np.repeat(grid, 8), "n": np.tile(_EIGHT, len(grid)),
                  "energy_numeric": evals.reshape(-1), "energy_closed": closed,
                  "multiplicity": group.sum(axis=2).reshape(-1), **_measured(amps, closed),
                  "crossing_flag": np.repeat(crossing, 8)}, None)]
    levels = {"delta": np.repeat(grid, len(mults))}
    amps, index, tau_closed, level_index = _closed_grid(
        name, grid, energies, mults, evals, params_policy, int(seed), levels)
    members = _measured(amps, tau_closed)
    if len(amps) == len(index):
        # no member repeats, so the index only orders them
        members, index = {f: v[index] for f, v in members.items()}, None
    rows = len(level_index) // len(grid)
    return [(levels, level_index), (members, index),
            ({"crossing_flag": crossing}, np.repeat(np.arange(len(grid)), rows))]


def sweep(model, delta_grid, params_policy: str = "grid", perturb: float = 0.0,
          seed: int = 0) -> SweepTable:
    """Evaluate every level over a coupling grid.

    Unperturbed sweeps pair each closed-form level with its numeric energy
    and report the closed and polynomial tangles side by side; degenerate
    levels are expanded into members per params_policy ("grid" walks a fixed
    magnitude-phase lattice for two-fold spaces, "mc" draws seeded random
    members, and four-fold spaces always draw randomly). With perturb set,
    the rows describe the eigenvectors of H + perturb * Z on site 0 instead
    and the closed-form columns are NaN.

    The grid is diagonalized as one stack. The norm check, invariants, the
    monogamy check and the labels run once per distinct member, in one
    batch: lattice members are distinct once per sweep, every other member
    (and each perturbed eigenvector) once per point, and the rows gather
    their values from it. The closed forms are computed level by level over
    the whole grid; only the member draws run per point, from
    default_rng([seed, i]) at point i, so seed must be a non-negative
    integer. A sweep is byte-identical from
    run to run, but a row's last bit may depend on the batch size.
    """
    return SweepTable(**{f: col if index is None else col[index]
                         for cols, index in _sweep_factors(model, delta_grid, params_policy,
                                                           perturb, seed)
                         for f, col in cols.items()})
