"""Canonical decomposition of three-qubit states and the class/type labels.

Any pure three-qubit state is locally equivalent to

    l0|000> + l1 e^{i phi}|100> + l2|101> + l3|110> + l4|111>

with l_j >= 0, sum l_j^2 = 1 and phi in [0, pi]. The decomposition is found
by slicing on qubit A, rotating so the first slice is singular (two unitary
branches exist), factoring the rank-1 slice, and stripping residual phases.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import BadNormalization, NumericalError, ValidationError
from .entanglement import _pencil, bloch_triple, tangle
from .qstate import PureState3, SliceTensors, slice_state

# absolute tolerance under which a canonical coefficient counts as zero when
# matching type patterns
ZERO_TOL = 1e-9

# coefficient patterns are degenerate below this; also the scale under which
# a residual phase becomes unphysical and is reported as 0
_TINY = 1e-13

SLOCC_CLASSES = ("A-B-C", "A-BC", "B-AC", "C-AB", "W", "GHZ")
TYPE_KINDS = (
    "1",
    "2a",
    "2b",
    "3a",
    "3b-12",
    "3b-23",
    "3b-13",
    "4a",
    "4b-l2",
    "4b-l3",
    "4c",
    "5",
)


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical coefficients (l0..l4), phase phi, and branch metadata.

    Invariants: sum of squared coefficients is 1 within 1e-12, phi in
    [0, pi] and reported as 0 when l1 is below the zero tolerance. The
    branch records which root of the singular-slice condition was used;
    degenerate marks a collapsed (non-quadratic) condition.
    """

    lambdas: tuple[float, float, float, float, float]
    phi: float
    branch: str
    degenerate: bool = False

    def as_array(self) -> np.ndarray:
        return np.array(self.lambdas)


@dataclass(frozen=True)
class EntLabel:
    """SLOCC class and refined type, with the tolerance used to decide."""

    slocc: str
    kind: str
    tol: float


@dataclass(frozen=True)
class DetZeroBranches:
    """The two unit pairs (z, w) solving det(z T0 + w T1) = 0."""

    plus: tuple[complex, complex]
    minus: tuple[complex, complex]
    degenerate: bool

    @property
    def pairs(self):
        return (self.plus, self.minus)


def _det2(m: np.ndarray) -> complex:
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def _pair_from_ratio(x: complex) -> tuple[float, complex]:
    """Unit pair (z, w) proportional to (1, x) with z real >= 0."""
    ax = abs(x)
    if ax <= 1.0:
        n = np.sqrt(1.0 + ax * ax)
        return 1.0 / n, x / n
    y = 1.0 / x
    n = np.sqrt(1.0 + abs(y) ** 2)
    z, w = y / n, 1.0 / n
    ph = cmath.exp(-1j * cmath.phase(z))
    return (z * ph).real, w * ph


def det_zero_solutions(st: SliceTensors) -> DetZeroBranches:
    """Both unit pairs (z, w) with det(z T0 + w T1) = 0, in a fixed order.

    det(z T0 + w T1) is quadratic in the ratio w/z; the two roots give the
    two branches. Collapsed cases (leading coefficient or the whole
    quadratic vanishing) are resolved by inspection and flagged degenerate.
    The first pair returned ("plus") is the one with the larger real part
    of w, then the larger imaginary part.
    """
    T0 = np.asarray(st.T0, dtype=complex)
    T1 = np.asarray(st.T1, dtype=complex)
    c, m, a = _pencil(T0, T1)
    degenerate = False
    if abs(a) > _TINY:
        disc = m * m - 4.0 * a * c
        scale = abs(m) ** 2 + 4.0 * abs(a) * abs(c)
        if abs(disc) <= 1e5 * np.finfo(float).eps * scale:
            # the discriminant equals the hyperdeterminant, so a W-class
            # state zeroes it exactly; the computed value is then rounding
            # noise (measured tail a few 1e3 eps*scale) and sqrt would
            # split the double root by O(sqrt(eps)), polluting the small
            # canonical coefficients. Collapse to the exact double root;
            # genuinely split roots sit many decades above this cutoff.
            degenerate = True
            x = -m / (2.0 * a)
            pairs = [_pair_from_ratio(x), _pair_from_ratio(x)]
        else:
            sq = cmath.sqrt(disc)
            num1, num2 = -m + sq, -m - sq
            big = num1 if abs(num1) >= abs(num2) else num2
            x1 = big / (2.0 * a)
            # second root via the product of roots, avoiding cancellation
            x2 = (c / a) / x1 if abs(x1) > 1e-300 else -m / a
            pairs = [_pair_from_ratio(x1), _pair_from_ratio(x2)]
    elif abs(m) > _TINY:
        # linear condition: one finite root, one at infinity
        degenerate = True
        pairs = [_pair_from_ratio(-c / m), (0.0, 1.0 + 0.0j)]
    elif abs(c) > _TINY:
        degenerate = True
        pairs = [(0.0, 1.0 + 0.0j), (0.0, 1.0 + 0.0j)]
    else:
        # the pencil det(z T0 + w T1) vanishes identically: every pair is a
        # root and every combination has rank <= 1, so spectral and Frobenius
        # norms agree and the top right-singular vector of the stacked slices
        # maximizes the leading canonical coefficient
        degenerate = True
        stacked = np.column_stack((T0.reshape(4), T1.reshape(4)))
        _, _, wh = np.linalg.svd(stacked)
        zw = np.conj(wh[0, :])
        ref = zw[0] if abs(zw[0]) > _TINY else zw[1]
        zw = zw * (np.conj(ref) / abs(ref))
        pair = (complex(zw[0]).real + 0.0, complex(zw[1]))
        pairs = [pair, pair]
    if abs(pairs[0][0] - pairs[1][0]) + abs(pairs[0][1] - pairs[1][1]) < 1e-9:
        degenerate = True
    pairs.sort(key=lambda zw: (-round(zw[1].real, 12), -round(zw[1].imag, 12)))
    for z, w in pairs:
        res = abs(_det2(z * T0 + w * T1))
        if res > 1e-10:
            raise NumericalError(f"slice rotation leaves determinant {res:.3e}")
    return DetZeroBranches(plus=tuple(pairs[0]), minus=tuple(pairs[1]), degenerate=degenerate)


def _branch_form(t: np.ndarray, zw) -> tuple[np.ndarray, float]:
    """Canonical coefficients and raw phase for one branch choice."""
    z, w = zw
    T0p = z * t[0] + w * t[1]
    T1p = -np.conj(w) * t[0] + np.conj(z) * t[1]
    u_mat, sing, vh = np.linalg.svd(T0p)
    lam0 = float(sing[0])
    if lam0 < _TINY:
        # the state lives in the A = 1 block: plain Schmidt split of B vs C
        _, s2, _ = np.linalg.svd(T1p)
        lam = np.array([0.0, s2[0], 0.0, 0.0, s2[1]])
        return lam / np.linalg.norm(lam), 0.0
    u = u_mat[:, 0]
    v = vh[0, :].conj()
    U_B = np.array([[np.conj(u[0]), np.conj(u[1])], [-u[1], u[0]]])
    U_C = np.array([[v[0], v[1]], [-np.conj(v[1]), np.conj(v[0])]])
    M = U_B @ T1p @ U_C.T
    mus = np.array([M[0, 0], M[0, 1], M[1, 0], M[1, 1]])
    mags = np.abs(mus)
    lam = np.array([lam0, mags[0], mags[1], mags[2], mags[3]])
    if np.any(mags < _TINY):
        # a vanishing coefficient frees enough local phases to cancel phi
        phi = 0.0
    else:
        args = np.angle(mus)
        phi = float((args[0] - args[1] - args[2] + args[3]) % (2.0 * np.pi))
    return lam / np.linalg.norm(lam), phi


def canonical_decompose(s: PureState3) -> CanonicalForm:
    """Canonical form of a state, deterministic branch choice.

    Both singular-slice branches are computed; the one with the larger l0
    wins, ties going to the "plus" pair. A raw phase in (pi, 2 pi) is folded
    to 2 pi - phi; the fold conjugates the canonical representative, which
    leaves every reported invariant (Bloch norms, concurrences, tangle)
    unchanged.
    """
    t = s.tensor
    br = det_zero_solutions(slice_state(s, "A"))
    lam_p, phi_p = _branch_form(t, br.plus)
    lam_m, phi_m = _branch_form(t, br.minus)
    if lam_m[0] > lam_p[0] + 1e-12:
        lam, phi, branch = lam_m, phi_m, "minus"
    else:
        lam, phi, branch = lam_p, phi_p, "plus"
    if phi > np.pi:
        phi = 2.0 * np.pi - phi
    phi = min(max(phi, 0.0), float(np.pi))
    if lam[1] < ZERO_TOL:
        phi = 0.0
    return CanonicalForm(
        lambdas=tuple(float(x) for x in lam),
        phi=float(phi),
        branch=branch,
        degenerate=br.degenerate,
    )


def reconstruct(cf: CanonicalForm) -> PureState3:
    """State with the canonical amplitude pattern of cf."""
    lam = np.asarray(cf.lambdas, dtype=float)
    total = float(np.sum(lam * lam))
    if abs(total - 1.0) > 1e-10:
        raise BadNormalization(f"sum of squared coefficients is {total}, not 1")
    amp = np.zeros(8, dtype=complex)
    amp[0] = lam[0]
    amp[4] = lam[1] * np.exp(1j * cf.phi)
    amp[5] = lam[2]
    amp[6] = lam[3]
    amp[7] = lam[4]
    return PureState3(amp / np.linalg.norm(amp))


def classify(s: PureState3, tol: float = 1e-9, cd_tol: float | None = None) -> EntLabel:
    """SLOCC class and refined type of a state.

    tol drives the Bloch-norm and tangle thresholds; cd_tol (default
    ZERO_TOL) decides which canonical coefficients count as zero. On
    borderline states the zero reading wins, i.e. the more specific type.
    """
    if cd_tol is None:
        cd_tol = ZERO_TOL
    # written so that NaN fails too
    for name, x in (("tol", tol), ("cd_tol", cd_tol)):
        if not 0.0 < x < np.inf:
            raise ValidationError(f"{name} must be positive and finite, got {x}")
    bt = bloch_triple(s)
    rs = (bt.r_a, bt.r_b, bt.r_c)
    near_one = sum(1 for r in rs if r > 1.0 - tol)
    if near_one == 3:
        return EntLabel("A-B-C", "1", tol)
    if near_one >= 1:
        slocc = ("A-BC", "B-AC", "C-AB")[int(np.argmax(rs))]
        return EntLabel(slocc, "2a", tol)
    tau = tangle(s)
    lam = canonical_decompose(s).lambdas
    if tau < tol:
        kind = "3a" if (lam[1] < cd_tol and lam[4] < cd_tol) else "4a"
        return EntLabel("W", kind, tol)
    is_zero = [lam[j] < cd_tol for j in (1, 2, 3)]
    n_zero = sum(is_zero)
    if n_zero == 3:
        kind = "2b"
    elif n_zero == 2:
        vanished = "".join(str(j) for j, z in zip((1, 2, 3), is_zero) if z)
        kind = f"3b-{vanished}"
    elif n_zero == 1 and not is_zero[0]:
        kind = "4b-l2" if is_zero[1] else "4b-l3"
    elif n_zero == 1:
        kind = "4c"
    else:
        kind = "5"
    return EntLabel("GHZ", kind, tol)
