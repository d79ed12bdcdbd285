"""Canonical decomposition of three-qubit states and the class/type labels.

Any pure three-qubit state is locally equivalent to

    l0|000> + l1 e^{i phi}|100> + l2|101> + l3|110> + l4|111>

with l_j >= 0, sum l_j^2 = 1 and phi in [0, pi]. The decomposition is found
by slicing on qubit A, rotating so the first slice is singular (two unitary
branches exist), factoring the rank-1 slice, and stripping residual phases.

decompose_rows and classify_rows are the one implementation, over (n, 8)
amplitude rows. The scalar calls are one row of them: canonical_decompose
returns PureState3.canonical, which decomposes a state once on first use,
and classify labels that row with the state's invariants row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadNormalization, NumericalError, ValidationError
from .entanglement import _pencil, _tangles, invariants
from .qstate import _CD_AMP_IDX, PureState3, SliceTensors, _amp_rows, _instance, _state

# absolute tolerance under which a canonical coefficient counts as zero when
# matching type patterns
ZERO_TOL = 1e-9

# coefficient patterns are degenerate below this; also the scale under which
# a residual phase becomes unphysical and is reported as 0
_TINY = 1e-13
# a discriminant within this factor of its scale counts as a double root
_DOUBLE_ROOT = 1e5 * np.finfo(float).eps
_CONJ_SIGNS = np.array([-1.0, 1.0])

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
BRANCHES = ("plus", "minus")


_KIND = {k: i for i, k in enumerate(TYPE_KINDS)}


def _label_table():
    """SLOCC class and type index of each label code.

    Codes 0-31 are states with no pure marginal: 16 [W] + 8 [l1 = 0] +
    4 [l2 = 0] + 2 [l3 = 0] + [l4 = 0]. A GHZ-class type is fixed by the zero
    pattern of (l1, l2, l3); a W-class state is 3a when l1 and l4 vanish and
    4a otherwise. Code 32 is a product state and 33 + q a state with qubit q
    split off (type 2a).
    """
    ghz = ("5", "4b-l3", "4b-l2", "3b-23", "4c", "3b-13", "3b-12", "2b")
    kinds = ([ghz[code >> 1] for code in range(16)]
             + ["3a" if code & 9 == 9 else "4a" for code in range(16)] + ["1"] + 3 * ["2a"])
    return np.array(16 * [5] + 16 * [4] + [0, 1, 2, 3]), np.array([_KIND[k] for k in kinds])


_CODE_SLOCC, _CODE_KIND = _label_table()
# the weight of the zero bit of l1..l4 in a label code
_ZERO_BITS = np.array([8, 4, 2, 1])


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical coefficients (l0..l4), phase phi, and branch metadata.

    Invariants, enforced on construction: five finite non-negative
    coefficients whose squares sum to 1 within 1e-10, phi in [0, pi] (reported
    as 0 when l1 is below the zero tolerance). The branch records which root
    of the singular-slice condition was used; degenerate marks a collapsed
    (non-quadratic) condition.
    """

    lambdas: tuple[float, float, float, float, float]
    phi: float
    branch: str
    degenerate: bool = False

    def __post_init__(self):
        lam = self.lambdas
        # written so that NaN fails too
        if len(lam) != 5 or not all(0.0 <= x < math.inf for x in lam):
            raise ValidationError(f"need five finite non-negative coefficients, got {lam}")
        total = math.fsum(x * x for x in lam)
        if abs(total - 1.0) > 1e-10:
            raise BadNormalization(f"sum of squared coefficients is {total}, not 1")
        if not 0.0 <= self.phi <= math.pi:
            raise ValidationError(f"phi must lie in [0, pi], got {self.phi}")

    def as_array(self) -> np.ndarray:
        return np.array(self.lambdas)


@dataclass(frozen=True, eq=False)
class CanonicalRows:
    """Canonical forms of n amplitude rows, as decompose_rows returns them.

    lambdas (n, 5) and phi (n,) are the forms; branch (n,) indexes BRANCHES
    and degenerate (n,) marks a collapsed singular-slice condition. Both
    branches are kept, "plus" first: pairs (n, 2, 2) holds their unit pairs
    (z, w), z real >= 0, and branch_lambdas (n, 2, 5) their coefficients.
    """

    lambdas: np.ndarray
    phi: np.ndarray
    branch: np.ndarray
    degenerate: np.ndarray
    pairs: np.ndarray
    branch_lambdas: np.ndarray

    def form(self, i: int) -> CanonicalForm:
        """Row i as a CanonicalForm."""
        return CanonicalForm(lambdas=tuple(self.lambdas[i].tolist()), phi=float(self.phi[i]),
                             branch=BRANCHES[self.branch[i]],
                             degenerate=bool(self.degenerate[i]))


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


def _branch_pairs(amps: np.ndarray):
    """Both unit pairs (z, w) with det(z T0 + w T1) = 0 for n amplitude rows.

    T0 = amps[:, :4] and T1 = amps[:, 4:] are the slices along qubit A, as
    2x2 matrices over (B, C). det(z T0 + w T1) is quadratic in the ratio w/z; its two roots give
    the two branches. Collapsed cases (leading coefficient or the whole
    quadratic vanishing) are resolved by inspection and flagged degenerate.
    The "plus" pair comes first: the one with the larger real part of w,
    then the larger imaginary part, both read at 12 digits. Returns the
    pairs (n, 2, 2), indexed (row, branch, (z, w)) with z real >= 0, and
    degenerate (n,).
    """
    t = amps.reshape(-1, 2, 2, 2)
    c, m, a = _pencil(t[:, 0], t[:, 1])
    # the discriminant is the hyperdeterminant, in invariants' arithmetic;
    # a W-class state zeroes it exactly, so the computed value is rounding
    # noise (measured tail a few 1e3 eps*scale) and sqrt would split the
    # double root by O(sqrt(eps)), polluting the small canonical
    # coefficients. Collapse to the exact double root (below 1e5
    # eps*scale); genuinely split roots sit many decades above this cutoff.
    disc = m * m - 4.0 * a * c
    abs_a = np.abs(a)
    quad = abs_a > _TINY
    double = quad & (np.abs(disc) <= _DOUBLE_ROOT * (np.abs(m) ** 2 + 4.0 * abs_a * np.abs(c)))
    collapsed = ~quad | double
    odd = collapsed.any()
    # roots x = w/z of a x^2 + m x + c; rows off the quadratic divide by 1
    a1 = np.where(quad, a, 1.0) if odd else a
    sq = np.sqrt(disc)
    p, q = sq - m, sq + m
    pairs = np.empty((len(amps), 2, 2), dtype=complex)
    pairs[..., 0] = 1.0
    x = pairs[..., 1]
    x[:, 0] = np.where(np.abs(p) >= np.abs(q), p, -q) / (2.0 * a1)
    # second root via the product of roots, avoiding cancellation; a split
    # root is never 0, since |x| >= sqrt|disc| / 2 |a| and |disc| > 0
    x[:, 1] = (c / a1) / (np.where(collapsed, 1.0, x[:, 0]) if odd else x[:, 0])
    if odd:
        x[double] = (-m / (2.0 * a1))[double, None]
        # a linear condition has one finite root and one at infinity, a
        # constant one both at infinity; the pair of a root at infinity is
        # (0, 1)
        lin = ~quad & (np.abs(m) > _TINY)
        const = ~quad & ~lin & (np.abs(c) > _TINY)
        x[lin, 0] = (-c / np.where(lin, m, 1.0))[lin]
    pairs /= np.hypot(1.0, np.abs(x))[..., None]
    if odd:
        pairs[np.stack([const, lin | const], axis=-1)] = (0.0, 1.0)
        vanishing = ~(quad | lin | const)
        if vanishing.any():
            # the pencil det(z T0 + w T1) vanishes identically: every pair is
            # a root and every combination has rank <= 1, so spectral and
            # Frobenius norms agree and the top right-singular vector of the
            # stacked slices maximizes the leading canonical coefficient
            stacked = t[vanishing].reshape(-1, 2, 4).swapaxes(1, 2)
            zw = np.conj(np.linalg.svd(stacked)[2][:, 0, :])
            ref = np.where(np.abs(zw[:, 0]) > _TINY, zw[:, 0], zw[:, 1])
            zw *= (np.conj(ref) / np.abs(ref))[:, None]
            zw[:, 0] = zw[:, 0].real + 0.0
            pairs[vanishing] = zw[:, None, :]
    degenerate = collapsed | (np.abs(pairs[:, 0] - pairs[:, 1]).sum(axis=-1) < 1e-9)
    # np.round(w, 12) but for its last division, which keeps the order;
    # complex values compare by real part, then imaginary part
    key = np.rint(pairs.view(float)[..., 2:] * 1e12).view(complex)
    swap = key[:, 1] > key[:, 0]
    if swap.any():
        pairs = np.where(swap[..., None], pairs[:, ::-1], pairs)
    return pairs, degenerate


def det_zero_solutions(st: SliceTensors) -> DetZeroBranches:
    """Both unit pairs (z, w) with det(z T0 + w T1) = 0, in a fixed order:
    the pairs of the one row (T0, T1) of decompose_rows (see _branch_pairs)."""
    st = _instance(st, SliceTensors)
    row = np.concatenate([np.ravel(st.T0), np.ravel(st.T1)])
    cd = decompose_rows(row[None])
    plus, minus = ((z.real, complex(w)) for z, w in cd.pairs[0].tolist())
    return DetZeroBranches(plus=plus, minus=minus, degenerate=bool(cd.degenerate[0]))


def decompose_rows(amps) -> CanonicalRows:
    """Canonical forms of (n, 8) unit amplitude rows, deterministic branch
    choice.

    For each branch pair (z, w), the rotated first slice z T0 + w T1 has
    rank one: its SVD U S V^dagger gives l0 = S_0, and the coefficients
    mu = U^dagger (-w* T0 + z* T1) V give l1..l4 = |mu_00|, |mu_01|,
    |mu_10|, |mu_11| and phi = |arg(mu_00 mu_11 / (mu_01 mu_10))|, which
    the phases of U and V leave unchanged. Both branches of all rows go
    through one stacked SVD. The branch with the larger l0 wins, ties going
    to "plus". The phase is read in [0, pi]: a raw phase in (pi, 2 pi) is
    folded to 2 pi - phi, which conjugates the canonical representative and
    leaves every reported invariant (Bloch norms, concurrences, tangle)
    unchanged. phi is 0 where a coefficient vanishes, since that frees
    enough local phases to cancel it, and where l1 is below ZERO_TOL.
    The rows are checked by _amp_rows, then decomposed by _decompose.
    """
    return _decompose(_amp_rows(amps))


def _decompose(amps: np.ndarray) -> CanonicalRows:
    """decompose_rows of (n, 8) complex rows that have already passed a norm
    check: _amp_rows or PureState3's."""
    n = len(amps)
    pairs, degenerate = _branch_pairs(amps)
    # rows (z, w) of both branches, then (-w*, z*) of both, times (T0, T1)
    coef = np.concatenate([pairs, np.conj(pairs[..., ::-1]) * _CONJ_SIGNS], axis=1)
    rot = (coef @ amps.reshape(n, 2, 4)).reshape(n, 2, 2, 2, 2)
    u, s, vh = np.linalg.svd(rot[:, 0])
    res = s.prod(axis=-1)  # |det(z T0 + w T1)|
    if not res.max(initial=0.0) <= 1e-10:  # NaN fails too
        i = int(np.argmax(~(res <= 1e-10).all(axis=1)))
        raise NumericalError(f"slice rotation leaves determinant {res[i].max():.3e} in row {i}")
    mu = (u.conj().swapaxes(-1, -2) @ rot[:, 1] @ vh.conj().swapaxes(-1, -2)).reshape(n, 2, 4)
    mags = np.abs(mu)
    lam = np.concatenate([s[..., :1], mags], axis=-1)
    cross = mu[..., 0] * mu[..., 3] * np.conj(mu[..., 1] * mu[..., 2])
    phi = np.abs(np.arctan2(cross.imag, cross.real))
    phi[mags.min(axis=-1) < _TINY] = 0.0
    if s[..., 0].min(initial=1.0) < _TINY:
        # the state lives in the A = 1 block: plain Schmidt split of B vs C
        flat = s[..., 0] < _TINY
        sv = np.linalg.svd(mu[flat].reshape(-1, 2, 2), compute_uv=False)
        lam[flat] = 0.0
        lam[flat, 1], lam[flat, 4] = sv[:, 0], sv[:, 1]
        phi[flat] = 0.0
    lam /= np.sqrt((lam * lam).sum(axis=-1, keepdims=True))
    second = lam[:, 1, 0] > lam[:, 0, 0] + 1e-12
    picked = np.where(second[:, None], lam[:, 1], lam[:, 0])
    phi = np.where(second, phi[:, 1], phi[:, 0])
    phi[picked[:, 1] < ZERO_TOL] = 0.0
    return CanonicalRows(lambdas=picked, phi=phi, branch=second.astype(np.intp),
                         degenerate=degenerate, pairs=pairs, branch_lambdas=lam)


def canonical_decompose(s: PureState3) -> CanonicalForm:
    """Canonical form of a state: its row of decompose_rows, computed once
    per state (PureState3.canonical)."""
    return _state(s).canonical


def _canonical_amps(lam: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Unit amplitude rows (n, 8) with the canonical pattern of coefficient
    rows lam (n, 5) and phases phi (n,)."""
    amps = np.zeros((len(lam), 8), dtype=complex)
    amps[:, _CD_AMP_IDX] = lam
    amps[:, 4] *= np.exp(1j * phi)
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


def reconstruct(cf: CanonicalForm) -> PureState3:
    """State with the canonical amplitude pattern of cf."""
    cf = _instance(cf, CanonicalForm)
    return PureState3(_canonical_amps(np.array([cf.lambdas]), np.array([cf.phi]))[0])


def _tolerances(tol, cd_tol) -> tuple[float, float]:
    """tol and cd_tol (default ZERO_TOL), each a positive finite number."""
    if cd_tol is None:
        cd_tol = ZERO_TOL
    for name, x in (("tol", tol), ("cd_tol", cd_tol)):
        try:
            ok = 0.0 < x < math.inf  # written so that NaN fails too
        except TypeError:
            ok = False
        if not ok:
            raise ValidationError(f"{name} must be positive and finite, got {x!r}")
    return tol, cd_tol


def _label_codes(r, c, hdet, tol: float, cd_tol: float, lambdas_of):
    """SLOCC class and type indices (into SLOCC_CLASSES and TYPE_KINDS) of
    rows with invariants r (n, 3), c (n, 3) and hdet (n,).

    Three pure marginals give type 1 (A-B-C), one or two give 2a with the
    purest qubit split off. lambdas_of(need) gives the canonical
    coefficients of the rows selected by the mask need, those with no pure
    marginal, whose tangle is cross-checked by check_monogamy. Each row gets
    a label code (see _label_table) that indexes _CODE_SLOCC and _CODE_KIND.
    """
    near_one = (r > 1.0 - tol).sum(axis=1)
    code = np.where(near_one == 3, 32, 33 + r.argmax(axis=1))
    need = near_one == 0
    if need.any():
        tau = _tangles(hdet[need], r[need], c[need])
        code[need] = (lambdas_of(need)[:, 1:] < cd_tol) @ _ZERO_BITS + 16 * (tau < tol)
    return _CODE_SLOCC[code], _CODE_KIND[code]


def classify_rows(amps, tol: float = 1e-9, cd_tol: float | None = None):
    """SLOCC class and refined type of each of (n, 8) unit amplitude rows,
    as two (n,) string arrays (slocc, kind).

    tol drives the Bloch-norm and tangle thresholds; cd_tol (default
    ZERO_TOL) decides which canonical coefficients count as zero. On
    borderline states the zero reading wins, i.e. the more specific type.
    One invariants call labels every row; one _decompose call covers the
    rows that are not of type 1 or 2a.
    """
    tol, cd_tol = _tolerances(tol, cd_tol)
    amps = _amp_rows(amps)
    r, c, hdet = invariants(amps)
    slocc, kind = _label_codes(r, c, hdet, tol, cd_tol,
                               lambda need: _decompose(amps[need]).lambdas)
    return np.array(SLOCC_CLASSES)[slocc], np.array(TYPE_KINDS)[kind]


def classify(s: PureState3, tol: float = 1e-9, cd_tol: float | None = None) -> EntLabel:
    """SLOCC class and refined type of a state: its row of classify_rows,
    read from the state's invariants and canonical form (both cached)."""
    tol, cd_tol = _tolerances(tol, cd_tol)
    r, c, hdet = _state(s).invariants
    slocc, kind = _label_codes(r[None], c[None], np.array([hdet]), tol, cd_tol,
                               lambda need: np.array([s.canonical.lambdas]))
    return EntLabel(SLOCC_CLASSES[slocc[0]], TYPE_KINDS[kind[0]], tol)
