"""Bloch-norm geometry: the bipyramid and its strata, R, the distance to the
main diagonal, the (R, tau) bound curves, the fibration surfaces, and the
geometric tangle ansatz. Each function maps Bloch rows (..., 3), or arrays
of R, elementwise; a BlochTriple, one row or a scalar R gives a scalar."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import CanonicalForm, CanonicalRows, EntLabel
from .entanglement import BlochTriple
from .errors import (
    ComplexTau,
    OutOfDomain,
    UnknownRegion,
    UnknownType,
    UnsupportedType,
    ValidationError,
)
from .qstate import _check_tol, _instance

SQRT3 = float(np.sqrt(3.0))
R_W = float(1.0 / np.sqrt(3.0))
R_STAR = float(np.sqrt(3.0 / 7.0))
# where the saturating-coefficient branch switches from the small-R root to
# the linear form; approximate by construction
CROSSOVER_R = 0.56

_DUST = 1e-12

# sign rows (s_A, s_B, s_C) of the plane family s_A r_A - s_B r_B - s_C r_C + 1 = 0:
# the three faces of the upper tetrahedron, then the common base r_A+r_B+r_C = 1
FACE_SIGNS = ((1, 1, 1), (-1, -1, 1), (-1, 1, -1), (-1, 1, 1))

REGION_KINDS = (
    "bipyramid",
    "upper-tetrahedron",
    "face",
    "diagonal",
    "triangle-12",
    "triangle-23",
    "triangle-13",
    "wedge-l2",
    "wedge-l3",
)

CURVE_KINDS = ("tau_max", "tau_star", "tau_up", "tau_down")

# the coarse entanglement types, each with one stratum (see in_stratum)
COARSE_TYPES = ("1", "2a", "2b", "3a", "3b", "4a", "4b", "4c", "5")


@dataclass(frozen=True)
class Region:
    """A stratum of the Bloch-norm bipyramid, with membership tolerance."""

    kind: str
    tol: float = 1e-9
    signs: tuple[int, int, int] | None = None

    def __post_init__(self):
        if self.kind not in REGION_KINDS:
            raise UnknownRegion(f"unknown region kind {self.kind!r}")
        _check_tol(self.tol)
        if self.kind == "face":
            if (tuple(self.signs) if np.iterable(self.signs) else self.signs) not in FACE_SIGNS:
                raise UnknownRegion(
                    f"face signs must be one of {FACE_SIGNS}, got {self.signs!r}"
                )
        elif self.signs is not None:
            raise UnknownRegion(f"signs only apply to faces, not {self.kind!r}")


def _out(x):
    """A Python scalar for a single row or R, otherwise the array."""
    return np.asarray(x).item() if np.ndim(x) == 0 else x


def _real(what: str, *xs) -> list[np.ndarray]:
    """The values as finite float arrays of broadcast-compatible shapes."""
    try:
        arrs = [np.asarray(x) for x in xs]
        np.broadcast(*arrs)
    except ValueError:
        raise ValidationError(f"{what} must be arrays of broadcast-compatible shapes") from None
    if any(a.dtype.kind not in "biuf" or not np.isfinite(a).all() for a in arrs):
        raise ValidationError(f"{what} must be finite real numbers")
    return [np.asarray(a, dtype=float) for a in arrs]


def _rows(r) -> np.ndarray:
    """Bloch rows (..., 3) from a BlochTriple or an array-like."""
    if isinstance(r, BlochTriple):
        r = r.as_array()
    (rows,) = _real("Bloch norms", r)
    if rows.shape[-1:] != (3,):
        raise ValidationError(f"Bloch rows need a trailing axis of 3, got shape {rows.shape}")
    return rows


def _in_range(what: str, x: np.ndarray, lo: float, hi: float, interval: str) -> None:
    bad = x[(x < lo - _DUST) | (x > hi + _DUST)]
    if bad.size:
        raise OutOfDomain(f"{what} = {bad.flat[0]} outside {interval}")


def big_r(r):
    """Euclidean norm of each Bloch row, in [0, sqrt 3]."""
    rows = _rows(r)
    return _out(np.sqrt(rows[..., 0] ** 2 + rows[..., 1] ** 2 + rows[..., 2] ** 2))


def big_r_from_cf(cf):
    """R evaluated directly from canonical coefficients: of a CanonicalForm,
    or of each row of a canonical.decompose_rows result.

    R^2 = 3 - 4 l0^2 (3 - 3 l0^2 - 3 l1^2 - l2^2 - l3^2) - 8 D with
    D = l1^2 l4^2 + l2^2 l3^2 - 2 l1 l2 l3 l4 cos(phi). Agrees with the
    norm of the reconstructed state's Bloch triple to machine precision.
    """
    if not isinstance(cf, (CanonicalForm, CanonicalRows)):
        raise ValidationError(f"expected a CanonicalForm or CanonicalRows, got {type(cf).__name__}")
    l0, l1, l2, l3, l4 = np.moveaxis(np.asarray(cf.lambdas, dtype=float), -1, 0)
    d = l1 ** 2 * l4 ** 2 + l2 ** 2 * l3 ** 2 - 2.0 * l1 * l2 * l3 * l4 * np.cos(cf.phi)
    r2 = 3.0 - 4.0 * l0 ** 2 * (3.0 - 3.0 * l0 ** 2 - 3.0 * l1 ** 2 - l2 ** 2 - l3 ** 2) - 8.0 * d
    return _out(np.sqrt(np.clip(r2, 0.0, 3.0)))


def _diagonal_distance(rows: np.ndarray) -> np.ndarray:
    ra, rb, rc = rows[..., 0], rows[..., 1], rows[..., 2]
    # sum-of-squared-differences form of r.r - sum of cross terms; the direct
    # expression cancels catastrophically for near-diagonal triples
    rad = 0.5 * ((ra - rb) ** 2 + (ra - rc) ** 2 + (rb - rc) ** 2)
    return np.sqrt(2.0 / 3.0) * np.sqrt(rad)


def dist_to_diagonal(r):
    """Distance from each Bloch row to the main diagonal r_A = r_B = r_C."""
    return _out(_diagonal_distance(_rows(r)))


def _inside(rows: np.ndarray, kind: str, tol: float, signs=None) -> np.ndarray:
    """Whether each of the checked Bloch rows lies in the region of that
    kind (and face signs), within the checked tol."""
    ra, rb, rc = rows[..., 0], rows[..., 1], rows[..., 2]
    if kind == "face":
        sa, sb, sc = signs
        ok = np.abs(sa * ra - sb * rb - sc * rc + 1.0) <= tol
    elif kind == "diagonal":
        ok = _diagonal_distance(rows) <= tol
    elif kind == "triangle-12":
        ok = (np.abs(ra - rb) <= tol) & (rc > ra + tol) & (rc > rb + tol)
    elif kind == "triangle-23":
        ok = (np.abs(rb - rc) <= tol) & (ra > rb + tol) & (ra > rc + tol)
    elif kind == "triangle-13":
        ok = (np.abs(ra - rc) <= tol) & (rb > ra + tol) & (rb > rc + tol)
    elif kind == "wedge-l2":
        ok = rb + tol < np.minimum(ra, rc)
    elif kind == "wedge-l3":
        ok = rc + tol < np.minimum(ra, rb)
    else:
        ok = (((rows >= -tol) & (rows <= 1.0 + tol)).all(axis=-1)
              & (1.0 + ra - rb - rc >= -tol) & (1.0 - ra + rb - rc >= -tol)
              & (1.0 - ra - rb + rc >= -tol))
        if kind == "upper-tetrahedron":
            ok &= ra + rb + rc >= 1.0 - tol
    return ok


def membership(r, reg: Region):
    """Whether each Bloch row lies in the region, within its tolerance."""
    reg = _instance(reg, Region)
    return _out(_inside(_rows(r), reg.kind, reg.tol, reg.signs))


# the regions whose union is each coarse type's stratum; types 1 and 2a are
# the vertex (1, 1, 1) and the edges through it, and 3a takes the face planes
# only where r_A + r_B + r_C >= 1
_STRATA = {"2b": ("diagonal",), "3a": ("face",), "4a": ("upper-tetrahedron",),
           "3b": ("triangle-12", "triangle-23", "triangle-13"),
           "4b": ("wedge-l2", "wedge-l3"), "4c": ("bipyramid",), "5": ("bipyramid",)}


def in_stratum(kind: str, r, tol: float = 1e-9):
    """Whether each Bloch row lies in the stratum of a coarse type, within tol."""
    _check_tol(tol)
    rows = _rows(r)
    if kind == "1":
        return _out(np.max(np.abs(rows - 1.0), axis=-1) <= tol)
    if kind == "2a":
        srt = np.sort(rows, axis=-1)
        return _out((np.abs(srt[..., 2] - 1.0) <= tol) & (np.abs(srt[..., 0] - srt[..., 1]) <= tol))
    if not isinstance(kind, str) or kind not in _STRATA:
        raise UnknownType(f"no stratum for type {kind!r}")
    ok = np.logical_or.reduce([_inside(rows, t, tol, sg) for t in _STRATA[kind]
                               for sg in (FACE_SIGNS if t == "face" else (None,))])
    if kind == "3a":
        ok &= rows.sum(axis=-1) >= 1.0 - tol
    return _out(ok)


def bound_curve(kind: str, r):
    """Evaluate one of the (R, tau) bound curves at each R; nan outside its domain.

    tau_max = 1 - R^2/3 everywhere. tau_star is the piecewise saturating
    curve: 5 tau_max - 4 sqrt(tau_max) up to the crossover, 1 - R^2 to
    R = 1, then 0. tau_up and tau_down bound the two-branch region; they
    return nan where undefined (tau_up for R > R_star, tau_down outside
    [R_W, R_star]).
    """
    if kind not in CURVE_KINDS:
        raise ValidationError(f"unknown bound curve {kind!r}")
    (r,) = _real("R", r)
    _in_range("R", r, 0.0, SQRT3, "[0, sqrt 3]")
    r = np.minimum(np.maximum(r, 0.0), SQRT3)
    tau_m = np.maximum(1.0 - r * r / 3.0, 0.0)
    if kind == "tau_max":
        out = tau_m
    elif kind == "tau_star":
        out = np.where(r <= CROSSOVER_R, 5.0 * tau_m - 4.0 * np.sqrt(tau_m),
                       np.where(r <= 1.0, 1.0 - r * r, 0.0))
    elif kind == "tau_up":
        rad = 9.0 - 21.0 * r * r
        rad = np.where(np.abs(rad) < _DUST, 0.0, rad)
        out = np.where(rad < 0.0, np.nan, (17.0 / 49.0 - 5.0 * r * r / 21.0)
                       - (32.0 / 147.0) * np.sqrt(np.maximum(rad, 0.0)))
    else:
        inner = (R_W + R_STAR) * (R_STAR - r) / (R_STAR ** 2 - R_W ** 2)
        out = np.where((r < R_W - _DUST) | (r > R_STAR + _DUST), np.nan,
                       0.25 * (1.0 - np.sqrt(np.maximum(inner, 0.0))))
    return _out(out)


def lambda3_star(r):
    """Saturating third coefficient along the l2 = 0 fibration, at each R.

    sqrt(3 - sqrt(9 - 3 R^2)) up to the crossover, R/sqrt(2) beyond it;
    defined for R in (0, 1] with the R -> 0 limit included.
    """
    (r,) = _real("R", r)
    _in_range("R", r, 0.0, 1.0, "(0, 1]")
    r = np.minimum(np.maximum(r, 0.0), 1.0)
    return _out(np.where(r <= CROSSOVER_R, np.sqrt(3.0 - np.sqrt(9.0 - 3.0 * r * r)),
                         r / np.sqrt(2.0)))


def tau_surface(r, l2, l3, branch: str = "plus"):
    """Tangle on the constrained surface parametrized by (R, l2, l3).

    With s = l2^2 + l3^2 and u = l2^2 l3^2 the two branches read
    tau = tau_max + (4 s / 9)(s - 3 -+ q) - (8/3) u,
    q = sqrt(3 R^2 + s^2 - 6 s + 24 u). The default "plus" branch (taking
    -q) reduces to the single-coefficient fibration at l2 = 0 and puts its
    zero set at R^2 = 3 - 8 s + 8 s^2, whose minimum over s is R = 1; the
    "minus" branch (taking +q) is the variant containing the point
    (R, l2, l3) = (1/sqrt3, 1/sqrt3, 1/sqrt3) at tau = 0. R, l2 and l3
    broadcast together. A negative radicand beyond dust at any point means
    that point is unreachable and raises.
    """
    if branch not in ("plus", "minus"):
        raise ValidationError(f"branch must be plus or minus, got {branch!r}")
    r, l2, l3 = _real("R, l2 and l3", r, l2, l3)
    _in_range("R", r, 0.0, SQRT3, "[0, sqrt 3]")
    _in_range("l2", l2, 0.0, 1.0, "[0, 1]")
    _in_range("l3", l3, 0.0, 1.0, "[0, 1]")
    s = l2 * l2 + l3 * l3
    u = (l2 * l2) * (l3 * l3)
    rad = 3.0 * r * r + s * s - 6.0 * s + 24.0 * u
    rad = np.where(np.abs(rad) < _DUST, 0.0, rad)
    if np.any(rad < 0.0):
        raise ComplexTau(f"surface radicand {rad[rad < 0.0].flat[0]} is negative")
    q = np.sqrt(rad)
    tau_m = 1.0 - r * r / 3.0
    sign = -1.0 if branch == "plus" else 1.0
    return _out(tau_m + (4.0 * s / 9.0) * (s - 3.0 + sign * q) - (8.0 / 3.0) * u)


def ansatz_tau(r, f_value):
    """Geometric tangle ansatz: tau_max(R) minus distance times the F factor."""
    rows = _rows(r)
    _, f = _real("Bloch norms and the F factor", rows[..., 0], f_value)
    if np.any(f < 0):
        raise ValidationError(f"F factor must be non-negative, got {f[f < 0].flat[0]}")
    big = big_r(rows)
    return _out(1.0 - big * big / 3.0 - dist_to_diagonal(rows) * f)


# Per-type F factors to lowest order. The two wedge kinds admit two role
# assignments of the Bloch norm entering the factor; "suppressed" pairs each
# kind with the wedge's smallest norm, which empirically tracks the tangle,
# and "swapped" is the transposed convention kept for comparison. Each
# triangle factor reads the norm outside the triangle's equal pair.
_F_TRIANGLE = {"3b-12": 2, "3b-23": 0, "3b-13": 1}


def f_lowest_order(label: EntLabel | str, r, pairing: str = "suppressed"):
    """Lowest-order F factor of each Bloch row for the triangle and wedge types."""
    kind = label.kind if isinstance(label, EntLabel) else str(label)
    rows = _rows(r)
    if kind in _F_TRIANGLE:
        return _out(2.0 * rows[..., _F_TRIANGLE[kind]] * np.sqrt(2.0 / 3.0))
    if kind in ("4b-l2", "4b-l3"):
        if pairing not in ("suppressed", "swapped"):
            raise ValidationError(f"pairing must be suppressed or swapped, got {pairing!r}")
        use_b = (kind == "4b-l2") == (pairing == "suppressed")
        return _out(2.0 * np.sqrt(3.0) * rows[..., 1 if use_b else 2])
    raise UnsupportedType(f"no lowest-order F factor for type {kind!r}")
