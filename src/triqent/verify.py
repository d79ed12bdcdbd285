"""Self-checking battery: every library property, exercised at runtime.

Each check is a named function registered in a module-level table, with the
stream its random draws come from. A check takes a numpy Generator, passes
by returning a one-line summary and fails by raising AssertionError (or any
library error). run_checks builds each check's generator from the seed and
collects results without stopping at the first failure, so a single run
reports the health of the whole stack.

A check that the acceptance battery runs at a larger size takes that size
as a keyword whose default is the interactive size `triqent verify` runs.
The acceptance battery calls the same functions (see check) with its own
generators and the full Monte Carlo sizes: acceptance criteria 1-8 are
these checks at full size. The geometry
checks hand whole sample arrays to polytope, whose in_stratum is the one
type-to-stratum map.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

import numpy as np

from . import canonical, chains, entanglement, polytope, qstate
from .errors import (
    BadNormalization,
    ComplexTau,
    CrossingPoint,
    NeedParams,
    NotDegenerate,
    OutOfDomain,
    OutOfRange,
    TriqentError,
    UnsupportedType,
    ValidationError,
    ZeroVector,
)

# name -> (stream, check); a check without a stream draws nothing
_REGISTRY: dict[str, tuple[int | None, Callable[..., str]]] = {}


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check."""

    name: str
    passed: bool
    detail: str
    seed: int


def register(name: str, stream: int | None = None):
    """Decorator adding a check function to the battery under a fixed name.

    run_checks calls a check with default_rng([seed, stream]), so its draws
    do not depend on which other checks run.
    """

    def wrap(fn: Callable[..., str]) -> Callable[..., str]:
        if name in _REGISTRY:
            raise ValueError(f"duplicate check name {name!r}")
        _REGISTRY[name] = (stream, fn)
        return fn

    return wrap


def check_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def check(name: str) -> Callable[..., str]:
    """The check registered under name, to call with a Generator and sizes."""
    if name not in _REGISTRY:
        raise ValidationError(f"unknown check {name!r}")
    return _REGISTRY[name][1]


def run_checks(names: Iterable[str] | None = None, seed: int = 0) -> list[CheckResult]:
    """Run the requested checks (all by default) and collect the results.

    Failures are captured as CheckResult entries rather than raised, so the
    battery always runs to completion; unknown names and a seed that is not
    a non-negative integer raise ValidationError up front.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    if names is None:
        picked = list(_REGISTRY)
    else:
        picked = [str(n) for n in names]
        unknown = [n for n in picked if n not in _REGISTRY]
        if unknown:
            raise ValidationError(f"unknown checks: {', '.join(unknown)}")

    def run_one(name: str) -> CheckResult:
        stream, fn = _REGISTRY[name]
        rng = np.random.default_rng(seed if stream is None else [seed, stream])
        try:
            return CheckResult(name, True, fn(rng), seed)
        except AssertionError as exc:
            return CheckResult(name, False, str(exc) or "assertion failed", seed)
        except TriqentError as exc:
            return CheckResult(name, False, f"{type(exc).__name__}: {exc}", seed)

    return [run_one(n) for n in picked]


# ---------------------------------------------------------------------------
# shared helpers

_GHZ = qstate.PureState3(chains.GHZ_KET)
_W = qstate.PureState3(chains.W_KET)


def _state(*pairs: tuple[int, complex]) -> qstate.PureState3:
    vec = np.zeros(8, dtype=complex)
    for idx, val in pairs:
        vec[idx] = val
    return qstate.normalize(vec)


def _haar_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    """n Haar-random unit rows, shape (n, 8), drawn as n (real, imaginary)
    pairs: the same numbers and bits as n one-row _haar_amps draws, each
    passed through normalize."""
    return _haar_unit(rng.normal(size=(n, 2, 8)))


def _haar_unit(x: np.ndarray) -> np.ndarray:
    """The unit rows of x[:, 0] + i x[:, 1], x of shape (n, 2, 8), divided by
    their norms as _haar_amps does and then normalized."""
    v = x[:, 0] + 1j * x[:, 1]
    return qstate.normalize_rows(v / np.linalg.norm(v, axis=1, keepdims=True))


def _seven_invariants(amps: np.ndarray) -> np.ndarray:
    """(r_A, r_B, r_C, tau, C_AB, C_AC, C_BC) of each amplitude row, (n, 7)."""
    r, c, hdet = entanglement.invariants(amps)
    return np.column_stack([r, entanglement._tangles(hdet), c])


def _expect(exc_type, fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except exc_type:
        return
    raise AssertionError(f"{fn.__name__} did not raise {exc_type.__name__}")


# ---------------------------------------------------------------------------
# state representation and samplers

@register("normalize-phase", stream=1)
def _check_normalize_phase(rng: np.random.Generator) -> str:
    # each draw takes a raw row and then its scale and phase from the stream
    raw, zs = np.empty((300, 8), dtype=complex), np.empty(300, dtype=complex)
    for i in range(300):
        raw[i] = rng.normal(size=8) + 1j * rng.normal(size=8)
        zs[i] = (0.2 + rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
    amps = qstate.normalize_rows(raw)
    assert float(np.max(np.abs(np.linalg.norm(amps, axis=1) - 1.0))) <= 1e-12, \
        "unit norm lost"
    lead = amps[np.arange(300), np.argmax(np.abs(amps) > 1e-12, axis=1)]
    assert np.all((np.abs(lead.imag) <= 1e-12) & (lead.real >= 0.0)), \
        "leading amplitude is not real non-negative"
    spread = float(np.max(np.abs(qstate.normalize_rows(zs[:, None] * raw) - amps)))
    assert spread <= 1e-12, f"representative depends on scale/phase by {spread:.2e}"
    _expect(ZeroVector, qstate.normalize, np.zeros(8))
    return f"300 draws, representative spread {spread:.1e}"


@register("lu-invariance", stream=2)
def _check_lu_invariance(rng: np.random.Generator) -> str:
    # per scramble: a Haar row (8 real, then 8 imaginary parts), then one
    # Ginibre matrix per qubit (4 real, then 4 imaginary parts)
    x = rng.normal(size=(120, 40))
    amps = _haar_unit(x[:, :16].reshape(120, 2, 8))
    g = x[:, 16:].reshape(120, 3, 2, 2, 2)
    us = qstate._haar_u2(g[:, :, 0] + 1j * g[:, :, 1])
    t = amps
    for i, q in enumerate(qstate.QUBITS):
        t = qstate._apply_local_rows(t, us[:, i], q)
    # one call for all 240 rows: invariants gives a row the same bits in any
    # batch of 2 to 1,365 rows
    inv = _seven_invariants(np.concatenate([amps, t]))
    worst = float(np.max(np.abs(inv[120:] - inv[:120])))
    assert worst <= 1e-10, f"local unitaries moved an invariant by {worst:.3e}"
    _expect(ValidationError, qstate.LocalUnitary, np.eye(2), "D")
    return f"120 scrambles, worst invariant shift {worst:.1e}"


@register("slice-roundtrip", stream=3)
def _check_slice_roundtrip(rng: np.random.Generator) -> str:
    for amp in _haar_rows(rng, 80):
        s = qstate.PureState3(amp)
        for q in qstate.QUBITS:
            st = qstate.slice_state(s, q)
            assert st.T0.shape == (2, 2) and st.T1.shape == (2, 2)
            back = qstate.reassemble(st)
            assert np.array_equal(back.amp, s.amp), "slice round trip not bit-exact"
    _expect(ValidationError, qstate.slice_state, _GHZ, "Q")
    return "80 states x 3 qubits, bit-exact"


@register("haar-symmetry", stream=4)
def _check_haar_symmetry(rng: np.random.Generator) -> str:
    n = 4000
    r = entanglement.invariants(qstate._haar_amps(n, rng))[0]
    worst = 0.0
    for i, j in ((0, 1), (0, 2), (1, 2)):
        d = r[:, i] - r[:, j]
        lim = 3.0 * float(d.std(ddof=1)) / np.sqrt(n)
        assert abs(float(d.mean())) <= lim, \
            f"mean Bloch norms differ between qubits {i} and {j} beyond 3 sigma"
        worst = max(worst, abs(float(d.mean())))
    also = qstate.sample_haar(int(rng.integers(1 << 32)))
    assert abs(np.linalg.norm(also.amp) - 1.0) <= 1e-12
    return f"{n} states, worst qubit-mean gap {worst:.2e}"


@register("type-sampler", stream=5)
def _check_type_sampler(rng: np.random.Generator) -> str:
    subs = rng.integers(1 << 32, size=(len(canonical.TYPE_KINDS), 4)).tolist()
    for t, kind_subs in zip(canonical.TYPE_KINDS, subs):
        for sub in kind_subs:
            s = qstate.sample_type(t, sub)
            got = canonical.classify(s).kind
            assert got == t, f"asked for {t}, classified as {got}"
            assert np.array_equal(qstate.sample_type(t, sub).amp, s.amp), \
                "sampler is not deterministic in its seed"
    for t in ("2a", "3b", "4b"):
        got = canonical.classify(qstate.sample_type(t, int(rng.integers(1 << 32)))).kind
        assert got == t or got.startswith(t + "-"), f"coarse {t} gave {got}"
    _expect(TriqentError, qstate.sample_type, "6", 0)
    return f"{len(canonical.TYPE_KINDS)} kinds x 4 seeds, classify round trip"


# ---------------------------------------------------------------------------
# entanglement observables

@register("marginal-spectrum", stream=6)
def _check_marginal_spectrum(rng: np.random.Generator) -> str:
    worst = 0.0
    for amp in _haar_rows(rng, 100):
        s = qstate.PureState3(amp)
        for q in qstate.QUBITS:
            den = entanglement.reduce_one(s, q)
            assert float(np.max(np.abs(den.rho - den.rho.conj().T))) <= 1e-12
            ev = np.linalg.eigvalsh(den.rho)
            assert float(ev.min()) >= -1e-12 and abs(float(ev.sum()) - 1.0) <= 1e-12
            purity_r = np.sqrt(max(0.0, 2.0 * float(np.trace(den.rho @ den.rho).real) - 1.0))
            worst = max(worst, abs(purity_r - den.r))
            p = np.clip(ev, 1e-300, None)
            s_eig = float(-(p * np.log(p)).sum())
            worst = max(worst, abs(s_eig - entanglement.entropy_from_norm(den.r)))
    assert worst <= 1e-9, f"marginal routes disagree by {worst:.3e}"
    return f"100 states x 3 marginals, route spread {worst:.1e}"


@register("entropy-anchors")
def _check_entropy_anchors(rng: np.random.Generator) -> str:
    assert entanglement.entropy_from_norm(1.0) == 0.0
    assert abs(entanglement.entropy_from_norm(0.0) - np.log(2.0)) <= 1e-15
    assert abs(entanglement.entropy_from_norm(0.0, bits=True) - 1.0) <= 1e-15
    # r = 3/5 gives the textbook (0.8, 0.2) eigenvalue pair
    expect = -(0.8 * np.log(0.8) + 0.2 * np.log(0.2))
    assert abs(entanglement.entropy_from_norm(0.6) - expect) <= 1e-15
    grid = np.array([entanglement.entropy_from_norm(r) for r in np.linspace(0.0, 1.0, 101)])
    assert np.all(np.diff(grid) < 0.0), "entropy is not strictly decreasing in r"
    for bad in (1.01, -0.01, np.nan):
        _expect(OutOfRange, entanglement.entropy_from_norm, bad)
    return "endpoints, midpoint, monotonicity, domain errors"


@register("monogamy-pivots", stream=7)
def _check_monogamy_pivots(rng: np.random.Generator, n: int = 3000) -> str:
    r, c, hdet = entanglement.invariants(qstate._haar_amps(n, rng))
    tau = entanglement._tangles(hdet)
    cap2 = 1.0 - r ** 2
    ab2, ac2, bc2 = c[:, 0] ** 2, c[:, 1] ** 2, c[:, 2] ** 2
    slack = float((ab2 + ac2 - cap2[:, 0]).max())
    assert slack <= 1e-9, f"pairwise concurrences exceed the one-vs-rest cap by {slack:.3e}"
    piv = np.stack([
        cap2[:, 0] - ab2 - ac2,
        cap2[:, 1] - ab2 - bc2,
        cap2[:, 2] - ac2 - bc2,
    ], axis=1)
    dev = float(np.abs(piv - tau[:, None]).max())
    assert dev <= 1e-9, f"residual tangles disagree with 4|Hdet| by {dev:.3e}"
    return f"{n} states, cap slack {slack:.1e}, three-pivot spread {dev:.1e}"


@register("tangle-anchors", stream=8)
def _check_tangle_anchors(rng: np.random.Generator) -> str:
    assert abs(entanglement.tangle(_GHZ) - 1.0) <= 1e-12
    assert abs(abs(entanglement.hyperdeterminant(_GHZ)) - 0.25) <= 1e-12
    assert entanglement.tangle(_W) <= 1e-12
    assert float(np.max(np.abs(_GHZ.invariants[0]))) <= 1e-12, "GHZ Bloch norms are not 0"
    assert float(np.max(np.abs(_W.invariants[0] - 1.0 / 3.0))) <= 1e-12, \
        "W Bloch norms are not 1/3"
    assert entanglement.tangle(_state((3, 1.0), (5, 1.0), (6, 1.0))) <= 1e-12
    for idx in (3, 5, 6):  # pair Bell states against the third qubit
        assert entanglement.tangle(_state((0, 1.0), (idx, 1.0))) <= 1e-12
    assert entanglement.tangle(_state((0, 1.0))) <= 1e-12
    r, c, hdet = entanglement.invariants(_haar_rows(rng, 200))
    tau = entanglement._tangles(hdet, r, c)
    lo, hi = float(tau.min()), float(tau.max())
    assert 0.0 <= lo and hi <= 1.0, "tangle left [0, 1]"
    return f"anchors exact; 200 Haar tangles in [{lo:.3f}, {hi:.3f}]"


@register("concurrence-routes", stream=9)
def _check_concurrence_routes(rng: np.random.Generator) -> str:
    amps = _haar_rows(rng, 200)
    c = entanglement.invariants(amps)[1]
    worst = 0.0
    for k, pair in enumerate(entanglement.PAIRS):
        # the Wootters route: sqrt eigenvalues of rho (Y x Y) rho* (Y x Y)
        rho = entanglement._pair_rho(amps, pair)
        rt = rho @ entanglement._YY @ rho.conj() @ entanglement._YY
        mu = np.sqrt(np.sort(np.clip(np.linalg.eigvals(rt).real, 0.0, None))[:, ::-1])
        eig = np.maximum(0.0, mu[:, 0] - mu[:, 1] - mu[:, 2] - mu[:, 3])
        worst = max(worst, float(np.max(np.abs(c[:, k] - eig))))
    assert worst <= 1e-7, f"concurrence routes disagree by {worst:.3e}"
    for pair in entanglement.PAIRS:
        assert abs(entanglement.concurrence_pair(_W, pair) - 2.0 / 3.0) <= 1e-12
    split = _state((0, 1.0), (3, 1.0))  # qubit A separated, B and C in a Bell pair
    assert abs(entanglement.concurrence_pair(split, "BC") - 1.0) <= 1e-12
    assert entanglement.concurrence_pair(split, "AB") <= 1e-12
    assert entanglement.concurrence_pair(split, "AC") <= 1e-12
    _expect(ValidationError, entanglement.concurrence_pair, _W, "CA")
    return f"200 states x 3 pairs, route gap {worst:.1e}"


# ---------------------------------------------------------------------------
# canonical decomposition

@register("cd-structure", stream=10)
def _check_cd_structure(rng: np.random.Generator) -> str:
    amps = _haar_rows(rng, 300)
    cd = canonical.decompose_rows(amps)
    lam = cd.lambdas
    assert float(lam.min()) >= 0.0, "negative canonical coefficient"
    assert float(np.max(np.abs((lam ** 2).sum(axis=1) - 1.0))) <= 1e-12, \
        "coefficients not normalized"
    assert np.all((0.0 <= cd.phi) & (cd.phi <= np.pi + 1e-12)), \
        f"phase {cd.phi[np.argmax(cd.phi)]} outside [0, pi]"
    assert np.isin(cd.branch, (0, 1)).all(), "unknown branch"
    z, w = cd.pairs[..., 0, None, None], cd.pairs[..., 1, None, None]
    assert float(np.max(np.abs(np.abs(z) ** 2 + np.abs(w) ** 2 - 1.0))) <= 1e-12, "pair not unit"
    t = amps.reshape(-1, 1, 2, 2, 2)
    m = z * t[:, :, 0] + w * t[:, :, 1]
    worst_det = float(np.max(np.abs(m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0])))
    best = cd.branch_lambdas[:, :, 0].max(axis=1)
    assert np.all(lam[:, 0] >= best - 1e-9), "branch choice does not maximize l0"
    tau = entanglement._tangles(entanglement.invariants(amps)[2])
    assert float(np.max(np.abs(4.0 * (lam[:, 0] * lam[:, 4]) ** 2 - tau))) <= 1e-9, \
        "4 (l0 l4)^2 drifted from the tangle"
    assert worst_det <= 1e-9, f"singular-slice residual {worst_det:.3e}"
    return f"300 states, det residual {worst_det:.1e}"


@register("cd-roundtrip", stream=11)
def _check_cd_roundtrip(rng: np.random.Generator, n: int = 800) -> str:
    amps = qstate.normalize_rows(qstate._haar_amps(n, rng))
    cd = canonical.decompose_rows(amps)
    back = canonical._canonical_amps(cd.lambdas, cd.phi)
    worst = float(np.max(np.abs(_seven_invariants(back) - _seven_invariants(amps))))
    taus = 4.0 * (cd.branch_lambdas[:, :, 0] * cd.branch_lambdas[:, :, 4]) ** 2
    worst_branch = float(np.max(np.abs(taus[:, 0] - taus[:, 1])))
    assert worst <= 1e-9, f"round trip moved an invariant by {worst:.3e}"
    assert worst_branch <= 1e-10, f"branch tangles split by {worst_branch:.3e}"
    return f"{n} states, invariant spread {worst:.1e}, branch split {worst_branch:.1e}"


@register("cd-anchors")
def _check_cd_anchors(rng: np.random.Generator) -> str:
    s2, s3 = 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(3.0)
    cases = [
        (_GHZ, (s2, 0.0, 0.0, 0.0, s2), "GHZ", "2b"),
        (_W, (s3, 0.0, s3, s3, 0.0), "W", "3a"),
        (_state((0, 1.0)), (1.0, 0.0, 0.0, 0.0, 0.0), "A-B-C", "1"),
        (_state((7, 1.0)), (1.0, 0.0, 0.0, 0.0, 0.0), "A-B-C", "1"),
        (_state((0, 1.0), (3, 1.0)), (0.0, s2, 0.0, 0.0, s2), "A-BC", "2a"),
        (_state((0, 1.0), (5, 1.0)), (s2, 0.0, s2, 0.0, 0.0), "B-AC", "2a"),
        (_state((0, 1.0), (6, 1.0)), (s2, 0.0, 0.0, s2, 0.0), "C-AB", "2a"),
    ]
    for s, lam, slocc, kind in cases:
        cf = canonical.canonical_decompose(s)
        dev = float(np.max(np.abs(np.asarray(cf.lambdas) - np.asarray(lam))))
        assert dev <= 1e-10, f"{slocc} coefficients off by {dev:.3e}"
        assert abs(cf.phi) <= 1e-10
        lab = canonical.classify(s)
        assert (lab.slocc, lab.kind) == (slocc, kind), \
            f"expected ({slocc}, {kind}), got ({lab.slocc}, {lab.kind})"
    _expect(BadNormalization, canonical.CanonicalForm, (5.0, 0.0, 0.0, 0.0, 0.0), 0.0, "plus")
    return f"{len(cases)} anchor states, coefficients and labels exact"


# ---------------------------------------------------------------------------
# polytope geometry

@register("strata-membership", stream=12)
def _check_strata_membership(rng: np.random.Generator, n: int = 120, draws: int = 4) -> str:
    # the sample_type seeds come first, one block per type, so they do not
    # depend on the batch size n
    seeds = [rng.integers(1 << 32, size=draws) for _ in polytope.COARSE_TYPES]
    for kind, kind_seeds in zip(polytope.COARSE_TYPES, seeds):
        drawn = [qstate.sample_type(kind, int(sd)).invariants[0] for sd in kind_seeds]
        batch = entanglement.invariants(qstate._sample_type_batch(kind, n, rng))[0]
        r = np.concatenate([batch, np.reshape(drawn, (-1, 3))])
        ok = polytope.in_stratum(kind, r)
        assert ok.all(), \
            f"type {kind} sample left its stratum at r = {tuple(r[np.argmin(ok)])}"
    return (f"{len(seeds)} types x ({n} batch rows + {draws} sample_type draws) "
            "inside their strata")


@register("bipyramid-membership", stream=13)
def _check_bipyramid_membership(rng: np.random.Generator) -> str:
    n = 3000
    r = entanglement.invariants(qstate._haar_amps(n, rng))[0]
    reg = polytope.Region("bipyramid", tol=1e-9)
    ok = polytope.membership(r, reg)
    assert ok.all(), f"Haar sample escaped the bipyramid at r = {tuple(r[np.argmin(ok)])}"
    assert not polytope.membership(entanglement.BlochTriple(0.9, 0.9, 0.05), reg)
    assert polytope.membership(entanglement.BlochTriple(1 / 3, 1 / 3, 1 / 3),
                               polytope.Region("diagonal"))
    w_bt = entanglement.bloch_triple(_W)
    assert polytope.membership(w_bt, polytope.Region("face", signs=(-1, 1, 1)))
    _expect(TriqentError, polytope.Region, "sphere")
    for tol in (np.nan, np.inf, -1.0):
        _expect(ValidationError, polytope.Region, "bipyramid", tol)
    return f"{n} Haar triples contained; boundary anchors agree"


@register("master-r2", stream=14)
def _check_master_r2(rng: np.random.Generator) -> str:
    amps = _haar_rows(rng, 500)
    direct = polytope.big_r(entanglement.invariants(amps)[0])
    from_cf = polytope.big_r_from_cf(canonical.decompose_rows(amps))
    worst = float(np.max(np.abs(direct - from_cf)))
    assert worst <= 1e-9, f"R from coefficients drifts from geometry by {worst:.3e}"
    assert polytope.big_r(entanglement.bloch_triple(_GHZ)) <= 1e-12
    assert abs(polytope.big_r(entanglement.bloch_triple(_state((0, 1.0)))) - np.sqrt(3.0)) <= 1e-12
    assert abs(polytope.big_r(entanglement.bloch_triple(_W)) - polytope.R_W) <= 1e-12
    return f"500 states, route gap {worst:.1e}"


@register("bound-curves", stream=23)
def _check_bound_curves(rng: np.random.Generator, n: int = 500) -> str:
    assert abs(polytope.bound_curve("tau_down", polytope.R_W)) <= 1e-12
    assert abs(polytope.bound_curve("tau_down", polytope.R_STAR) - 0.25) <= 1e-12
    assert abs(polytope.bound_curve("tau_up", polytope.R_STAR) - 12.0 / 49.0) <= 1e-12
    assert polytope.bound_curve("tau_max", 0.0) == 1.0
    assert np.isnan(polytope.bound_curve("tau_up", 0.9))
    assert np.isnan(polytope.bound_curve("tau_down", 0.5))
    assert np.isnan(polytope.bound_curve("tau_down", 0.8))
    r = np.linspace(0.0, np.sqrt(3.0), 200)
    assert np.all(polytope.bound_curve("tau_star", r)
                  <= polytope.bound_curve("tau_max", r) + 1e-12)
    r = np.linspace(polytope.R_W, polytope.R_STAR, 100)
    assert np.all(polytope.bound_curve("tau_down", r)
                  >= polytope.bound_curve("tau_up", r) - 1e-12), "two-branch band closed"
    assert polytope.BoundCurve("tau_max").at(0.5) == polytope.bound_curve("tau_max", 0.5)
    _expect(OutOfDomain, polytope.bound_curve, "tau_max", 2.0)
    _expect(ValidationError, polytope.bound_curve, "tau_side", 0.5)
    # sampled types against their curves: 2b on tau_max, 3b and 4b between
    # tau_star and tau_max, 4c and 5 outside the band between tau_up and
    # tau_down; the 0.02 slack covers 3b tangles that fall up to 6e-3 below
    # tau_star near its crossover
    for kind in ("2b", "3b", "4b", "4c", "5"):
        amps = qstate._sample_type_batch(kind, n, int(rng.integers(1 << 32)))
        r, _, hdet = entanglement.invariants(amps)
        big, tau = polytope.big_r(r), entanglement._tangles(hdet)
        top = polytope.bound_curve("tau_max", big)
        if kind == "2b":
            dev = float(np.max(np.abs(tau - top)))
            assert dev <= 1e-10, f"2b off the top curve by {dev:.3e}"
        elif kind in ("3b", "4b"):
            out = (tau < polytope.bound_curve("tau_star", big) - 0.02) | (tau > top + 1e-9)
            assert not out.any(), f"{kind} escapes the star/top band {int(out.sum())} times"
        else:
            inside = (big >= polytope.R_W) & (big <= polytope.R_STAR)
            up = polytope.bound_curve("tau_up", big[inside])
            down = polytope.bound_curve("tau_down", big[inside])
            gap = (tau[inside] > up + 0.02) & (tau[inside] < down - 0.02)
            assert not gap.any(), f"{kind} enters the forbidden band {int(gap.sum())} times"
    return f"endpoints, domains, band ordering; 5 types x {n} samples in their bands"


@register("tau-surface", stream=15)
def _check_tau_surface(rng: np.random.Generator) -> str:
    r = np.linspace(0.0, 1.4, 29)
    for branch in ("plus", "minus"):
        assert np.max(np.abs(polytope.tau_surface(r, 0.0, 0.0, branch)
                             - (1.0 - r * r / 3.0))) <= 1e-12
    assert abs(polytope.tau_surface(1.0, 0.0, 1 / np.sqrt(2.0), "plus")) <= 1e-12
    r = np.linspace(0.05, 1.0, 20)
    # the interior stationary fiber evaluates to 1 - R^2 exactly
    assert np.max(np.abs(polytope.tau_surface(r, 0.0, r / np.sqrt(2.0), "plus")
                         - (1.0 - r * r))) <= 1e-12
    r = np.linspace(0.05, 0.56, 18)
    sat = np.sqrt(3.0 - np.sqrt(9.0 - 3.0 * r * r))
    up = polytope.tau_surface(r, 0.0, sat, "plus")
    dn = polytope.tau_surface(r, 0.0, sat, "minus")
    star = polytope.bound_curve("tau_star", r)
    assert np.max(np.abs(up - dn)) <= 1e-10, "branches fail to meet at saturation"
    assert np.max(np.abs(up - star)) <= 1e-10, "saturating fiber misses the lower bound"
    assert np.max(np.abs(polytope.lambda3_star(r) - sat)) <= 1e-12
    assert abs(polytope.tau_surface(polytope.R_W, 1 / np.sqrt(3.0), 1 / np.sqrt(3.0),
                                    "minus")) <= 1e-12
    for r in (0.3, 0.45):
        grid = np.linspace(0.0, polytope.lambda3_star(r), 600)
        star = polytope.bound_curve("tau_star", r)
        assert abs(polytope.tau_surface(r, 0.0, grid).min() - star) <= 0.02 * star, \
            "numerical minimum strays from the saturating curve"
    lams = qstate._draw_lambdas((0, 2, 3, 4), 50, rng)
    r, _, hdet = entanglement.invariants(canonical._canonical_amps(lams, np.zeros(50)))
    gaps = [np.abs(polytope.tau_surface(polytope.big_r(r), lams[:, 2], lams[:, 3], b)
                   - entanglement._tangles(hdet)) for b in ("plus", "minus")]
    worst = float(np.max(np.min(gaps, axis=0)))
    assert worst <= 1e-9, f"surface misses reconstructed states by {worst:.3e}"
    _expect(ComplexTau, polytope.tau_surface, 0.3, 1.0, 0.0)
    _expect(ValidationError, polytope.tau_surface, 0.3, 0.1, 0.1, "middle")
    _expect(OutOfDomain, polytope.tau_surface, 0.3, 1.2, 0.0)
    return f"fibration identities hold; state route gap {worst:.1e}"


@register("ansatz-identities", stream=16)
def _check_ansatz_identities(rng: np.random.Generator, n: int = 1500) -> str:
    worst = 0.0
    plans = {
        "3b-12": lambda r: r[:, 2] ** 2,
        "3b-23": lambda r: r[:, 0] ** 2,
        "3b-13": lambda r: r[:, 1] ** 2,
        "4b-l2": lambda r: r[:, 2] ** 2 - r[:, 1] ** 2 + r[:, 0] ** 2,
        "4b-l3": lambda r: r[:, 1] ** 2 - r[:, 2] ** 2 + r[:, 0] ** 2,
    }
    for kind, rhs in plans.items():
        amps = qstate._sample_type_batch(kind, n, int(rng.integers(1 << 32)))
        r, _, hdet = entanglement.invariants(amps)
        tau = entanglement._tangles(hdet)
        dev = float(np.abs(1.0 - tau - rhs(r)).max())
        worst = max(worst, dev)
        assert dev <= 1e-10, f"{kind} norm identity off by {dev:.3e}"
    amps = qstate._sample_type_batch("2b", n, int(rng.integers(1 << 32)))
    r, _, hdet = entanglement.invariants(amps)
    tau = entanglement._tangles(hdet)
    r2 = (r ** 2).sum(axis=1)
    dev = float(np.abs(tau - (1.0 - r2 / 3.0)).max())
    assert dev <= 1e-10, f"diagonal states leave the top curve by {dev:.3e}"
    spread = float(np.abs(r - r.mean(axis=1, keepdims=True)).max())
    assert spread <= 1e-10, f"diagonal states off the diagonal by {spread:.3e}"
    return f"5 patterns x {n} samples, worst residual {worst:.1e}"


@register("ansatz-approximation", stream=17)
def _check_ansatz_approximation(rng: np.random.Generator) -> str:
    n = 1500
    near3b = 0.0
    for kind in ("3b-12", "3b-23", "3b-13"):
        amps = qstate._sample_type_batch(kind, n, int(rng.integers(1 << 32)))
        r, _, hdet = entanglement.invariants(amps)
        err = np.abs(polytope.ansatz_tau(r, polytope.f_lowest_order(kind, r))
                     - entanglement._tangles(hdet))
        near3b = max(near3b, float(err[polytope.dist_to_diagonal(r) < 0.1].max(initial=0.0)))
    assert near3b <= 0.02, f"near-diagonal 3b ansatz error {near3b:.3e}"
    near4b = 0.0
    for kind in ("4b-l2", "4b-l3"):
        amps = qstate._sample_type_batch(kind, n, int(rng.integers(1 << 32)))
        r, _, hdet = entanglement.invariants(amps)
        tau = entanglement._tangles(hdet)
        sup = np.abs(polytope.ansatz_tau(r, polytope.f_lowest_order(kind, r)) - tau)
        swp = np.abs(polytope.ansatz_tau(
            r, polytope.f_lowest_order(kind, r, pairing="swapped")) - tau)
        near4b = max(near4b, float(sup[polytope.dist_to_diagonal(r) < 0.05].max(initial=0.0)))
        assert float(np.median(sup)) < float(np.median(swp)), \
            f"{kind}: swapped role assignment outperformed the default"
    assert near4b <= 0.1, f"near-diagonal 4b ansatz error {near4b:.3e}"
    bt = entanglement.BlochTriple(0.4, 0.4, 0.4)
    assert abs(polytope.ansatz_tau(bt, 7.0) - (1.0 - 0.16)) <= 1e-12
    _expect(ValidationError, polytope.ansatz_tau, bt, -1.0)
    _expect(UnsupportedType, polytope.f_lowest_order, "5", bt)
    _expect(ValidationError, polytope.f_lowest_order, "4b-l2", bt, "dominant")
    return f"3b near-diagonal error {near3b:.3f}; 4b {near4b:.3f}, default pairing wins"


# ---------------------------------------------------------------------------
# spin chains

def _chain_points(points: int) -> list[tuple[str, float]]:
    """(model, delta) pairs of a points-long grid over each model's
    DELTA_RANGES, model by model in MODELS order."""
    return [(name, d) for name in chains.MODELS
            for d in np.linspace(*chains.DELTA_RANGES[name], points).tolist()]


def _hamiltonians(pairs: list[tuple[str, float]]) -> np.ndarray:
    """(P, 8, 8) Hamiltonians of (model, delta) pairs, one stack per run of
    pairs of the same model."""
    return np.concatenate([chains.build_hamiltonian(name, [d for _, d in run])
                           for name, run in groupby(pairs, key=itemgetter(0))])


def _grid_members(pairs: list[tuple[str, float]], rng: np.random.Generator):
    """(M, 8) closed-form members of every level at each (model, delta) pair,
    with each row's pair index, level energy and closed tangle (M,): one row
    per non-degenerate level, three random members (the draws of three
    _random_params calls) per degenerate level or fused tfim subspace."""
    blocks = []
    for i, (name, d) in enumerate(pairs):
        for n, (e, _) in enumerate(chains.closed_form_spectrum(name, d)):
            family = chains._DEG_FAMILY.get((name, n))
            size = 3 if chains._at_fusion(name, n, d) else family and len(family[0])
            coeffs = chains._draw_members(size, 3, rng) if size else None
            amps = chains._level_members(name, n, d, coeffs)
            blocks.append((amps, np.full(len(amps), i), np.full(len(amps), e),
                           chains._level_tangles(name, n, d, coeffs)))
    return tuple(np.concatenate(col) for col in zip(*blocks))


def _residuals(h: np.ndarray, amps: np.ndarray, e: np.ndarray) -> np.ndarray:
    """|h v - e v| of each row v of amps (M, 8), with h one (8, 8) matrix or
    one per row (M, 8, 8) and e (M,)."""
    return np.linalg.norm((h @ amps[:, :, None])[:, :, 0] - e[:, None] * amps, axis=1)


def _row_tangles(amps: np.ndarray) -> np.ndarray:
    """The tangles of (M, 8) rows from one invariants call, with the norm
    and monogamy checks of a one-row tangle(PureState3(...))."""
    qstate._check_norms(amps)
    r, c, hdet = entanglement.invariants(amps)
    return entanglement._tangles(hdet, r, c)


@register("chain-spectra")
def _check_chain_spectra(rng: np.random.Generator, points: int = 21) -> str:
    pairs = _chain_points(points)
    h = _hamiltonians(pairs)
    evals, evecs = chains.eigensystem(h)
    worst_res = float(np.max(np.linalg.norm(h @ evecs - evecs * evals[:, None, :], axis=1)))
    worst = 0.0
    for (name, d), ev in zip(pairs, evals):
        closed = chains.closed_form_spectrum(name, d)
        expanded = np.sort(np.repeat([e for e, _ in closed], [m for _, m in closed]))
        assert expanded.size == 8, "multiplicities do not sum to 8"
        worst = max(worst, float(np.max(np.abs(ev - expanded))))
        merged = chains.merge_levels(closed)
        assert sum(m for _, m in merged) == 8
        assert all(b - a > chains.GAP_TOL for (a, _), (b, _) in zip(merged, merged[1:]))
    assert worst <= 1e-10, f"closed spectra off by {worst:.3e}"
    assert worst_res <= 1e-9, f"numeric eigenpair residual {worst_res:.3e}"
    for name, spots in chains.CROSSINGS.items():
        for dc in spots:
            closed = sorted(e for e, m in chains.closed_form_spectrum(name, float(dc))
                            for _ in range(m))
            gaps = np.diff(closed)
            assert float(gaps.min()) <= chains.GAP_TOL, \
                f"{name} has no coincidence at delta = {dc}"
    return f"4 models x {points} points, spectrum gap {worst:.1e}, residual {worst_res:.1e}"


@register("chain-eigenstates", stream=18)
def _check_chain_eigenstates(rng: np.random.Generator, points: int = 5) -> str:
    pairs = _chain_points(points)
    amps, point, energy, _ = _grid_members(pairs, rng)
    worst = float(np.max(_residuals(_hamiltonians(pairs)[point], amps, energy)))
    assert worst <= 1e-9, f"closed eigenstate residual {worst:.3e}"
    amps = chains._level_members("tfim", 2, 1.0, chains._draw_members(3, 3, rng))
    e2 = np.full(3, chains.closed_form_spectrum("tfim", 1.0)[2][0])
    fused_res = float(np.max(_residuals(chains.build_hamiltonian("tfim", 1.0), amps, e2)))
    assert fused_res <= 1e-9, f"merged-subspace residual {fused_res:.3e}"
    _expect(CrossingPoint, chains.closed_form_eigenstate,
            "tfim", 2, 0.7, chains._random_params(3, rng))
    _expect(NeedParams, chains.closed_form_eigenstate, "xxx", 0, 1.0)
    _expect(ValidationError, chains.closed_form_eigenstate,
            "tfim", 0, 0.5, chains._random_params(2, rng))
    return f"all levels at {points} points, residual {worst:.1e}; merged subspace {fused_res:.1e}"


@register("chain-tangles", stream=19)
def _check_chain_tangles(rng: np.random.Generator, points: int = 7, fused: int = 6) -> str:
    amps, _, _, closed = _grid_members(_chain_points(points), rng)
    worst = float(np.max(np.abs(closed - _row_tangles(amps))))
    assert worst <= 1e-8, f"closed tangles drift from 4|Hdet| by {worst:.3e}"
    anchor = chains.closed_form_tangle("xzx", 1, 0.0)
    assert abs(anchor - 1.0 / 3.0) <= 1e-12, \
        f"cluster-point single-excitation tangle is {anchor}, not 1/3"
    coeffs = chains._draw_members(3, fused, rng)
    fused_tau = _row_tangles(chains._level_members("tfim", 2, 1.0, coeffs))
    fused_worst = float(np.max(np.abs(chains._level_tangles("tfim", 2, 1.0, coeffs) - fused_tau)))
    assert fused_worst <= 1e-9, f"merged-subspace tangle off by {fused_worst:.3e}"
    zeroed = np.array([(0.6 * np.exp(1j * th), 0.8, 0.0) for th in (0.0, 1.1, 2.3, 4.0)])
    assert chains._level_tangles("tfim", 2, 1.0, zeroed).max() <= 1e-12, \
        "members without the even component must be tangle-free"
    return f"{points}-point grids, worst {worst:.1e}; {fused} merged members {fused_worst:.1e}"


@register("chain-bloch-families", stream=20)
def _check_chain_bloch_families(rng: np.random.Generator) -> str:
    closed, amps = [], []
    for (name, n) in chains._DEG_FAMILY:
        if (name, n) == ("xxx", 2):
            _expect(UnsupportedType, chains.degenerate_bloch_family,
                    name, n, chains._random_params(4, rng))
            continue
        d = 0.4 if name != "xxx" else -0.6
        coeffs = chains._draw_members(2, 4, rng)
        closed += [chains.degenerate_bloch_family(
            name, n, chains.SuperpositionParams(a, b.real)).as_array() for a, b in coeffs.tolist()]
        amps.append(chains._level_members(name, n, d, coeffs))
    amps = np.concatenate(amps)
    qstate._check_norms(amps)
    worst = float(np.max(np.abs(np.array(closed) - entanglement.invariants(amps)[0])))
    assert worst <= 1e-10, f"family Bloch norms off by {worst:.3e}"
    _expect(NotDegenerate, chains.degenerate_bloch_family,
            "tfim", 0, chains._random_params(2, rng))
    return f"8 families x 4 members, worst gap {worst:.1e}"


@register("symmetry-labels", stream=21)
def _check_symmetry_labels(rng: np.random.Generator) -> str:
    lab = chains.symmetry_labels(_W)
    assert (lab.k, lab.m_z, lab.zflip) == (0, 1, -1), f"W labels {lab}"
    lab = chains.symmetry_labels(_GHZ)
    assert (lab.k, lab.p, lab.refl) == (0, 1, 1) and lab.m_z is None, f"GHZ labels {lab}"
    for ket, kk, mm in ((chains.WT1_KET, 1, 1), (chains.WT2_KET, 2, 1),
                        (chains.X3WT1_KET, 1, -1), (chains.X3WT2_KET, 2, -1)):
        lab = chains.symmetry_labels(qstate.PureState3(ket))
        assert (lab.k, lab.m_z) == (kk, mm), f"translation labels {lab}"
    s = chains.closed_form_eigenstate("tfim", 0, 0.7)
    lab = chains.symmetry_labels(s)
    assert (lab.k, lab.zflip) == (0, 1) and lab.m_z is None, f"chain ground labels {lab}"
    s = chains.closed_form_eigenstate("xzx", 5, 0.7)
    assert chains.symmetry_labels(s).k == 0
    lab = chains.symmetry_labels(qstate.PureState3(_haar_rows(rng, 1)[0]))
    assert lab.k is None and lab.p is None and lab.m_z is None, \
        "a generic state acquired symmetry labels"
    return "momentum, parity, and magnetization anchors agree"


@register("sweep-determinism", stream=22)
def _check_sweep_determinism(rng: np.random.Generator, points: int = 5) -> str:
    sub = int(rng.integers(1 << 32))
    grid = np.round(np.linspace(0.0, 2.0, points), 10).tolist()
    first = chains.sweep("tfim", grid, params_policy="mc", seed=sub)
    again = chains.sweep("tfim", grid, params_policy="mc", seed=sub)
    assert first == again, "same-seed sweeps differ"
    for f in chains.SWEEP_FIELDS:
        assert len(getattr(first, f)) == len(first), f"column {f} has the wrong length"
    for d, flag in zip(first.delta, first.crossing_flag):
        expect_flag = any(abs(d - dc) <= chains.GAP_TOL for dc in chains.CROSSINGS["tfim"])
        assert flag == expect_flag, f"crossing flag wrong at delta = {d}"
    assert sorted(set(first.delta)) == grid
    pert = chains.sweep("tfim", [0.3, 0.8], perturb=1e-3, seed=sub)
    assert set(pert.energy_closed) == set(pert.tau_closed) == {None}, \
        "perturbed rows must not carry closed-form columns"
    assert len(pert) == 16, "perturbed sweep should emit 8 rows per point"
    _expect(ValidationError, chains.sweep, "tfim", [0.5, 0.5])
    _expect(ValidationError, chains.sweep, "tfim", [0.5], params_policy="latin")
    return f"{len(first)} rows over {points} points reproducible across runs"


@register("perturbation-probe")
def _check_perturbation_probe(rng: np.random.Generator) -> str:
    xi = 1e-3
    pairs = [(name, d) for name in chains.MODELS for d in (0.6, 0.7, 0.75, 0.8)]
    evals, evecs = chains.eigensystem(_hamiltonians(pairs) + xi * chains.pauli_string("ZII"))
    taus = _row_tangles(evecs.swapaxes(1, 2).reshape(-1, 8)).reshape(-1, 8)
    worst_deg = 0.0
    worst_shift = 0.0
    for (name, d), ep, tau in zip(pairs, evals, taus):
        if name in ("xx", "xxx"):
            worst_deg = max(worst_deg, float(tau.max()))
            continue
        closed = chains.closed_form_spectrum(name, d)
        for n in (0, 1, 2, 5) if name == "tfim" else (0, 1, 4, 5):
            jp = int(np.argmin(np.abs(ep - closed[n][0])))
            closed_tau = chains._level_tangles(name, n, d, None)[0]
            worst_shift = max(worst_shift, abs(tau[jp] - closed_tau))
    assert worst_deg < 1e-2, \
        f"probe-selected members of degenerate levels reach tangle {worst_deg:.3e}"
    assert worst_shift <= 10.0 * xi, \
        f"non-degenerate tangles moved by {worst_shift:.3e} under a {xi} probe"
    return f"degenerate members at {worst_deg:.1e}; non-degenerate shifts {worst_shift:.1e}"
