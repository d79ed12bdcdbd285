"""Self-checking battery: every library property, exercised at runtime.

Each check is a named function registered in a module-level table. A check
passes by returning a one-line summary and fails by raising AssertionError
(or any library error). run_checks collects results without stopping at
the first failure, so a single run reports the health of the whole stack.

Sample counts here are sized for an interactive run; the test suite drives
the same properties at much larger counts. The geometry checks hand whole
sample arrays to polytope, whose in_stratum is the one type-to-stratum map.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from . import canonical, chains, entanglement, polytope, qstate
from .errors import (
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

_REGISTRY: dict[str, Callable[[int], str]] = {}


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check."""

    name: str
    passed: bool
    detail: str
    seed: int


def register(name: str):
    """Decorator adding a check function to the battery under a fixed name."""

    def wrap(fn: Callable[[int], str]) -> Callable[[int], str]:
        if name in _REGISTRY:
            raise ValueError(f"duplicate check name {name!r}")
        _REGISTRY[name] = fn
        return fn

    return wrap


def check_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def run_checks(names: Iterable[str] | None = None, seed: int = 0) -> list[CheckResult]:
    """Run the requested checks (all by default) and collect the results.

    Failures are captured as CheckResult entries rather than raised, so the
    battery always runs to completion; unknown names raise ValidationError
    up front.
    """
    if names is None:
        picked = list(_REGISTRY)
    else:
        picked = [str(n) for n in names]
        unknown = [n for n in picked if n not in _REGISTRY]
        if unknown:
            raise ValidationError(f"unknown checks: {', '.join(unknown)}")

    def run_one(name: str) -> CheckResult:
        try:
            return CheckResult(name, True, _REGISTRY[name](seed), seed)
        except AssertionError as exc:
            return CheckResult(name, False, str(exc) or "assertion failed", seed)
        except TriqentError as exc:
            return CheckResult(name, False, f"{type(exc).__name__}: {exc}", seed)

    return [run_one(n) for n in picked]


# ---------------------------------------------------------------------------
# shared helpers

def _state(*pairs: tuple[int, complex]) -> qstate.PureState3:
    vec = np.zeros(8, dtype=complex)
    for idx, val in pairs:
        vec[idx] = val
    return qstate.normalize(vec)


def _ghz() -> qstate.PureState3:
    return _state((0, 1.0), (7, 1.0))


def _w() -> qstate.PureState3:
    return _state((1, 1.0), (2, 1.0), (4, 1.0))


def _haar_state(rng: np.random.Generator) -> qstate.PureState3:
    return qstate.normalize(qstate._haar_amps(1, rng)[0])


def _seven_invariants(s: qstate.PureState3) -> np.ndarray:
    """(r_A, r_B, r_C, tau, C_AB, C_AC, C_BC) as one vector."""
    r, c, hdet = s.invariants
    return np.concatenate([r, [4.0 * abs(hdet)], c])


def _expect(exc_type, fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except exc_type:
        return
    raise AssertionError(f"{fn.__name__} did not raise {exc_type.__name__}")


# ---------------------------------------------------------------------------
# state representation and samplers

@register("normalize-phase")
def _check_normalize_phase(seed: int) -> str:
    rng = np.random.default_rng([seed, 1])
    spread = 0.0
    for _ in range(300):
        raw = rng.normal(size=8) + 1j * rng.normal(size=8)
        s = qstate.normalize(raw)
        assert abs(np.linalg.norm(s.amp) - 1.0) <= 1e-12, "unit norm lost"
        lead = s.amp[int(np.argmax(np.abs(s.amp) > 1e-12))]
        assert abs(lead.imag) <= 1e-12 and lead.real >= 0.0, \
            "leading amplitude is not real non-negative"
        z = (0.2 + rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        spread = max(spread, float(np.max(np.abs(
            qstate.normalize(z * raw).amp - s.amp))))
    assert spread <= 1e-12, f"representative depends on scale/phase by {spread:.2e}"
    _expect(ZeroVector, qstate.normalize, np.zeros(8))
    return f"300 draws, representative spread {spread:.1e}"


@register("lu-invariance")
def _check_lu_invariance(seed: int) -> str:
    rng = np.random.default_rng([seed, 2])
    worst = 0.0
    for _ in range(120):
        s = _haar_state(rng)
        before = _seven_invariants(s)
        t = s
        for q in qstate.QUBITS:
            u = qstate._haar_u2_batch(1, rng)[0]
            t = qstate.apply_local_unitary(t, qstate.LocalUnitary(u, q))
        worst = max(worst, float(np.max(np.abs(_seven_invariants(t) - before))))
    assert worst <= 1e-10, f"local unitaries moved an invariant by {worst:.3e}"
    _expect(ValidationError, qstate.LocalUnitary, np.eye(2), "D")
    return f"120 scrambles, worst invariant shift {worst:.1e}"


@register("slice-roundtrip")
def _check_slice_roundtrip(seed: int) -> str:
    rng = np.random.default_rng([seed, 3])
    for _ in range(80):
        s = _haar_state(rng)
        for q in qstate.QUBITS:
            st = qstate.slice_state(s, q)
            assert st.T0.shape == (2, 2) and st.T1.shape == (2, 2)
            back = qstate.reassemble(st)
            assert np.array_equal(back.amp, s.amp), "slice round trip not bit-exact"
    _expect(ValidationError, qstate.slice_state, _ghz(), "Q")
    return "80 states x 3 qubits, bit-exact"


@register("haar-symmetry")
def _check_haar_symmetry(seed: int) -> str:
    rng = np.random.default_rng([seed, 4])
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


@register("type-sampler")
def _check_type_sampler(seed: int) -> str:
    rng = np.random.default_rng([seed, 5])
    for t in canonical.TYPE_KINDS:
        for _ in range(4):
            sub = int(rng.integers(1 << 32))
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

@register("marginal-spectrum")
def _check_marginal_spectrum(seed: int) -> str:
    rng = np.random.default_rng([seed, 6])
    worst = 0.0
    for _ in range(100):
        s = _haar_state(rng)
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
def _check_entropy_anchors(seed: int) -> str:
    assert entanglement.entropy_from_norm(1.0) == 0.0
    assert abs(entanglement.entropy_from_norm(0.0) - np.log(2.0)) <= 1e-15
    assert abs(entanglement.entropy_from_norm(0.0, bits=True) - 1.0) <= 1e-15
    # r = 3/5 gives the textbook (0.8, 0.2) eigenvalue pair
    expect = -(0.8 * np.log(0.8) + 0.2 * np.log(0.2))
    assert abs(entanglement.entropy_from_norm(0.6) - expect) <= 1e-15
    grid = np.array([entanglement.entropy_from_norm(r) for r in np.linspace(0.0, 1.0, 101)])
    assert np.all(np.diff(grid) < 0.0), "entropy is not strictly decreasing in r"
    _expect(OutOfRange, entanglement.entropy_from_norm, 1.01)
    _expect(OutOfRange, entanglement.entropy_from_norm, -0.01)
    return "endpoints, midpoint, monotonicity, domain errors"


@register("monogamy-pivots")
def _check_monogamy_pivots(seed: int) -> str:
    rng = np.random.default_rng([seed, 7])
    n = 3000
    r, c, hdet = entanglement.invariants(qstate._haar_amps(n, rng))
    tau = 4.0 * np.abs(hdet)
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


@register("tangle-anchors")
def _check_tangle_anchors(seed: int) -> str:
    rng = np.random.default_rng([seed, 8])
    ghz, w = _ghz(), _w()
    assert abs(entanglement.tangle(ghz) - 1.0) <= 1e-12
    assert abs(abs(entanglement.hyperdeterminant(ghz)) - 0.25) <= 1e-12
    assert entanglement.tangle(w) <= 1e-12
    assert entanglement.tangle(_state((3, 1.0), (5, 1.0), (6, 1.0))) <= 1e-12
    for idx in (3, 5, 6):  # pair Bell states against the third qubit
        assert entanglement.tangle(_state((0, 1.0), (idx, 1.0))) <= 1e-12
    assert entanglement.tangle(_state((0, 1.0))) <= 1e-12
    lo, hi = 1.0, 0.0
    for _ in range(200):
        t = entanglement.tangle(_haar_state(rng))
        lo, hi = min(lo, t), max(hi, t)
    assert 0.0 <= lo and hi <= 1.0, "tangle left [0, 1]"
    return f"anchors exact; 200 Haar tangles in [{lo:.3f}, {hi:.3f}]"


@register("concurrence-routes")
def _check_concurrence_routes(seed: int) -> str:
    rng = np.random.default_rng([seed, 9])

    def eig_route(s: qstate.PureState3, pair: str) -> float:
        rho = entanglement._pair_rho(s, pair)
        rt = rho @ entanglement._YY @ rho.conj() @ entanglement._YY
        mu = np.sqrt(np.sort(np.clip(np.linalg.eigvals(rt).real, 0.0, None))[::-1])
        return float(max(0.0, mu[0] - mu[1] - mu[2] - mu[3]))

    worst = 0.0
    for _ in range(200):
        s = _haar_state(rng)
        for pair in entanglement.PAIRS:
            worst = max(worst, abs(entanglement.concurrence_pair(s, pair) - eig_route(s, pair)))
    assert worst <= 1e-7, f"concurrence routes disagree by {worst:.3e}"
    w = _w()
    for pair in entanglement.PAIRS:
        assert abs(entanglement.concurrence_pair(w, pair) - 2.0 / 3.0) <= 1e-12
    split = _state((0, 1.0), (3, 1.0))  # qubit A separated, B and C in a Bell pair
    assert abs(entanglement.concurrence_pair(split, "BC") - 1.0) <= 1e-12
    assert entanglement.concurrence_pair(split, "AB") <= 1e-12
    assert entanglement.concurrence_pair(split, "AC") <= 1e-12
    _expect(ValidationError, entanglement.concurrence_pair, w, "CA")
    return f"200 states x 3 pairs, route gap {worst:.1e}"


# ---------------------------------------------------------------------------
# canonical decomposition

@register("cd-structure")
def _check_cd_structure(seed: int) -> str:
    rng = np.random.default_rng([seed, 10])
    worst_det = 0.0
    for _ in range(300):
        s = _haar_state(rng)
        cf = canonical.canonical_decompose(s)
        lam = np.asarray(cf.lambdas)
        assert float(lam.min()) >= 0.0, "negative canonical coefficient"
        assert abs(float((lam ** 2).sum()) - 1.0) <= 1e-12, "coefficients not normalized"
        assert 0.0 <= cf.phi <= np.pi + 1e-12, f"phase {cf.phi} outside [0, pi]"
        assert cf.branch in ("plus", "minus")
        bz = canonical.det_zero_solutions(qstate.slice_state(s, "A"))
        t = s.tensor
        best = 0.0
        for z, w in bz.pairs:
            assert abs(abs(z) ** 2 + abs(w) ** 2 - 1.0) <= 1e-12, "pair not unit"
            m = z * t[0] + w * t[1]
            worst_det = max(worst_det, abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]))
            best = max(best, float(canonical._branch_form(t, (z, w))[0][0]))
        assert cf.lambdas[0] >= best - 1e-9, "branch choice does not maximize l0"
        tau = entanglement.tangle(s, check=False)
        assert abs(4.0 * (cf.lambdas[0] * cf.lambdas[4]) ** 2 - tau) <= 1e-9, \
            "4 (l0 l4)^2 drifted from the tangle"
    assert worst_det <= 1e-9, f"singular-slice residual {worst_det:.3e}"
    return f"300 states, det residual {worst_det:.1e}"


@register("cd-roundtrip")
def _check_cd_roundtrip(seed: int) -> str:
    rng = np.random.default_rng([seed, 11])
    worst = 0.0
    worst_branch = 0.0
    for _ in range(800):
        s = _haar_state(rng)
        cf = canonical.canonical_decompose(s)
        back = canonical.reconstruct(cf)
        worst = max(worst, float(np.max(np.abs(
            _seven_invariants(back) - _seven_invariants(s)))))
        bz = canonical.det_zero_solutions(qstate.slice_state(s, "A"))
        lam_p = canonical._branch_form(s.tensor, bz.plus)[0]
        lam_m = canonical._branch_form(s.tensor, bz.minus)[0]
        worst_branch = max(worst_branch, abs(
            4.0 * (lam_p[0] * lam_p[4]) ** 2 - 4.0 * (lam_m[0] * lam_m[4]) ** 2))
    assert worst <= 1e-9, f"round trip moved an invariant by {worst:.3e}"
    assert worst_branch <= 1e-10, f"branch tangles split by {worst_branch:.3e}"
    return f"800 states, invariant spread {worst:.1e}, branch split {worst_branch:.1e}"


@register("cd-anchors")
def _check_cd_anchors(seed: int) -> str:
    s2, s3 = 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(3.0)
    cases = [
        (_ghz(), (s2, 0.0, 0.0, 0.0, s2), "GHZ", "2b"),
        (_w(), (s3, 0.0, s3, s3, 0.0), "W", "3a"),
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
    return f"{len(cases)} anchor states, coefficients and labels exact"


# ---------------------------------------------------------------------------
# polytope geometry

@register("strata-membership")
def _check_strata_membership(seed: int) -> str:
    rng = np.random.default_rng([seed, 12])
    n = 120
    for kind in ("1", "2a", "2b", "3a", "3b", "4a", "4b", "4c", "5"):
        amps = qstate._sample_type_batch(kind, n, int(rng.integers(1 << 32)))
        r = entanglement.invariants(amps)[0]
        ok = polytope.in_stratum(kind, r)
        assert ok.all(), \
            f"type {kind} sample left its stratum at r = {tuple(r[np.argmin(ok)])}"
    return f"9 types x {n} samples inside their strata"


@register("bipyramid-membership")
def _check_bipyramid_membership(seed: int) -> str:
    rng = np.random.default_rng([seed, 13])
    n = 3000
    r = entanglement.invariants(qstate._haar_amps(n, rng))[0]
    reg = polytope.Region("bipyramid", tol=1e-9)
    ok = polytope.membership(r, reg)
    assert ok.all(), f"Haar sample escaped the bipyramid at r = {tuple(r[np.argmin(ok)])}"
    assert not polytope.membership(entanglement.BlochTriple(0.9, 0.9, 0.05), reg)
    assert polytope.membership(entanglement.BlochTriple(1 / 3, 1 / 3, 1 / 3),
                               polytope.Region("diagonal"))
    w_bt = entanglement.bloch_triple(_w())
    assert polytope.membership(w_bt, polytope.Region("face", signs=(-1, 1, 1)))
    _expect(TriqentError, polytope.Region, "sphere")
    return f"{n} Haar triples contained; boundary anchors agree"


@register("master-r2")
def _check_master_r2(seed: int) -> str:
    rng = np.random.default_rng([seed, 14])
    states = [_haar_state(rng) for _ in range(500)]
    direct = polytope.big_r(np.array([s.invariants[0] for s in states]))
    from_cf = [polytope.big_r_from_cf(canonical.canonical_decompose(s)) for s in states]
    worst = float(np.max(np.abs(direct - from_cf)))
    assert worst <= 1e-9, f"R from coefficients drifts from geometry by {worst:.3e}"
    assert polytope.big_r(entanglement.bloch_triple(_ghz())) <= 1e-12
    assert abs(polytope.big_r(entanglement.bloch_triple(_state((0, 1.0)))) - np.sqrt(3.0)) <= 1e-12
    assert abs(polytope.big_r(entanglement.bloch_triple(_w())) - polytope.R_W) <= 1e-12
    return f"500 states, route gap {worst:.1e}"


@register("bound-curves")
def _check_bound_curves(seed: int) -> str:
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
    return "endpoints, domains, and band ordering hold"


@register("tau-surface")
def _check_tau_surface(seed: int) -> str:
    rng = np.random.default_rng([seed, 15])
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
    lams = np.array([qstate._draw_lambdas((0, 2, 3, 4), 1, rng)[0] for _ in range(50)])
    states = [canonical.reconstruct(canonical.CanonicalForm(
        lambdas=tuple(lam), phi=0.0, branch="plus")) for lam in lams]
    r, _, hdet = entanglement.invariants(np.array([s.amp for s in states]))
    gaps = [np.abs(polytope.tau_surface(polytope.big_r(r), lams[:, 2], lams[:, 3], b)
                   - 4.0 * np.abs(hdet)) for b in ("plus", "minus")]
    worst = float(np.max(np.min(gaps, axis=0)))
    assert worst <= 1e-9, f"surface misses reconstructed states by {worst:.3e}"
    _expect(ComplexTau, polytope.tau_surface, 0.3, 1.0, 0.0)
    _expect(ValidationError, polytope.tau_surface, 0.3, 0.1, 0.1, "middle")
    _expect(OutOfDomain, polytope.tau_surface, 0.3, 1.2, 0.0)
    return f"fibration identities hold; state route gap {worst:.1e}"


@register("ansatz-identities")
def _check_ansatz_identities(seed: int) -> str:
    rng = np.random.default_rng([seed, 16])
    n = 1500
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
        tau = 4.0 * np.abs(hdet)
        dev = float(np.abs(1.0 - tau - rhs(r)).max())
        worst = max(worst, dev)
        assert dev <= 1e-10, f"{kind} norm identity off by {dev:.3e}"
    amps = qstate._sample_type_batch("2b", n, int(rng.integers(1 << 32)))
    r, _, hdet = entanglement.invariants(amps)
    tau = 4.0 * np.abs(hdet)
    r2 = (r ** 2).sum(axis=1)
    dev = float(np.abs(tau - (1.0 - r2 / 3.0)).max())
    assert dev <= 1e-10, f"diagonal states leave the top curve by {dev:.3e}"
    spread = float(np.abs(r - r.mean(axis=1, keepdims=True)).max())
    assert spread <= 1e-10, f"diagonal states off the diagonal by {spread:.3e}"
    return f"5 patterns x {n} samples, worst residual {worst:.1e}"


@register("ansatz-approximation")
def _check_ansatz_approximation(seed: int) -> str:
    rng = np.random.default_rng([seed, 17])
    n = 1500
    near3b = 0.0
    for kind in ("3b-12", "3b-23", "3b-13"):
        amps = qstate._sample_type_batch(kind, n, int(rng.integers(1 << 32)))
        r, _, hdet = entanglement.invariants(amps)
        err = np.abs(polytope.ansatz_tau(r, polytope.f_lowest_order(kind, r))
                     - 4.0 * np.abs(hdet))
        near3b = max(near3b, float(err[polytope.dist_to_diagonal(r) < 0.1].max(initial=0.0)))
    assert near3b <= 0.02, f"near-diagonal 3b ansatz error {near3b:.3e}"
    near4b = 0.0
    for kind in ("4b-l2", "4b-l3"):
        amps = qstate._sample_type_batch(kind, n, int(rng.integers(1 << 32)))
        r, _, hdet = entanglement.invariants(amps)
        tau = 4.0 * np.abs(hdet)
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

_CHAIN_GRIDS = {
    "tfim": np.linspace(0.0, 2.5, 21),
    "xx": np.linspace(0.0, 3.5, 21),
    "xxx": np.linspace(-2.0, 2.0, 21),
    "xzx": np.linspace(0.0, 2.5, 21),
}

_LEVEL_COUNT = {"tfim": 6, "xx": 6, "xxx": 3, "xzx": 6}


def _level_states(name: str, n: int, d: float,
                  rng: np.random.Generator) -> list[tuple]:
    """(state, params) members of a level: one for non-degenerate levels,
    a few random members for degenerate ones."""
    key = (name, n)
    if key in chains._DEG_FAMILY:
        size = len(chains._DEG_FAMILY[key][0])
        out = []
        for _ in range(3):
            params = chains._random_params(size, rng)
            out.append((chains.closed_form_eigenstate(name, n, d, params), params))
        return out
    return [(chains.closed_form_eigenstate(name, n, d), None)]


@register("chain-spectra")
def _check_chain_spectra(seed: int) -> str:
    worst = 0.0
    worst_res = 0.0
    for name, grid in _CHAIN_GRIDS.items():
        for d in grid:
            h = chains.build_hamiltonian(name, float(d))
            evals, evecs = chains.eigensystem(h)
            closed = chains.closed_form_spectrum(name, float(d))
            expanded = np.sort(np.repeat([e for e, _ in closed], [m for _, m in closed]))
            assert expanded.size == 8, "multiplicities do not sum to 8"
            worst = max(worst, float(np.max(np.abs(evals - expanded))))
            worst_res = max(worst_res, float(np.max(
                np.linalg.norm(h @ evecs - evecs * evals, axis=0))))
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
    return f"4 models x 21 points, spectrum gap {worst:.1e}, residual {worst_res:.1e}"


@register("chain-eigenstates")
def _check_chain_eigenstates(seed: int) -> str:
    rng = np.random.default_rng([seed, 18])
    worst = 0.0
    for name in chains.MODELS:
        for d in _CHAIN_GRIDS[name][::5]:
            if chains._at_fusion(name, 2, float(d)):
                continue
            h = chains.build_hamiltonian(name, float(d))
            closed = chains.closed_form_spectrum(name, float(d))
            for n in range(_LEVEL_COUNT[name]):
                e = closed[n][0]
                for s, _ in _level_states(name, n, float(d), rng):
                    worst = max(worst, float(np.linalg.norm(h @ s.amp - e * s.amp)))
    assert worst <= 1e-9, f"closed eigenstate residual {worst:.3e}"
    h1 = chains.build_hamiltonian("tfim", 1.0)
    e2 = chains.closed_form_spectrum("tfim", 1.0)[2][0]
    fused_res = 0.0
    for _ in range(3):
        params = chains._random_params(3, rng)
        s = chains.closed_form_eigenstate("tfim", 2, 1.0, params)
        fused_res = max(fused_res, float(np.linalg.norm(h1 @ s.amp - e2 * s.amp)))
    assert fused_res <= 1e-9, f"merged-subspace residual {fused_res:.3e}"
    _expect(CrossingPoint, chains.closed_form_eigenstate,
            "tfim", 2, 0.7, chains._random_params(3, rng))
    _expect(NeedParams, chains.closed_form_eigenstate, "xxx", 0, 1.0)
    _expect(ValidationError, chains.closed_form_eigenstate,
            "tfim", 0, 0.5, chains._random_params(2, rng))
    return f"all levels, residual {worst:.1e}; merged subspace {fused_res:.1e}"


@register("chain-tangles")
def _check_chain_tangles(seed: int) -> str:
    rng = np.random.default_rng([seed, 19])
    worst = 0.0
    for name in chains.MODELS:
        for d in _CHAIN_GRIDS[name][::3]:
            if chains._at_fusion(name, 2, float(d)):
                continue
            for n in range(_LEVEL_COUNT[name]):
                for s, params in _level_states(name, n, float(d), rng):
                    closed = chains.closed_form_tangle(name, n, float(d), params)
                    worst = max(worst, abs(closed - entanglement.tangle(s)))
    assert worst <= 1e-8, f"closed tangles drift from 4|Hdet| by {worst:.3e}"
    anchor = chains.closed_form_tangle("xzx", 1, 0.0)
    assert abs(anchor - 1.0 / 3.0) <= 1e-12, \
        f"cluster-point single-excitation tangle is {anchor}, not 1/3"
    fused_worst = 0.0
    for _ in range(6):
        params = chains._random_params(3, rng)
        s = chains.closed_form_eigenstate("tfim", 2, 1.0, params)
        fused_worst = max(fused_worst, abs(
            chains.closed_form_tangle("tfim", 2, 1.0, params) - entanglement.tangle(s)))
    raw = np.exp(2j * np.pi * np.asarray([0.13, 0.61])) * np.array([0.6, 0.8])
    zeroed = chains.SuperpositionParams(
        alpha=complex(raw[0] * np.abs(raw[1]) / raw[1]), beta=float(np.abs(raw[1])),
        gamma=0j)
    assert chains.closed_form_tangle("tfim", 2, 1.0, zeroed) <= 1e-12, \
        "members without the even component must be tangle-free"
    assert fused_worst <= 1e-9, f"merged-subspace tangle off by {fused_worst:.3e}"
    return f"grid worst {worst:.1e}; merged subspace {fused_worst:.1e}"


@register("chain-bloch-families")
def _check_chain_bloch_families(seed: int) -> str:
    rng = np.random.default_rng([seed, 20])
    worst = 0.0
    for (name, n) in chains._DEG_FAMILY:
        if (name, n) == ("xxx", 2):
            _expect(UnsupportedType, chains.degenerate_bloch_family,
                    name, n, chains._random_params(4, rng))
            continue
        d = 0.4 if name != "xxx" else -0.6
        for _ in range(4):
            params = chains._random_params(2, rng)
            bt = chains.degenerate_bloch_family(name, n, params)
            num = entanglement.bloch_triple(chains.closed_form_eigenstate(name, n, d, params))
            worst = max(worst, float(np.max(np.abs(bt.as_array() - num.as_array()))))
    assert worst <= 1e-10, f"family Bloch norms off by {worst:.3e}"
    _expect(NotDegenerate, chains.degenerate_bloch_family,
            "tfim", 0, chains._random_params(2, rng))
    return f"8 families x 4 members, worst gap {worst:.1e}"


@register("symmetry-labels")
def _check_symmetry_labels(seed: int) -> str:
    rng = np.random.default_rng([seed, 21])
    lab = chains.symmetry_labels(_w())
    assert (lab.k, lab.m_z, lab.zflip) == (0, 1, -1), f"W labels {lab}"
    lab = chains.symmetry_labels(_ghz())
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
    lab = chains.symmetry_labels(_haar_state(rng))
    assert lab.k is None and lab.p is None and lab.m_z is None, \
        "a generic state acquired symmetry labels"
    return "momentum, parity, and magnetization anchors agree"


@register("sweep-determinism")
def _check_sweep_determinism(seed: int) -> str:
    sub = int(np.random.default_rng([seed, 22]).integers(1 << 32))
    grid = [0.0, 0.5, 1.0, 1.7]
    first = chains.sweep("tfim", grid, params_policy="mc", seed=sub)
    again = chains.sweep("tfim", grid, params_policy="mc", seed=sub)
    assert first == again, "same-seed sweeps differ"
    for rec in first:
        for f in chains.SWEEP_FIELDS:
            assert hasattr(rec, f)
        expect_flag = any(abs(rec.delta - dc) <= chains.GAP_TOL
                          for dc in chains.CROSSINGS["tfim"])
        assert rec.crossing_flag == expect_flag, \
            f"crossing flag wrong at delta = {rec.delta}"
    assert sorted({rec.delta for rec in first}) == grid
    pert = chains.sweep("tfim", [0.3, 0.8], perturb=1e-3, seed=sub)
    assert all(rec.energy_closed is None and rec.tau_closed is None for rec in pert), \
        "perturbed rows must not carry closed-form columns"
    assert len(pert) == 16, "perturbed sweep should emit 8 rows per point"
    _expect(ValidationError, chains.sweep, "tfim", [0.5, 0.5])
    _expect(ValidationError, chains.sweep, "tfim", [0.5], params_policy="latin")
    return f"{len(first)} rows reproducible across runs"


@register("perturbation-probe")
def _check_perturbation_probe(seed: int) -> str:
    xi = 1e-3
    z0 = chains.pauli_string("ZII")
    worst_deg = 0.0
    for name, d in (("xx", 0.8), ("xxx", 0.7)):
        _, evecs = chains.eigensystem(chains.build_hamiltonian(name, d) + xi * z0)
        for j in range(8):
            worst_deg = max(worst_deg, entanglement.tangle(qstate.PureState3(evecs[:, j])))
    assert worst_deg < 1e-2, \
        f"probe-selected members of degenerate levels reach tangle {worst_deg:.3e}"
    worst_shift = 0.0
    for name, d, levels in (("tfim", 0.6, (0, 1, 2, 5)), ("xzx", 0.6, (0, 1, 4, 5))):
        ep, vp = chains.eigensystem(chains.build_hamiltonian(name, d) + xi * z0)
        closed = chains.closed_form_spectrum(name, d)
        for n in levels:
            jp = int(np.argmin(np.abs(ep - closed[n][0])))
            tp = entanglement.tangle(qstate.PureState3(vp[:, jp]))
            worst_shift = max(worst_shift, abs(tp - chains.closed_form_tangle(name, n, d)))
    assert worst_shift <= 10.0 * xi, \
        f"non-degenerate tangles moved by {worst_shift:.3e} under a {xi} probe"
    return f"degenerate members at {worst_deg:.1e}; non-degenerate shifts {worst_shift:.1e}"
