"""Seeded input stream for the ``census`` workload, owned by the benchmark.

States are built here from canonical coefficients with the benchmark's own
Haar local unitaries. Nothing is taken from triqent's samplers, so a change
to those samplers cannot change the inputs. The same seed always gives the
same stream.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# canonical slot j -> flat amplitude index of
# l0|000> + l1 e^{i phi}|100> + l2|101> + l3|110> + l4|111>
SLOT_AMP = (0, 4, 5, 6, 7)

# The 12 fine types with the coarse type classify must report for them and
# the canonical slots each occupies. 2a lists its three bipartitions
# (A-BC, B-AC, C-AB).
FINE_TYPES = {
    "1": ("1", ((0,),)),
    "2a": ("2a", ((1, 4), (0, 2), (0, 3))),
    "2b": ("2b", ((0, 4),)),
    "3a": ("3a", ((0, 2, 3),)),
    "3b-12": ("3b", ((0, 3, 4),)),
    "3b-23": ("3b", ((0, 1, 4),)),
    "3b-13": ("3b", ((0, 2, 4),)),
    "4a": ("4a", ((0, 1, 2, 3),)),
    "4b-l2": ("4b", ((0, 1, 3, 4),)),
    "4b-l3": ("4b", ((0, 1, 2, 4),)),
    "4c": ("4c", ((0, 2, 3, 4),)),
    "5": ("5", ((0, 1, 2, 3, 4),)),
}

# type ids a sample_type draw may request: the coarse ids and the refined ones
DRAW_TYPES = ("1", "2a", "2b", "3a", "3b", "3b-12", "3b-23", "3b-13",
              "4a", "4b", "4b-l2", "4b-l3", "4c", "5")

# Every active squared coefficient stays above this floor, so a typed state
# sits at least this far from the neighbouring strata and its coarse type is
# never a coin toss at the 1e-9 zero tolerance.
LAMBDA2_FLOOR = 1e-3

# The mix follows the acceptance battery (tests/test_acceptance.py), the one
# measured per-state workload in the repository: criterion 3 decomposes
# 10,000 Haar states and criterion 4 makes 9,000 sample_type calls (1,000 per
# coarse type) and analyses each state it draws. So draws take 9/19 of the
# operations and analyses 10/19; within the analyses, Haar states and typed
# states stand 10,000 to 9,000. Nothing in the repository weighs the three
# typed strata against each other, so they share the typed part equally.
HAAR_STATES = 10_000
TYPED_STATES = 9_000
DRAW_SHARE = TYPED_STATES / (HAAR_STATES + TYPED_STATES)
_ANALYSIS = 1.0 - DRAW_SHARE
_HAAR = _ANALYSIS * HAAR_STATES / (HAAR_STATES + TYPED_STATES)
_EDGE = (_ANALYSIS - _HAAR) / 3

# Strata of the stream: (name, share of operations, why it is included).
STRATA = (
    ("haar", _HAAR,
     "Haar-generic states, the largest analysis group as in criterion 3: "
     "type 5 with split roots in det_zero_solutions"),
    ("typed", _EDGE,
     "one of the 12 fine types on its coefficient support, scrambled by "
     "local unitaries: every classify branch, the W-class double roots of "
     "3a and 4a, and the vanishing coefficients of 2b, 3b, 4b and 4c"),
    ("aligned", _EDGE,
     "typed states left in canonical position: exact zero amplitudes reach "
     "the linear and identically vanishing pencils in det_zero_solutions"),
    ("perturbed", _EDGE,
     "typed states plus noise of size 1e-12 to 1e-3: near-boundary states "
     "on both sides of the 1e5*eps double-root cutoff and the 1e-9 zero "
     "tolerances, where the type is deliberately left unchecked"),
    ("draw", DRAW_SHARE,
     "sample_type draws as in criterion 4, the producers beside the readers; "
     "they run the sampler's classify retry loop"),
)

CHUNK = 256


@dataclass(frozen=True)
class CensusOp:
    """One census operation.

    ``amp`` is set for analysis operations, ``draw`` (type id, seed) for
    sample_type draws. ``expect`` is the coarse type the state must classify
    as, or None where the type is deliberately not pinned down.
    """

    stratum: str
    amp: np.ndarray | None = None
    draw: tuple[str, int] | None = None
    expect: str | None = None


def haar_u2(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2x2 unitary: QR of a complex Gaussian, phases fixed."""
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def scramble(amp: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Apply an independent Haar-random unitary to each of the three qubits."""
    t = amp.reshape(2, 2, 2)
    t = np.einsum("ij,jbc->ibc", haar_u2(rng), t)
    t = np.einsum("ij,ajc->aic", haar_u2(rng), t)
    t = np.einsum("ij,abj->abi", haar_u2(rng), t)
    return t.reshape(8)


def _other_branch_l0(lam2: np.ndarray) -> float:
    """l0 of the second canonical form of a 4c state (slots 0, 2, 3, 4).

    det(z T0 + w T1) = w (z l0 l4 - w l2 l3) has the roots w = 0 (the form
    drawn) and (z, w) ~ (l2 l3, l0 l4). The rotated slice z T0 + w T1 of the
    second root has rank one, so its l0 is its Frobenius norm.
    """
    l0, l2, l3, l4 = np.sqrt(lam2)
    n = np.hypot(l2 * l3, l0 * l4)
    z, w = l2 * l3 / n, l0 * l4 / n
    return float(np.sqrt((z * l0) ** 2 + w * w * (l2 * l2 + l3 * l3 + l4 * l4)))


def canonical_amp(fine: str, rng: np.random.Generator) -> np.ndarray:
    """Canonical-position amplitudes of the given fine type."""
    supports = FINE_TYPES[fine][1]
    support = supports[int(rng.integers(len(supports)))]
    while True:
        lam2 = rng.dirichlet(np.ones(len(support)))
        if len(support) > 1 and lam2.min() < LAMBDA2_FLOOR:
            continue
        # The canonical form keeps the branch with the larger l0, and the
        # second branch of a 4c draw has l1 != 0. A draw whose second branch
        # wins is a type-5 state, so it is redrawn; the margin keeps clear
        # of the tie rule.
        if fine == "4c" and np.sqrt(lam2[0]) < _other_branch_l0(lam2) + 1e-6:
            continue
        break
    amp = np.zeros(8, dtype=complex)
    for slot, l2 in zip(support, lam2):
        amp[SLOT_AMP[slot]] = np.sqrt(l2)
    if 1 in support:
        amp[SLOT_AMP[1]] *= np.exp(1j * rng.uniform(0.0, np.pi))
    return amp


def _make_op(stratum: str, rng: np.random.Generator) -> CensusOp:
    if stratum == "haar":
        amp = rng.normal(size=8) + 1j * rng.normal(size=8)
        return CensusOp(stratum, amp=amp / np.linalg.norm(amp))
    if stratum == "draw":
        t = DRAW_TYPES[int(rng.integers(len(DRAW_TYPES)))]
        return CensusOp(stratum, draw=(t, int(rng.integers(1 << 31))))
    fine = tuple(FINE_TYPES)[int(rng.integers(len(FINE_TYPES)))]
    coarse = FINE_TYPES[fine][0]
    amp = canonical_amp(fine, rng)
    if stratum == "aligned":
        # a global phase only: the zero pattern of the amplitudes survives
        return CensusOp(stratum, amp=amp * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                        expect=coarse)
    amp = scramble(amp, rng)
    if stratum == "typed":
        return CensusOp(stratum, amp=amp, expect=coarse)
    eps = 10.0 ** rng.uniform(-12.0, -3.0)
    noise = rng.normal(size=8) + 1j * rng.normal(size=8)
    amp = amp + eps * noise / np.linalg.norm(noise)
    return CensusOp(stratum, amp=amp / np.linalg.norm(amp))


def census_stream(seed: int):
    """Endless, deterministic stream of CensusOp; chunk k uses rng([seed, k])."""
    names = [s[0] for s in STRATA]
    shares = np.array([s[1] for s in STRATA])
    k = 0
    while True:
        rng = np.random.default_rng([seed, k])
        for idx in rng.choice(len(names), size=CHUNK, p=shares / shares.sum()):
            yield _make_op(names[idx], rng)
        k += 1
