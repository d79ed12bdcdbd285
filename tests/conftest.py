"""Shared builders for the test suite."""
from __future__ import annotations

import numpy as np

from triqent import GHZ_KET, W_KET, PureState3, normalize
from triqent.qstate import _haar_amps


def ket(*pairs: tuple[int, complex]) -> PureState3:
    """Normalized state with the given (index, amplitude) entries."""
    vec = np.zeros(8, dtype=complex)
    for idx, val in pairs:
        vec[idx] = val
    return normalize(vec)


def ghz() -> PureState3:
    return PureState3(GHZ_KET)


def w_state() -> PureState3:
    return PureState3(W_KET)


def haar_state(rng: np.random.Generator) -> PureState3:
    return normalize(_haar_amps(1, rng)[0])
