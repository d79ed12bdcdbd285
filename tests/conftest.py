"""Shared builders for the test suite."""
from __future__ import annotations

import os

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


def pytest_report_header(config) -> list[str]:
    """numpy's version, the CPU kernels it dispatches to and the BLAS it was
    built with: the golden digests pin bits that depend on all three."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        try:
            from numpy.core import _multiarray_umath as umath
        except ImportError:
            umath = None
    lines = [f"numpy {np.__version__}"]
    baseline = getattr(umath, "__cpu_baseline__", None)
    dispatch = getattr(umath, "__cpu_dispatch__", None)
    features = getattr(umath, "__cpu_features__", None)
    if baseline is not None:
        lines.append("numpy cpu baseline: " + " ".join(baseline))
    if dispatch is not None and features is not None:
        enabled = [name for name in dispatch if features.get(name)]
        lines.append("numpy cpu dispatch: " + (" ".join(enabled) or "none"))
    for var in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE"):
        if var in os.environ:
            lines.append(f"{var}={os.environ[var]}")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 takes no mode
        return lines
    build = " ".join(str(blas[key]) for key in ("name", "version") if key in blas)
    config = blas.get("openblas configuration")
    lines.append(f"blas: {build}" + (f" ({config})" if config else ""))
    return lines
