"""The self-check battery should pass wholesale and fail loudly on misuse."""
from __future__ import annotations

import ast
import inspect

import numpy as np
import pytest

import triqent
from triqent import ValidationError, chains, check_names, run_checks
from triqent import verify


def test_public_names_are_listed_and_resolve():
    # every public name the package imports is in __all__, and every name in
    # __all__ is an attribute of the package
    tree = ast.parse(inspect.getsource(triqent))
    imported = {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
                and node.level for a in node.names if not a.name.startswith("_")}
    assert imported == set(triqent.__all__)
    assert len(triqent.__all__) == len(imported)
    for name in triqent.__all__:
        assert getattr(triqent, name) is not None, name


def test_every_check_passes_at_the_default_seed():
    results = run_checks()
    failed = [r for r in results if not r.passed]
    assert not failed, [f"{r.name}: {r.detail}" for r in failed]
    assert len(results) == len(check_names())
    assert all(r.seed == 0 for r in results)
    assert all(r.detail for r in results)


@pytest.mark.parametrize("name", chains.MODELS)
def test_grid_members_equal_a_per_point_loop(name):
    # 11 points put tfim's grid on its fused coupling delta = 1, where the
    # generic families are drawn like everywhere else
    grid = np.linspace(*chains.DELTA_RANGES[name], 11)
    rng = np.random.default_rng(41)
    got = verify._grid_members(name, grid, rng)
    ref_rng = np.random.default_rng(41)
    ref = []
    for i, d in enumerate(grid.tolist()):
        for n, (e, _) in enumerate(chains.closed_form_spectrum(name, d)):
            family = chains._DEG_FAMILY.get((name, n))
            coeffs = chains._draw_members(len(family[0]), 3, ref_rng) if family else None
            amps = chains._level_members(name, n, d, coeffs)
            ref.append((amps, np.full(len(amps), i), np.full(len(amps), e),
                        chains._level_tangles(name, n, d, coeffs)))
    for col, want in zip(got, (np.concatenate(col) for col in zip(*ref)), strict=True):
        assert col.dtype == want.dtype and col.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_unknown_check_names_are_rejected_up_front():
    with pytest.raises(ValidationError, match="no-such-check"):
        run_checks(names=["normalize-phase", "no-such-check"])
    with pytest.raises(ValidationError, match="no-such-check"):
        verify.check("no-such-check")


def test_bad_seeds_are_rejected_up_front():
    for seed in (-1, 1.5, True):
        with pytest.raises(ValidationError, match="seed"):
            run_checks(names=["normalize-phase"], seed=seed)


def test_a_check_is_one_function_of_its_generator_and_size():
    # run_checks hands each check default_rng([seed, stream]); calling the
    # registered function with that generator reproduces its result
    stream, fn = verify._REGISTRY["monogamy-pivots"]
    detail = fn(np.random.default_rng([3, stream]))
    assert run_checks(names=["monogamy-pivots"], seed=3)[0].detail == detail
    assert verify.check("monogamy-pivots") is fn
    assert fn(np.random.default_rng(0), n=5).startswith("5 states")


def test_subset_runs_only_what_was_asked():
    wanted = ["tangle-anchors", "cd-roundtrip"]
    results = run_checks(names=wanted, seed=2)
    assert [r.name for r in results] == wanted
    assert all(r.passed for r in results)
    assert all(r.seed == 2 for r in results)


def test_duplicate_registration_is_refused():
    before = check_names()
    with pytest.raises(ValueError, match="duplicate"):
        verify.register("normalize-phase")(lambda rng: "")
    assert check_names() == before


def test_failures_are_reported_not_raised():
    name = "always-bad-for-this-test"
    try:
        @verify.register(name)
        def _bad(rng) -> str:
            assert False, "deliberate"

        results = run_checks(names=[name])
        assert len(results) == 1
        assert not results[0].passed
        assert "deliberate" in results[0].detail
    finally:
        verify._REGISTRY.pop(name, None)
