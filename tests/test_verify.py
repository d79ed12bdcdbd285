"""The self-check battery should pass wholesale and fail loudly on misuse."""
from __future__ import annotations

import ast
import dataclasses
import inspect

import numpy as np
import pytest

import triqent
from triqent import ValidationError, canonical, chains, check_names, entanglement, polytope
from triqent import qstate, run_checks, verify


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


def test_results_carry_their_wall_time_outside_equality():
    first, again = run_checks(names=["tangle-anchors", "tangle-anchors"])
    assert first.elapsed_s > 0.0 and again.elapsed_s > 0.0
    assert first == again
    assert dataclasses.replace(first, elapsed_s=first.elapsed_s + 1.0) == first


def _counting(monkeypatch, module, name) -> list:
    """Wrap module.name so that each call's positional arguments are
    recorded in the returned list."""
    calls, fn = [], getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


def _run(name: str) -> verify.CheckResult:
    (result,) = run_checks(names=[name])
    return result


# the checks whose reference work is batched still call their one-row
# subject once per row


def test_type_sampler_labels_its_draws_in_one_batch(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("type-sampler called the one-row classifier")

    monkeypatch.setattr(canonical, "classify", refuse)
    labels = _counting(monkeypatch, canonical, "classify_rows")
    draws = _counting(monkeypatch, qstate, "sample_type")
    result = _run("type-sampler")
    assert result.passed, result.detail
    assert len(labels) == 1 and labels[0][0].shape == (4 * len(canonical.TYPE_KINDS) + 3, 8)
    # four seeds per kind, each drawn twice; three coarse draws; one refusal
    assert len(draws) == 8 * len(canonical.TYPE_KINDS) + 3 + 1


def test_marginal_spectrum_takes_one_eigvalsh_over_its_stack(monkeypatch):
    spectra = _counting(monkeypatch, np.linalg, "eigvalsh")
    marginals = _counting(monkeypatch, entanglement, "reduce_one")
    result = _run("marginal-spectrum")
    assert result.passed, result.detail
    assert len(spectra) == 1 and spectra[0][0].shape == (300, 2, 2)
    assert [q for _, q in marginals] == 100 * list(qstate.QUBITS)


def test_strata_membership_takes_one_invariants_call_per_type(monkeypatch):
    kernel = _counting(monkeypatch, entanglement, "invariants")
    draws = _counting(monkeypatch, qstate, "sample_type")
    result = _run("strata-membership")
    assert result.passed, result.detail
    assert [len(args[0]) for args in kernel] == [120 + 4] * len(polytope.COARSE_TYPES)
    assert [t for t, _ in draws] == [t for t in polytope.COARSE_TYPES for _ in range(4)]


# a fault patched into a check's subject still fails the check, with the
# message it gave before its reference work was batched


def test_type_sampler_still_catches_a_wrong_type(monkeypatch):
    kinds = canonical.TYPE_KINDS
    wrong = dict(zip(kinds, kinds[1:] + kinds[:1]))
    real = qstate.sample_type
    monkeypatch.setattr(qstate, "sample_type", lambda t, seed: real(wrong.get(t, t), seed))
    result = _run("type-sampler")
    assert not result.passed
    assert result.detail == f"asked for {kinds[0]}, classified as {kinds[1]}"


def test_marginal_spectrum_still_catches_one_trace_error(monkeypatch):
    real, calls = entanglement.reduce_one, []

    def off(s, qubit):
        # the 150th marginal's trace is 1 + 1e-9
        den = real(s, qubit)
        calls.append(qubit)
        if len(calls) != 150:
            return den
        return entanglement.Qubit1Density(den.rho + np.diag([1e-9, 0.0]), den.bloch)

    monkeypatch.setattr(entanglement, "reduce_one", off)
    result = _run("marginal-spectrum")
    assert not result.passed and result.detail == "assertion failed"


def test_strata_membership_still_names_a_stray_draw(monkeypatch):
    # the product type's draws replaced by GHZ, whose Bloch norms are 0
    kind = polytope.COARSE_TYPES[0]
    real = qstate.sample_type
    monkeypatch.setattr(qstate, "sample_type",
                        lambda t, seed: verify._GHZ if t == kind else real(t, seed))
    result = _run("strata-membership")
    assert not result.passed
    assert result.detail == (f"type {kind} sample left its stratum at "
                             f"r = {tuple(verify._GHZ.invariants[0])}")
