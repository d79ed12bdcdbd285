"""End-to-end checks of the command line front end, run in process."""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triqent import _fixed17, chains, cli
from triqent.cli import _columns, _record, _table, main
from triqent.polytope import COARSE_TYPES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_text_output(capsys):
    code, out, err = run(capsys, "classify", "--state", "ghz")
    assert code == 0 and err == ""
    assert out == "class GHZ, type 2b\n"
    code, out, _ = run(capsys, "classify", "--state", "w")
    assert code == 0
    assert out == "class W, type 3a\n"


def test_analyze_json_values_for_the_w_state(capsys):
    code, out, err = run(capsys, "analyze", "--state", "w", "--format", "json")
    assert code == 0 and err == ""
    rec = json.loads(out)
    assert rec["state"] == "w"
    for key in ("r_a", "r_b", "r_c"):
        assert rec[key] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rec["big_r"] == pytest.approx(np.sqrt(1.0 / 3.0), abs=1e-12)
    assert rec["tau"] == pytest.approx(0.0, abs=1e-12)
    for key in ("c_ab", "c_ac", "c_bc"):
        assert rec[key] == pytest.approx(2.0 / 3.0, abs=1e-12)
    expect_s = np.log(3.0) - (2.0 / 3.0) * np.log(2.0)
    assert rec["s_a"] == pytest.approx(expect_s, abs=1e-12)


def test_analyze_bits_flag_rescales_entropy(capsys):
    _, nats, _ = run(capsys, "analyze", "--state", "w", "--format", "json")
    _, bits, _ = run(capsys, "analyze", "--state", "w", "--format", "json",
                     "--bits")
    s_nats = json.loads(nats)["s_a"]
    s_bits = json.loads(bits)["s_a"]
    assert s_bits == pytest.approx(s_nats / np.log(2.0), abs=1e-12)


def test_cd_fields_for_ghz(capsys):
    code, out, _ = run(capsys, "cd", "--state", "ghz", "--format", "csv")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == ("lambda0,lambda1,lambda2,lambda3,lambda4,"
                      "phi,branch,type,degenerate")
    cells = row.split(",")
    assert float(cells[0]) == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert float(cells[4]) == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert cells[1] == cells[2] == cells[3] == "0"
    assert cells[6] == "plus"
    assert cells[7] == "2b"
    assert cells[8] == "1"


def test_analyze_prints_the_ghz_tangle_as_one(capsys):
    code, out, _ = run(capsys, "analyze", "--state", "ghz")
    assert code == 0
    assert out.splitlines()[-1] == "tau    1"
    _, out, _ = run(capsys, "analyze", "--state", "ghz", "--format", "json")
    assert json.loads(out)["tau"] == 1.0


def test_state_from_sixteen_reals(capsys):
    vals = ["0"] * 16
    vals[0] = vals[14] = "1"  # re parts of amp[0] and amp[7]
    code, out, _ = run(capsys, "classify", "--state", *vals)
    assert code == 0
    assert out == "class GHZ, type 2b\n"


def test_state_from_json_file(tmp_path, capsys):
    from triqent import PureState3, normalize
    ghz = normalize(np.array([1, 0, 0, 0, 0, 0, 0, 1], dtype=complex))
    path = tmp_path / "state.json"
    path.write_text(ghz.to_json())
    code, out, _ = run(capsys, "analyze", "--state", str(path),
                       "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["state"] == str(path)
    assert rec["tau"] == pytest.approx(1.0, abs=1e-12)


def test_unknown_state_is_a_usage_error(capsys):
    code, out, err = run(capsys, "classify", "--state", "nope")
    assert code == 2
    assert out == ""
    assert err.startswith("error:ValidationError:")


@pytest.mark.parametrize("text", [
    "[1, 2",
    "[1, 0, 0, 0, 0, 0, 0, 1]",
    "[[1], [0], [0], [0], [0], [0], [0], [0]]",
    "[[1%s, 0]" % ("0" * 400) + ", [0, 0]" * 7 + "]",
    '[["1", 0]' + ", [0, 0]" * 7 + "]",
], ids=["truncated", "bare-numbers", "one-element-pairs", "huge-integer", "string"])
def test_bad_state_file_is_a_usage_error(tmp_path, capsys, text):
    path = tmp_path / "broken.json"
    path.write_text(text)
    code, _, err = run(capsys, "classify", "--state", str(path))
    assert code == 2
    assert "ValidationError" in err


def test_non_finite_states_are_usage_errors_and_huge_ones_normalize(capsys):
    for bad in ("nan", "inf", "-inf"):
        vals = ["0"] * 16
        vals[0], vals[14] = bad, "1"
        for verb in ("analyze", "classify", "cd"):
            code, out, err = run(capsys, verb, "--state", " ".join(vals))
            assert code == 2 and out == "", (verb, bad)
            assert err.startswith("error:ValidationError:")
    huge = ["0"] * 16
    huge[0] = huge[14] = "1e308"
    code, out, _ = run(capsys, "analyze", "--state", *huge, "--format", "json")
    assert code == 0
    _, ref, _ = run(capsys, "analyze", "--state", "ghz", "--format", "json")
    got, ref = json.loads(out), json.loads(ref)
    for key in ref:
        if key != "state":
            assert got[key] == pytest.approx(ref[key], abs=1e-15), key


@pytest.mark.parametrize("env_seed, argv", [
    (None, "sample --type 3b --n 2 --seed -1"),
    (None, "sweep --model tfim --delta-min 0 --delta-max 1 --points 3 --seed -1"),
    (None, "verify --check normalize-phase --seed -1"),
    ("-5", "sample --type 3b --n 2"),
    (None, "classify --state w --tol nan"),
    (None, "classify --state w --zero-tol nan"),
    (None, "classify --state w --zero-tol -1"),
    (None, "cd --state w --tol nan"),
    (None, "sweep --model tfim --delta-min nan --delta-max 1 --points 3"),
    (None, "sweep --model tfim --delta-min 0 --delta-max inf --points 3"),
    (None, "sweep --model tfim --delta-min 0 --delta-max 1 --points 3 --perturb nan"),
    (None, "bounds --r-max inf"),
])
def test_bad_seeds_tolerances_and_windows_are_usage_errors(capsys, monkeypatch,
                                                           env_seed, argv):
    if env_seed is not None:
        monkeypatch.setenv("TRIQENT_SEED", env_seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_negative_numbers_with_an_exponent_are_values(capsys):
    args = ("sweep", "--model", "xxx", "--delta-max", "1.5", "--points", "3")
    code, out, err = run(capsys, *args, "--delta-min", "-7.5e-05")
    assert code == 0 and err == ""
    assert run(capsys, *args, "--delta-min=-7.5e-05") == (0, out, "")
    amps = ["0"] * 16
    amps[0], amps[14] = "1", "-1e-01"
    assert run(capsys, "classify", "--state", *amps) == (0, "class GHZ, type 2b\n", "")


def test_argparse_errors_return_their_own_code(capsys):
    assert main(["no-such-verb"]) == 2
    capsys.readouterr()
    assert main(["sweep", "--model", "bogus", "--delta-min", "0",
                 "--delta-max", "1"]) == 2
    capsys.readouterr()


def test_bounds_csv_shape_and_blank_cells(capsys):
    code, out, _ = run(capsys, "bounds", "--points", "4",
                       "--r-min", "0", "--r-max", "1.2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "big_r,tau_max,tau_star,tau_up,tau_down"
    assert len(lines) == 5
    first = lines[1].split(",")
    # at R = 0 the lower envelope is undefined, so its cell is empty
    assert float(first[0]) == 0.0
    assert first[4] == ""
    assert float(first[1]) == pytest.approx(1.0, abs=1e-12)
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(1.2, abs=1e-12)
    # past the band window both envelope cells are empty
    assert last[3] == "" and last[4] == ""
    assert float(last[1]) == pytest.approx(1.0 - 1.2 ** 2 / 3.0, abs=1e-12)


def test_bounds_json_uses_null_for_undefined(capsys):
    _, out, _ = run(capsys, "bounds", "--points", "1", "--r-min", "0",
                    "--r-max", "0", "--format", "json")
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["tau_down"] is None
    assert rows[0]["tau_max"] == pytest.approx(1.0)


def test_bounds_rejects_a_bad_window(capsys):
    code, _, err = run(capsys, "bounds", "--r-min", "1.0", "--r-max", "0.5")
    assert code == 2 and "ValidationError" in err


def test_sample_is_deterministic_and_seed_sensitive(capsys):
    args = ("sample", "--type", "2b", "--n", "40", "--seed", "9")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    _, other, _ = run(capsys, "sample", "--type", "2b", "--n", "40",
                      "--seed", "10")
    assert other != first
    lines = first.strip().split("\n")
    assert lines[0] == "type,r_a,r_b,r_c,big_r,tau,d"
    assert len(lines) == 41
    assert all(line.startswith("2b,") for line in lines[1:])


def test_sample_all_covers_every_coarse_type(capsys):
    _, out, _ = run(capsys, "sample", "--n", "3", "--seed", "1")
    kinds = [line.split(",")[0] for line in out.strip().split("\n")[1:]]
    assert len(kinds) == 3 * len(COARSE_TYPES)
    assert tuple(dict.fromkeys(kinds)) == COARSE_TYPES


def test_seed_env_var_matches_explicit_flag(capsys, monkeypatch):
    _, explicit, _ = run(capsys, "sample", "--type", "3b", "--n", "20",
                         "--seed", "17")
    monkeypatch.setenv("TRIQENT_SEED", "17")
    _, from_env, _ = run(capsys, "sample", "--type", "3b", "--n", "20")
    assert from_env == explicit
    monkeypatch.setenv("TRIQENT_SEED", "not-an-int")
    code, _, err = run(capsys, "sample", "--type", "3b", "--n", "20")
    assert code == 2 and "TRIQENT_SEED" in err


def test_sweep_csv_columns_and_crossing_flags(capsys):
    code, out, _ = run(capsys, "sweep", "--model", "tfim", "--delta-min", "0",
                       "--delta-max", "2", "--points", "5", "--seed", "0")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(chains.SWEEP_FIELDS)
    at = {f: i for i, f in enumerate(chains.SWEEP_FIELDS)}
    flags = set()
    for line in lines[1:]:
        cells = line.split(",")
        flags.add(cells[at["crossing_flag"]])
    assert flags == {"0", "1"}  # the grid hits the fusion coupling once
    # four plain levels plus two 40-member degenerate families per point
    rows_per_point = (len(lines) - 1) / 5
    assert rows_per_point == 84.0


@pytest.mark.parametrize("perturb", (0.0, 1e-3))
def test_a_sweep_table_is_formatted_in_one_float_pass(monkeypatch, perturb):
    table = chains.sweep("xxx", [-0.5, 0.25, 1.0], params_policy="mc", perturb=perturb, seed=4)
    columns = [getattr(table, f) for f in chains.SWEEP_FIELDS]
    for f, col in zip(chains.SWEEP_FIELDS, columns):
        assert isinstance(col, np.ndarray) and col.ndim == 1, f
        assert not col.flags.writeable, f
    calls = []
    float_cells = cli._float_cells

    def counted(x):
        calls.append(len(x))
        return float_cells(x)
    monkeypatch.setattr(cli, "_float_cells", counted)
    for fmt in ("csv", "text"):
        calls.clear()
        _table(chains.SWEEP_FIELDS, columns, fmt)
        # delta, both energies, both tangles and the three Bloch norms
        assert calls == [8 * len(table)], fmt


def test_sweep_is_deterministic(capsys):
    args = ("sweep", "--model", "xxx", "--delta-min", "-1", "--delta-max", "1",
            "--points", "7", "--params-policy", "mc", "--seed", "3")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_out_writes_the_same_bytes_as_stdout(tmp_path, capsys):
    _, direct, _ = run(capsys, "bounds", "--points", "7")
    target = tmp_path / "bounds.csv"
    code, out, _ = run(capsys, "bounds", "--points", "7", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == direct


def test_verify_subset_passes_and_reports(capsys):
    code, out, _ = run(capsys, "verify", "--check", "normalize-phase",
                       "--check", "tangle-anchors", "--seed", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("ok   normalize-phase:")
    assert lines[1].startswith("ok   tangle-anchors:")
    assert lines[-1] == "passed 2/2 checks (seed 4)"


def test_verify_json_rows_have_the_expected_fields(capsys):
    code, out, _ = run(capsys, "verify", "--check", "monogamy-pivots",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["name"] == "monogamy-pivots"
    assert rows[0]["passed"] is True
    assert rows[0]["seed"] == 0


# sha256 of each command's output, taken before the sweep and the formatter
# were vectorised; numpy 2.4 on x86-64 with OpenBLAS. Another LAPACK build
# may move the last digits of the numeric columns. A command's output is
# byte-identical from run to run, but a row's last bit may depend on how many
# rows share its batch.
GOLDEN = {
    # re-pinned when every tau was clipped at 1: level 1 at delta = 0 moved
    # from tau_numeric 1.0000000000000007 and tau_closed 1.0000000000000004
    # to 1 (one row each, by 6.7e-16 and 4.4e-16); re-pinned when f of levels
    # 2 and 5 became cancellation-free (tau_numeric on 33 rows and tau_closed
    # on 34 by at most 7.8e-16, r_a, r_b and r_c on 25 rows by at most 4.4e-16)
    "sweep --model tfim --delta-min 0 --delta-max 2.5 --points 26 --seed 0":
        "290048067676911d709db924ca1dfbd4c891406108eaffaea121e9ee93bba9f9",
    "sweep --model xx --delta-min 0 --delta-max 3.5 --points 26 --seed 0":
        "b901b7e68091c5a10902b6cd5c6e2a18718982848f8f22955a85a1bcd4fefb9e",
    # re-pinned when the sweep read every grid point in one invariants call
    # (r_a, r_b, r_c moved by at most 2.2e-16 on 83-100 rows) and tau became
    # 4 hypot(Hdet) (tau_numeric moved by at most 5.6e-17 on 351 rows); and
    # again when the sweep measured each distinct member once, a batch of
    # 1,120 rows in place of 3,120 (r_a moved on 83 rows, r_b and r_c on 100,
    # each by at most 2.2e-16)
    "sweep --model xxx --delta-min -2 --delta-max 2 --points 26 --seed 0":
        "47b72100afc45448d0863164b4e0b1aa65d69ac2f4d1de12d1abef3c1029f9fc",
    # re-pinned for the clip at 1, as the tfim sweep above (level 0 at
    # delta = 0, one row each in tau_numeric and tau_closed), and for the
    # cancellation-free f of levels 4 and 5 (tau_numeric on 35 rows and
    # tau_closed on 34 by at most 7.8e-16, r_a, r_b and r_c on 21 rows by at
    # most 5.6e-16)
    "sweep --model xzx --delta-min 0 --delta-max 2.5 --points 26 --seed 0":
        "7fbdba43864a45105c5828a07c935f58629f948b2738624186bb88d47812cad3",
    # re-pinned for the one invariants call and 4 hypot(Hdet) (r_a, r_b, r_c
    # on 83-90 rows and tau_numeric on 1,115 rows, each by at most 2.2e-16)
    # and for b * b in place of b ** 2 in the closed xxx tangles (tau_closed
    # on 3 rows, by at most 2.2e-16)
    "sweep --model xxx --delta-min -2 --delta-max 2 --points 26 --params-policy mc --seed 5":
        "bab0ceb4233ce1162edd3531e13a778d4c463bca0b4b99e15904990c218c229b",
    "sweep --model tfim --delta-min 0 --delta-max 2.5 --points 26 --perturb 1e-3 --seed 0":
        "5e85662f1d1c13f7f08c6e57602097a9ad529501feb8ea4ba619bab06e8f1174",
    # re-pinned when the Haar unitaries became a closed form (the cells moved
    # by at most 3.1e-15), and again when tau became 4 hypot(Hdet) (tau moved
    # by at most 1.1e-16 on 491 rows)
    "sample --n 200 --seed 5":
        "07d104adbe3279c8a6f29dd08a468bd43959db71f9dea1604f4dcffc7577c2e8",
    "bounds":
        "09b1b6f77d0a60de9d68fc78a4e51edbf6e05397259defbe7fae6999e36f2e86",
    # taken before a sweep's grid was diagonalized as one stack: 1,600 rows,
    # 7,200 rows, and detail cells that hold commas
    "sweep --model xx --delta-min 0.3 --delta-max 1.9 --points 200 --perturb 0.004 --seed 3":
        "749f70493ca95aab8813570da104f2392238c96d848d5e1926561e2f235635f3",
    # re-pinned as the 26-point mc sweep above: r_a, r_b, r_c on 192-211 rows,
    # tau_numeric on 2,581 rows and tau_closed on 6 rows, each by at most
    # 2.2e-16
    "sweep --model xxx --delta-min -2 --delta-max 2 --points 60 --params-policy mc --seed 5":
        "0d3e2c3e7766975832077ae663b4f4633e4fbf53f6a5a8193586ab1bb459dc1f",
    # the JSON and text forms of a perturbed sweep (null and empty closed
    # cells), an mc sweep and a grid through the tfim crossings, taken before
    # the sweep columns became arrays
    "sweep --model tfim --delta-min 0 --delta-max 2.5 --points 26 --perturb 1e-3 --seed 0 "
    "--format json":
        "449a2a4b59ee2ef14a89963dafcc553763cd1b93ec1c4b0be54f56fad01b1dce",
    "sweep --model tfim --delta-min 0 --delta-max 2.5 --points 26 --perturb 1e-3 --seed 0 "
    "--format text":
        "99a4d48097d655e22e6876b083711474c8ee56dff83dfbc0e9dfb8b55f198663",
    "sweep --model xxx --delta-min -2 --delta-max 2 --points 26 --params-policy mc --seed 5 "
    "--format json":
        "5726dbeb20401bfa014f4661cfbaabfa374265a5bc0283d81a3388987ec0cd37",
    "sweep --model xxx --delta-min -2 --delta-max 2 --points 26 --params-policy mc --seed 5 "
    "--format text":
        "93441170f2ce8655221655b554aab4a9063a41bfea765e670d6e5df6744b425f",
    # both re-pinned for the cancellation-free f, as the CSV tfim sweep above
    "sweep --model tfim --delta-min 0 --delta-max 2.5 --points 26 --seed 0 --format json":
        "8d39f78044298e64dee6f982aa18a0e660e4894a930fd5e195e9a9c2397e94ef",
    "sweep --model tfim --delta-min 0 --delta-max 2.5 --points 26 --seed 0 --format text":
        "3f956b05771426c493f35c3c11451f779bcc68dda2f010fc54c34aaf3dd4da07",
    "verify --check sweep-determinism --check chain-spectra --format csv":
        "67be41ba7bf3e4de5c075b85b24ccb231f0e858aee72a9744f17d8e4091f7b39",
    # the whole battery, taken before normalize and the local unitaries were
    # batched and the per-state verify loops became batches; re-pinned when the
    # Haar unitaries became a closed form and the local unitaries an einsum
    # (two detail lines moved); re-pinned when the slice discriminant took
    # invariants' arithmetic (cd-structure det residual 7.5e-17 -> 6.9e-17,
    # cd-roundtrip branch split 1.0e-15 -> 8.3e-16) and the chain f became
    # cancellation-free (chain-eigenstates residual 2.3e-15 -> 1.2e-15)
    "verify --seed 0":
        "67adb2f618cffb7263526c4f563259e2a356d340f7171aa9b1fc3c64ed3a6ad2",
}


@pytest.mark.parametrize("command", GOLDEN)
def test_outputs_match_their_golden_digests(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]


# sha256 of a verb's outputs for ghz, w, wt1 and zero in text, csv and json,
# joined in that order; taken before the decomposition and classifier were
# batched
NAMED_STATE_GOLDEN = {
    "classify": "f53db5e0338d9f945759748920c7dccfaace327988c29f6c6e380651d1a4894c",
    "cd": "aafdf54995e8ad13d33b1ee9986a97f4a67e315af754d5441af9faabfec01b4b",
}


@pytest.mark.parametrize("verb", NAMED_STATE_GOLDEN)
def test_named_state_outputs_match_their_golden_digest(capsys, verb):
    outs = []
    for state in ("ghz", "w", "wt1", "zero"):
        for fmt in ("text", "csv", "json"):
            code, out, err = run(capsys, verb, "--state", state, "--format", fmt)
            assert code == 0 and err == ""
            outs.append(out)
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == NAMED_STATE_GOLDEN[verb]


# (value, its csv cell, its text cell)
CELLS = [
    (None, "", ""),
    (float("nan"), "", ""),
    (float("inf"), "", ""),
    (float("-inf"), "", ""),
    (np.bool_(True), "1", "1"),
    (np.bool_(False), "0", "0"),
    (True, "1", "1"),
    (np.int64(-7), "-7", "-7"),
    (12, "12", "12"),
    (np.float64(0.1), "0.10000000000000001", "0.10000000000000001"),
    (-0.0, "-0", "-0"),
    (1.0, "1", "1"),
    ("2b", "2b", "2b"),
    ("x,y", '"x,y"', "x,y"),
    ('say "hi"', '"say ""hi"""', 'say "hi"'),
]


@pytest.mark.parametrize("value, csv_cell, text_cell", CELLS)
def test_cells_are_formatted_by_type(value, csv_cell, text_cell):
    header = ("name", "value")
    assert _table(header, [("a",), (value,)], "csv") == f"name,value\na,{csv_cell}\n"
    assert _record(header, ("a", value), "csv") == f"name,value\na,{csv_cell}\n"
    width = max(5, len(text_cell))
    assert _table(header, [("a",), (value,)], "text") == (
        f"name  {'value'.ljust(width)}".rstrip() + "\n"
        + f"a     {text_cell.ljust(width)}".rstrip() + "\n")
    assert _record(header, ("a", value), "text") == f"name   a\nvalue  {text_cell}\n"


def test_a_column_is_formatted_as_a_whole():
    header = ("x", "k", "flag", "mixed")
    rows = [(0.5, 3, True, 1), (None, None, np.bool_(False), 2.5),
            (float("nan"), np.int64(3), None, "s"), (-0.0, 1, True, None)]
    columns = list(zip(*rows))
    assert _table(header, columns, "csv") == (
        "x,k,flag,mixed\n0.5,3,1,1\n,,0,2.5\n,3,,s\n-0,1,1,\n")
    assert _table(header, columns, "text") == (
        "x    k  flag  mixed\n0.5  3  1     1\n        0     2.5\n     3        s\n"
        "-0   1  1\n")
    assert _table(header, [()] * 4, "csv") == "x,k,flag,mixed\n"


@pytest.mark.parametrize("columns", [
    [("a,b", "x"), (1.0, 2.0)],
    [('say "hi"', "y"), (1, 2)],
    [("line\nbreak", "z"), (None, 0.5)],
    [("carriage\rreturn", "z"), (True, False)],
    [("", "q"), (None, 1.5)],
    [(" lead", "trail "), (3, -4)],
    [("plain", "cells"), (0.25, None)],
    [("only",)],
    [("",)],
    [(None, 1.0)],
], ids=["comma", "quote", "newline", "return", "empty", "spaces", "plain",
        "one-column", "one-empty-cell", "one-column-none"])
def test_csv_tables_equal_the_csv_module_output(columns):
    header = ("c0", "c1")[:len(columns)]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(zip(*_columns(header, columns)))
    assert _table(header, columns, "csv") == buf.getvalue()


def _naive_cell(v) -> str:
    if v is None or isinstance(v, float) and not math.isfinite(v):
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    return "%.17g" % v if isinstance(v, float) else str(v)


_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, float("nan"),
                                     float("inf"), float("-inf"), 0.1, 1.0]),
                    st.floats(allow_nan=True, allow_infinity=True))
_VALUES = {
    "float": _FLOATS,
    "float-or-none": st.one_of(st.none(), _FLOATS),
    "int": st.integers(-2 ** 62, 2 ** 62),
    "bool": st.booleans(),
    "str": st.text(alphabet='ab ,"\r\n.-0', max_size=4),
}
_VALUES["mixed"] = st.one_of(*_VALUES.values())


def _drawn_column(draw, n: int):
    """(column, values): n values drawn from a pool of at most four, so
    values repeat, given as a tuple, a list or a numpy array."""
    kind = draw(st.sampled_from(sorted(_VALUES)))
    pool = draw(st.lists(_VALUES[kind], min_size=1, max_size=4))
    values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    box = draw(st.sampled_from(("tuple", "list", "array")))
    if box == "array":
        homogeneous = kind in ("float", "int", "bool", "str")
        return np.array(values, dtype=None if homogeneous else object), values
    return (tuple(values) if box == "tuple" else values), values


@st.composite
def _tables(draw):
    """(columns, naive cells): 1 to 4 columns of one row count, each drawn
    by _drawn_column."""
    n = draw(st.integers(0, 8))
    columns, cells = [], []
    for _ in range(draw(st.integers(1, 4))):
        column, values = _drawn_column(draw, n)
        cells.append([_naive_cell(v) for v in values])
        columns.append(column)
    return columns, cells


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_tables())
def test_tables_equal_a_naive_per_cell_writer(table):
    columns, cells = table
    header = tuple(f"c{i}" for i in range(len(columns)))
    cols = [[name, *col] for name, col in zip(header, cells)]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(zip(*cols))
    assert _table(header, columns, "csv") == buf.getvalue()
    widths = [max(map(len, col)) for col in cols]
    text = "".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n"
                   for row in zip(*cols))
    assert _table(header, columns, "text") == text


@st.composite
def _factored_tables(draw):
    """(factors, expanded columns, naive cells): 1 to 3 factors of 1 to 3
    columns each, drawn by _drawn_column over the factor's distinct rows,
    with an index of n random rows into them or none, where the factor has
    one row per row. The distinct rows repeat, and some may be shown by no
    row."""
    n = draw(st.integers(0, 8))
    factors, columns, cells = [], [], []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            index = None
            distinct = n
        else:
            distinct = draw(st.integers(1 if n else 0, 5))
            index = np.array(draw(st.lists(st.integers(0, max(distinct - 1, 0)), min_size=n,
                                           max_size=n)), dtype=np.intp)
        rows = range(n) if index is None else index.tolist()
        block = []
        for _ in range(draw(st.integers(1, 3))):
            column, values = _drawn_column(draw, distinct)
            block.append(column)
            expanded = [values[i] for i in rows]
            columns.append(expanded)
            cells.append([_naive_cell(v) for v in expanded])
        factors.append(cli.Factor(block, index))
    return factors, columns, cells


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_factored_tables())
def test_factored_tables_equal_a_naive_per_cell_writer(table):
    factors, columns, cells = table
    header = tuple(f"c{i}" for i in range(len(columns)))
    cols = [[name, *col] for name, col in zip(header, cells)]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(zip(*cols))
    assert _table(header, factors, "csv") == buf.getvalue()
    widths = [max(map(len, col)) for col in cols]
    text = "".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n"
                   for row in zip(*cols))
    assert _table(header, factors, "text") == text
    assert _table(header, factors, "json") == _table(header, columns, "json")


def test_tables_whose_row_counts_disagree_are_refused():
    one, two = cli.Factor([(1.0,)], None), cli.Factor([(1.0, 2.0)], None)
    for header, columns in [
        (("a", "b"), [(1, 2), (3,)]),
        (("a", "b"), [one, two]),
        (("a", "b"), [one, cli.Factor([("x", "y")], np.array([0, 1]))]),
        # an index outside its factor's rows
        (("a", "b"), [two, cli.Factor([("x", "y")], np.array([0, 2]))]),
        (("a", "b"), [two, cli.Factor([("x", "y")], np.array([0, -1]))]),
        (("a", "b"), [two, cli.Factor([("x", "y"), ("z",)], np.array([0, 1]))]),
        # a table is factors or plain columns, as many as its names
        (("a", "b"), [two, (3, 4)]),
        (("a", "b", "c"), [(1, 2), (3, 4)]),
        (("a",), [cli.Factor([], None)]),
    ]:
        for fmt in ("csv", "text", "json"):
            with pytest.raises(ValueError):
                _table(header, columns, fmt)


# each model on the grid policy, xxx on mc and a perturbed sweep: the six
# kinds of chain-sweep job
SWEEP_JOBS = [("tfim", "grid", "0"), ("xx", "grid", "0"), ("xxx", "grid", "0"),
              ("xzx", "grid", "0"), ("xxx", "mc", "0"), ("xzx", "grid", "2e-3")]


@pytest.mark.parametrize("seed", (0, 7, 12))
@pytest.mark.parametrize("model, policy, perturb", SWEEP_JOBS)
def test_sweep_output_equals_the_table_of_its_expanded_rows(capsys, model, policy, perturb,
                                                            seed):
    lo, hi = ("-1.5", "1.5") if model == "xxx" else ("0", "2")
    args = ["--model", model, "--delta-min", lo, "--delta-max", hi, "--points", "9",
            "--params-policy", policy, "--perturb", perturb, "--seed", str(seed)]
    table = chains.sweep(model, np.linspace(float(lo), float(hi), 9), params_policy=policy,
                         perturb=float(perturb), seed=seed)
    columns = [getattr(table, f) for f in chains.SWEEP_FIELDS]
    for fmt in ("csv", "text", "json"):
        code, out, err = run(capsys, "sweep", *args, "--format", fmt)
        assert code == 0 and err == ""
        assert out == _table(chains.SWEEP_FIELDS, columns, fmt), fmt


def test_a_grid_sweep_formats_only_its_factors_float_values(monkeypatch):
    calls = []
    float_cells = cli._float_cells

    def counted(x):
        calls.append(len(x))
        return float_cells(x)
    monkeypatch.setattr(cli, "_float_cells", counted)
    code = main(["sweep", "--model", "tfim", "--delta-min", "0", "--delta-max", "2",
                 "--points", "11", "--out", os.devnull])
    assert code == 0
    # delta and both energies of each (point, level) pair, both tangles and
    # the Bloch norms of each distinct member: 4 per point and the 80 of the
    # lattice, where the 924 rows hold 8 * 924 = 7,392 float cells
    assert calls == [3 * 11 * 6 + 5 * (4 * 11 + 80)]


def _dyadic_ties(rng, per_scale: int) -> np.ndarray:
    """Values j / 2**e (j odd) whose exact decimal has 18 significant digits
    ending in 5, so %.17g rounds them half to even: they lie in
    [10**(17 - e), 10**(18 - e)) for e = 2 to 21, below 2**(53 - e)."""
    out = []
    for e in range(2, 22):
        lo, hi = -(-10 ** (17 - e) * 2 ** e // 1), min(10 ** (18 - e) * 2 ** e, 2 ** 53)
        if lo < hi:
            j = rng.integers(lo // 2, (hi - 1) // 2, per_scale) * 2 + 1
            out.append(np.ldexp(j.astype(float), -e))
    return np.concatenate(out)


def test_float_cells_are_exactly_percent_17g():
    rng = np.random.default_rng(2024)
    # 10**6 random bit patterns of both signs: most with the exponent field
    # over the fixed-point range of %.17g and two binades either side, the
    # rest over every exponent (the exponent form is slow to write)
    bits = rng.integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64)
    exponent = rng.integers(1007, 1082, 99 * 10 ** 4, dtype=np.uint64) << np.uint64(52)
    bits[:99 * 10 ** 4] = bits[:99 * 10 ** 4] & ~np.uint64(0x7FF << 52) | exponent
    powers = 10.0 ** np.arange(-5, 18)
    ties = _dyadic_ties(rng, 50)
    assert all(len(d) == 18 and d.endswith("5") for d in
               (str(Decimal(v)).replace(".", "").strip("0") for v in ties.tolist()))
    special = [2.0 ** 52 - 0.5, 2.0 ** 52 + 1, 2.0 ** 53, 2.0 ** 54 + 2, 99999999999999999.0,
               2890202531796210.5, 1.0, 1e16, 0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan,
               1e-4, 1e17]
    edges = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
                            ties, special])
    values = np.concatenate([
        bits.view(float), 10.0 ** rng.uniform(-6, 18, 2 * 10 ** 4) * rng.choice([-1.0, 1.0], 2 * 10 ** 4),
        edges, -edges])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cells = cli._float_cells(values).tolist()
    expect = ["%.17g" % v for v in values.tolist()]
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        expect[i] = ""
    assert cells == expect
    # the vectorised path takes every fixed-point edge value below 2**51,
    # where its shift is a right shift, so the edges above did reach it
    distinct = np.unique(np.concatenate([edges, -edges]).view(np.int64)).view(float)
    a = np.abs(distinct)
    assert (_fixed17.fixed_digits(distinct)[0] == np.flatnonzero((a >= 1e-4) & (a < 2.0 ** 51))).all()


def test_float_cells_do_not_depend_on_the_size_cutoff(monkeypatch):
    rng = np.random.default_rng(7)
    values = np.concatenate([rng.normal(0.0, 3.0, 2 * cli._VECTOR_MIN),
                             [0.0, -0.0, 1e-300, 1e300, np.nan, np.inf, 1.0, 0.5]])
    expect = ["%.17g" % v if math.isfinite(v) else "" for v in values.tolist()]
    # just below and at the cutoff, then every size on either path alone
    for n in (cli._VECTOR_MIN - 1, cli._VECTOR_MIN):
        assert cli._float_cells(values[-n:]).tolist() == expect[-n:]
    for cutoff in (0, len(values) + 1):
        monkeypatch.setattr(cli, "_VECTOR_MIN", cutoff)
        for n in (1, 9, len(values)):
            assert cli._float_cells(values[-n:]).tolist() == expect[-n:]


@pytest.mark.parametrize("argv", [
    "sample --n 1000000000000000",
    "bounds --points 1000000000000000",
    "sweep --model tfim --delta-min 0 --delta-max 1 --points 1000000000000000",
])
def test_a_size_too_large_to_allocate_is_a_usage_error(capsys, argv):
    # 10**15 rows need more than a 47-bit address space, so the allocation
    # fails at once
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("error:MemoryError: ") and err.count("\n") == 1


def test_a_probe_field_near_the_float_limit_prints_no_warning(capsys):
    code, out, err = run(capsys, "sweep", "--model", "xx", "--delta-min", "0",
                         "--delta-max", "1", "--points", "2", "--perturb", "1e308")
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 17


def test_the_package_runs_as_a_module():
    # from a checkout, with the package's parent directory on the path
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "triqent", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: triqent")


def test_the_cached_parser_reads_like_a_fresh_one(capsys):
    argvs = [
        ["classify", "--state", "w"],
        ["sweep", "--model", "xx", "--delta-min", "0", "--delta-max", "1", "--points", "2"],
        ["sweep", "--model", "bogus", "--delta-min", "0", "--delta-max", "1"],
        ["verify", "--check", "normalize-phase", "--check", "tangle-anchors"],
        ["no-such-verb"],
        ["sample", "--type", "3b", "--n", "2", "--format", "json"],
        ["bounds", "--points", "3", "--format", "text"],
        ["sweep", "--help"],
        ["verify", "--check", "normalize-phase"],
    ]
    cached = [run(capsys, *argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert [code for code, _, _ in cached] == [0, 0, 2, 0, 2, 0, 0, 0, 0]
    assert cached == fresh
