import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from aym import (ChainConfig, EconomyParams, compare_sweep_csv, curve_csv, emit_overlay,
                 enumerate_feasible, load_csv, make, run_chain)
from aym.cli import main

REPO = Path(__file__).resolve().parent.parent
BUNDLED_CSV = REPO / "data" / "synthetic_worker_tails.csv"


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_flat_instance(capsys):
    code, out, _ = _run(capsys, ["solve", "--levels", "1,2,3", "--n", "3", "--D", "6"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["beta"] == pytest.approx(0.0, abs=1e-12)
    assert payload["occupations"] == pytest.approx([1.0, 1.0, 1.0])


def test_solve_from_params_json(capsys, tmp_path):
    config = tmp_path / "economy.json"
    config.write_text('{"levels": [0, 1], "n": 100, "D": 25}', encoding="utf-8")
    code, out, _ = _run(capsys, ["solve", "--params-json", str(config)])
    assert code == 0
    payload = json.loads(out)
    assert payload["occupations"] == pytest.approx([75.0, 25.0], rel=1e-9)


def test_solve_missing_economy_flags(capsys):
    code, _, err = _run(capsys, ["solve", "--levels", "1,2"])
    assert code == 2
    assert "provide --levels, --n and --D" in err


def test_infeasible_demand_maps_to_exit_2(capsys):
    code, _, err = _run(capsys, ["solve", "--levels", "1,2,3", "--n", "3", "--D", "10"])
    assert code == 2
    assert "feasible hull" in err


@pytest.mark.parametrize("flags", [
    ["--levels", "3,1", "--n", "0", "--D", "0"],
    ["--levels", "1,nan", "--n", "0", "--D", "0"],
    ["--levels", "1,2,3", "--n", "0", "--D", "nan"],
    ["--levels", "1,2,3", "--n", "0", "--D", "5"],
], ids=["levels-falling", "levels-nan", "D-nan", "D-outside-hull"])
def test_empty_economy_enumeration_is_validated_exits_2(capsys, flags):
    # with no workers the hull is {0}: the levels are checked and D must be 0
    code, out, err = _run(capsys, ["enumerate", *flags])
    assert code == 2, err
    assert out == ""
    assert "error:" in err


def test_solver_failure_maps_to_exit_3(capsys):
    code, _, err = _run(capsys, ["generalized", "--levels", "1,2,3", "--n", "3",
                                 "--D", "6", "--c", "-10"])
    assert code == 3
    assert "error" in err


def test_malformed_flag_exits_64(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--bogus"])
    assert info.value.code == 64
    assert "usage" in capsys.readouterr().err


def test_bad_flag_value_exits_64(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--levels", "one,two", "--n", "3", "--D", "6"])
    assert info.value.code == 64


def test_negative_exponent_values_are_values(capsys):
    # argparse's own negative-number pattern has no exponent, so these were flags (exit 64)
    economy = ["--levels", "1,2,3", "--n", "6", "--D", "9"]
    assert _run(capsys, ["generalized", *economy, "--c", "-1e-3"]) == \
        _run(capsys, ["generalized", *economy, "--c=-1e-3"])
    assert _run(capsys, ["generalized", *economy, "--c", "-1e-3"])[0] == 0
    assert _run(capsys, ["solve", "--levels", "1,2,3", "--n", "6", "--D", "-1e3"])[0] == 2
    assert _run(capsys, ["solve", *economy, "--tol", "-1e-3"])[0] == 2


# a token that starts with "-" is a value exactly when it reads as comma-separated numbers
@pytest.mark.parametrize("head,flag,value,code", [
    (["solve", "--levels", "1,2,3", "--n", "6"], "--D", "-inf", 2),
    (["solve", "--levels", "1,2,3", "--n", "6"], "--D", "-Infinity", 2),
    (["generalized", "--levels", "1,2,3", "--n", "6", "--D", "9"], "--c", "-nan", 2),
    (["epi", "--mean-demand", "5"], "--grid", "-1,2", 0),
    (["solve", "--n", "6", "--D", "9"], "--levels", "-1,2,3", 2),
    (["compare"], "--r", "-5,10", 2),
], ids=["D-minus-inf", "D-minus-Infinity", "c-minus-nan", "grid-list", "levels-list", "r-list"])
def test_negative_values_read_as_their_equals_form(capsys, head, flag, value, code):
    spaced = _run(capsys, [*head, flag, value])
    assert spaced == _run(capsys, [*head, f"{flag}={value}"])
    assert spaced[0] == code


@pytest.mark.parametrize("argv", [
    ["solve", "--levels", "1,2,3", "--n", "6", "--D", "9", "--nope"],
    ["solve", "--levels", "1,2,3", "--n", "6", "--D", "9", "-x"],
    ["solve", "--levels", "1,2,3", "--n", "6", "--D", "-x"],
], ids=["long", "short", "as-value"])
def test_unknown_options_still_exit_64(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 64


def test_missing_subcommand_exits_64(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 64


def test_generalized_reduces_at_c_zero(capsys):
    code, out, _ = _run(capsys, ["generalized", "--levels", "0,1", "--n", "100",
                                 "--D", "25", "--c", "0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["c"] == 0.0
    assert payload["occupations"] == pytest.approx([75.0, 25.0], rel=1e-9)


@pytest.mark.parametrize("economy", [
    ["--levels", "1,2,3", "--n", "16", "--D", "42.6142"],
    ["--levels", "0,1", "--n", "100", "--D", "25"],
    ["--levels", "1,2,3,5.5", "--n", "7", "--D", "20", "--tol", "0"],
])
def test_solve_prints_the_bytes_of_generalized_at_c_zero(capsys, economy):
    boltzmann = _run(capsys, ["solve", *economy])
    assert boltzmann[0] == 0
    assert boltzmann == _run(capsys, ["generalized", *economy, "--c", "0"])


def test_verify_reports_capacity(capsys):
    code, out, _ = _run(capsys, ["verify", "--mean-demand", "135", "--a0", "0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["fisher_metric"] == pytest.approx(5.487e-05, rel=2e-4)
    assert payload["kappa"] == 1.0


def test_verify_table_format(capsys):
    code, out, _ = _run(capsys, ["verify", "--mean-demand", "2", "--a0", "1",
                                 "--format", "table"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("fisher_metric")
    assert len(lines) == 11


# the identities are evaluated in t = a/s and scaled by powers of s: a report wherever
# the capacity 1/s^2 is a normal float and every field is finite, else exit 2 naming
# the mean gap (1e200, 1e300 and 1e308 underflow 1/s^2, 1e-300 overflows it)
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mean,expected", [("1e200", 2), ("1e-300", 2), ("1e300", 2),
                                           ("1e308", 2), ("1e90", 0), ("1e-60", 0)])
def test_verify_extreme_means(capsys, mean, expected):
    code, out, err = _run(capsys, ["verify", "--mean-demand", mean, "--a0", "0"])
    assert code == expected
    if expected == 0:
        payload = json.loads(out)
        assert all(math.isfinite(v) for v in payload.values())
        assert payload["structural_residual"] < 1e-6 * payload["fisher_metric"]
        assert payload["fisher_metric"] == pytest.approx(float(mean) ** -2, rel=1e-6)
    else:
        assert out == ""
        assert err.startswith("aym verify: error: mean gap D/n - a0 = "), err


# past about 1,490 mean gaps the amplitude underflows to 0, where 2 q''/q is 0/0; the
# grid runs in t = a/s, so 1e300 gaps of 1e10 end at 1e300 - 1, inside the float range
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mean,span", [("1", "1500"), ("1", "1e300"), ("1e10", "1e300")])
def test_verify_wide_grids_report_finite_json(capsys, mean, span):
    code, out, err = _run(capsys, ["verify", "--mean-demand", mean, "--grid-span", span])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert all(math.isfinite(v) for v in payload.values())
    inverse = 1.0 / float(mean)
    assert payload["qtilde_value"] == 0.5 * (inverse * inverse)


# the steps are divided by the mean gap s for the standard law; a step that leaves no
# law there is named in the units it was given in, never blamed on the mean or the gap
@pytest.mark.parametrize("mean,flag,step,message", [
    ("135", "--fd-step-theta", "200", "fd_step_theta = 200.0 must be below the mean gap "
                                      "D/n - a0 = 135.0"),
    ("135", "--fd-step-theta", "135", "fd_step_theta = 135.0 must be below the mean gap"),
    ("1e-10", "--fd-step-theta", "1e300", "fd_step_theta = 1e+300 must be below the mean gap"),
    ("1e10", "--fd-step-x", "1e-320", "fd_step_x = 1e-320 is too small for the mean gap "
                                      "D/n - a0 = 10000000000.0: (step / gap)^2 underflows to 0"),
    ("1", "--fd-step-x", "5e-324", "fd_step_x = 5e-324 is too small"),
    ("1", "--fd-step-theta", "1e-170", "fd_step_theta = 1e-170 is too small"),
    ("1e-10", "--fd-step-x", "1e300", "fd_step_x = 1e+300 is too large for the mean gap "
                                      "D/n - a0 = 1e-10: step / gap overflows"),
    # finite in t, but the amplitude across 7.4e6 gaps is not: the standard-law value is inf
    ("135", "--fd-step-x", "1e9", "fd_step_x = 1000000000.0 gives a non-finite finite "
                                  "difference for the mean gap D/n - a0 = 135.0"),
    # (step / gap)^2 overflows: a float square, not a power, which would raise
    ("1", "--fd-step-x", "1e200", "fd_step_x = 1e+200 gives a non-finite finite difference"),
    # finite grid values, but the kinematical integrand across 740 gaps is inf
    ("135", "--fd-step-x", "1e5", "fd_step_x = 100000.0 gives a non-finite finite "
                                  "difference for the mean gap D/n - a0 = 135.0"),
    # 1 - step / gap rounds to 1: the family members coincide, every theta difference is 0
    ("135", "--fd-step-theta", "1e-15", "fd_step_theta = 1e-15 is too small for the mean gap "
                                        "D/n - a0 = 135.0: 1 - step / gap rounds to 1"),
    # 1 + step / gap rounds to 1: x + step == x at the grid's nodes, every x difference is 0
    ("1", "--fd-step-x", "1e-17", "fd_step_x = 1e-17 is too small for the mean gap "
                                  "D/n - a0 = 1.0: 1 + step / gap rounds to 1"),
    ("135", "--fd-step-x", "1e-14", "fd_step_x = 1e-14 is too small"),
])
def test_verify_step_errors_name_the_step(capsys, mean, flag, step, message):
    code, out, err = _run(capsys, ["verify", "--mean-demand", mean, flag, step])
    assert (code, out) == (2, "")
    assert err.startswith(f"aym verify: error: {message}"), err
    assert "mean demand" not in err and "got 0.0" not in err


def test_compare_tv_column_scales(capsys):
    code, out, _ = _run(capsys, ["compare", "--r", "10,100,1000"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,tv,max_abs,max_rel"
    tvs = [float(line.split(",")[1]) for line in lines[1:]]
    assert 8.0 <= tvs[0] / tvs[1] <= 12.0
    assert 8.0 <= tvs[1] / tvs[2] <= 12.0


@pytest.mark.parametrize("flags", [
    ["--r", "inf"],
    ["--r", "nan"],
    ["--r", "1e17"],
    ["--r", "1e20"],
    ["--r", "10", "--i-max", "0"],
    ["--r", "10", "--i-max", "-3"],
], ids=["r-inf", "r-nan", "r-1e17", "r-1e20", "i-max-zero", "i-max-negative"])
def test_compare_bad_input_exits_2(capsys, flags):
    code, out, err = _run(capsys, ["compare", *flags])
    assert code == 2
    assert out == ""
    assert "error:" in err


INF_CUT_CSV = "a,p_gt\n1,0.5\ninf,0.1\n"
# each verify numeric flag at nan and inf: NumericsConfig rejects it, naming the field
VERIFY_NON_FINITE = [(flag, value) for flag in ("--grid-span", "--fd-step-x", "--fd-step-theta",
                                                "--quadrature-tol") for value in ("nan", "inf")]


@pytest.mark.parametrize("argv,csv", [
    (["solve", "--levels", "1,inf", "--n", "3", "--D", "4"], None),
    (["solve", "--levels", "1,2,3", "--n", "3", "--D", "6", "--a0", "nan"], None),
    (["solve", "--levels", "1,2,3", "--n", "3", "--D", "6", "--a0", "inf"], None),
    (["epi", "--mean-demand", "inf", "--grid", "1,2"], None),
    (["overlay", "--d-over-n", "inf", "--grid", "1,2"], None),
    (["verify", "--mean-demand", "inf"], None),
    (["epi", "--mean-demand", "2", "--grid", "nan,1"], None),
    (["overlay", "--d-over-n", "2", "--data", "{csv}"], INF_CUT_CSV),
    (["fit", "--fit-a0", "--data", "{csv}"], INF_CUT_CSV),
    (["fit", "--data", "{csv}"], "a,p_gt,w\n1,0.5,1\n2,0.1,nan\n"),
    *((["verify", "--mean-demand", "135", *flag_value], None) for flag_value in VERIFY_NON_FINITE),
], ids=["levels-inf", "a0-nan", "a0-inf", "epi-mean-inf", "overlay-mean-inf", "verify-mean-inf",
        "epi-grid-nan", "overlay-csv-inf-cut", "fit-csv-inf-cut", "fit-csv-nan-weight",
        *(f"verify{flag}-{value}" for flag, value in VERIFY_NON_FINITE)])
def test_non_finite_input_exits_2(capsys, tmp_path, argv, csv):
    if csv is not None:
        (tmp_path / "tails.csv").write_text(csv, encoding="utf-8")
        argv = [str(tmp_path / "tails.csv") if arg == "{csv}" else arg for arg in argv]
    code, out, err = _run(capsys, argv)
    assert code == 2, err
    assert out == ""
    assert "error:" in err


def test_value_off_its_fraction_exits_2(capsys):
    # 1e-13 is within 5e-13 of the fraction 0 but far from it relatively; read as 0, the
    # fibre would list (1, 0, 1), whose output is 2 + 1e-13, not D = 2
    code, out, err = _run(capsys, ["enumerate", "--levels", "1e-13,1,2", "--n", "2", "--D", "2"])
    assert code == 2, err
    assert out == ""
    assert "integer lattice" in err


NOT_UTF8_CSV = b"a,p_gt\n1,0.5\n2,0.\xff2\n"


# files that are not UTF-8, --params-json values that float() takes but JSON does not
# spell as numbers, and a --params-json field outside levels, n, D, a0 (more in
# test_model_core); each names what is wrong on one stderr line
@pytest.mark.parametrize("argv,raw,message", [
    (["fit", "--data"], NOT_UTF8_CSV, "line 3: not UTF-8 text in {path}"),
    (["overlay", "--d-over-n", "5", "--grid", "1", "--data"], NOT_UTF8_CSV,
     "line 3: not UTF-8 text in {path}"),
    (["solve", "--params-json"], b'{"levels": [1, 2, 3], "n": 6, "D": \xff9}',
     "not UTF-8 text in {path}"),
    (["solve", "--params-json"], b'{"levels": [1, 2, 3], "n": "x", "D": 8}',
     "field n must be a number"),
    (["solve", "--params-json"], b'{"levels": [1, 2, 3], "n": %s, "D": 8}' % (b"9" * 400),
     "field n is too large for a float"),
    (["solve", "--params-json"], b'{"levels": "123", "n": true, "D": "2"}',
     "field levels must be an array"),
    (["solve", "--params-json"], b'{"levels": [1, 2, 3], "n": 6, "D": 12, "A0": 5}',
     'field "A0" is not one of levels, n, D, a0'),
], ids=["fit-not-utf8", "overlay-not-utf8", "params-json-not-utf8", "params-json-n-string",
        "params-json-n-overflows", "params-json-all-coerced", "params-json-unknown-field"])
def test_bad_input_file_exits_2(capsys, tmp_path, argv, raw, message):
    path = tmp_path / "input"
    path.write_bytes(raw)
    code, out, err = _run(capsys, [*argv, str(path)])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and message.format(path=path) in err


def test_epi_curve_values(capsys):
    code, out, _ = _run(capsys, ["epi", "--mean-demand", "135", "--a0", "0",
                                 "--grid", "0,135"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "a,pdf,tail"
    cells = lines[2].split(",")
    assert float(cells[2]) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_epi_linspace_grid(capsys):
    code, out, _ = _run(capsys, ["epi", "--mean-demand", "10", "--linspace", "0", "10", "5"])
    assert code == 0
    lines = out.strip().split("\n")
    assert [float(l.split(",")[0]) for l in lines[1:]] == [0.0, 2.5, 5.0, 7.5, 10.0]


@pytest.mark.parametrize("count, cuts", [("1", [3.0]), ("0", [])], ids=["one", "zero"])
def test_epi_linspace_degenerate_counts(capsys, count, cuts):
    code, out, _ = _run(capsys, ["epi", "--mean-demand", "10", "--linspace", "3", "7", count])
    assert code == 0
    assert [float(l.split(",")[0]) for l in out.strip().split("\n")[1:]] == cuts


@pytest.mark.parametrize("argv", [
    ["epi", "--mean-demand", "135", "--linspace", "0", "1", "2.5"],
    ["epi", "--mean-demand", "135", "--linspace", "0", "1", "-4"],
    ["epi", "--mean-demand", "135", "--linspace", "0", "1", "1000001"],
    ["verify", "--mean-demand", "135", "--grid-points", "100000000000"],
], ids=["count-not-integer", "count-negative", "count-above-1e6", "verify-points-1e11"])
def test_bad_grid_size_exits_2_before_allocating(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2, err
    assert out == ""
    assert err.startswith(f"aym {argv[0]}: error: ")


def _linspace_reference(grid, start, stop, count):
    """The --grid and --linspace cuts, as the CLI makes them."""
    step = (stop - start) / (count - 1) if count > 1 else 0.0
    cuts = [start] if count == 1 else [start + j * step for j in range(count)]
    return sorted(set([*grid, *cuts]))


# each table past one chunk of the writer's rows (but compare's)
TABLES = [
    (["epi", "--mean-demand", "135", "--linspace", "0", "1000", "10001"],
     lambda: curve_csv(make(135.0), _linspace_reference([], 0.0, 1000.0, 10001))),
    (["overlay", "--data", str(BUNDLED_CSV), "--d-over-n", "100,135", "--grid", "-0.0,3",
      "--linspace", "0", "1000", "5001"],
     lambda: emit_overlay(load_csv(BUNDLED_CSV), [100.0, 135.0], 0.0,
                          _linspace_reference([-0.0, 3.0], 0.0, 1000.0, 5001))),
    (["compare", "--r", "10,1.5,1e6,100"], lambda: compare_sweep_csv([10, 1.5, 1e6, 100])),
    (["sample", "--levels", "1,2,3,4,5,6,7,8,9,10", "--n", "40", "--D", "200", "--steps", "8000",
      "--seed", "3", "--format", "csv"],
     lambda: run_chain(EconomyParams(range(1, 11), 40, 200),
                       ChainConfig(steps=8000, seed=3)).to_csv()),
    (["enumerate", "--levels", "1,2,3,4,5,6,7,8", "--n", "16", "--D", "72", "--format", "csv"],
     lambda: enumerate_feasible(EconomyParams(range(1, 9), 16, 72)).to_csv()),
]


@pytest.mark.parametrize("argv,library", TABLES, ids=[argv[0] for argv, _ in TABLES])
def test_cli_prints_the_library_table(capsys, tmp_path, argv, library):
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert out == library()
    assert main([*argv, "--output", str(tmp_path / "table.csv")]) == 0
    assert (tmp_path / "table.csv").read_text(encoding="utf-8") == out


@pytest.mark.parametrize("grid,bad", [(["--grid", "nan,1"], "nan"),
                                      (["--linspace", "0", "1", "3", "--grid", "inf"], "inf")])
def test_bad_cut_leaves_no_output_file(capsys, tmp_path, monkeypatch, grid, bad):
    monkeypatch.setenv("AYM_OUTPUT_DIR", str(tmp_path))
    code, out, err = _run(capsys, ["epi", "--mean-demand", "5", *grid, "--output", "f.csv"])
    assert (code, out) == (2, "")
    assert err == f"aym epi: error: grid cuts must be finite, got {bad}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["epi", "--mean-demand", "5"], ["overlay", "--d-over-n", "5"]],
                         ids=["epi", "overlay"])
def test_nan_and_inf_cuts_name_the_same_cut_every_call(capsys, argv):
    """A nan's place in a sorted set follows its hash; the message names the first cut given."""
    grid = ["--linspace", "0", "inf", "3", "--grid", "1"]  # cuts 1, then nan, inf, inf
    errors = {_run(capsys, [*argv, *grid])[2] for _ in range(200)}
    assert errors == {f"aym {argv[0]}: error: grid cuts must be finite, got nan\n"}


def test_enumerate_json(capsys):
    code, out, _ = _run(capsys, ["enumerate", "--levels", "1,2,3", "--n", "4", "--D", "8"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3
    assert payload["argmax"] == [1, 2, 1]
    assert [v["weight"] for v in payload["vectors"]] == [1, 12, 6]


def test_enumerate_csv(capsys):
    code, out, _ = _run(capsys, ["enumerate", "--levels", "1,2,3", "--n", "4",
                                 "--D", "8", "--format", "csv"])
    assert code == 0
    assert out.startswith("state,weight,log_weight\n")
    assert "1;2;1,12," in out


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_oversized_weight_exits_2_at_once(capsys, monkeypatch, fmt):
    # C(1e6, 5e5) has 301,027 digits: refused from its log weight, before math.comb builds it
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    start = time.perf_counter()
    code, out, err = _run(capsys, ["enumerate", "--levels", "0,1", "--n", "1e6", "--D", "5e5",
                                   "--format", fmt])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "int-to-str limit of 4300" in err


def test_sample_json_summary(capsys):
    code, out, _ = _run(capsys, ["sample", "--levels", "1,2,3", "--n", "4", "--D", "8",
                                 "--steps", "4000", "--burn-in", "500", "--seed", "7"])
    assert code == 0
    payload = json.loads(out)
    assert payload["rng_algorithm"] == "numpy:PCG64"
    assert payload["irreducibility"] == "verified"
    assert abs(sum(payload["visit_frequencies"].values()) - 1.0) < 1e-12


def test_fit_recovers_scale(capsys, tmp_path):
    rows = ["a,p_gt"]
    for a in (10.0, 50.0, 100.0, 200.0, 400.0, 800.0):
        rows.append(f"{a:.17g},{math.exp(-a / 135.0):.17g}")
    data = tmp_path / "tail.csv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out, _ = _run(capsys, ["fit", "--data", str(data), "--a0", "0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["d_over_n"] == pytest.approx(135.0, rel=1e-6)
    assert payload["points_used"] == 6


def test_fit_free_a0_on_bundled_tails(capsys):
    # the fixture is the exact law with D/n = 135, a0 = 0
    code, out, _ = _run(capsys, ["fit", "--data", str(BUNDLED_CSV), "--fit-a0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["a0"] == pytest.approx(0.0, abs=1e-9)
    assert payload["d_over_n"] == pytest.approx(135.0, rel=1e-9)
    assert payload["rss_log"] < 1e-20
    assert payload["points_used"] == 16


def test_fit_missing_file_exits_2(capsys):
    code, _, err = _run(capsys, ["fit", "--data", "/nonexistent/tail.csv"])
    assert code == 2
    assert "error" in err


def test_overlay_model_columns(capsys):
    code, out, _ = _run(capsys, ["overlay", "--d-over-n", "100,135,170", "--a0", "0",
                                 "--grid", "135"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "a,p_gt_data,tail_100,tail_135,tail_170"
    cells = lines[1].split(",")
    assert float(cells[2]) == pytest.approx(math.exp(-1.35), rel=1e-12)
    assert float(cells[3]) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert float(cells[4]) == pytest.approx(math.exp(-135.0 / 170.0), rel=1e-12)


@pytest.mark.parametrize("target", [
    "{file}/result.json",
    pytest.param("/dev/full", marks=pytest.mark.skipif(not Path("/dev/full").exists(),
                                                        reason="no /dev/full")),
], ids=["parent-is-a-file", "disk-full"])
def test_unwritable_output_exits_2(capsys, tmp_path, target):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n", encoding="utf-8")
    code, out, err = _run(capsys, ["solve", "--levels", "1,2,3", "--n", "3", "--D", "6",
                                   "--output", target.format(file=blocker)])
    assert code == 2
    assert out == ""
    assert err.startswith("aym solve: error: ")


@pytest.mark.parametrize("argv", [
    ["solve", "--levels", "1,2,3", "--n", "3", "--D", "5", "--tol", "nan"],
    ["solve", "--levels", "1,2,3", "--n", "3", "--D", "5", "--tol", "inf"],
    ["generalized", "--levels", "1,2,3", "--n", "3", "--D", "5", "--c", "1", "--tol", "-1"],
    ["enumerate", "--levels", "1,2,3", "--n", "4", "--D", "8", "--cap", "-3"],
], ids=["tol-nan", "tol-inf", "tol-negative", "cap-negative"])
def test_bad_tolerance_or_cap_exits_2(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2, err
    assert out == ""
    assert "must be" in err


def test_output_file_and_determinism(capsys, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for path in (out1, out2):
        code = main(["sample", "--levels", "1,2,3", "--n", "4", "--D", "8",
                     "--steps", "3000", "--seed", "13", "--output", str(path)])
        assert code == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_output_dir_env_resolves_relative_paths(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("AYM_OUTPUT_DIR", str(tmp_path))
    code = main(["solve", "--levels", "1,2,3", "--n", "3", "--D", "6",
                 "--output", "nested/result.json"])
    assert code == 0
    capsys.readouterr()
    target = tmp_path / "nested" / "result.json"
    assert target.exists()
    assert json.loads(target.read_text())["beta"] == pytest.approx(0.0, abs=1e-12)


def test_absolute_output_ignores_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("AYM_OUTPUT_DIR", str(tmp_path / "elsewhere"))
    target = tmp_path / "direct.json"
    code = main(["solve", "--levels", "1,2,3", "--n", "3", "--D", "6",
                 "--output", str(target)])
    assert code == 0
    capsys.readouterr()
    assert target.exists()


def test_help_lists_flags(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--help"])
    assert info.value.code == 0
    text = capsys.readouterr().out
    assert "--levels" in text and "--tol" in text and "--output" in text


def _python(code, *args, **env_overrides):
    """Run ``python -c code args`` on this checkout's sources; None unsets a variable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                      env.get("PYTHONPATH")]))
    for key, value in env_overrides.items():
        env.pop(key, None)
        if value is not None:
            env[key] = value
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=120)


SCIPY_FREE_RUN = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy or its submodules now fails
from aym.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_every_subcommand_runs_without_scipy(tmp_path):
    data = str(BUNDLED_CSV)
    invocations = [
        ["solve", "--levels", "1,2,3", "--n", "3", "--D", "6"],
        ["generalized", "--levels", "0,1", "--n", "100", "--D", "25", "--c", "0.5"],
        ["epi", "--mean-demand", "135", "--grid", "0,135"],
        ["verify", "--mean-demand", "135", "--a0", "1"],
        ["compare", "--r", "10,1e6"],
        ["sample", "--levels", "1,2,3", "--n", "4", "--D", "8", "--steps", "500"],
        ["enumerate", "--levels", "1,2,3", "--n", "4", "--D", "8"],
        ["fit", "--data", data, "--fit-a0"],
        ["overlay", "--data", data, "--d-over-n", "135", "--grid", "135"],
    ]
    argvs = [argv + ["--output", str(tmp_path / f"{argv[0]}.out")] for argv in invocations]
    proc = _python(SCIPY_FREE_RUN, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0] * len(invocations)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{argv[0]}.out" for argv in invocations)


# the package's 71 public names; a lazy export table that drops one breaks `from aym import`
PUBLIC_NAMES = sorted("""
AymError ChainConfig ComparisonMetrics DegenerateFit Displacement DomainError
DomainViolation EconomyParams EmptyDataset EmptyLadder EnumerationResult EpiDistribution
EquilibriumSolution FitResult InfeasibleDemand InstanceTooLarge LadderRatio
MonotonicityError Multipliers NoConvergence NoFeasibleState NonMonotoneLevels
NumericsConfig OccupationVector ParseError PrincipleReport QuadratureFailure
SampleSummary SolverError TailDataset ValidationError
asymptotic_ladder_pmf asymptotic_zero_min_pmf aym_ladder_pmf boundary_constant
boundary_identity_residual closed_form_ladder compare compare_sweep_csv curve_csv
emit_overlay enumerate_feasible epi_binned_ladder epi_binned_zero_min
euler_lagrange_residual fisher_kinematical fisher_metric_form fisher_statistical
fit_tail generating_equation_residual integer_lattice ladder_limit_form ladder_ratio
load_csv load_params log_multinomial_weight make make_ladder merge_summaries params_from_json
params_to_json pointwise_information_density qtilde_recovered
regularity_residual run_chain save_csv solve_boltzmann solve_generalized
structural_principle validate verify_all
""".split())

NUMPY_FREE_RUN = """
import contextlib, io, json, os, sys
sys.modules["numpy"] = None  # any import of numpy now fails
environ = dict(os.environ)
import aym
from aym.cli import main
codes = []
for argv in (["--version"], ["--help"], ["solve", "--bogus"]):
    try:
        main(argv)
    except SystemExit as exc:
        codes.append(exc.code)
try:
    aym.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    loaded = sorted(name for name, module in sys.modules.items()
                    if name.split(".")[0] == "numpy" and module is not None)
    own = sorted(name for name in sys.modules if name.startswith("aym."))
    runs.append([code, out.getvalue(), err.getvalue(), loaded, own])
print(json.dumps({"codes": codes, "all": sorted(aym.__all__), "missing": missing,
                  "environ_unchanged": dict(os.environ) == environ, "runs": runs}))
"""

# integer and comparison logic only: the exact enumeration, and the solve errors
# decided from the parameters before the solver's arithmetic starts
NUMPY_FREE_CASES = [
    (["enumerate", "--levels", "1,2,3", "--n", "6", "--D", "13"], 0),
    (["enumerate", "--levels", "1,2,3", "--n", "6", "--D", "13", "--format", "csv"], 0),
    (["solve", "--levels", "1,2,3", "--n", "6", "--D", "21"], 2),  # outside the hull
    (["solve", "--levels", "1,2,3", "--n", "6", "--D", "18"], 2),  # on the hull's edge
    (["generalized", "--levels", "1,2,3", "--n", "100", "--D", "200", "--c", "-1"], 3),  # crowded
    (["generalized", "--levels", "1,2,3", "--n", "2", "--D", "2.5", "--c", "-1"], 3),  # below fill
    (["generalized", "--levels", "1,2,3", "--n", "2", "--D", "5.5", "--c", "-1"], 3),  # above fill
    (["solve", "--levels", "0,1,2", "--n", "5e-324", "--D", "5e-324"], 2),  # subnormal n
]


def test_import_and_usage_paths_load_no_numpy(capsys):
    proc = _python(NUMPY_FREE_RUN, json.dumps([argv for argv, _ in NUMPY_FREE_CASES]))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().split("\n")[-1])
    assert report["codes"] == [0, 0, 64]
    assert report["all"] == PUBLIC_NAMES
    assert "no_such_name" in report["missing"]
    assert report["environ_unchanged"]
    assert len(report["runs"]) == len(NUMPY_FREE_CASES)
    for (argv, expected), (code, out, err, loaded, own) in zip(NUMPY_FREE_CASES, report["runs"]):
        assert loaded == [], argv
        if argv[0] == "enumerate":  # these run first, so no solve has loaded the solver yet
            assert "aym.lattice" in own and "aym.discrete_equilibrium" not in own, own
        assert code == expected, err
        # the same bytes as a run with numpy available
        assert [code, out, err] == list(_run(capsys, argv)), argv


def test_every_public_name_resolves():
    import aym

    assert len(PUBLIC_NAMES) == 71
    assert all(getattr(aym, name) is not None for name in PUBLIC_NAMES)
    assert sorted(aym.__all__) == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(aym))
    assert aym.solve_boltzmann is aym.discrete_equilibrium.solve_boltzmann
    assert aym.enumerate_feasible is aym.lattice.enumerate_feasible
    assert not hasattr(aym, "no_such_name")


def test_sampler_does_not_load_the_solver():
    proc = _python("import sys, aym.occupation_sampler; "
                   "print('aym.discrete_equilibrium' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


RUN_ENV_PROBE = """
import json, os, sys
import aym.cli
def probe(argv=None):
    print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), "numpy" in sys.modules]))
    return 0
aym.cli.main = probe
aym.cli.run()
"""


@pytest.mark.parametrize("preset,expected", [(None, "1"), ("3", "3")], ids=["unset", "user-set"])
def test_run_limits_blas_threads_before_numpy(preset, expected):
    proc = _python(RUN_ENV_PROBE, OPENBLAS_NUM_THREADS=preset)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [expected, False]
