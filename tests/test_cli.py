import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# 1e200 underflows every integrand to 0 without NaN; the other three overflow or
# underflow into NaN or inf, which must surface as a solver failure, not as JSON
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mean,expected", [("1e200", 0), ("1e-300", 3), ("1e300", 3),
                                           ("1e308", 3)])
def test_verify_extreme_means(capsys, mean, expected):
    code, out, err = _run(capsys, ["verify", "--mean-demand", mean, "--a0", "0"])
    assert code == expected
    if expected == 0:
        assert all(math.isfinite(v) for v in json.loads(out).values())
    else:
        assert out == ""
        assert "error:" in err


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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE_RUN, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0] * len(invocations)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{argv[0]}.out" for argv in invocations)
