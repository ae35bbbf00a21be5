import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aym import (
    DegenerateFit,
    DomainError,
    EmptyDataset,
    MonotonicityError,
    ParseError,
    TailDataset,
    emit_overlay,
    fit_tail,
    load_csv,
    make,
    save_csv,
)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _synthetic(mean_demand, a0, cuts):
    dist = make(mean_demand, a0)
    return TailDataset(tuple(cuts), tuple(dist.tail(a) for a in cuts))


def test_load_csv_happy_path(tmp_path):
    path = _write(tmp_path, "# worker tails\na,p_gt\n10,0.93\n100,0.48\n300,0.11\n")
    data = load_csv(path)
    assert data.cuts == (10.0, 100.0, 300.0)
    assert data.p_gt == (0.93, 0.48, 0.11)
    assert data.weights is None
    assert data.source_label.endswith("data.csv")


def test_load_csv_with_weight_column(tmp_path):
    path = _write(tmp_path, "a,p_gt,w\n10,0.9,1\n20,0.5,2\n")
    data = load_csv(path)
    assert data.weights == (1.0, 2.0)


def test_load_csv_rejects_out_of_order_cuts(tmp_path):
    path = _write(tmp_path, "a,p_gt\n100,0.48\n10,0.93\n")
    with pytest.raises(MonotonicityError) as info:
        load_csv(path)
    assert info.value.line == 3


def test_load_csv_rejects_increasing_tail(tmp_path):
    path = _write(tmp_path, "a,p_gt\n10,0.4\n20,0.5\n")
    with pytest.raises(MonotonicityError):
        load_csv(path)


def test_load_csv_rejects_out_of_range_probability(tmp_path):
    path = _write(tmp_path, "a,p_gt\n10,1.2\n")
    with pytest.raises(ParseError) as info:
        load_csv(path)
    assert info.value.line == 2


def test_load_csv_rejects_non_numeric(tmp_path):
    path = _write(tmp_path, "a,p_gt\n10,0.9\nbogus,0.5\n")
    with pytest.raises(ParseError) as info:
        load_csv(path)
    assert info.value.line == 3


def test_load_csv_rejects_wrong_header(tmp_path):
    path = _write(tmp_path, "cut,prob\n10,0.9\n")
    with pytest.raises(ParseError) as info:
        load_csv(path)
    assert info.value.line == 1


def test_load_csv_rejects_empty(tmp_path):
    path = _write(tmp_path, "# nothing here\na,p_gt\n")
    with pytest.raises(EmptyDataset):
        load_csv(path)


def test_round_trip_preserves_values(tmp_path):
    data = _synthetic(135.0, 0.0, (10.0, 50.0, 100.0, 200.0, 400.0, 800.0))
    path = _write(tmp_path, save_csv(data), "roundtrip.csv")
    back = load_csv(path)
    assert back.cuts == data.cuts
    assert back.p_gt == data.p_gt


def test_dataset_invariants():
    with pytest.raises(DomainError):
        TailDataset((1.0, 1.0), (0.5, 0.4))
    with pytest.raises(DomainError):
        TailDataset((1.0, 2.0), (0.4, 0.5))
    with pytest.raises(DomainError):
        TailDataset((1.0,), (0.0,))
    with pytest.raises(DomainError):
        TailDataset((1.0, 2.0), (0.5,))


def test_fit_recovers_mean_from_noiseless_data():
    data = _synthetic(135.0, 0.0, (10.0, 50.0, 100.0, 200.0, 400.0, 800.0))
    result = fit_tail(data, a0_fixed=0.0)
    assert abs(result.d_over_n - 135.0) / 135.0 < 1e-3
    assert result.rss_log < 1e-20
    assert result.points_used == 6


def test_two_points_determine_the_scale_exactly():
    a1, a2 = 30.0, 240.0
    data = TailDataset((a1, a2), (math.exp(-a1 / 135.0), math.exp(-a2 / 135.0)))
    result = fit_tail(data, a0_fixed=0.0)
    assert result.d_over_n == pytest.approx(135.0, rel=1e-12)


@pytest.mark.parametrize("mean_demand", [50.0, 135.0, 500.0])
def test_fit_consistency_across_scales(mean_demand):
    cuts = tuple(np.linspace(mean_demand / 10.0, 5.0 * mean_demand, 12))
    data = _synthetic(mean_demand, 0.0, cuts)
    result = fit_tail(data, a0_fixed=0.0)
    assert abs(result.d_over_n - mean_demand) / mean_demand < 1e-3


def test_fit_rejects_constant_tail():
    data = TailDataset((1.0, 2.0, 3.0), (0.5, 0.5, 0.5))
    with pytest.raises(DegenerateFit):
        fit_tail(data, a0_fixed=0.0)


def test_fit_rejects_single_usable_point():
    data = TailDataset((1.0, 2.0), (0.5, 1e-9))
    with pytest.raises(DegenerateFit):
        fit_tail(data, a0_fixed=0.0)


def test_fit_excludes_deep_tail_points():
    cuts = (10.0, 100.0, 200.0, 2500.0)
    data = _synthetic(135.0, 0.0, cuts)  # tail(2500) ~ 9e-9 < 1e-6
    result = fit_tail(data, a0_fixed=0.0)
    assert result.points_used == 3


def test_fit_with_free_support_minimum():
    truth_mean, truth_a0 = 135.0, 20.0
    cuts = tuple(np.linspace(25.0, 800.0, 15))
    data = _synthetic(truth_mean, truth_a0, cuts)
    result = fit_tail(data)
    assert result.a0 == pytest.approx(truth_a0, abs=1e-5)
    assert result.d_over_n == pytest.approx(truth_mean, rel=1e-6)


def _grid_rss(cuts, log_p, weights, a0_grid):
    """Zero-intercept RSS at each trial a0, every cut above it."""
    u = cuts[None, :] - a0_grid[:, None]
    slope = (weights * u * log_p).sum(axis=1) / (weights * u * u).sum(axis=1)
    return (weights * (log_p - slope[:, None] * u) ** 2).sum(axis=1)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(mean_gap=st.floats(0.5, 1e3), a0_share=st.floats(0.0, 0.95),
       spans=st.lists(st.floats(0.01, 10.0), min_size=2, max_size=15, unique=True),
       noisy=st.booleans(), weighted=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_free_a0_rss_is_minimal_over_a_grid(mean_gap, a0_share, spans, noisy, weighted, seed):
    # exact tails, or tails with 5% log-normal noise made non-increasing again
    a0_true = a0_share * mean_gap / (1.0 - a0_share)
    cuts = a0_true + mean_gap * np.sort(np.asarray(spans))
    rng = np.random.default_rng(seed)
    p = np.exp(-(cuts - a0_true) / mean_gap)
    if noisy:
        p = np.minimum(np.minimum.accumulate(p * np.exp(rng.normal(0.0, 0.05, p.size))), 1.0)
    weights = rng.uniform(0.1, 2.0, p.size) if weighted else np.ones(p.size)
    data = TailDataset(tuple(cuts), tuple(p), tuple(weights) if weighted else None)
    try:
        result = fit_tail(data)
    except DegenerateFit:
        assert p.max() == p.min()  # noise flattened the whole tail
        return
    hi = float(cuts.min())
    assert 0.0 <= result.a0 <= hi
    log_p = np.log(p)
    grid = _grid_rss(cuts, log_p, weights, np.linspace(0.0, hi, 1000, endpoint=False))
    # slack for float rounding only: relative 1e-12, absolute 1e-20 of sum w ln^2 p
    slack = 1e-12 * grid.min() + 1e-20 * float((weights * log_p ** 2).sum())
    assert result.rss_log <= grid.min() + slack


def test_fit_robust_to_lognormal_noise():
    # multiplicative 5% log-normal noise, 20 points, 100 seeded replications
    truth = 135.0
    cuts = np.linspace(20.0, 1200.0, 20)
    clean = np.exp(-cuts / truth)
    rng = np.random.default_rng(991)
    fits = []
    for _ in range(100):
        noisy = np.minimum(clean * np.exp(rng.normal(0.0, 0.05, cuts.size)), 1.0)
        data = TailDataset(tuple(cuts), tuple(noisy))
        fits.append(fit_tail(data, a0_fixed=0.0).d_over_n)
    fits = np.asarray(fits)
    assert np.all(np.abs(fits - truth) / truth < 0.05)
    assert abs(fits.mean() - truth) < 3.0 * fits.std(ddof=1) / math.sqrt(len(fits))


def test_weighted_fit_uses_weights():
    # one wildly wrong point with weight zero must not move the fit
    dist = make(135.0, 0.0)
    cuts = (10.0, 50.0, 100.0, 200.0)
    p = [dist.tail(a) for a in cuts[:-1]] + [dist.tail(cuts[-1]) * 0.2]
    data = TailDataset(cuts, tuple(p), weights=(1.0, 1.0, 1.0, 0.0))
    result = fit_tail(data, a0_fixed=0.0)
    assert result.d_over_n == pytest.approx(135.0, rel=1e-9)


def test_overlay_columns_and_values():
    text = emit_overlay(None, (100.0, 135.0, 170.0), 0.0, (135.0,))
    lines = text.strip().split("\n")
    assert lines[0] == "a,p_gt_data,tail_100,tail_135,tail_170"
    cells = lines[1].split(",")
    assert float(cells[0]) == 135.0
    assert cells[1] == ""
    assert float(cells[2]) == pytest.approx(math.exp(-1.35), rel=1e-12)
    assert float(cells[3]) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert float(cells[4]) == pytest.approx(math.exp(-135.0 / 170.0), rel=1e-12)


def test_overlay_merges_data_cuts_into_grid():
    data = TailDataset((50.0, 150.0), (0.7, 0.3))
    text = emit_overlay(data, (135.0,), 0.0, (100.0,))
    lines = text.strip().split("\n")
    assert len(lines) == 4  # header + {50, 100, 150}
    by_cut = {float(line.split(",")[0]): line.split(",") for line in lines[1:]}
    assert by_cut[50.0][1] == "0.69999999999999996"
    assert by_cut[100.0][1] == ""
    assert float(by_cut[150.0][2]) == pytest.approx(math.exp(-150.0 / 135.0), rel=1e-12)


def test_overlay_empty_grid_gives_header_only():
    text = emit_overlay(None, (135.0,), 0.0, ())
    assert text == "a,p_gt_data,tail_135\n"


def test_bundled_synthetic_fixture_refits_to_its_parameters():
    from pathlib import Path

    fixture = Path(__file__).resolve().parent.parent / "data" / "synthetic_worker_tails.csv"
    data = load_csv(fixture)
    assert len(data.cuts) == 16
    result = fit_tail(data, a0_fixed=0.0)
    assert result.d_over_n == pytest.approx(135.0, rel=1e-9)
