import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from aym.model_core import _csv_text


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


@pytest.mark.parametrize("raw,line,message", [
    (b"a,p_gt\n10,0.9\n20,0.5,1\n", 3, "expected 2 columns, got 3"),
    (b"a,p_gt,w\n10,0.9,1\n20,0.5,-1\n", 3, "weights must be non-negative"),
    (b"a,p_gt\n10,0.9\n20,0.\xff5\n", 3, "not UTF-8 text in"),
    (b"# r\xe9sum\xe9\na,p_gt\n10,0.9\n", 1, "not UTF-8 text in"),  # Latin-1, in a comment
], ids=["column-count", "negative-weight", "byte-ff", "latin-1-comment"])
def test_load_csv_rejects_malformed_rows(tmp_path, raw, line, message):
    path = tmp_path / "data.csv"
    path.write_bytes(raw)
    with pytest.raises(ParseError, match=message) as info:
        load_csv(path)
    assert info.value.line == line


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


@pytest.mark.parametrize("text", ["a,p_gt\n10,0.9\n20,0.5\n40,0.2\n",
                                  "# weighted\na,p_gt,w\n10,0.9,1\n20,0.5,0\n40,0.2,3\n"],
                         ids=["plain", "weighted"])
def test_load_csv_builds_the_dataset_of_its_columns(tmp_path, text):
    data = load_csv(_write(tmp_path, text))
    built = TailDataset(data.cuts, data.p_gt, data.weights, data.source_label)
    assert (data, hash(data), repr(data)) == (built, hash(built), repr(built))


def test_dataset_invariants():
    with pytest.raises(DomainError):
        TailDataset((1.0, 1.0), (0.5, 0.4))
    with pytest.raises(DomainError):
        TailDataset((1.0, 2.0), (0.4, 0.5))
    with pytest.raises(DomainError):
        TailDataset((1.0,), (0.0,))
    with pytest.raises(DomainError):
        TailDataset((1.0, 2.0), (0.5,))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(rows=st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(1e-9, 1.0), st.floats(0.0, 10.0)),
                     min_size=1, max_size=6),
       ordered=st.booleans(), weighted=st.booleans(),
       odd=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2),
                              st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 1.5])),
                    max_size=2))
def test_load_csv_accepts_exactly_the_rows_the_dataset_accepts(tmp_path_factory, rows, ordered,
                                                               weighted, odd):
    cuts, p_gt, weights = (list(column) for column in zip(*rows))
    if ordered:  # rising cuts and falling tails, so only the odd values can spoil the rows
        cuts.sort()
        p_gt.sort(reverse=True)
    for row, column, value in odd:
        (cuts, p_gt, weights)[column][row % len(cuts)] = value
    columns = (cuts, p_gt, weights) if weighted else (cuts, p_gt)
    text = _csv_text(("a", "p_gt", "w")[:len(columns)], columns, ("%.17g",) * len(columns))
    path = tmp_path_factory.getbasetemp() / "rows.csv"
    path.write_text(text, encoding="utf-8")
    try:
        data = TailDataset(cuts, p_gt, weights if weighted else None)
    except DomainError:
        data = None
    try:
        loaded = load_csv(path)
    except ParseError:
        loaded = None
    assert (loaded is None) == (data is None), text
    if data is not None:  # the rows' text is save_csv's, so this is its round trip
        assert save_csv(data) == text
        assert (loaded.cuts, loaded.p_gt, loaded.weights) == (data.cuts, data.p_gt, data.weights)


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


# each way fit_tail finds the data cannot pin a decaying tail
@pytest.mark.parametrize("cuts,p_gt,weights,a0,message", [
    # zero weight on every point above a0: the slope's denominator is zero
    ((1.0, 2.0, 3.0), (0.5, 0.25, 0.125), (0.0, 0.0, 0.0), 0.0, "not enough points above a0"),
    ((1.0, 2.0, 3.0), (0.5, 0.25, 0.125), None, 2.5, "not enough points above a0"),
    ((1.0, 2.0, 3.0), (0.5, 0.25, 0.125), (0.0, 0.0, 0.0), None, "all weights are zero"),
    ((1.0, 2.0, 3.0), (0.5, 0.25, 0.125), (1.0, 0.0, 0.0), None, "two distinct cuts"),
    # the one decaying point has zero weight, so the fitted slope is 0
    ((1.0, 2.0, 3.0), (1.0, 1.0, 0.5), (1.0, 1.0, 0.0), 0.0, "tail does not decay"),
], ids=["zero-denominator", "one-point-above-a0", "zero-weights", "one-weighted-cut",
        "no-decay"])
def test_fit_rejects_degenerate_data(cuts, p_gt, weights, a0, message):
    with pytest.raises(DegenerateFit, match=message):
        fit_tail(TailDataset(cuts, p_gt, weights), a0_fixed=a0)


@pytest.mark.parametrize("smallest_cut", [0.0, -5.0])
def test_free_a0_falls_back_to_zero_below_a_non_positive_cut(smallest_cut):
    data = TailDataset((smallest_cut, 10.0, 20.0, 40.0), (1.0, 0.6, 0.3, 0.1))
    assert fit_tail(data) == fit_tail(data, a0_fixed=0.0)


def test_dataset_weights_must_match_the_points():
    with pytest.raises(DomainError, match="weights must match"):
        TailDataset((1.0, 2.0), (0.5, 0.25), weights=(1.0,))


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
# two spans one ulp apart: at mean gap 1 they round to one cut, and at this gap the two
# cuts and the two tail values each lie one ulp apart, so the line's float slope is 0
@example(mean_gap=1.0, a0_share=0.5, spans=[0.010000000000000002, 0.01], noisy=False,
         weighted=False, seed=0)
@example(mean_gap=25.534474827391833, a0_share=0.5, spans=[0.010000000000000002, 0.01],
         noisy=False, weighted=False, seed=0)
def test_free_a0_rss_is_minimal_over_a_grid(mean_gap, a0_share, spans, noisy, weighted, seed):
    # exact tails, or tails with 5% log-normal noise made non-increasing again
    a0_true = a0_share * mean_gap / (1.0 - a0_share)
    cuts = a0_true + mean_gap * np.sort(np.asarray(spans))
    for j in range(1, cuts.size):  # spans that round to one cut: lift it to the next float
        cuts[j] = max(cuts[j], np.nextafter(cuts[j - 1], np.inf))
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


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(cuts=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=6,
                     unique=True),
       tails=st.lists(st.floats(5e-324, 1.0), min_size=6, max_size=6),
       weights=st.none() | st.lists(st.floats(0.0, 1.7976931348623157e308), min_size=6,
                                    max_size=6),
       a0=st.none() | st.floats(0.0, 1e300), min_p_gt=st.sampled_from([0.0, 1e-6]))
# weights near the float maximum, whose sums overflow; a slope near 1e-316, whose D/n does
@example(cuts=[1.0, 2.0], tails=[0.5, 0.25] + [1.0] * 4, weights=[1e308] * 6, a0=None,
         min_p_gt=1e-6)
@example(cuts=[1e300, 1.5e300], tails=[0.9999999999999999, 0.9999999999999998] + [1.0] * 4,
         weights=[5e-324] * 6, a0=0.0, min_p_gt=1e-6)
def test_any_finite_tail_fits_to_finite_floats_or_a_typed_error(cuts, tails, weights, a0,
                                                                  min_p_gt):
    cuts = sorted(cuts)
    p_gt = sorted(tails[:len(cuts)], reverse=True)
    data = TailDataset(tuple(cuts), tuple(p_gt),
                       None if weights is None else tuple(weights[:len(cuts)]))
    try:
        result = fit_tail(data, a0_fixed=a0, min_p_gt=min_p_gt)
    except DegenerateFit:
        return
    assert all(map(math.isfinite, (result.d_over_n, result.a0, result.rss_log))), result


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


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(values=st.lists(st.floats(1.5, 1e3), min_size=1, max_size=4, unique=True),
       a0=st.sampled_from([0.0, 1.0]),
       cuts=st.lists(st.one_of(st.floats(-10.0, 1e6), st.sampled_from([0.0, 1.0, 1e6])),
                     max_size=30))
def test_overlay_tail_columns_equal_scalar_evaluation(values, a0, cuts):
    # cuts below a0, at a0, and up to 1e6, past 745 mean gaps for every D/n <= 1e3,
    # where exp underflows to zero
    lines = emit_overlay(None, values, a0, cuts).split("\n")[1:-1]
    dists = [make(v, a0) for v in sorted(values)]
    assert len(lines) == len(set(cuts))
    for line, a in zip(lines, sorted(set(cuts))):
        cells = line.split(",")
        assert cells[:2] == [f"{a:.17g}", ""]
        assert cells[2:] == [f"{dist.tail(a):.17g}" for dist in dists]


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
