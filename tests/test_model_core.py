import copy
import json
import math
import pickle
import re
from dataclasses import FrozenInstanceError, asdict, fields, replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aym import (
    ChainConfig,
    DomainError,
    EconomyParams,
    EmptyLadder,
    InfeasibleDemand,
    NonMonotoneLevels,
    NumericsConfig,
    OccupationVector,
    ParseError,
    PrincipleReport,
    SampleSummary,
    TailDataset,
    closed_form_ladder,
    compare,
    curve_csv,
    emit_overlay,
    enumerate_feasible,
    fit_tail,
    integer_lattice,
    ladder_ratio,
    load_params,
    make,
    make_ladder,
    params_from_json,
    params_to_json,
    run_chain,
    solve_boltzmann,
    solve_generalized,
    validate,
)
from aym import model_core
from aym.discretization_compare import truncation_index
from aym.model_core import _csv_text


def test_validate_accepts_interior_demand():
    p = EconomyParams((1, 2, 3), 3, 6)
    assert validate(p) is p


def test_validate_is_idempotent():
    p = validate(EconomyParams((1, 2, 3), 3, 6))
    assert validate(p) is p


def test_validate_rejects_demand_above_hull():
    with pytest.raises(InfeasibleDemand):
        validate(EconomyParams((1, 2, 3), 3, 10))


def test_validate_rejects_demand_below_hull():
    with pytest.raises(InfeasibleDemand):
        validate(EconomyParams((1, 2, 3), 3, 2.5))


def test_validate_rejects_nonmonotone_levels():
    with pytest.raises(NonMonotoneLevels):
        validate(EconomyParams((2, 1, 3), 3, 6))


def test_validate_rejects_duplicate_levels():
    with pytest.raises(NonMonotoneLevels):
        validate(EconomyParams((1, 1, 3), 3, 6))


def test_nonmonotone_message_names_the_first_falling_pair_of_a_long_ladder():
    levels = [float(i) for i in range(1, 201)]
    levels[-1] = levels[-2]  # only the last pair breaks
    with pytest.raises(NonMonotoneLevels) as info:
        validate(EconomyParams(tuple(levels), 3, 6))
    assert str(info.value) == "levels must be strictly increasing, got 199.0 before 199.0"
    with pytest.raises(NonMonotoneLevels) as info:
        validate(EconomyParams((1.0, math.nan, 0.5, 0.25), 3, 6))
    assert str(info.value) == "levels must be strictly increasing, got 1.0 before nan"


def test_validate_rejects_empty_ladder():
    with pytest.raises(EmptyLadder):
        validate(EconomyParams((), 3, 6))


@pytest.mark.parametrize("boundary_demand", [3.0, 9.0])
def test_boundary_demand_is_valid(boundary_demand):
    # closed-interval feasibility; corners force degenerate occupations
    validate(EconomyParams((1, 2, 3), 3, boundary_demand))


def test_zero_minimum_level_allowed():
    validate(EconomyParams((0, 1), 100, 25))


@pytest.mark.parametrize("n,D", [(0, 6), (-3, 6), (3, 0), (3, -6)])
def test_validate_rejects_nonpositive_totals(n, D):
    with pytest.raises((DomainError, InfeasibleDemand)):
        validate(EconomyParams((1, 2, 3), n, D))


def test_validate_rejects_negative_level():
    with pytest.raises(DomainError):
        validate(EconomyParams((-1, 2, 3), 3, 6))


def test_a0_defaults_to_smallest_level():
    assert EconomyParams((2, 4, 6), 3, 12).a0 == 2.0
    assert EconomyParams((2, 4, 6), 3, 12, a0=0.0).a0 == 0.0


def test_mean_demand():
    assert EconomyParams((1, 2, 3), 4, 10).mean_demand == 2.5


def test_json_round_trip_and_field_names():
    p = EconomyParams((1.5, 2.5), 10, 20, a0=1.5)
    payload = json.loads(params_to_json(p))
    assert set(payload) == {"levels", "n", "D", "a0"}
    assert payload["levels"] == [1.5, 2.5]
    back = params_from_json(params_to_json(p))
    assert back == p


def test_params_from_json_rejects_garbage():
    with pytest.raises(DomainError):
        params_from_json("not json")
    with pytest.raises(DomainError):
        params_from_json('{"levels": [1, 2]}')


# an n or D that float() takes but JSON does not spell as a number; levels not an array
@pytest.mark.parametrize("text", [
    '{"levels": [1, 2, 3], "n": "x", "D": 8}',
    '{"levels": [1, 2, 3], "n": %s, "D": 8}' % ("9" * 400),
    '{"levels": "123", "n": true, "D": "2"}',
    '{"levels": [1, 2, 3], "n": true, "D": 8}',
    '{"levels": [1, "2"], "n": 3, "D": 4}',
    '{"levels": [1, 2], "n": 3, "D": 4, "a0": "0"}',
    '{"levels": [1, 2], "n": 3, "D": 4, "a0": false}',
    '[[1, 2], 3, 4]',
], ids=["n-string", "n-overflows", "levels-string", "n-true", "level-string", "a0-string",
        "a0-false", "not-an-object"])
def test_params_from_json_takes_only_json_numbers(text):
    with pytest.raises(DomainError, match="economy JSON"):
        params_from_json(text)


def test_params_from_json_rejects_unknown_fields():
    # a misspelt a0 would otherwise leave the default a0 in place without a word
    with pytest.raises(DomainError, match='field "A0" is not one of'):
        params_from_json('{"levels": [1, 2, 3], "n": 6, "D": 12, "A0": 5}')


def test_params_from_json_a0_null_is_the_default():
    text = '{"levels": [1, 2, 3], "n": 6, "D": 12, "a0": null}'
    assert params_from_json(text) == EconomyParams((1, 2, 3), 6, 12)


@pytest.mark.parametrize("text", [
    '{"levels": [1, 2, 3], "n": 6, "D": 12}',
    '{\r\n  "levels": [0, 1.5, 2e1],\r\n  "n": 4,\r\n  "D": 30,\r\n  "a0": null\r\n}\r\n',
    '{"D": 9, "a0": 0.5, "n": 3, "levels": [1, 2, 3]}',
], ids=["one-line", "crlf-lines", "fields-reordered"])
def test_load_params_is_params_from_json_on_the_file_text(tmp_path, text):
    path = tmp_path / "economy.json"
    path.write_bytes(text.encode("utf-8"))
    assert load_params(path) == params_from_json(text)


# a byte that is not UTF-8 is named with the file and its line, as load_csv names it
@pytest.mark.parametrize("raw,line", [
    (b'{"levels": [1, 2, 3], "n": 6, "D": \xff9}', 1),
    (b'{\n  "levels": [1, 2, 3],\n  "n": 6,\n  "D": 9, "a0": "\xe9"\n}\n', 4),
    (b'not json\n\n\xc3', 3),  # the byte is reported before the JSON is read
], ids=["byte-ff", "latin-1-line-4", "truncated-after-garbage"])
def test_load_params_rejects_bytes_that_are_not_utf8(tmp_path, raw, line):
    path = tmp_path / "economy.json"
    path.write_bytes(raw)
    with pytest.raises(ParseError, match="not UTF-8 text in") as info:
        load_params(path)
    assert info.value.line == line and str(path) in str(info.value)


# every entry point that takes grid cuts
GRID_ENTRY_POINTS = {
    "curve_csv": lambda grid: curve_csv(make(5.0), grid),
    "emit_overlay": lambda grid: emit_overlay(None, [5.0, 2.0], 0.0, grid),
    "emit_overlay-data": lambda grid: emit_overlay(TailDataset((1.0,), (0.5,)), [5.0], 0.0, grid),
}


@pytest.mark.parametrize("cut", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", sorted(GRID_ENTRY_POINTS))
def test_every_entry_point_rejects_a_non_finite_grid_cut(entry, cut):
    with pytest.raises(DomainError, match=f"grid cuts must be finite, got {cut}"):
        GRID_ENTRY_POINTS[entry]([2.0, cut, 1.0, cut])


# every entry point that takes a minimal productivity (a ladder step for make_ladder)
A0_ENTRY_POINTS = {
    "validate": lambda a0: validate(EconomyParams((1, 2), 10, 15, a0=a0)),
    "ladder_ratio": lambda a0: ladder_ratio(EconomyParams((1, 2), 10, 15, a0=a0), delta_a=1.0),
    "make_ladder": lambda a0: make_ladder(a0, 3, 6, 12),
    "make": lambda a0: make(135, a0),
    "fit_tail": lambda a0: fit_tail(TailDataset((1, 2, 3), (0.5, 0.25, 0.125)), a0_fixed=a0),
}


@pytest.mark.parametrize("a0", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("entry", sorted(A0_ENTRY_POINTS))
def test_every_entry_point_rejects_an_invalid_a0(entry, a0):
    # the error names a0, not the mean or the data it would otherwise be compared with
    with pytest.raises(DomainError, match="a0 must be"):
        A0_ENTRY_POINTS[entry](a0)


# every call that once raised an untyped OverflowError for an int past the float range
PAST_FLOAT_RANGE = 10 ** 400
OVERFLOWING_INT_CALLS = {
    "make": lambda: make(PAST_FLOAT_RANGE),
    "EconomyParams": lambda: EconomyParams((1, 2), PAST_FLOAT_RANGE, 3),
    "make_ladder-n": lambda: make_ladder(1.0, 3, PAST_FLOAT_RANGE, 5),
    "make_ladder-a0": lambda: make_ladder(PAST_FLOAT_RANGE, 3, 4, 5),
    "TailDataset": lambda: TailDataset((1, PAST_FLOAT_RANGE), (0.5, 0.1)),
    "fit_tail": lambda: fit_tail(TailDataset((1, 2, 3), (0.5, 0.25, 0.125)),
                                 a0_fixed=PAST_FLOAT_RANGE),
    "compare": lambda: compare(PAST_FLOAT_RANGE),
    "closed_form_ladder": lambda: closed_form_ladder(PAST_FLOAT_RANGE, 3, 1),
    "ladder_ratio": lambda: ladder_ratio(make_ladder(1.0, 3, 4, 8), delta_a=PAST_FLOAT_RANGE),
    **{f"NumericsConfig-{field}": lambda field=field: NumericsConfig(**{field: PAST_FLOAT_RANGE})
       for field in ("fd_step_theta", "fd_step_x", "quadrature_tol", "grid_span_gaps")},
}


@pytest.mark.parametrize("call", sorted(OVERFLOWING_INT_CALLS))
def test_an_int_past_the_float_range_is_a_domain_error(call):
    with pytest.raises(DomainError, match="is too large for a float"):
        OVERFLOWING_INT_CALLS[call]()


# every integer argument: (the name its error gives, the call that passes value there, a
# valid int, the field that stores it or None); model_core._as_int is the one rule for all
FIBRE_19 = EconomyParams((1, 2, 3, 4, 5), 7, 17)  # 19 feasible vectors, one connected fibre
INT_ARGUMENTS = {
    **{f"ChainConfig-{field}": (field, lambda v, f=field: ChainConfig(**{"steps": 10, f: v}), 1,
                                field) for field in ("steps", "burn_in", "seed", "thin")},
    "NumericsConfig-grid_points": ("grid_points", lambda v: NumericsConfig(grid_points=v), 50,
                                   "grid_points"),
    "SampleSummary-steps": ("steps", lambda v: SampleSummary({(1, 2): 1}, v, 0, "verified"), 3,
                            "steps"),
    "SampleSummary-accepted": ("accepted",
                               lambda v: SampleSummary({(1, 2): 1}, 3, v, "verified"), 1,
                               "accepted"),
    "enumerate_feasible": ("max_vectors",
                           lambda v: enumerate_feasible(FIBRE_19, max_vectors=v), 100, None),
    "run_chain": ("max_enumeration",
                  lambda v: run_chain(FIBRE_19, ChainConfig(10), max_enumeration=v), 100, None),
    "truncation_index": ("i_max", lambda v: truncation_index(10.0, i_max=v), 5, None),
    "compare": ("i_max", lambda v: compare(10.0, i_max=v), 5, None),
    "solve_boltzmann": ("max_iter", lambda v: solve_boltzmann(FIBRE_19, max_iter=v), 200, None),
    "solve_generalized": ("max_iter", lambda v: solve_generalized(FIBRE_19, 0.5, max_iter=v),
                          200, None),
    "make_ladder": ("sector count g", lambda v: make_ladder(1.0, v, 10, 15), 3, None),
}
NOT_INTS = {"True": True, "np.True_": np.bool_(True), "2.0": 2.0, "nan": math.nan,
            "inf": math.inf, "str": "3", "None": None}
NOT_INT_CASES = [pytest.param(argument, value, id=f"{argument}-{label}")
                 for argument in sorted(INT_ARGUMENTS) for label, value in NOT_INTS.items()
                 if not (value is None and INT_ARGUMENTS[argument][0] == "i_max")]  # no cap


@pytest.mark.parametrize("argument,value", NOT_INT_CASES)
def test_every_integer_argument_takes_only_an_int(argument, value):
    name, call, _, _ = INT_ARGUMENTS[argument]
    with pytest.raises(DomainError, match=re.escape(f"{name} must be an int, got {value!r}")):
        call(value)


@pytest.mark.parametrize("argument", sorted(INT_ARGUMENTS))
def test_every_integer_argument_takes_a_numpy_integer_as_its_int(argument):
    _, call, valid, field = INT_ARGUMENTS[argument]
    from_numpy, from_int = call(np.int64(valid)), call(valid)
    assert repr(from_numpy) == repr(from_int)
    if field is not None:
        assert type(getattr(from_numpy, field)) is int and getattr(from_numpy, field) == valid


def test_a_nan_cap_is_refused_not_read_as_a_tiny_one():
    # a nan cap never saturated count_feasible: enumerate_feasible listed 1 of the 19
    # vectors, and run_chain labelled the connected fibre "failed"
    assert len(enumerate_feasible(FIBRE_19).vectors) == 19
    assert run_chain(FIBRE_19, ChainConfig(10)).irreducibility == "verified"
    with pytest.raises(DomainError, match="max_vectors must be an int, got nan"):
        enumerate_feasible(FIBRE_19, max_vectors=math.nan)
    with pytest.raises(DomainError, match="max_enumeration must be an int, got nan"):
        run_chain(FIBRE_19, ChainConfig(10), max_enumeration=math.nan)


# every type model_core._frozen builds in the package; the first test reads the calls
# from the source, so a new call site fails it until its type is listed here
FROZEN_TYPES = {"PrincipleReport": PrincipleReport}


def test_frozen_builds_only_the_listed_types():
    source = "".join(path.read_text(encoding="utf-8")
                     for path in Path(model_core.__file__).parent.glob("*.py"))
    built = re.findall(r"(?<!def )_frozen\(\s*(?:#.*\n\s*)?(\w+)", source)
    assert built and set(built) == set(FROZEN_TYPES)


@pytest.mark.parametrize("name", sorted(FROZEN_TYPES))
def test_a_frozen_instance_is_the_constructors(name):
    cls = FROZEN_TYPES[name]
    assert not hasattr(cls, "__post_init__")  # its __init__ only assigns
    names = [field.name for field in fields(cls)]
    values = [k + 0.25 for k in range(len(names))]
    built, made = model_core._frozen(cls, *values), cls(*values)
    assert type(built) is cls
    assert built == made and hash(built) == hash(made) and repr(built) == repr(made)
    assert asdict(built) == asdict(made) and vars(built) == vars(made)
    assert list(vars(built)) == names
    assert replace(built, **{names[0]: -1.0}) == replace(made, **{names[0]: -1.0})
    assert copy.deepcopy(built) == made
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(built, protocol)) == made
    with pytest.raises(FrozenInstanceError):
        setattr(built, names[0], 0.0)
    with pytest.raises(FrozenInstanceError):
        delattr(built, names[-1])


def test_occupation_vector_total_and_output():
    v = OccupationVector((1, 2, 1))
    assert v.total == 4
    assert v.output((1, 2, 3)) == 8


def test_occupation_vector_rejects_negative_and_fractional():
    with pytest.raises(DomainError):
        OccupationVector((1, -1))
    with pytest.raises(DomainError):
        OccupationVector((1.5, 0))


@pytest.mark.parametrize("count", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_occupation_vector_rejects_a_count_with_no_int_value(count):
    with pytest.raises(DomainError, match=f"occupation counts must be integers, got {count}"):
        OccupationVector((1, count))


def test_occupation_vector_takes_an_integral_float_as_its_int():
    # the rule is an integral value, not an int: a solver's rounded occupations are floats
    counts = OccupationVector((2.0, np.float64(1.0), np.int64(3))).counts
    assert counts == (2, 1, 3) and set(map(type, counts)) == {int}


def test_occupation_vector_output_length_mismatch():
    with pytest.raises(DomainError):
        OccupationVector((1, 2)).output((1, 2, 3))


def test_make_ladder():
    p = make_ladder(2.0, 4, 10, 40)
    assert p.levels == (2.0, 4.0, 6.0, 8.0)
    assert p.a0 == 2.0
    with pytest.raises(DomainError):
        make_ladder(0.0, 4, 10, 40)


def test_ladder_ratio_values():
    lr = ladder_ratio(make_ladder(1.0, 500, 1000, 2000))
    assert lr.r == pytest.approx(2.0)
    assert lr.r_tilde == pytest.approx(2.0)
    assert lr.delta_a == 1.0


def test_ladder_ratio_requires_r_above_one():
    with pytest.raises(DomainError):
        ladder_ratio(make_ladder(2.0, 3, 4, 8))  # D/n = 2 = a0 gives r = 1


def test_ladder_ratio_zero_minimum_needs_bin_width():
    p = EconomyParams((0, 1, 2), 4, 4, a0=0.0)
    with pytest.raises(DomainError):
        ladder_ratio(p)
    lr = ladder_ratio(p, delta_a=0.5)
    assert lr.r is None
    assert lr.r_tilde == pytest.approx(2.0)


def test_integer_lattice_plain_integers():
    units, unit = integer_lattice((1, 2, 3, 8))
    assert units == (1, 2, 3, 8)
    assert unit == 1.0


def test_integer_lattice_fractional_unit():
    units, unit = integer_lattice((0.5, 1.0, 2.5))
    assert units == (1, 2, 5)
    assert unit == pytest.approx(0.5)


def test_integer_lattice_handles_zero_entries():
    units, unit = integer_lattice((0.0, 1.0, 3.0))
    assert units == (0, 1, 3)
    assert unit == 1.0


def test_integer_lattice_rejects_irrational():
    with pytest.raises(DomainError):
        integer_lattice((math.sqrt(2), 1.0))


def test_integer_lattice_rejects_a_tiny_value_off_its_fraction():
    with pytest.raises(DomainError, match="1e-13"):  # not snapped to the fraction 0
        integer_lattice((1e-13, 1.0, 2.0))


def test_integer_lattice_rejects_all_zero():
    with pytest.raises(DomainError):
        integer_lattice((0.0, 0.0))


def _reference_integer_lattice(values):
    """integer_lattice's rule with every value through Fraction.limit_denominator, as it was
    before exact binary fractions took their own ratio."""
    fracs = []
    for x in values:
        x = float(x)
        if not math.isfinite(x):
            raise DomainError(f"lattice values must be finite, got {x}")
        f = Fraction(x).limit_denominator(10**12)
        if abs(float(f) - x) > 1e-9 * abs(x):
            raise DomainError(f"value {x} is not on a recognizable integer lattice")
        fracs.append(f)
    denominator = math.lcm(*(f.denominator for f in fracs))
    scaled = [f.numerator * (denominator // f.denominator) for f in fracs]
    step = math.gcd(*scaled)
    if step == 0:
        raise DomainError("cannot derive a lattice unit from all-zero values")
    units = tuple(k // step for k in scaled)
    if max(abs(u) for u in units) > 10**6:
        raise DomainError("values share no common unit within 1000000 lattice steps")
    return units, float(Fraction(step, denominator))


_lattice_values = st.one_of(
    st.integers(-10**7, 10**7).map(float),
    st.builds(lambda k, j: k / 2**j, st.integers(-10**6, 10**6), st.integers(0, 45)),  # fast path
    st.builds(lambda k, j: round(k / 10**j, j), st.integers(-10**6, 10**6), st.integers(0, 6)),
    st.floats(-1e7, 1e7, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1 / 3, 2**-40, 2**-41, 1e-12, 1e-13, math.inf, math.nan]),
)


@settings(max_examples=2000, deadline=None)
@given(st.lists(_lattice_values, min_size=1, max_size=8))
def test_integer_lattice_equals_the_fraction_rule(values):
    try:
        expected = _reference_integer_lattice(values)
    except DomainError as exc:
        with pytest.raises(DomainError) as info:
            integer_lattice(values)
        assert str(info.value) == str(exc)
    else:
        units, unit = integer_lattice(values)
        assert (units, unit.hex()) == (expected[0], expected[1].hex())


def _reference_csv_text(header, rows):
    """The row-at-a-time CSV writer that the typed _csv_text replaced: a float cell (numpy's
    float64 too) to 17 significant digits, None as an empty cell, anything else by str()."""
    lines = [",".join(header)]
    lines.extend(",".join("" if v is None else f"{v:.17g}" if isinstance(v, float) else str(v)
                          for v in row) for row in rows)
    return "\n".join(lines) + "\n"


FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 5e-324,
                                                 -2.2e-308, 1e308, -1e308]))
# one kind per column, as each table has: its cells and its format
CELLS = {
    "float": (st.one_of(FLOATS, FLOATS.map(np.float64)), "%.17g"),
    "int": (st.one_of(st.integers(-2**70, 2**70), st.just(2**64 + 1)), "%s"),
    "text": (st.text(), "%s"),
    # a float column with empty cells, rendered to text first, as emit_overlay's p_gt_data
    "float or none": (st.one_of(FLOATS, st.none()), "%s"),
}


@st.composite
def _tables(draw):
    """(kinds, rows, columns): rows of one kind per column, and the columns the writer
    is given, some float columns as numpy arrays."""
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(*(CELLS[kind][0] for kind in kinds)), max_size=12))
    columns = [list(column) for column in zip(*rows)] or [[] for _ in kinds]
    for j, kind in enumerate(kinds):
        if kind == "float or none":
            columns[j] = ["" if v is None else "%.17g" % v for v in columns[j]]
        elif kind == "float" and draw(st.booleans()):
            columns[j] = np.array(columns[j], float)
    return kinds, rows, columns


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(table=_tables(), rows_per_chunk=st.integers(1, 5))
def test_csv_text_equals_the_row_writers_text(table, rows_per_chunk):
    kinds, rows, columns = table
    header = [f"c{j}" for j in range(len(kinds))]
    formats = [CELLS[kind][1] for kind in kinds]
    with mock.patch.object(model_core, "_CHUNK_ROWS", rows_per_chunk):
        assert _csv_text(header, columns, formats) == _reference_csv_text(header, rows)
