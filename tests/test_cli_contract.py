"""The CLI contract over generated argvs, run in process through cli.main.

For every argv: main returns or raises SystemExit, the exit code is 0, 2, 3
or 64, stderr holds no traceback, stdout is empty unless the run succeeded,
a succeeding JSON report parses, and every float in it is finite.

Each subcommand draws its flags from a grammar of numbers, comma lists,
-1e-3, +-inf, nan and malformed tokens, and its --data and --params-json
paths from a pool of files: valid, not UTF-8, malformed and missing.  The
size flags (--steps, --cap, --grid-points, the --linspace count, --i-max),
and the worker count of sample and enumerate, are drawn from small values so
that every run is quick.  So this test cannot find a hang that only a large
size causes; a run that outlives a 20 s alarm fails it.
"""

import contextlib
import io
import json
import math
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aym.cli import OUTPUT_DIR_ENV, main

NUMBERS = ["0", "1", "2", "3", "2.5", "6", "8", "9", "12", "135", "-1", "-1e-3", "1e-300",
           "5e-324", "1e300", "inf", "-inf", "nan", "-nan"]
MALFORMED = ["", "x", "1e", "--", "-x", "1,,2", "0x10", "1;2", "--nope"]
LISTS = ["1,2,3", "0,1,2", "1,2,4,7,8", "3,2,1", "1,1", "1,inf", "nan,1", "-1,2", "1,2,3,",
         "135", "10,100", "1e-3,1e300", "-1e-3"]
SMALL = ["0", "1", "2", "3", "5", "7", "-1", "2.5"]  # the size flags
INTEGERS = ["0", "1", "2", "7", "-1", "12345678901234567890"]  # --seed, --burn-in
SMALL_N = ["0", "1", "2", "3", "4", "6", "2.5", "-1", "nan"]  # sample/enumerate worker counts
# economies that solve, sample and enumerate, before a drawn value spoils one of them
ECONOMIES = [("1,2,3", "4", "8"), ("1,2,3", "6", "9"), ("1,2,4,7,8", "6", "25"),
             ("0,1,2", "3", "3"), ("1,2,3", "16", "42.6142"), ("2,5", "2", "7")]


def _mostly(good, bad=MALFORMED):
    """A token from good, or one time in ten one from bad."""
    return st.integers(0, 9).flatmap(lambda k: st.sampled_from(good if k else bad))


VALUE = _mostly(NUMBERS)
NUMBER_LIST = _mostly(LISTS + NUMBERS)
SIZE = _mostly(SMALL)

# the file pool: name -> contents, None for a path that does not exist
FILES = {
    "tails.csv": b"# worker tails\na,p_gt\n10,0.93\n100,0.48\n300,0.11\n",
    "weighted.csv": b"a,p_gt,w\n1,0.5,1\n2,0.25,0\n4,0.0625,2\n",
    "not-utf8.csv": b"a,p_gt\n1,0.5\n2,0.\xff2\n",
    "bad-header.csv": b"cut,prob\n1,0.5\n",
    "inf-cut.csv": b"a,p_gt\n1,0.5\ninf,0.1\n",
    "rising.csv": b"a,p_gt\n1,0.2\n2,0.5\n",
    "empty.csv": b"# nothing\na,p_gt\n",
    "economy.json": b'{"levels": [1, 2, 3], "n": 4, "D": 8}',
    "edge.json": b'{"levels": [1, 2, 3], "n": 4, "D": 12, "a0": null}',
    "not-utf8.json": b'{"levels": [1, 2, 3], "n": 4, "D": \xff8}',
    "malformed.json": b'{"levels": [1, 2, 3], "n": "4", "D": 8, "A0": 1}',
    "truncated.json": b'{"levels": [1, 2',
    "missing": None,
}
POOL = "{pool}"  # stands for the pool directory in a drawn argv


def _path(suffix):
    """A pool file with the suffix, or one time in ten any pool path: a file of the other
    kind, the missing one, or the pool directory itself ("")."""
    names = [name for name in FILES if name.endswith(suffix)]
    return _mostly(names, [*FILES, ""]).map(lambda name: f"{POOL}/{name}")


def _flag(flag, value=None):
    """The tokens of one flag: the flag, then its drawn value(s); a switch without value."""
    if value is None:
        return st.just((flag,))
    return value.map(lambda v: (flag, *v) if isinstance(v, tuple) else (flag, v))


@st.composite
def _economy(draw, n_values):
    """--params-json with a pool file, or --levels, --n, --D (and --a0) of a good economy
    with one value drawn in its place half the time."""
    if draw(st.integers(0, 2)) == 0:
        return ("--params-json", draw(_path(".json")))
    levels, n, demand = draw(st.sampled_from(ECONOMIES))
    tokens = {"--levels": levels, "--n": n, "--D": demand}
    if draw(st.booleans()):
        flag = draw(st.sampled_from(["--levels", "--n", "--D", "--a0"]))
        tokens[flag] = draw({"--levels": NUMBER_LIST, "--n": n_values}.get(flag, VALUE))
    return tuple(token for pair in tokens.items() for token in pair)


ECONOMY = _economy(VALUE)
SMALL_ECONOMY = _economy(_mostly(SMALL_N))
GRID = [_flag("--grid", NUMBER_LIST), _flag("--linspace", st.tuples(VALUE, VALUE, SIZE))]
# each subcommand: the flags it needs, then the optional ones
SUBCOMMANDS = {
    "solve": ([ECONOMY], [_flag("--tol", VALUE)]),
    "generalized": ([ECONOMY, _flag("--c", VALUE)], [_flag("--tol", VALUE)]),
    "epi": ([_flag("--mean-demand", VALUE), GRID[0]], [_flag("--a0", VALUE), GRID[1]]),
    "verify": ([_flag("--mean-demand", VALUE)],
               [_flag("--a0", VALUE), _flag("--fd-step-theta", VALUE), _flag("--fd-step-x", VALUE),
                _flag("--quadrature-tol", VALUE), _flag("--grid-points", SIZE),
                _flag("--grid-span", VALUE),
                _flag("--format", st.sampled_from(["json", "table", "csv"]))]),
    "compare": ([_flag("--r", NUMBER_LIST)], [_flag("--i-max", SIZE)]),
    "sample": ([SMALL_ECONOMY, _flag("--steps", SIZE)],
               [_flag("--burn-in", _mostly(INTEGERS)), _flag("--seed", _mostly(INTEGERS)),
                _flag("--thin", SIZE),
                _flag("--format", st.sampled_from(["json", "csv", "table"]))]),
    "enumerate": ([SMALL_ECONOMY], [_flag("--cap", SIZE),
                                    _flag("--format", st.sampled_from(["json", "csv"]))]),
    "fit": ([_flag("--data", _path(".csv"))],
            [_flag("--a0", VALUE), _flag("--fit-a0"), _flag("--min-p-gt", VALUE)]),
    "overlay": ([_flag("--d-over-n", NUMBER_LIST), GRID[0]],
                [_flag("--data", _path(".csv")), _flag("--a0", VALUE), GRID[1]]),
}
# relative --output paths, under $AYM_OUTPUT_DIR; "" is that directory itself
OUTPUT = _flag("--output", st.sampled_from(["out.txt", "nested/out.json", ""]))
JSON_ONLY = {"solve", "generalized", "fit"}  # and verify, sample, enumerate by default


@st.composite
def argvs(draw):
    """A subcommand, nearly always its needed flags, some optional ones, in any order."""
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    needed, optional = SUBCOMMANDS[name]
    groups = [draw(flag) for flag in needed if draw(st.integers(0, 15))]
    groups += [draw(flag) for flag in [*optional, OUTPUT] if draw(st.integers(0, 2)) == 0]
    return [name, *(token for group in draw(st.permutations(groups)) for token in group)]


class _Hang(BaseException):
    """A run outlived its alarm (a BaseException, so main's handlers cannot catch it)."""


def _alarm(signum, frame):
    raise _Hang()


@pytest.fixture(scope="module")
def pool(tmp_path_factory):
    """The input file pool, with $AYM_OUTPUT_DIR pointing at a directory inside it."""
    root = tmp_path_factory.mktemp("contract")
    for name, raw in FILES.items():
        if raw is not None:
            (root / name).write_bytes(raw)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(OUTPUT_DIR_ENV, str(root / "out"))
        yield root


def _run(argv, seconds=20.0):
    """main(argv) as (exit code, stdout, stderr); a failure if it runs past the alarm."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    except _Hang:
        pytest.fail(f"no exit within {seconds} s: {argv}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def _numbers(payload):
    """Every number in a parsed JSON value."""
    if isinstance(payload, dict):
        payload = list(payload.values())
    if isinstance(payload, list):
        return [x for item in payload for x in _numbers(item)]
    return [payload] if isinstance(payload, (int, float)) and not isinstance(payload, bool) else []


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(drawn=argvs())
def test_every_argv_keeps_the_exit_code_contract(pool, drawn):
    argv = [token.replace(POOL, str(pool)) for token in drawn]
    code, out, err = _run(argv)
    assert code in (0, 2, 3, 64), (argv, code, err)
    assert "Traceback" not in err, argv
    if code != 0:
        assert out == "", argv
        return
    if "--output" in argv:
        assert out == "", argv
        out = (pool / "out" / argv[argv.index("--output") + 1]).read_text(encoding="utf-8")
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    if argv[0] in JSON_ONLY or fmt == "json" and argv[0] in ("verify", "sample", "enumerate"):
        # json.loads takes NaN and Infinity, which are not JSON; ints are exact and finite
        floats = [x for x in _numbers(json.loads(out)) if isinstance(x, float)]
        assert all(map(math.isfinite, floats)), (argv, out)
    elif fmt != "table":  # a CSV table: a header, and as many cells in every row
        rows = out.splitlines()
        assert rows and all(row.count(",") == rows[0].count(",") for row in rows), argv
