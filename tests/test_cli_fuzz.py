"""Fuzz the CLI: every input gives exit 0, 1 or 2, never a traceback.

Runs at ``d = 2`` with one sample per family, so each example costs a few
milliseconds.  Hypothesis is derandomized, so the examples are the same on
every run.  An exit of 0 must also mean a real report: rows written, every
one of them asserted, a finite minimum gap, and a finite minimum slack for
every check.  A run on sampled or named channels and matrices must never
exit 1: the bound and the inequalities are theorems, so every such exit is a
false verdict.  Only an input file, which may hold no channel or a matrix a
check cannot take, can fail; a ``--matrix`` file fails by an error alone,
``"check": "error"``, never by a failed inequality, since the four matrix
checks are theorems too.  An input file with an entry that is no JSON number,
or of a wrong JSON shape, is a configuration error, as is a config file with
a key of a wrong JSON type.
"""

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chanent import cli, matcore

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

# from subnormal to huge, with the non-finite and non-positive values
ORDERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=5e-324, max_value=1e-300),
    st.floats(min_value=1e300, max_value=1.7e308),
    st.sampled_from([0.5, 1.0, 2.0, -1.0, 0.0]),
)
ORDER_LISTS = st.lists(ORDERS, min_size=1, max_size=3).map(lambda qs: ",".join(map(repr, qs)))
NAMED = st.builds(
    "named:{}:{}".format,
    st.sampled_from(["identity", "depolarizing", "dephasing", "amplitude-damping", "unitary", "bogus"]),
    st.one_of(st.text(max_size=6), st.sampled_from(["nan", "inf", "-inf", "1e400", "0.5", "1", "-0"])),
)
FAMILIES = st.tuples(
    st.lists(st.sampled_from(["cptp", "unitary-mixture", "unistochastic"]), unique=True, max_size=3),
    st.one_of(st.none(), NAMED),
).map(lambda t: ",".join(t[0] + ([t[1]] if t[1] else [])) or "cptp")


def _matrix(entries):
    return st.lists(entries, min_size=4, max_size=4).map(lambda xs: np.array(xs).reshape(2, 2))


# arbitrary entries, or a scaled identity whose TP defect lies near TP_TOL
KRAUS_SETS = st.one_of(
    st.lists(
        st.tuples(_matrix(st.floats(allow_nan=True, allow_infinity=True)), _matrix(st.floats(-2.0, 2.0))),
        min_size=1,
        max_size=3,
    ).map(lambda ops: [re + 1j * im for re, im in ops]),
    st.floats(-1e-8, 1e-8).map(lambda eps: [(1.0 + eps) * np.eye(2)]),
)

# an entry of an input file: a JSON number, or one numpy alone would read as a number
NUMBERS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(-3, 3))
NOT_NUMBERS = st.one_of(NUMBERS.map(str), st.booleans(), st.none(), st.lists(NUMBERS, max_size=2))


def _entries(base):
    """``base``'s entries, each kept, more often than not, or replaced by a drawn one."""
    return st.tuples(*(
        st.integers(0, 3).flatmap(lambda i, b=b: (st.just(b), st.just(b), NUMBERS, NOT_NUMBERS)[i])
        for b in base
    )).map(list)


def run(argv, codes=(0, 2)):
    """``cli.main`` on ``argv`` in a fresh directory; checks its exit is in ``codes`` and, on 0, its report."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = cli.main([*argv, "--out", str(out)])
        assert code in codes
        if code == 1 and any(arg.startswith("--matrix") for arg in argv):
            assert json.loads((out / "summary.json").read_text())["failure"]["check"] == "error"
        if code == 0:
            summary = json.loads((out / "summary.json").read_text())
            if summary["mode"] == "sweep":
                assert summary["rows"] > 0 and math.isfinite(summary["min_gap"])
            else:
                assert summary["checks"]
                for entry in summary["checks"].values():
                    assert entry["count"] > 0 and math.isfinite(entry["min_slack"])


COMMON = ["--dims", "2", "--samples", "1"]


@FUZZ
@given(q=ORDER_LISTS, s=ORDER_LISTS, family=FAMILIES)
def test_sweep(q, s, family):
    run(["sweep", *COMMON, f"--q={q}", f"--s={s}", f"--family={family}"])


@FUZZ
@given(q=ORDER_LISTS, family=FAMILIES)
def test_inequalities(q, family):
    run(["inequalities", *COMMON, f"--q={q}", f"--family={family}"])


@FUZZ
@given(ops=KRAUS_SETS, q=ORDER_LISTS)
def test_channel_file(ops, q):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "channel.json"
        path.write_text(json.dumps({"dim": 2, "kraus": [matcore.matrix_to_json(a) for a in ops]}))
        run(["sweep", f"--channel={path}", f"--q={q}", "--s=0,1"], codes=(0, 1, 2))


# a config file whose keys each hold a value of their own JSON type that a
# fast run takes, and whether a value is of a key's type (an integer beyond
# the double range is no number)
CONFIG = {"dims": [2], "families": ["cptp"], "samples_per_family": 1, "q_grid": [2.0], "s_grid": [0.0], "seed": 0}


def _number(v):
    return type(v) is float or type(v) is int and abs(v) <= sys.float_info.max


CONFIG_TYPES = {
    "dims": lambda v: type(v) is list and all(type(x) is int for x in v),
    "families": lambda v: type(v) is list and all(type(x) is str for x in v),
    "samples_per_family": lambda v: type(v) is int,
    "q_grid": lambda v: type(v) is list and all(map(_number, v)),
    "s_grid": lambda v: type(v) is list and all(map(_number, v)),
    "seed": lambda v: type(v) is int,
}
# a string, a boolean, null, an object, a nested list, NaN, Infinity and a
# 401-digit integer: each is of a wrong JSON type for some key, or as an entry
ODD = ["2", True, None, {"dims": [2]}, [[2]], math.nan, math.inf, 10**400]


def _config_value(own):
    """``own`` kept, more often than not, or replaced by an odd value, or, for a list, with one appended."""
    odd = st.sampled_from(ODD)
    appended = odd.map(lambda v: [*own, v]) if isinstance(own, list) else odd
    return st.integers(0, 5).flatmap(lambda i: (*[st.just(own)] * 4, odd, appended)[i])


CONFIGS = st.fixed_dictionaries({key: _config_value(own) for key, own in CONFIG.items()})

# wrong shapes of an input file's object: the whole object as a list, a
# string, a number or null, and a channel's Kraus operators as an object, a
# number or a list of lists; a missing key is wrong except in a config
# file, whose keys all have defaults, and an unknown key in a config file alone
TOP_LEVEL = {"list": lambda obj: [obj], "string": json.dumps, "number": lambda obj: 2, "null": lambda obj: None}
KRAUS = {
    "kraus object": lambda ops: ops[0],
    "kraus number": lambda ops: 1,
    "kraus lists": lambda ops: [list(op.values()) for op in ops],
}
SHAPES = st.one_of(st.none(), st.sampled_from([*TOP_LEVEL, *KRAUS, "missing key", "unknown key"]))


def _shaped(obj, shape, drop, config=False):
    """``obj`` in ``shape`` (kept if None), and whether that shape is wrong.

    The missing key is key ``drop`` of ``obj``, counted cyclically;
    ``config`` says whether ``obj`` is a config file's.
    """
    if shape in TOP_LEVEL:
        return TOP_LEVEL[shape](obj), True
    if shape == "missing key":
        key = list(obj)[drop % len(obj)]
        return {k: v for k, v in obj.items() if k != key}, not config
    if shape == "unknown key":
        return {**obj, "tolerances": {"gap": 1e300}}, config
    if shape in KRAUS and "kraus" in obj:
        return {**obj, "kraus": KRAUS[shape](obj["kraus"])}, True
    return obj, False


@FUZZ
@given(re=_entries([1.0, 0.0, 0.0, 1.0]), im=_entries([0.0] * 4), shape=SHAPES, drop=st.integers(0, 5),
       config=CONFIGS)
def test_input_file_entries(re, im, shape, drop, config):
    # the identity with some entries replaced, as a --matrix and as a --channel
    # file, and a fast config whose keys may hold a value of a wrong type, as a
    # --config file, each in its own shape or a wrong one: a wrong shape or
    # type is a config error
    numbers = all(type(entry) in (int, float) for entry in re + im)
    matrix = {"rows": 2, "cols": 2, "re": re, "im": im}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        for command, flag, obj in (("inequalities", "--matrix", matrix),
                                   ("sweep", "--channel", {"dim": 2, "kraus": [matrix]})):
            content, wrong = _shaped(obj, shape, drop)
            path.write_text(json.dumps(content))
            run([command, f"{flag}={path}"], codes=(0, 1, 2) if numbers and not wrong else (2,))
        content, wrong = _shaped(config, shape, drop, config=True)
        wrong = wrong or not all(CONFIG_TYPES[key](value) for key, value in content.items())
        path.write_text(json.dumps(content))
        # sampled channels cannot fail the bound, and an entry of the right
        # type may still be out of range
        run(["sweep", f"--config={path}"], codes=(2,) if wrong else (0, 2))
