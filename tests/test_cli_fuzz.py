"""Fuzz the CLI: every input gives exit 0, 1 or 2, never a traceback.

Runs at ``d = 2`` with one sample per family, so each example costs a few
milliseconds.  Hypothesis is derandomized, so the examples are the same on
every run.  An exit of 0 must also mean a real report: rows written, a
finite minimum gap, and a finite minimum slack for every check.
"""

import json
import math
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


def run(argv):
    """``cli.main`` on ``argv`` in a fresh directory; checks its exit and, on 0, its report."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = cli.main([*argv, "--out", str(out)])
        assert code in (0, 1, 2)
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
        run(["sweep", f"--channel={path}", f"--q={q}", "--s=0,1"])
