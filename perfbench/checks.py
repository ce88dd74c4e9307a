"""Correctness checks on the files one ``chanent`` run writes.

Three kinds of check, none of which compares bytes across environments:

* ``compare_to_reference``: ``report.csv`` and ``summary.json`` against a
  reference written at a trusted commit, cell by cell, numbers within
  ``REL_TOL`` (relative, floored at magnitude 1 so values at rounding level
  near zero compare absolutely) and everything else exactly;
* ``check_sweep`` / ``check_inequalities``: the output of one run at the
  benchmark's own seed is complete and self-consistent, and its bound
  columns match the paper's formula evaluated independently here;
* byte identity of reruns in one environment, done by the caller.

Each function returns a list of problems; an empty list means the check
passed.
"""

from __future__ import annotations

import csv
import io
import json
import math

REL_TOL = 1e-12
# The paper's formula and chanent's expm1 form differ by rounding only.
BOUND_REL_TOL = 1e-9
# Defaults the CLI applies when a config names no tolerance.
GAP_TOL = 1e-9
SAT_TOL = 1e-7
LIMIT_EPS = 1e-8

CSV_COLUMNS = [
    "channel_id", "family", "dim", "unital", "q", "s", "map_entropy",
    "receiver_entropy", "sum", "bound_all", "bound_unital", "gap", "saturated",
]
NUMERIC_COLUMNS = {
    "q", "s", "map_entropy", "receiver_entropy", "sum", "bound_all", "bound_unital", "gap",
}
CHECK_NAMES = ("prop1", "21in", "upkp", "npqr", "sups", "cbn0")


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    if math.isnan(a) or math.isnan(b):
        return False
    if a == b:
        return True
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def num(text: str) -> float:
    """The number a CSV cell holds, or NaN (which compares unequal to all)."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def parse_csv(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


def compare_to_reference(files: dict, reference: dict) -> list[str]:
    """Compare run outputs with reference outputs, both ``{filename: bytes}``."""
    problems = []
    if set(files) != set(reference):
        return [f"output files {sorted(files)} differ from reference files {sorted(reference)}"]
    if "report.csv" in files:
        problems += _compare_csv(parse_csv(files["report.csv"]), parse_csv(reference["report.csv"]))
    if "summary.json" in files:
        try:
            got, want = json.loads(files["summary.json"]), json.loads(reference["summary.json"])
        except ValueError as exc:
            return problems + [f"summary.json does not parse: {exc}"]
        problems += _compare_json(got, want, "summary")
    return problems


def _compare_csv(got: list, want: list) -> list[str]:
    if len(got) != len(want):
        return [f"report.csv has {len(got) - 1} rows, reference has {len(want) - 1}"]
    if got[0] != want[0]:
        return [f"report.csv header {got[0]} differs from reference {want[0]}"]
    header = want[0]
    problems = []
    for line, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=2):
        for col, g, w in zip(header, g_row, w_row):
            if g == w:
                continue
            if col in NUMERIC_COLUMNS and close(num(g), num(w)):
                continue
            problems.append(f"report.csv line {line} column {col}: {g!r} != reference {w!r}")
            if len(problems) >= 10:
                return problems
    return problems


def _compare_json(got, want, where: str) -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"]
        return [p for key in sorted(want) for p in _compare_json(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != reference {want!r}"]
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in _compare_json(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return [] if close(float(got), want) else [f"{where}: {got!r} != reference {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{where}: {got!r} != reference {want!r}"]


def paper_bound(d: int, q: float, s: float, unital: bool) -> float:
    """The trade-off lower bound, written from the paper's formula.

    ``(gamma/s) ln_q(d**(f s kappa/gamma))`` with ``f = 2`` for unital
    channels; ``f kappa ln d`` on the ``s = 0`` row and ``f ln d`` on the
    ``q = 1`` row.
    """
    f = 2.0 if unital else 1.0
    if abs(q - 1.0) <= LIMIT_EPS:
        return f * math.log(d)
    kappa = 1.0 if q <= 2.0 else q / (2.0 * (q - 1.0))
    if abs(s) <= LIMIT_EPS:
        return f * kappa * math.log(d)
    gamma = 1.0 if (1.0 - q) * s < 0.0 else 2.0
    x = float(d) ** (f * s * kappa / gamma)
    return gamma / s * (x ** (1.0 - q) - 1.0) / (1.0 - q)


def check_sweep(files: dict, spec: dict) -> list[str]:
    """A sweep's report is complete, ordered, consistent and within the bound.

    ``spec`` gives the run's ``dims``, ``families``, ``samples``, ``q_grid``
    and ``s_grid``.
    """
    rows = parse_csv(files["report.csv"])
    if not rows or rows[0] != CSV_COLUMNS:
        return [f"report.csv header {rows[0] if rows else None} != {CSV_COLUMNS}"]
    cells = [(q, s) for q in spec["q_grid"] for s in spec["s_grid"]]
    expected = [
        (f"{fam}-d{d}-{i:04d}", d) for d in spec["dims"] for fam in spec["families"]
        for i in range(spec["samples"])
    ]
    body = rows[1:]
    if len(body) != len(expected) * len(cells):
        return [f"report.csv has {len(body)} rows, expected {len(expected) * len(cells)}"]
    problems = []
    for n, row in enumerate(body):
        rec = dict(zip(CSV_COLUMNS, row))
        channel_id, d = expected[n // len(cells)]
        q, s = cells[n % len(cells)]
        unital = rec["unital"] == "true"
        m, r, total, gap, bound_all = (
            num(rec[k]) for k in ("map_entropy", "receiver_entropy", "sum", "gap", "bound_all")
        )
        applicable = num(rec["bound_unital"]) if unital else bound_all
        limit_row = abs(q - 1.0) <= LIMIT_EPS
        errors = []
        if rec["channel_id"] != channel_id or rec["dim"] != str(d):
            errors.append(f"channel {rec['channel_id']} dim {rec['dim']}, expected {channel_id} dim {d}")
        if not close(num(rec["q"]), q) or not close(num(rec["s"]), s):
            errors.append(f"cell ({rec['q']}, {rec['s']}), expected ({q}, {s})")
        if (rec["bound_unital"] != "") != unital:
            errors.append("bound_unital present iff the channel is unital")
        if not all(math.isfinite(v) for v in (m, r, total, gap, bound_all, applicable)):
            errors.append("non-finite value")
        elif not close(total, m + r) or not close(gap, total - applicable):
            errors.append("sum or gap inconsistent with its parts")
        elif not close(bound_all, paper_bound(d, q, s, False), BOUND_REL_TOL) or (
            unital and not close(applicable, paper_bound(d, q, s, True), BOUND_REL_TOL)
        ):
            errors.append("bound differs from the paper's formula")
        elif gap < -GAP_TOL and not limit_row:
            errors.append(f"bound violated by {-gap:.3e}")
        if (rec["saturated"] == "true") != (gap <= SAT_TOL):
            errors.append("saturated flag disagrees with the gap")
        if errors:
            problems.append(f"report.csv line {n + 2}: {'; '.join(errors)}")
            if len(problems) >= 10:
                break
    try:
        summary = json.loads(files["summary.json"])
    except ValueError as exc:
        return problems + [f"summary.json does not parse: {exc}"]
    if summary.get("rows") != len(body) or summary.get("violations") != 0:
        problems.append(f"summary rows/violations {summary.get('rows')}/{summary.get('violations')}")
    return problems


def inequality_count(summary: dict) -> int:
    """Checks run, read from ``summary.json``."""
    return sum(int(entry.get("count", 0)) for entry in summary.get("checks", {}).values())


def check_inequalities(files: dict, spec: dict) -> list[str]:
    """Every check ran as often as the config implies and passed."""
    try:
        summary = json.loads(files["summary.json"])
    except ValueError as exc:
        return [f"summary.json does not parse: {exc}"]
    n = len(spec["dims"]) * spec["samples"]
    anti_orders = [q for q in spec["q_grid"] if 0.0 < q < 1.0] or [0.5]
    channel_families = [f for f in spec["families"] if f in ("cptp", "unitary-mixture", "unistochastic")]
    expected = {
        "prop1": n * len(spec["q_grid"]),
        "21in": n,
        "npqr": n * 3,
        "sups": n * len(anti_orders),
        "upkp": n * len(channel_families),
        "cbn0": n * len(channel_families),
    }
    problems = []
    if summary.get("failure") is not None:
        problems.append(f"suite reported failure {summary['failure']}")
    checks = summary.get("checks", {})
    for name in CHECK_NAMES:
        entry = checks.get(name)
        if entry is None:
            problems.append(f"check {name} missing")
            continue
        if entry.get("count") != expected[name]:
            problems.append(f"check {name} ran {entry.get('count')} times, expected {expected[name]}")
        slack = entry.get("min_slack")
        if not entry.get("passed") or not isinstance(slack, (int, float)) or not math.isfinite(slack):
            problems.append(f"check {name} did not pass (min slack {slack!r})")
    return problems
