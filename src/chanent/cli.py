"""Command-line harness: sample channels, sweep entropy orders, verify bounds.

``chanent sweep`` samples channels per family and dimension (or loads one
channel with ``--channel``), evaluates the trade-off bound on every cell of
the (q, s) grid and writes ``report.csv`` plus ``summary.json`` into the
output directory.  ``chanent inequalities`` drives the norm and anti-norm
checks over random matrices and sampled channels and reports per-check
minimum slack.

Exit codes: 0 all cells/checks pass, 1 a bound or check failed (the
offending channel or matrix is serialized under ``counterexamples/``),
2 configuration errors.

Runs are deterministic end to end: per-sample seeds derive from the base
seed and the sample address, and output rows are ordered by
(dimension, family, sample, q, s) regardless of evaluation order, so a
repeated run reproduces ``report.csv`` byte for byte.

Both harnesses draw their population in stacks (see :mod:`chanent.sampler`)
of consecutive indices of one dimension, and one family for channels, and
evaluate each stack as drawn.  A stack is bounded by memory alone: it holds
as many inputs as keep the largest array it builds per input within
``STACK_ENTRIES`` entries in all, so a population of small inputs is one
stack, and the stacks of a large one keep memory flat in its size.

Both harnesses profile each channel stack, the Kraus array it was drawn
as, with :func:`~chanent.channel.profile_channel`: one batched build of
``D``, one decomposition per spectrum and one ``Tr_2 D`` per stack.  A
``--channel`` file is a stack of one, and a counterexample is written from
its channel's row of the stack.

A sweep stacks the channels of one (dimension, family) and evaluates each
profile in one grid pass, against bounds tabulated once per dimension.  Its
first error is the one a loop over the channels would meet first; a
violation on a channel inside a stack writes every row of the channels
before it, and an error leaves no ``report.csv``.  ``report.csv`` is
written as each stack is evaluated, channel by channel, each row one
pre-formatted line: the channel columns go through :mod:`csv` once per
channel (a ``--channel`` file name may need quoting), the orders and bounds
are formatted once per dimension, and only the entropies, sum and gap once
per row.

The inequality suite runs each check once per stack at all of its orders;
the two channel checks share one profile per stack.  The first failure is
named in the order of a loop over inputs with the orders inside, and only
that input is serialized.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import channel as chmod
from . import matcore, sampler, spectra
from .channel import profile_channel
from .errors import BoundViolation, DomainError, ParamOutOfRangeError, UnknownChannelError
from .tradeoff import BoundTable, TradeoffReport, bound_table, evaluate_profile

__all__ = ["SweepConfig", "ConfigError", "run_sweep", "run_inequality_suite", "main"]

DEFAULT_SEED = 20250101
DEFAULT_OUT = "chanent-out"

CSV_COLUMNS = [
    "channel_id",
    "family",
    "dim",
    "unital",
    "q",
    "s",
    "map_entropy",
    "receiver_entropy",
    "sum",
    "bound_all",
    "bound_unital",
    "gap",
    "saturated",
]

CHECK_NAMES = ("prop1", "21in", "upkp", "npqr", "sups", "cbn0")
# The checks that run on sampled channels rather than on matrices.
CHANNEL_CHECKS = ("upkp", "cbn0")
# Most matrix entries one stack holds, in the sweep and in the inequality
# suite, counted per input as the entries of the largest array the stack
# builds for it: an input matrix (d**2) in the suite, a channel's D or K
# (d**4) in both, and in a sweep also the grid kernel's (n_q, d**2) and
# (n_q, n_s) arrays.  On the default grid that is 1040 channels per stack at
# d = 2, 809 at d = 3, 256 at d = 4, 16 at d = 8 and one at d = 16, where a
# stack of four would hold about 20 MB of D, K and decomposition workspace.
STACK_ENTRIES = 2**16


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending value."""


@dataclass(frozen=True)
class SweepConfig:
    """Sweep parameters; every field has a default so a bare run works.

    The verdict tolerances are not among them: a violation is a gap below
    ``tradeoff.GAP_TOL`` and saturation a gap up to ``tradeoff.SAT_TOL``,
    the same for every run.
    """

    dims: tuple = (2, 3)
    families: tuple = ("cptp", "unitary-mixture", "unistochastic")
    samples_per_family: int = 50
    q_grid: tuple = (0.3, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0, 5.0)
    s_grid: tuple = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
    seed: int = DEFAULT_SEED


def validate_config(cfg: SweepConfig) -> SweepConfig:
    if not cfg.dims:
        raise ConfigError("dims must be nonempty")
    for d in cfg.dims:
        if not (2 <= int(d) <= chmod.MAX_DIM):
            raise ConfigError(f"dimension {d} outside the supported range [2, {chmod.MAX_DIM}]")
    if not cfg.families:
        raise ConfigError("families must be nonempty")
    for fam in cfg.families:
        if fam.startswith("named:"):
            for d in cfg.dims:  # a named family is one channel per dimension: build it now
                try:
                    sampler.named_family_channel(fam, int(d))
                except (UnknownChannelError, ParamOutOfRangeError) as exc:
                    raise ConfigError(f"family {fam!r} at dimension {d}: {exc}") from exc
        elif fam not in sampler.FAMILY_CODES:
            raise ConfigError(f"unknown family {fam!r}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.samples_per_family < 1:
        raise ConfigError(f"samples_per_family must be >= 1, got {cfg.samples_per_family}")
    if not cfg.q_grid or not cfg.s_grid:
        raise ConfigError("q_grid and s_grid must be nonempty")
    for q in cfg.q_grid:
        if not (math.isfinite(float(q)) and float(q) > 0.0):
            raise ConfigError(f"entropy order q must be finite and > 0, got {q}")
    for s in cfg.s_grid:
        if not math.isfinite(float(s)):
            raise ConfigError(f"entropy order s must be finite, got {s}")
    # a repeated entry would evaluate, and write, the same rows twice
    for key in ("dims", "families", "q_grid", "s_grid"):
        values = getattr(cfg, key)
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ConfigError(f"{key} repeats {repeated[0]!r}")
    return cfg


# Expected JSON type of each config-file key, and of its members if any.
_NUMBER = (int, float)
_CONFIG_TYPES = {
    "dims": (list, int, "a list of integers"),
    "families": (list, str, "a list of strings"),
    "samples_per_family": (int, None, "an integer"),
    "q_grid": (list, _NUMBER, "a list of numbers"),
    "s_grid": (list, _NUMBER, "a list of numbers"),
    "seed": (int, None, "an integer"),
}


def _is(value, kind) -> bool:
    # bool is an int subclass, but true/false is no count, seed or order
    return isinstance(value, kind) and not isinstance(value, bool)


def config_from_file(path) -> SweepConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"could not read config file {str(path)!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("a config file must hold one JSON object")
    unknown = set(raw) - set(_CONFIG_TYPES)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in raw.items():
        kind, member, expected = _CONFIG_TYPES[key]
        if not (_is(value, kind) and (member is None or all(_is(v, member) for v in value))):
            raise ConfigError(f"config key {key!r} must be {expected}, got {value!r}")
        if member is not None:
            raw[key] = tuple(value)
    return SweepConfig(**raw)


def _stack_size(entries: int) -> int:
    """Most inputs of ``entries`` matrix entries each that one stack holds."""
    return max(1, STACK_ENTRIES // entries)


def _load_input(load, path, what: str):
    """``load(path)``, with an unreadable, malformed or invalid file as a ConfigError."""
    try:
        return load(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"could not load {what} file {str(path)!r}: {exc}") from exc


def _load_matrix(path):
    with open(path, encoding="utf-8") as fh:
        return matcore.matrix_from_json(json.load(fh))


def _bound_cells(bounds: BoundTable) -> tuple[list, list]:
    """Per cell, the row text fixed by the table: ``("q,s,", ",bound_all,bound_unital,")``.

    One list for non-unital channels (empty unital bound), one for unital ones.
    """
    orders = [f"{q!r},{s!r}," for q in bounds.q.tolist() for s in bounds.s.tolist()]
    bound_all = bounds.all_channels.ravel().tolist()
    bound_unital = bounds.unital.ravel().tolist()
    plain = [(qs, f",{b!r},,") for qs, b in zip(orders, bound_all)]
    unital = [(qs, f",{b!r},{u!r},") for qs, b, u in zip(orders, bound_all, bound_unital)]
    return plain, unital


_BOOL = {False: "false", True: "true"}


def _csv_prefix(fields) -> str:
    """The channel columns of a row as ``csv`` writes them, and the comma after them."""
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue().removesuffix("\r\n") + ","


def _write_csv(fh, blocks) -> None:
    """Write the report.csv rows of per-channel blocks ``(prefix, cells, values, count)`` to ``fh``.

    ``prefix`` holds the channel columns, ``cells`` the per-cell text of
    :func:`_bound_cells`, ``values`` the channel's map entropies, receiver
    entropies, gaps and saturation flags in row-major cell order, and the
    first ``count`` cells are written.  Each row is one line of text with the
    line ending ``csv`` writes; only the entropies, sum and gap are formatted
    per row, and each channel's lines go to the file in one write.
    """
    for prefix, cells, (m, r, g, sat), count in blocks:
        lead = _csv_prefix(prefix)
        fh.write("".join([
            f"{lead}{qs}{mv!r},{rv!r},{mv + rv!r}{b}{gv!r},{_BOOL[sv]}\r\n"
            for (qs, b), mv, rv, gv, sv in zip(
                cells[:count], m.tolist(), r.tolist(), g.tolist(), sat.tolist()
            )
        ]))


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _serialize_counterexample(out_dir: Path, ch, report: TradeoffReport, family: str) -> Path:
    ce_dir = out_dir / "counterexamples"
    ce_dir.mkdir(parents=True, exist_ok=True)
    path = ce_dir / f"{report.channel_id or 'channel'}.json"
    payload = {
        "channel": chmod.channel_to_json(ch),
        "family": family,
        "report": {
            "channel_id": report.channel_id,
            "q": report.params.q,
            "s": report.params.s,
            "map_entropy": report.map_value,
            "receiver_entropy": report.receiver_value,
            "bound_all": report.bound_all,
            "bound_unital": report.bound_unital,
            "gap": report.gap,
        },
    }
    _write_json(path, payload)
    return path


def run_sweep(cfg: SweepConfig, out_dir, channel_path=None) -> int:
    """Evaluate the trade-off grid and write report.csv / summary.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if channel_path is not None:
        ch = _load_input(chmod.load_channel, channel_path, "channel")
        stacks = [("file", ch.shape[-1], [Path(channel_path).stem], ch[None])]
    else:
        # per channel: D and K (d**4), and the grid kernel's (n_q, d**2) and (n_q, n_s) arrays
        n_q, n_s = len(cfg.q_grid), len(cfg.s_grid)
        stacks = sampler.population(
            cfg.seed, cfg.dims, cfg.families, cfg.samples_per_family,
            size=lambda d: _stack_size(max(d**4, n_q * max(n_s, d * d))),
        )

    report = out / "report.csv"
    try:
        with open(report, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerow(CSV_COLUMNS)
            stats, totals, violation_info = _sweep_stacks(cfg, out, stacks, fh)
    except BaseException:
        report.unlink(missing_ok=True)  # an error leaves no report.csv
        raise
    summary = {
        "mode": "sweep",
        "rows": totals["rows"],
        "min_gap": totals["min_gap"],
        "violations": 1 if violation_info else 0,
        "saturation_count": totals["saturation_count"],
        "limit_rows": totals["limit_rows"],
        "per_family": {
            fam: {
                "rows": st["rows"],
                "min_gap": None if st["min_gap"] is math.inf else st["min_gap"],
                "saturation_count": st["saturation_count"],
            }
            for fam, st in stats.items()
        },
        "seed": cfg.seed,
    }
    if violation_info:
        summary["violation"] = violation_info
    _write_json(out / "summary.json", summary)
    if violation_info:
        print(f"BOUND VIOLATION: {violation_info['message']}", file=sys.stderr)
        return 1
    print(f"sweep ok: {totals['rows']} rows, min gap {summary['min_gap']!r} -> {out}")
    return 0


def _sweep_stacks(cfg: SweepConfig, out: Path, stacks, fh) -> tuple[dict, dict, dict | None]:
    """Evaluate each stack and write its rows to ``fh`` before drawing the next.

    Returns the per-family statistics, the totals and, if a violation
    stopped the sweep, its summary entry.
    """
    tables: dict[int, tuple] = {}  # dim -> (bounds, non-unital cells, unital cells, limit flags)
    stats: dict[str, dict] = {}
    totals = {"rows": 0, "min_gap": math.inf, "saturation_count": 0, "limit_rows": 0}
    violation_info = None
    for family, dim, ids, ops in stacks:
        profile = profile_channel(ops, ids)
        if dim not in tables:
            bounds = bound_table(dim, cfg.q_grid, cfg.s_grid)
            limit = np.repeat(bounds.limit_rows, bounds.s.size)
            tables[dim] = (bounds, *_bound_cells(bounds), limit)
        bounds, plain_cells, unital_cells, limit = tables[dim]
        cells = limit.size
        fam_stats = stats.setdefault(
            family, {"rows": 0, "min_gap": math.inf, "saturation_count": 0}
        )
        # rows are counted over the stack's cells in row order: every cell of
        # the channels that pass, and on a violation the cells up to it
        try:
            grid = evaluate_profile(profile, bounds)
            count = passed = grid.gap.size
        except BoundViolation as exc:
            grid = exc.grid
            k, i, j = exc.cell
            passed = k * cells + i * bounds.s.size + j
            count = passed + 1
            path = _serialize_counterexample(out, ops[k], exc.report, family)
            violation_info = {"message": str(exc), "counterexample": path.name}
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        gaps = grid.gap.ravel()
        saturated = grid.saturated.ravel()
        # the violating row is written and counted in the totals, not per family
        for st, n in ((fam_stats, passed), (totals, count)):
            if n:
                st["rows"] += n
                st["min_gap"] = min(st["min_gap"], float(gaps[:n].min()))
                st["saturation_count"] += int(saturated[:n].sum())
        totals["limit_rows"] += int(np.tile(limit, len(ids))[:count].sum())
        values = [
            a.reshape(len(ids), cells)
            for a in (grid.map_values, grid.receiver_values, grid.gap, grid.saturated)
        ]
        _write_csv(fh, [
            (
                (channel_id, family, str(dim), _BOOL[bool(profile.unital[k])]),
                unital_cells if profile.unital[k] else plain_cells,
                [v[k] for v in values],
                min(cells, count - k * cells),
            )
            for k, channel_id in enumerate(ids[: -(-count // cells)])
        ])
        if violation_info:
            break
        # the next stack is drawn while the loop variables still hold this one
        del ops, profile, grid, gaps, saturated, values
    return stats, totals, violation_info


def run_inequality_suite(cfg: SweepConfig, out_dir, only=None, matrix_path=None) -> int:
    """Run the norm/anti-norm checks; write summary.json with min slack."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    selected = CHECK_NAMES if only is None else (only,)
    for name in selected:
        if name not in CHECK_NAMES:
            raise ConfigError(f"unknown check {only!r}; choose from {', '.join(CHECK_NAMES)}")

    injected = None
    if matrix_path is not None:
        injected = (Path(matrix_path).stem, _load_input(_load_matrix, matrix_path, "matrix"))
    families = [f for f in cfg.families if f in sampler.FAMILY_CODES]
    # A selected channel check that cannot run is an error, unless --matrix
    # was asked for: it runs the matrix checks only, and some of those run.
    skipped = [n for n in selected if n in CHANNEL_CHECKS and (injected is not None or not families)]
    if skipped and (injected is None or len(skipped) == len(selected)):
        raise ConfigError(
            f"no check ran for {', '.join(skipped)}: the channel checks (upkp, cbn0) "
            "need a sampler family and no --matrix"
        )

    def stacks(kind: str, stream: int):
        """Labels and stacks of the injected matrix, or of same-dimension Ginibre
        matrices ``G`` ("mat") or ``G G^dag`` ("psd")."""
        if injected is not None:
            yield [injected[0]], injected[1][None]
            return
        pop = sampler.ginibre_population(
            cfg.seed, cfg.dims, cfg.samples_per_family, stream, size=lambda d: _stack_size(d * d)
        )
        for d, indices, g in pop:
            labels = [f"{kind}-d{d}-{i:04d}" for i in indices]
            yield labels, g @ g.conj().swapaxes(-2, -1) if kind == "psd" else g

    anti_orders = [float(q) for q in cfg.q_grid if 0.0 < float(q) < 1.0] or [0.5]
    order_pairs = [(0.2, 0.8), (1.0 / 3.0, 0.5), (0.5, 1.0)]
    results: dict[str, dict] = {}
    failure = None

    def record(name: str, labels, batch: spectra.InequalityBatch, payload):
        """Fold one batch into the results; ``payload(i)`` serializes input ``i``
        if it is the run's first failure."""
        nonlocal failure
        entry = results.setdefault(name, {"count": 0, "min_slack": math.inf, "passed": True})
        entry["count"] += batch.passed.size
        # a NaN entry fails its check; the minimum leaves it out, and a check
        # with no finite slack reports none
        entry["min_slack"] = min(entry["min_slack"], float(np.fmin.reduce(batch.slack, axis=None)))
        first = batch.first_failure()
        if first is not None:
            entry["passed"] = False
            if failure is None:
                label = labels[first[0]]
                failure = {"check": name, "input": label, "kind": "inequality-failed"}
                ce = out / "counterexamples"
                ce.mkdir(parents=True, exist_ok=True)
                _write_json(ce / f"{label}.json", payload(first[0]))

    try:
        if "prop1" in selected:
            for labels, x in stacks("psd", 201):
                batch = spectra.check_prop1(x, [float(q) for q in cfg.q_grid])
                record("prop1", labels, batch, lambda i: matcore.matrix_to_json(x[i]))
        if "21in" in selected:
            for labels, x in stacks("mat", 202):
                batch = spectra.check_two_inf_one(x)
                record("21in", labels, batch, lambda i: matcore.matrix_to_json(x[i]))
        if "npqr" in selected:
            ps, qs = zip(*order_pairs)
            for labels, x in stacks("psd", 203):
                batch = spectra.check_antinorm_monotonicity(x, ps, qs)
                record("npqr", labels, batch, lambda i: matcore.matrix_to_json(x[i]))
        if "sups" in selected:
            for (labels, x), (_, y) in zip(stacks("psd", 204), stacks("psd", 205)):
                batch = spectra.check_superadditivity(x, y, anti_orders)
                record("sups", labels, batch, lambda i: {
                    "x": matcore.matrix_to_json(x[i]), "y": matcore.matrix_to_json(y[i])
                })
        if injected is None and any(n in selected for n in CHANNEL_CHECKS):
            suite = sampler.population(
                cfg.seed, cfg.dims, families, cfg.samples_per_family, stream=100,
                size=lambda d: _stack_size(d**4),
            )
            checks = (
                ("upkp", spectra.check_superop_norm_bound),
                ("cbn0", spectra.check_norm_product_chain),
            )
            for _, _, labels, ops in suite:
                profile = profile_channel(ops, labels)
                batches = [(name, check(profile)) for name, check in checks if name in selected]
                # upkp then cbn0 ran channel by channel: the first failure
                # named is the earlier channel's, upkp's on a tie
                batches.sort(key=lambda nb: (nb[1].first_failure() or (math.inf,))[0])
                for name, batch in batches:
                    record(name, labels, batch, lambda i: chmod.channel_to_json(ops[i]))
    except Exception as exc:  # noqa: BLE001 - provenance belongs in the report
        failure = {"check": "error", "kind": type(exc).__name__, "message": str(exc)}
        if injected is not None:
            ce = out / "counterexamples"
            ce.mkdir(parents=True, exist_ok=True)
            _write_json(ce / f"{injected[0]}.json", matcore.matrix_to_json(injected[1]))
    summary = {
        "mode": "inequalities",
        "checks": {
            name: {
                "count": entry["count"],
                "min_slack": entry["min_slack"] if math.isfinite(entry["min_slack"]) else None,
                "passed": entry["passed"],
            }
            for name, entry in sorted(results.items())
        },
        "seed": cfg.seed,
        "failure": failure,
    }
    _write_json(out / "summary.json", summary)
    if failure is not None:
        print(f"INEQUALITY SUITE FAILED: {failure}", file=sys.stderr)
        return 1
    slacks = ", ".join(f"{n}={results[n]['min_slack']:.3e}" for n in sorted(results))
    print(f"inequalities ok: min slack {slacks} -> {out}")
    return 0


def _parse_list(text: str, flag: str, kind) -> tuple:
    """The comma-separated values of ``flag`` as ``kind``; an unparsable one is a ConfigError."""
    try:
        return tuple(kind(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"could not parse {flag} value {text!r}: {exc}") from exc


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config file (flags override it)")
    parser.add_argument("--q", metavar="LIST", help="comma-separated entropy orders q (> 0)")
    parser.add_argument("--dims", metavar="LIST", help="comma-separated system dimensions")
    parser.add_argument("--samples", type=int, metavar="N", help="samples per family and dimension")
    parser.add_argument("--seed", type=int, metavar="N", help="base seed for all sampling")
    parser.add_argument("--out", metavar="DIR", default=DEFAULT_OUT, help="output directory")
    parser.add_argument("--family", metavar="LIST", help="comma-separated sampler families")


def _resolve_config(args) -> SweepConfig:
    cfg = config_from_file(args.config) if args.config else SweepConfig()
    updates = {}
    if args.q:
        updates["q_grid"] = _parse_list(args.q, "--q", float)
    if getattr(args, "s", None):
        updates["s_grid"] = _parse_list(args.s, "--s", float)
    if args.dims:
        updates["dims"] = _parse_list(args.dims, "--dims", int)
    if args.samples is not None:
        updates["samples_per_family"] = args.samples
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.family:
        updates["families"] = tuple(tok.strip() for tok in args.family.split(",") if tok.strip())
    return validate_config(replace(cfg, **updates))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chanent",
        description="Channel entropy trade-off and norm-inequality harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="evaluate the trade-off bound over a channel population")
    _add_common_flags(sweep)
    sweep.add_argument("--s", metavar="LIST", help="comma-separated entropy orders s")
    sweep.add_argument("--channel", metavar="PATH", help="single-channel mode: evaluate this file")

    ineq = sub.add_parser("inequalities", help="run the norm/anti-norm inequality checks")
    _add_common_flags(ineq)
    ineq.add_argument("--only", metavar="CHECK", help=f"one of: {', '.join(CHECK_NAMES)}")
    ineq.add_argument("--matrix", metavar="PATH", help="run the matrix checks on this file only")

    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "sweep":
            return run_sweep(cfg, args.out, channel_path=args.channel)
        return run_inequality_suite(cfg, args.out, only=args.only, matrix_path=args.matrix)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
