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
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import channel as chmod
from . import matcore, sampler, spectra
from .entropy import EntropyParams
from .errors import BoundViolation
from .tradeoff import GAP_TOL, SAT_TOL, TradeoffReport, evaluate_profile, profile_channel

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


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending value."""


@dataclass(frozen=True)
class SweepConfig:
    """Sweep parameters; every field has a default so a bare run works."""

    dims: tuple = (2, 3)
    families: tuple = ("cptp", "unitary-mixture", "unistochastic")
    samples_per_family: int = 50
    q_grid: tuple = (0.3, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0, 5.0)
    s_grid: tuple = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
    seed: int = DEFAULT_SEED
    tolerances: dict = field(default_factory=dict)

    def gap_tol(self) -> float:
        return float(self.tolerances.get("gap", GAP_TOL))

    def sat_tol(self) -> float:
        return float(self.tolerances.get("saturation", SAT_TOL))


def validate_config(cfg: SweepConfig) -> SweepConfig:
    if not cfg.dims:
        raise ConfigError("dims must be nonempty")
    for d in cfg.dims:
        if not (2 <= int(d) <= chmod.MAX_DIM):
            raise ConfigError(f"dimension {d} outside the supported range [2, {chmod.MAX_DIM}]")
    if not cfg.families:
        raise ConfigError("families must be nonempty")
    for fam in cfg.families:
        if fam not in sampler.FAMILY_CODES and not fam.startswith("named:"):
            raise ConfigError(f"unknown family {fam!r}")
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
    "tolerances": (dict, _NUMBER, "an object of numbers"),
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
        ok = _is(value, kind)
        if ok and member is not None:
            ok = all(_is(v, member) for v in (value.values() if kind is dict else value))
        if not ok:
            raise ConfigError(f"config key {key!r} must be {expected}, got {value!r}")
        if kind is list:
            raw[key] = tuple(value)
    return SweepConfig(**raw)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr is the shortest round-trip form
    return str(value)


def _row(report: TradeoffReport, family: str, dim: int, unital: bool) -> dict:
    return {
        "channel_id": report.channel_id,
        "family": family,
        "dim": dim,
        "unital": unital,
        "q": report.params.q,
        "s": report.params.s,
        "map_entropy": report.map_value,
        "receiver_entropy": report.receiver_value,
        "sum": report.map_value + report.receiver_value,
        "bound_all": report.bound_all,
        "bound_unital": report.bound_unital,
        "gap": report.gap,
        "saturated": report.saturated,
    }


def _write_csv(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[col]) for col in CSV_COLUMNS])


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
    rows: list[dict] = []
    stats: dict[str, dict] = {}
    violation_info = None
    if channel_path is not None:
        ch = chmod.load_channel(channel_path)
        channels = [("file", ch.dim, Path(channel_path).stem, ch)]
    else:
        channels = sampler.population(cfg.seed, cfg.dims, cfg.families, cfg.samples_per_family)

    for family, dim, channel_id, ch in channels:
        profile = profile_channel(ch, channel_id)
        fam_stats = stats.setdefault(
            family, {"rows": 0, "min_gap": math.inf, "saturation_count": 0}
        )
        for q in cfg.q_grid:
            for s in cfg.s_grid:
                params = EntropyParams(float(q), float(s))
                try:
                    report = evaluate_profile(
                        profile, params, sat_tol=cfg.sat_tol(), gap_tol=cfg.gap_tol()
                    )
                except BoundViolation as exc:
                    path = _serialize_counterexample(out, ch, exc.report, family)
                    rows.append(_row(exc.report, family, dim, profile.unital))
                    violation_info = {"message": str(exc), "counterexample": path.name}
                    break
                rows.append(_row(report, family, dim, profile.unital))
                fam_stats["rows"] += 1
                fam_stats["min_gap"] = min(fam_stats["min_gap"], report.gap)
                fam_stats["saturation_count"] += int(report.saturated)
            if violation_info:
                break
        if violation_info:
            break

    _write_csv(out / "report.csv", rows)
    gaps = [row["gap"] for row in rows]
    summary = {
        "mode": "sweep",
        "rows": len(rows),
        "min_gap": min(gaps) if gaps else None,
        "violations": 1 if violation_info else 0,
        "saturation_count": sum(1 for row in rows if row["saturated"]),
        "limit_rows": sum(1 for row in rows if EntropyParams(row["q"], row["s"]).von_neumann_limit),
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
    print(f"sweep ok: {len(rows)} rows, min gap {summary['min_gap']!r} -> {out}")
    return 0


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
        with open(matrix_path, encoding="utf-8") as fh:
            injected = [(Path(matrix_path).stem, matcore.matrix_from_json(json.load(fh)))]

    def cases(kind: str, stream: int) -> list:
        """The injected matrix, or Ginibre matrices ``G`` ("mat") or ``G G^dag`` ("psd")."""
        if injected is not None:
            return injected
        pop = sampler.ginibre_population(cfg.seed, cfg.dims, cfg.samples_per_family, stream)
        return [(f"{kind}-d{d}-{i:04d}", g @ g.conj().T if kind == "psd" else g) for d, i, g in pop]

    anti_orders = [float(q) for q in cfg.q_grid if 0.0 < float(q) < 1.0] or [0.5]
    order_pairs = [(0.2, 0.8), (1.0 / 3.0, 0.5), (0.5, 1.0)]
    results: dict[str, dict] = {}
    failure = None

    def record(name: str, label, report: spectra.InequalityReport, payload=None):
        nonlocal failure
        entry = results.setdefault(name, {"count": 0, "min_slack": math.inf, "passed": True})
        entry["count"] += 1
        entry["min_slack"] = min(entry["min_slack"], report.slack)
        if not report.passed:
            entry["passed"] = False
            if failure is None:
                failure = {"check": name, "input": label, "kind": "inequality-failed"}
                if payload is not None:
                    ce = out / "counterexamples"
                    ce.mkdir(parents=True, exist_ok=True)
                    _write_json(ce / f"{label}.json", payload)

    try:
        if "prop1" in selected:
            for label, x in cases("psd", 201):
                for q in cfg.q_grid:
                    record("prop1", label, spectra.check_prop1(x, float(q)), matcore.matrix_to_json(x))
        if "21in" in selected:
            for label, x in cases("mat", 202):
                record("21in", label, spectra.check_two_inf_one(x), matcore.matrix_to_json(x))
        if "npqr" in selected:
            for label, x in cases("psd", 203):
                for p, q in order_pairs:
                    record("npqr", label, spectra.check_antinorm_monotonicity(x, p, q))
        if "sups" in selected:
            for (label, x), (_, y) in zip(cases("psd", 204), cases("psd", 205)):
                for q in anti_orders:
                    record("sups", label, spectra.check_superadditivity(x, y, float(q)))
        if injected is None and ("upkp" in selected or "cbn0" in selected):
            families = [f for f in cfg.families if f in sampler.FAMILY_CODES]
            suite = sampler.population(
                cfg.seed, cfg.dims, families, cfg.samples_per_family, stream=100
            )
            for _, _, label, ch in suite:
                if "upkp" in selected:
                    record("upkp", label, spectra.check_superop_norm_bound(ch), chmod.channel_to_json(ch))
                if "cbn0" in selected:
                    record("cbn0", label, spectra.check_norm_product_chain(ch), chmod.channel_to_json(ch))
    except Exception as exc:  # noqa: BLE001 - provenance belongs in the report
        failure = {"check": "error", "kind": type(exc).__name__, "message": str(exc)}
        if injected is not None:
            ce = out / "counterexamples"
            ce.mkdir(parents=True, exist_ok=True)
            _write_json(ce / f"{injected[0][0]}.json", matcore.matrix_to_json(injected[0][1]))
    if not results and failure is None:
        raise ConfigError(
            f"no check ran for {', '.join(selected)}: the channel checks (upkp, cbn0) "
            "need a sampler family and no --matrix"
        )

    summary = {
        "mode": "inequalities",
        "checks": {
            name: {
                "count": entry["count"],
                "min_slack": entry["min_slack"],
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


def _parse_floats(text: str, flag: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"could not parse {flag} value {text!r}: {exc}") from exc


def _parse_ints(text: str, flag: str) -> tuple:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
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
        updates["q_grid"] = _parse_floats(args.q, "--q")
    if getattr(args, "s", None):
        updates["s_grid"] = _parse_floats(args.s, "--s")
    if args.dims:
        updates["dims"] = _parse_ints(args.dims, "--dims")
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
