"""Command-line harness: sample channels, sweep entropy orders, verify bounds.

``chanent sweep`` samples channels per family and dimension (or loads one
channel with ``--channel``), evaluates the trade-off bound on every cell of
the (q, s) grid and writes ``report.csv`` plus ``summary.json`` into the
output directory.  ``chanent inequalities`` drives the norm and anti-norm
checks over random matrices (or one ``--matrix`` file, for the checks of one
matrix) and the channels of the config's families, and reports per-check
minimum slack.  Both subcommands admit the same families and take every
one of them: a sampler family (``cptp``, ``unitary-mixture``,
``unistochastic``) is drawn per sample, and a ``named:`` family is its one
channel once per dimension, as a ``--channel`` file is one channel:
``--samples`` counts drawn channels alone.

Both subcommands run in one skeleton, a :class:`Run`, and each supplies
three things: a source of stacks, an evaluation of each stack into arrays,
and the summary keys it folds them into.  The run owns the rest, each part
written once: it removes the files an earlier run left in the output
directory, folds each key into a count and a minimum, keeps the first
failure with its counterexample (under ``counterexamples/``), writes
``summary.json`` and decides the exit code (:meth:`Run.evaluating`):
0 all cells/checks pass; 1 a bound or check failed, or any other error was
raised while a stack was evaluated (its record names the stack's first
and last id under ``"inputs"``, and in the suite the check under
``"during"``); 2 configuration errors, a
:class:`DomainError` met while evaluating among them (such as a ``--matrix``
file that is not square, or is zero, for a check that needs it to be).

Runs are deterministic end to end: per-sample seeds derive from the base
seed and the sample address, and output rows are ordered by
(dimension, family, sample, q, s) regardless of evaluation order, so a
repeated run reproduces ``report.csv`` byte for byte.  This holds across
BLAS thread counts wherever OpenBLAS is found: a run draws and decomposes
on one OpenBLAS thread, whatever the host's count, and restores that
count when it ends.

Both harnesses draw their population with :func:`chanent.sampler.population`
(the suite's matrices from its ``mat`` and ``psd`` families) in stacks of
consecutive indices of one dimension and family, and evaluate each stack as
drawn.  A stack is bounded by memory alone: it holds as many inputs as keep
the largest array it builds per input within ``STACK_ENTRIES`` entries in
all, so a population of small inputs is one stack, and the stacks of a large
one keep memory flat in its size.

Both harnesses profile each channel stack, the Kraus array it was drawn
as, with :func:`~chanent.channel.profile_channel`: per stack, ``Tr_2 D`` as
one product of the Kraus array, and one decomposition of ``K`` read off
``D``, which is built once per stack, inside the receiver spectrum; and one
decomposition of the Kraus array where ``D``'s spectrum is read: the sweep
reads it, the inequality suite's channel checks do not.  A ``--channel``
file is a stack of one, and a counterexample is written from its channel's
row of the stack.  A sweep's counterexample records the violated cell as
the grid gives it (:meth:`~chanent.tradeoff.GridReport.cell`), and its
``BOUND VIOLATION`` line is built from that record.

A sweep stacks the channels of one (dimension, family) and evaluates each
profile in one grid pass, against bounds tabulated once per dimension, and
reads it in stack order (:func:`~chanent.tradeoff.evaluate_profile`): a
non-finite cell anywhere in the stack is an error, and otherwise its first
violated cell is the violation.  A sweep runs to the end, as the suite
does: every stack is evaluated, folded and written, and the run's first
violated cell in row order is its counterexample.  An error leaves no
``report.csv``.  Every cell is asserted, the von Neumann ones at ``q = 1``
included; ``summary.json`` counts those under ``limit_rows``.
``report.csv`` is written as each stack is evaluated, channel by channel,
each row one pre-formatted line: the channel columns go through :mod:`csv`
once per channel (a ``--channel`` file name may need quoting), the orders
and bounds are formatted once per dimension, and the entropies, sum and gap
once per stack, a column at a time.  Every float cell is Python's ``repr``
of the double: ``orjson`` writes a column in bulk with the same shortest
round-trip digits, and the cells whose notation it writes differently
(0 < |x| < 1e-4, |x| >= 1e16, inf and NaN) are taken from ``repr``
(:func:`_float_texts`).

The inequality suite's checks are one table, ``_CHECKS``, a row per check
with its operands and its call, in the order the suite runs them.  Each
check runs once per stack at all of its orders, with one decomposition of
the stack for all of them (see :mod:`chanent.spectra`); the two channel
checks share one profile per stack, upkp's batch recorded before cbn0's.
A stack is read in stack order: a check's failure is its first failing
input, and only that input is serialized.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
import orjson

from . import channel as chmod
from . import matcore, sampler, spectra
from .channel import profile_channel
from .errors import DimensionMismatchError, DomainError, ParamOutOfRangeError, UnknownChannelError
from .tradeoff import bound_table, evaluate_profile

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

# The inequality suite's checks in the order it runs them, one row each: the
# check's operands, and its call on the config and one stack of each operand.
# A matrix check's operands are the population (family, stream) of each of
# its matrices, and a --matrix file is the one operand of prop1, 21in or
# npqr; a channel check's (None) are the config's channels, one profile per
# stack shared by both channel checks.  Each check is looked up in
# ``spectra`` as it is called.
_CHECKS = {
    "prop1": ((("psd", 201),), lambda cfg, x: spectra.check_prop1(x, [float(q) for q in cfg.q_grid])),
    "21in": ((("mat", 202),), lambda cfg, x: spectra.check_two_inf_one(x)),
    "npqr": ((("psd", 203),), lambda cfg, x: spectra.check_antinorm_monotonicity(
        x, (0.2, 1.0 / 3.0, 0.5), (0.8, 0.5, 1.0))),
    "sups": ((("psd", 204), ("psd", 205)), lambda cfg, x, y: spectra.check_superadditivity(
        x, y, [float(q) for q in cfg.q_grid if 0.0 < float(q) < 1.0] or [0.5])),
    "upkp": (None, lambda cfg, profile: spectra.check_superop_norm_bound(profile)),
    "cbn0": (None, lambda cfg, profile: spectra.check_norm_product_chain(profile)),
}
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
    """Run parameters of both subcommands; every field has a default so a bare run works.

    Every field is validated for both, but ``s_grid`` is read by ``sweep``
    alone: ``inequalities`` refuses an empty one and ignores a valid one.

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
    # an empty list runs nothing, and a repeated entry would evaluate, and
    # write, the same rows twice
    for key in ("dims", "families", "q_grid", "s_grid"):
        values = getattr(cfg, key)
        if not values:
            raise ConfigError(f"{key} must be nonempty")
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ConfigError(f"{key} repeats {repeated[0]!r}")
    for d in cfg.dims:
        try:
            chmod._check_sizes(int(d), 1)  # the rule and message of a channel file's dim
        except DimensionMismatchError as exc:
            raise ConfigError(str(exc)) from exc
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
    if cfg.samples_per_family > 2**32:  # a sample's index is one word of its seed's SeedSequence entropy
        raise ConfigError(f"samples_per_family must be <= 2**32, got {cfg.samples_per_family}")
    for q in cfg.q_grid:
        if not (math.isfinite(float(q)) and float(q) > 0.0):
            raise ConfigError(f"entropy order q must be finite and > 0, got {q}")
    for s in cfg.s_grid:
        if not math.isfinite(float(s)):
            raise ConfigError(f"entropy order s must be finite, got {s}")
    return cfg


def _config_from_json(raw) -> SweepConfig:
    """A config file's object as a :class:`SweepConfig`: each key optional, each list a tuple."""
    values = matcore._json_fields(raw, "config", **asdict(SweepConfig()))
    return SweepConfig(*(tuple(v) if isinstance(v, list) else v for v in values))


def _stack_size(entries: int) -> int:
    """Most inputs of ``entries`` matrix entries each that one stack holds."""
    return max(1, STACK_ENTRIES // entries)


def _load_input(path, what: str, from_json):
    """``from_json`` of the JSON in ``path``, with an unreadable, malformed or invalid file as a ConfigError.

    A config, matrix or channel file is read through one key table,
    :data:`chanent.matcore._INPUT_KEYS`, so a key of a wrong type, an integer
    entry beyond the double range or Python's int among them, names the key.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return from_json(json.load(fh, parse_int=matcore._json_int))
    except (OSError, ValueError, RecursionError) as exc:  # a file nested too deep for json recurses
        raise ConfigError(f"could not load {what} file {str(path)!r}: {exc}") from exc


def _dim_table(dim: int, cfg: SweepConfig) -> tuple:
    """A sweep's bounds at ``dim``: ``(bounds, cell texts, q = 1 cells per channel)``.

    A cell's text is the part of its row the table fixes, ``("q,s,",
    ",bound_all,bound_unital,")``, in one list for non-unital channels
    (empty unital bound) and one for unital ones.  The von Neumann cells, at
    ``q = 1`` exactly, are the ones ``limit_rows`` counts.
    """
    bounds = bound_table(dim, cfg.q_grid, cfg.s_grid)
    q, s, bound_all, bound_unital = (
        _float_texts(a) for a in (bounds.q, bounds.s, bounds.all_channels, bounds.unital)
    )
    orders = [f"{qt},{st}," for qt in q for st in s]
    plain = [(qs, f",{b},,") for qs, b in zip(orders, bound_all)]
    unital = [(qs, f",{b},{u},") for qs, b, u in zip(orders, bound_all, bound_unital)]
    return bounds, (plain, unital), int(np.count_nonzero(bounds.q == 1.0)) * bounds.s.size


def _float_texts(a) -> list:
    """``repr`` of each float of ``a``, in row-major order.

    ``orjson`` writes the whole array at once with the shortest round-trip
    digits, as ``repr`` does, and with the same notation for 0 and for
    magnitudes in ``[1e-4, 1e16)``; every other entry (an exponent, inf or
    NaN, which ``orjson`` writes as ``null``) is taken from ``repr``.
    """
    a = np.ascontiguousarray(a, dtype=np.float64).ravel()
    if a.size == 0:
        return []
    texts = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    mag = np.abs(a)
    for i in np.flatnonzero(~((a == 0) | ((mag >= 1e-4) & (mag < 1e16)))).tolist():
        texts[i] = repr(float(a[i]))
    return texts


_BOOL = {False: "false", True: "true"}


def _csv_prefix(fields) -> str:
    """The channel columns of a row as ``csv`` writes them, and the comma after them."""
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue().removesuffix("\r\n") + ","


def _write_csv(fh, family: str, grid, texts) -> None:
    """Write the report.csv rows of one stack's ``grid`` to ``fh``.

    The rows are the cells of ``grid`` in row-major order, channel by
    channel, with the ids, unital flags and dimension of its profile, and
    ``texts`` the per-cell text of :func:`_dim_table`.  Each row is one line
    of text with the line ending ``csv`` writes; the entropies, their sum and
    the gap are formatted one column per stack with :func:`_float_texts`,
    and each channel's lines go to the file in one write.
    """
    profile, cells = grid.profile, len(texts[0])
    m, r = grid.map_values, grid.receiver_values
    m, r, total, g = (_float_texts(a) for a in (m, r, m + r, grid.gap))
    sat = grid.saturated.ravel().tolist()
    for k, (channel_id, unital) in enumerate(zip(profile.channel_id, profile.unital.tolist())):
        lead = _csv_prefix((channel_id, family, str(profile.dim), _BOOL[unital]))
        rows = slice(k * cells, (k + 1) * cells)
        fh.write("".join([
            f"{lead}{qs}{mv},{rv},{tv}{b}{gv},{_BOOL[sv]}\r\n"
            for (qs, b), mv, rv, tv, gv, sv in zip(
                texts[unital], m[rows], r[rows], total[rows], g[rows], sat[rows]
            )
        ]))


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _nulled(value):
    """``value``, nested dicts included, with each non-finite float as None (JSON null)."""
    if isinstance(value, dict):
        return {key: _nulled(v) for key, v in value.items()}
    return None if isinstance(value, float) and not math.isfinite(value) else value


class Run:
    """One run of a subcommand: its output directory, summary, first failure and exit code.

    ``summary`` starts with the keys that are not folded.  ``injected`` is
    the ``(path, payload)`` of an input file, if any; ``payload()`` builds
    its JSON, written as ``counterexamples/<file stem>.json`` if an error
    ends the run.  ``during`` names the check being evaluated, if any (the
    suite sets it; a sweep has none), and ``inputs`` holds the ids of the
    stack being evaluated, if any (:meth:`drawing` sets it): an error's
    record names the check and the stack's first and last id.
    """

    def __init__(self, out_dir, summary: dict, injected=None):
        self.out = Path(out_dir)
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # e.g. --out names a file
            raise ConfigError(f"could not make output directory {str(self.out)!r}: {exc}") from exc
        if injected is not None:
            path, payload = injected
            # clearing the directory must not delete the run's own input, such
            # as a suite counterexample given back as --matrix
            if Path(path).resolve() in {p.resolve() for p in self._outputs()}:
                raise ConfigError(
                    f"input file {str(path)!r} is one a run into {str(self.out)!r} "
                    "removes before it starts; copy it out of that directory"
                )
            injected = (Path(path).stem, payload)
        self._clear()
        self.summary = summary
        self.injected = injected
        self.failure = None  # the failure's lines for stderr
        self.during = None
        self.inputs = None

    def _outputs(self) -> list:
        """The files of the kinds a run writes that are in its directory, an earlier run's included."""
        ce = self.out / "counterexamples"
        found = [p for p in (self.out / "report.csv", self.out / "summary.json") if p.exists()]
        return found + (sorted(ce.glob("*.json")) if ce.is_dir() else [])

    def _clear(self) -> None:
        """Remove the files a run writes, and ``counterexamples/`` if that empties it."""
        for path in self._outputs():
            path.unlink()
        ce = self.out / "counterexamples"
        if ce.is_dir() and not any(ce.iterdir()):
            ce.rmdir()

    def drawing(self, stacks):
        """Each ``(family, dim, ids, ops)`` stack of ``stacks``, with ``inputs`` its ids until the next is drawn."""
        for stack in stacks:
            self.inputs = stack[2]
            yield stack
            self.inputs = None

    def fold(self, key, count: int, **minima) -> dict:
        """Add ``count`` to the count at ``key`` (a key or a path of keys); return its entry.

        Each keyword names a key beside the count that gets the minimum of
        the values given for it.  ``np.fmin`` leaves a NaN out of the
        minimum, and a minimum that is not finite is written as null.
        """
        *parents, name = (key,) if isinstance(key, str) else key
        entry = self.summary
        for parent in parents:
            entry = entry.setdefault(parent, {})
        entry[name] = entry.get(name, 0) + count
        for minimum, values in minima.items():
            entry[minimum] = float(np.fmin.reduce(values, axis=None, initial=entry.get(minimum, math.inf)))
        return entry

    def fail(self, key: str, record: dict, line: str, name=None, payload=None) -> None:
        """Make ``record`` the run's failure, written to summary.json at ``key``,
        and ``payload`` its counterexample, ``counterexamples/<name>.json``."""
        self.summary[key] = record
        self.failure = line
        if payload is not None:
            (self.out / "counterexamples").mkdir(exist_ok=True)
            _write_json(self.out / "counterexamples" / f"{name}.json", payload)

    @contextlib.contextmanager
    def evaluating(self):
        """The exit-code rule, applied to what evaluating the stacks raises.

        The stacks are drawn and decomposed on one BLAS thread
        (:func:`chanent.matcore._one_blas_thread`), and the caller's count
        is back when the block ends.  An error leaves no report.csv.  Before
        a failure, a :class:`DomainError` (orders or an input the entropies,
        bounds or checks cannot take) is a configuration error: exit 2, none
        of the run's files left.  Any other exception is the run's failure,
        exit 1, with the injected input serialized.  The first failure stands: an
        error raised after it is listed beside it, as ``"error"``, exit 1.
        """
        try:
            with matcore._one_blas_thread():
                yield
        except Exception as exc:  # noqa: BLE001 - provenance belongs in the report
            (self.out / "report.csv").unlink(missing_ok=True)
            record = {"check": "error", "kind": type(exc).__name__, "message": str(exc)}
            if self.during is not None:
                record["during"] = self.during
            if self.inputs is not None:
                record["inputs"] = [self.inputs[0], self.inputs[-1]]
            if self.failure is not None:
                self.summary["error"] = record
                self.failure += f"\nERROR: {record}"
            elif isinstance(exc, DomainError):
                self._clear()
                raise ConfigError(str(exc)) from exc
            else:
                name, payload = self.injected or (None, lambda: None)
                self.fail("failure", record, f"ERROR: {record}", name, payload())
        except BaseException:
            self._clear()
            raise

    def finish(self, ok) -> int:
        """Write summary.json and the run's last line: the failure's to stderr
        and exit 1, or ``ok(summary)`` to stdout and exit 0."""
        _write_json(self.out / "summary.json", _nulled(self.summary))
        if self.failure is not None:
            print(self.failure, file=sys.stderr)
            return 1
        print(ok(self.summary))
        return 0


def run_sweep(cfg: SweepConfig, out_dir, channel_path=None) -> int:
    """Evaluate the trade-off grid and write report.csv / summary.json."""
    injected = None
    if channel_path is not None:
        ch = _load_input(channel_path, "channel", chmod.channel_from_json)
        injected = (channel_path, lambda: chmod.channel_to_json(ch))
        stacks = [("file", ch.shape[-1], [Path(channel_path).stem], ch[None])]
    else:
        # per channel: D and K (d**4), and the grid kernel's (n_q, d**2) and (n_q, n_s) arrays
        n_q, n_s = len(cfg.q_grid), len(cfg.s_grid)
        stacks = sampler.population(
            cfg.seed, cfg.dims, cfg.families, cfg.samples_per_family,
            size=lambda d: _stack_size(max(d**4, n_q * max(n_s, d * d))),
        )
    run = Run(out_dir, {"mode": "sweep", "seed": cfg.seed, "violations": 0, "per_family": {}}, injected)
    tables = functools.cache(lambda dim: _dim_table(dim, cfg))  # once per dimension and run
    with run.evaluating(), open(run.out / "report.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(CSV_COLUMNS)
        for family, dim, ids, ops in run.drawing(stacks):
            profile = profile_channel(ops, ids)
            bounds, texts, limit_cells = tables(dim)
            grid = evaluate_profile(profile, bounds)
            if grid.violation is not None and run.failure is None:
                cell = grid.cell(*grid.violation)
                name = cell["channel_id"] or "channel"
                message = (
                    "entropic sum fell {:.3e} below the bound on channel {channel_id!r} at q={q}, s={s}"
                ).format(-cell["gap"], **cell)
                run.summary["violations"] = 1
                run.fail(
                    "violation", {"message": message, "counterexample": f"{name}.json"},
                    f"BOUND VIOLATION: {message}", name,
                    dict(channel=chmod.channel_to_json(ops[grid.violation[0]]), family=family, report=cell),
                )
            for prefix in ((), ("per_family", family)):
                run.fold((*prefix, "rows"), grid.gap.size, min_gap=grid.gap)
                run.fold((*prefix, "saturation_count"), int(grid.saturated.sum()))
            run.fold("limit_rows", limit_cells * len(ids))
            _write_csv(fh, family, grid, texts)
            # the next stack is drawn while the loop variables still hold this one
            del ops, profile, grid
    return run.finish(lambda s: f"sweep ok: {s['rows']} rows, min gap {s['min_gap']!r} -> {run.out}")


def run_inequality_suite(cfg: SweepConfig, out_dir, only=None, matrix_path=None) -> int:
    """Run the norm/anti-norm checks; write summary.json with min slack."""
    if only is not None and only not in _CHECKS:
        raise ConfigError(f"unknown check {only!r}; choose from {', '.join(_CHECKS)}")
    groups = {}  # the selected (name, call) pairs by operands, in table order: each stack drawn once per group
    for name in _CHECKS if only is None else (only,):
        operands, call = _CHECKS[name]
        groups.setdefault(operands, []).append((name, call))

    injected = None
    if matrix_path is not None:
        matrix = _load_input(matrix_path, "matrix", matcore.matrix_from_json)
        injected = (matrix_path, lambda: matcore.matrix_to_json(matrix))
        # the file is the one operand of a check: sups takes two matrices, the channel checks the config's channels
        groups = {operands: checks for operands, checks in groups.items() if operands and len(operands) == 1}
        if not groups:
            takes = "two matrices" if _CHECKS[only][0] else "the config's channels"
            raise ConfigError(f"no check ran for {only}: it takes {takes}, not one --matrix file")
    run = Run(out_dir, {"mode": "inequalities", "seed": cfg.seed, "checks": {}, "failure": None}, injected)

    def stacks(operands):
        """``(labels, operand stacks, payload)`` per stack of ``operands``: the
        config's channels, profiled, if None; ``payload(i)`` serializes input ``i``."""
        if operands is None:
            pop = sampler.population(
                cfg.seed, cfg.dims, cfg.families, cfg.samples_per_family, stream=100,
                size=lambda d: _stack_size(d**4),
            )
            for _, _, labels, ops in run.drawing(pop):
                yield labels, (profile_channel(ops, labels),), lambda i: chmod.channel_to_json(ops[i])
            return
        if injected is not None:  # the file is the operand, as a population of one stack of one
            pops = [[(None, None, [Path(matrix_path).stem], matrix[None])]]
        else:
            pops = [
                sampler.population(
                    cfg.seed, cfg.dims, (family,), cfg.samples_per_family, stream, size=lambda d: _stack_size(d * d)
                )
                for family, stream in operands
            ]
        for drawn in zip(*map(run.drawing, pops)):
            xs = [x for *_, x in drawn]

            def payload(i):
                texts = [matcore.matrix_to_json(x[i]) for x in xs]
                return texts[0] if len(texts) == 1 else dict(zip("xy", texts))

            yield drawn[0][2], xs, payload

    def record(name: str, labels, batch: spectra.InequalityBatch, payload):
        """Fold one batch into its check; ``payload(i)`` serializes input ``i``
        if it is the run's first failure."""
        # a NaN entry fails its check; the minimum leaves it out, and a check
        # with no finite slack reports none
        entry = run.fold(("checks", name, "count"), batch.passed.size, min_slack=batch.slack)
        first = batch.first_failure()
        entry["passed"] = entry.get("passed", True) and first is None
        if first is not None and run.failure is None:
            label = labels[first[0]]
            failure = {"check": name, "input": label, "kind": "inequality-failed"}
            run.fail("failure", failure, f"INEQUALITY SUITE FAILED: {failure}", label, payload(first[0]))

    with run.evaluating():
        for operands, checks in groups.items():
            # each stack is drawn, and a channel stack profiled, for the group's first check
            first = run.during = checks[0][0]
            for labels, inputs, payload in stacks(operands):
                for name, call in checks:
                    run.during = name
                    record(name, labels, call(cfg, *inputs), payload)
                run.during = first
    return run.finish(lambda s: "inequalities ok: min slack " + ", ".join(
        f"{name}={entry['min_slack']:.3e}" for name, entry in sorted(s["checks"].items())
    ) + f" -> {run.out}")


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
    parser.add_argument(
        "--samples", type=int, metavar="N",
        help="samples per drawn family and dimension (a named family is one channel per dimension)",
    )
    parser.add_argument("--seed", type=int, metavar="N", help="base seed for all sampling")
    parser.add_argument("--out", metavar="DIR", default=DEFAULT_OUT, help="output directory")
    parser.add_argument(
        "--family", metavar="LIST",
        help="comma-separated channel families: cptp, unitary-mixture, unistochastic, named:<channel>[:<param>]",
    )


def _resolve_config(args) -> SweepConfig:
    # an empty value (--q=, --config=) is given, not absent: it is refused by the rule of its key
    cfg = SweepConfig() if args.config is None else _load_input(args.config, "config", _config_from_json)
    updates = {}
    for flag, key, kind in (("q", "q_grid", float), ("s", "s_grid", float), ("dims", "dims", int),
                            ("family", "families", str.strip)):
        if getattr(args, flag, None) is not None:  # sweep alone takes --s
            updates[key] = _parse_list(getattr(args, flag), f"--{flag}", kind)
    if args.samples is not None:
        updates["samples_per_family"] = args.samples
    if args.seed is not None:
        updates["seed"] = args.seed
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
    ineq.add_argument("--only", metavar="CHECK", help=f"one of: {', '.join(_CHECKS)}")
    ineq.add_argument("--matrix", metavar="PATH", help="run the one-matrix checks on this file only")

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
