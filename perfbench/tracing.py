"""Span tracing around chanent's layer entry points, installed from outside.

The tracer replaces each entry point with a wrapper at the name the caller
looks it up by (``cli`` imports ``evaluate_profile`` by name, so the wrapper
goes into ``chanent.cli``; ``channel`` calls ``matcore.hermitian_eigenvalues``
through the module, so it goes into ``chanent.matcore``), and restores the
originals afterwards.  ``src/`` is never edited.

Each span records its name, start, end, parent span and the channel being
processed: the channel most recently drawn by ``sampler.sample_channel``,
until the CLI starts writing its outputs.  Spans stay in memory; the
aggregated statistics and the spans of the last traced run are written out
by the caller when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import math
import sys
import time
from array import array

# (module the caller looks the name up in, attribute, span name)
SPANS = (
    ("chanent.sampler", "sample_channel", "sampler.sample_channel"),
    ("chanent.channel", "dynamical_from_kraus", "channel.dynamical_from_kraus"),
    ("chanent.channel", "superoperator_from_kraus", "channel.superoperator_from_kraus"),
    ("chanent.channel", "is_unital", "channel.is_unital"),
    ("chanent.matcore", "hermitian_eigenvalues", "matcore.hermitian_eigenvalues"),
    ("chanent.matcore", "singular_values", "matcore.singular_values"),
    ("chanent.tradeoff", "entropy_from_spectrum", "entropy.entropy_from_spectrum"),
    ("chanent.cli", "profile_channel", "tradeoff.profile_channel"),
    ("chanent.cli", "evaluate_profile", "tradeoff.evaluate_profile"),
    ("chanent.tradeoff", "lower_bound", "tradeoff.lower_bound"),
    ("chanent.spectra", "check_prop1", "spectra.check_prop1"),
    ("chanent.spectra", "check_two_inf_one", "spectra.check_two_inf_one"),
    ("chanent.spectra", "check_antinorm_monotonicity", "spectra.check_antinorm_monotonicity"),
    ("chanent.spectra", "check_superadditivity", "spectra.check_superadditivity"),
    ("chanent.spectra", "check_superop_norm_bound", "spectra.check_superop_norm_bound"),
    ("chanent.spectra", "check_norm_product_chain", "spectra.check_norm_product_chain"),
    ("chanent.cli", "_write_csv", "cli.write_report"),
    ("chanent.cli", "_write_json", "cli.write_summary"),
)
SPAN_NAMES = tuple(name for _, _, name in SPANS)
BUILD_SPANS = ("channel.dynamical_from_kraus", "channel.superoperator_from_kraus")
WRITE_SPANS = ("cli.write_report", "cli.write_summary")
# The write spans run once per CLI run, so a p90 over them would rest on
# fewer than ten samples beyond it; they report calls, self time and p50.
NO_P90 = WRITE_SPANS
MODULES = ("sampler", "channel", "matcore", "entropy", "tradeoff", "spectra", "cli")

# Per-channel layers of the (d, family) breakdown, as in ROADMAP's baseline
# table; each is the inclusive time of the spans listed.
BREAKDOWN_LAYERS = (
    ("sample", ("sampler.sample_channel",)),
    ("build", BUILD_SPANS),
    ("unital", ("channel.is_unital",)),
    ("spectra", ("matcore.hermitian_eigenvalues", "matcore.singular_values")),
    ("grid", ("tradeoff.evaluate_profile",)),
)


def per_layer_metric_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
        units[f"{name}.p50_us"] = "us"
        if name not in NO_P90:
            units[f"{name}.p90_us"] = "us"
    units["tradeoff.lower_bound.distinct_ratio"] = "ratio"
    units["channel.superoperator_from_kraus.per_channel"] = "count"
    units["channel.build_gflops_computed"] = "Gcmadd/s"
    units["trace.uncovered_share"] = "share"
    units["trace.overhead_s"] = "s"
    units["spectra.checks.inclusive_share"] = "share"
    for module in MODULES:
        units[f"layer.{module}.self_share"] = "share"
    return units


class Tracer:
    """Collects spans while installed; aggregates them run by run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, channel]
        self.channels: list[tuple] = []  # channel index -> (dim, family)
        self._stack: list[int] = []
        self._channel = None
        self.missing: list[str] = []
        # lower_bound argument tuples seen in the current run, and the sum over
        # finished runs of their counts, for the distinct ratio
        self.bound_keys: set = set()
        self.distinct_bound_keys = 0
        self.build_cmadds = 0
        self._before = self._hooks()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        before = self._before.get(name)

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            rec = [name, clock(), 0, stack[-1] if stack else -1, self._channel]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _hooks(self) -> dict:
        def on_sample(args, kwargs):
            cfg = args[0] if args else kwargs.get("cfg")
            self.channels.append((getattr(cfg, "dim", None), getattr(cfg, "family", None)))
            self._channel = len(self.channels) - 1

        def on_write(args, kwargs):
            self._channel = None

        def on_bound(args, kwargs):
            with contextlib.suppress(TypeError):  # unhashable arguments: not counted
                self.bound_keys.add((args, tuple(sorted(kwargs.items()))))

        def on_build(args, kwargs):
            ch = args[0] if args else kwargs.get("ch")
            with contextlib.suppress(AttributeError, TypeError):
                self.build_cmadds += len(ch.kraus_ops) * ch.dim**4

        hooks = {"sampler.sample_channel": on_sample, "tradeoff.lower_bound": on_bound}
        hooks.update({name: on_write for name in WRITE_SPANS})
        hooks.update({name: on_build for name in BUILD_SPANS})
        return hooks

    @contextlib.contextmanager
    def installed(self):
        """Patch every reachable entry point; always restore the originals."""
        patched = []
        try:
            for module_name, attr, name in SPANS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if not callable(original):
                    if name not in self.missing:
                        self.missing.append(name)
                        print(f"trace: {module_name}.{attr} not found; span {name} stays empty",
                              file=sys.stderr)
                    continue
                setattr(module, attr, self._wrap(name, original))
                patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def take_run(self) -> tuple[list, list]:
        """Hand over the spans and channels of the run just finished."""
        spans, channels = self.spans, self.channels
        self.spans, self.channels = [], []
        self.distinct_bound_keys += len(self.bound_keys)
        self.bound_keys = set()
        self._stack.clear()
        self._channel = None
        return spans, channels


class TraceStats:
    """Per-span totals and duration samples accumulated over traced runs."""

    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_ns = dict.fromkeys(SPAN_NAMES, 0)
        self.durations = {name: array("q") for name in SPAN_NAMES}
        self.covered_ns = 0
        self.checks_ns = 0  # inclusive time inside spectra.check_* spans
        self.wall_ns = 0
        self.channel_count: dict = {}
        self.breakdown_ns: dict = {}

    def add_run(self, spans: list, channels: list, wall_ns: int) -> None:
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        layer_of = {span: layer for layer, names in BREAKDOWN_LAYERS for span in names}
        for i, (name, start, end, parent, channel) in enumerate(spans):
            dur = end - start
            self.calls[name] += 1
            self.self_ns[name] += dur - child_ns[i]
            self.durations[name].append(dur)
            if parent < 0:
                self.covered_ns += dur
            if name.startswith("spectra.check_"):
                self.checks_ns += dur
            layer = layer_of.get(name)
            if layer is not None and channel is not None:
                key = (*channels[channel], layer)
                self.breakdown_ns[key] = self.breakdown_ns.get(key, 0) + dur
        for key in channels:
            self.channel_count[key] = self.channel_count.get(key, 0) + 1
        self.wall_ns += wall_ns

    def breakdown_ms(self) -> dict:
        """(dim, family) -> {layer: ms per channel} for every traced channel."""
        table = {}
        for key, count in sorted(self.channel_count.items(), key=lambda kv: (kv[0][0] or 0, str(kv[0][1]))):
            table[key] = {
                layer: self.breakdown_ns.get((*key, layer), 0) / count / 1e6
                for layer, _ in BREAKDOWN_LAYERS
            }
        return table

    def metrics(self, tracer: Tracer, overhead_s: float) -> dict:
        """Every per-layer metric as ``{name: value}``."""
        out = {}
        for name in SPAN_NAMES:
            durs = sorted(self.durations[name])
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_ms"] = self.self_ns[name] / 1e6
            out[f"{name}.p50_us"] = _quantile(durs, 0.5) / 1e3
            if name not in NO_P90:
                out[f"{name}.p90_us"] = _quantile(durs, 0.9) / 1e3
        bound_calls = self.calls["tradeoff.lower_bound"]
        out["tradeoff.lower_bound.distinct_ratio"] = (
            tracer.distinct_bound_keys / bound_calls if bound_calls else 0.0
        )
        samples = self.calls["sampler.sample_channel"]
        out["channel.superoperator_from_kraus.per_channel"] = (
            self.calls["channel.superoperator_from_kraus"] / samples if samples else 0.0
        )
        build_ns = sum(self.self_ns[name] for name in BUILD_SPANS)
        out["channel.build_gflops_computed"] = tracer.build_cmadds / build_ns if build_ns else 0.0
        wall = self.wall_ns or 1
        out["trace.uncovered_share"] = 1.0 - self.covered_ns / wall
        out["trace.overhead_s"] = overhead_s
        out["spectra.checks.inclusive_share"] = self.checks_ns / wall
        for module in MODULES:
            own = sum(ns for name, ns in self.self_ns.items() if name.split(".")[0] == module)
            out[f"layer.{module}.self_share"] = own / wall
        return out


def _quantile(sorted_values, p: float) -> float:
    """Nearest-rank quantile; 0 for no samples."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(p * len(sorted_values)))
    return float(sorted_values[rank - 1])


def write_spans(path, spans: list, channels: list) -> None:
    """Write one run's spans as gzipped CSV, times in microseconds from its start."""
    origin = spans[0][1] if spans else 0
    with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
        fh.write("span_id,name,start_us,end_us,parent_id,channel\n")
        for i, (name, start, end, parent, channel) in enumerate(spans):
            label = ""
            if channel is not None:
                dim, fam = channels[channel]
                label = f"{fam}-d{dim}-#{channel}"
            fh.write(f"{i},{name},{(start - origin) / 1e3:.3f},{(end - origin) / 1e3:.3f},"
                     f"{parent},{label}\n")
