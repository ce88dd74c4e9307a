"""chanent benchmark: whole CLI runs timed end to end, and a traced run per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-default --seed 1 --seconds 36 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics (``wall_s``,
``checks_per_s``, ``setup_s``, ``peak_rss_mb``), times rescaled to a
reference host speed by ``hostspeed``; with ``--trace 1`` it
reports the per-layer metrics of ``tracing.per_layer_metric_units``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the same
figures for people, plus ``failed_frac`` and the environment stamp.  A
fuller record goes to ``perfbench/out/``.  See ``perfbench/README.md``.

Exit codes: 0 when every output check passed, 1 when one failed (the result
line is still printed, with ``"correct": false``), 2 when the benchmark
cannot run at all (no ``src/chanent`` in the checkout, bad arguments).
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads, here and in every child process.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
BLAS_THREADS = NPROC
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE_DIR = BENCH_DIR / "reference"

sys.path.insert(0, str(BENCH_DIR))
import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402

REFERENCE_SEED = 20250101  # the CLI's shipped default seed
DEFAULT_FAMILIES = ("cptp", "unitary-mixture", "unistochastic")
DEFAULT_Q = (0.3, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0, 5.0)
DEFAULT_S = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)

# Each workload is one CLI invocation.  "timed" is what the end-to-end and
# traced runs repeat at the benchmark's seed; "reference" is a smaller run
# of the same command at REFERENCE_SEED, compared with perfbench/reference/.
WORKLOADS = {
    # What users run: the shipped defaults, 300 channels x 63 cells.  Cost is
    # per-cell scalar Python (entropy kernel, bound, CSV formatting); the
    # representation build is nearly bypassed.
    "sweep-default": {
        "command": "sweep", "dims": (2, 3), "timed_samples": 50, "reference_samples": 4,
        "tiny_samples": 2,
    },
    # The d-scaling ladder: d in {4, 8, 16}, all families, default Kraus
    # counts.  Cost is building D and K and their spectra; the grid is nearly
    # bypassed.
    "sweep-ladder": {
        "command": "sweep", "dims": (4, 8, 16), "timed_samples": 4, "reference_samples": 1,
        "tiny_samples": 1,
    },
    # The norm/anti-norm suite: K built twice per channel, d x d spectra, the
    # spectra layer no sweep touches, no entropy grid and no CSV.
    "inequalities": {
        "command": "inequalities", "dims": (2, 3), "timed_samples": 150, "reference_samples": 50,
        "tiny_samples": 3,
    },
}

MIN_TIMED_RUNS = 3
MIN_SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run in this checkout or with these arguments."""


def run_spec(workload: str, samples_key: str, seed: int) -> dict:
    w = WORKLOADS[workload]
    return {
        "command": w["command"], "dims": w["dims"], "samples": w[samples_key], "seed": seed,
        "families": DEFAULT_FAMILIES, "q_grid": DEFAULT_Q, "s_grid": DEFAULT_S,
    }


def cli_args(spec: dict, out: Path) -> list[str]:
    """Every setting the checks rely on is passed, so that the run does not
    follow the program's shipped defaults if those change."""
    args = [
        spec["command"], "--dims", ",".join(str(d) for d in spec["dims"]),
        "--family", ",".join(spec["families"]), "--q=" + ",".join(map(repr, spec["q_grid"])),
        "--samples", str(spec["samples"]), "--seed", str(spec["seed"]), "--out", str(out),
    ]
    if spec["command"] == "sweep":
        args.append("--s=" + ",".join(map(repr, spec["s_grid"])))
    return args


def output_files(spec: dict) -> tuple[str, ...]:
    return ("report.csv", "summary.json") if spec["command"] == "sweep" else ("summary.json",)


class Runner:
    """Runs the CLI in this process and checks what each run writes."""

    def __init__(self, cli, out: Path):
        self.cli = cli
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.last_spans = None  # (spans, channels) of the latest traced run

    def run(self, spec: dict, tracer=None) -> tuple[float, dict | None, int]:
        """One CLI run: (wall seconds, output files or None, verified units)."""
        for name in ("report.csv", "summary.json"):
            (self.out / name).unlink(missing_ok=True)
        shutil.rmtree(self.out / "counterexamples", ignore_errors=True)
        self.out.mkdir(parents=True, exist_ok=True)
        args = cli_args(spec, self.out)
        captured = io.StringIO()
        error = None
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    code = self.cli.main(args)
                else:
                    with tracer.installed():
                        code = self.cli.main(args)
            except Exception as exc:  # noqa: BLE001 - a crash is a failed run, reported below
                code, error = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
        files = {name: (self.out / name).read_bytes()
                 for name in output_files(spec) if (self.out / name).exists()}
        units = self.units(spec, files)
        if code != 0 or len(files) != len(output_files(spec)):
            self.fail(f"{' '.join(args)}: exit {code}, {error or captured.getvalue().strip()[-300:]}", units)
            return wall, None, units
        self.attempted += units
        return wall, files, units

    def fail(self, problem: str, units: int) -> None:
        self.problems.append(problem)
        self.attempted += max(units, 1)
        self.failed += max(units, 1)

    def check(self, problems: list[str], units: int) -> None:
        """Count a run's units as failed when a check on its output failed."""
        if problems:
            self.problems += problems
            self.failed += max(units, 1)

    @staticmethod
    def units(spec: dict, files: dict) -> int:
        """Verified units read from the output: report rows, or checks run."""
        if spec["command"] == "sweep":
            data = files.get("report.csv", b"")
            return max(data.count(b"\n") - 1, 0)
        try:
            return checks.inequality_count(json.loads(files.get("summary.json", b"{}")))
        except ValueError:
            return 0


def load_reference(workload: str) -> dict:
    base = REFERENCE_DIR / workload
    files = {}
    for path in sorted(base.glob("*")):
        name = path.name[:-3] if path.name.endswith(".gz") else path.name
        files[name] = gzip.decompress(path.read_bytes()) if path.name.endswith(".gz") else path.read_bytes()
    if not files:
        raise BenchError(f"no reference outputs under {base}")
    return files


def write_reference(workload: str, files: dict) -> None:
    base = REFERENCE_DIR / workload
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    for name, data in files.items():
        if name.endswith(".csv"):
            (base / f"{name}.gz").write_bytes(gzip.compress(data, mtime=0))
        else:
            (base / name).write_bytes(data)


def check_outputs(spec: dict, files: dict) -> list[str]:
    if spec["command"] == "sweep":
        return checks.check_sweep(files, spec)
    return checks.check_inequalities(files, spec)


def timed_runs(runner: Runner, spec: dict, seconds: float, first: dict | None, tracer=None, stats=None,
               between=None):
    """Repeat the run for ``seconds``; every run's output must equal ``first``'s bytes.

    Returns the raw wall times, the same times rescaled to the reference host
    speed (``hostspeed``, calibrated right before and right after each run),
    and the rescaled rates of verified units per second.  ``between`` is
    called after each run, so that probes it takes sample the same stretch of
    machine load as the runs.
    """
    walls, scaled, rates = [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_TIMED_RUNS or time.perf_counter() - start < seconds:
        before = hostspeed.calibrate()
        wall, files, units = runner.run(spec, tracer)
        factor = hostspeed.scale(before, hostspeed.calibrate())
        if between is not None:
            between()
        if tracer is not None:
            spans, channels = tracer.take_run()
            stats.add_run(spans, channels, int(wall * 1e9))
            runner.last_spans = (spans, channels)
        walls.append(wall)
        scaled.append(wall * factor)
        rates.append(units / scaled[-1])
        if files is None:
            continue
        if first is None:
            first = files
            runner.check(check_outputs(spec, files), units)
        elif files != first:
            runner.check([f"run {len(walls)} output differs from the first run's bytes"], units)
    return walls, scaled, rates, first


def probe_setup(spec: dict) -> tuple[float, float]:
    """(raw, rescaled) seconds for ``import chanent.cli`` plus config
    resolution, in a fresh interpreter that calibrates host speed first."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(BENCH_DIR)!r})\n"
        "import hostspeed\n"
        "cal = hostspeed.calibrate()\n"
        "t0 = time.perf_counter()\n"
        "import dataclasses\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import chanent.cli as cli\n"
        "cfg = cli.validate_config(dataclasses.replace(cli.SweepConfig(), "
        f"dims={tuple(spec['dims'])!r}, families={tuple(spec['families'])!r}, "
        f"q_grid={tuple(spec['q_grid'])!r}, s_grid={tuple(spec['s_grid'])!r}, "
        f"samples_per_family={spec['samples']}, seed={spec['seed']}))\n"
        "setup = time.perf_counter() - t0\n"
        "print(repr(setup), repr(setup * hostspeed.scale(cal, hostspeed.calibrate())))\n"
    )
    raw, scaled = _child(code).stdout.strip().splitlines()[-1].split()
    return float(raw), float(scaled)


def probe_rss(spec: dict, out: Path) -> tuple[float, int]:
    """(peak resident MiB, exit code) of a fresh process running the workload once."""
    code = (
        "import json, resource, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import chanent.cli as cli\n"
        f"code = cli.main({cli_args(spec, out)!r})\n"
        "print(json.dumps({'exit': code, 'maxrss_kib': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))\n"
    )
    result = json.loads(_child(code).stdout.strip().splitlines()[-1])
    return result["maxrss_kib"] / 1024.0, result["exit"]


def _child(code: str) -> subprocess.CompletedProcess:
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=ROOT,
        timeout=PROBE_TIMEOUT_S, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    if result.returncode != 0 or not result.stdout.strip():
        raise BenchError(f"probe process failed ({result.returncode}): {result.stderr.strip()[-500:]}")
    return result


def environment_stamp(np) -> dict:
    blas = {}
    with contextlib.suppress(Exception):  # show_config's layout varies across numpy versions
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "chanent").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu = ""
    with contextlib.suppress(OSError):
        cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo", encoding="utf-8")
                    if line.startswith("model name")), "")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "cpu": cpu or platform.machine(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def import_chanent():
    if not (SRC / "chanent" / "__init__.py").is_file():
        raise BenchError(f"no chanent sources at {SRC}; run from the root of a chanent checkout")
    sys.path.insert(0, str(SRC))
    import numpy as np

    import chanent.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "chanent").resolve():
        raise BenchError(f"imported chanent from {cli.__file__}, not from {SRC}")
    return cli, np


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def bench(args) -> int:
    cli, np = import_chanent()
    workload = args.workload
    samples_key = "tiny_samples" if args.tiny else "timed_samples"
    spec = run_spec(workload, samples_key, args.seed)
    ref_spec = run_spec(workload, "reference_samples", REFERENCE_SEED)
    out = OUT_DIR / workload
    runner = Runner(cli, out / "run")
    env = environment_stamp(np)

    # The reference run comes first and also warms up lazy imports and caches.
    _, ref_files, ref_units = runner.run(ref_spec)
    if ref_files is not None:
        reference = load_reference(workload)
        runner.check([f"reference: {p}" for p in checks.compare_to_reference(ref_files, reference)],
                     ref_units)

    lines = []
    if args.trace:
        tracer, stats = tracing.Tracer(), tracing.TraceStats()
        half = args.seconds / 2.0
        _, plain, _, first = timed_runs(runner, spec, half, None)
        _, traced, _, _ = timed_runs(runner, spec, half, first, tracer, stats)
        overhead = statistics.median(traced) - statistics.median(plain)
        values = stats.metrics(tracer, overhead)
        units = tracing.per_layer_metric_units()
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        spans_path = out / f"spans-seed{args.seed}.csv.gz"
        if runner.last_spans is not None:
            tracing.write_spans(spans_path, *runner.last_spans)
        lines.append(f"traced runs: {len(traced)}, untraced runs: {len(plain)}, "
                     f"overhead {overhead:.4f} s, spans of the last run -> {spans_path.relative_to(ROOT)}")
        shares = {m: values[f"layer.{m}.self_share"] for m in tracing.MODULES}
        lines.append("self-time share by layer: " + ", ".join(f"{m} {v:.3f}" for m, v in shares.items())
                     + f", uncovered {values['trace.uncovered_share']:.3f}")
        lines.append("per-channel ms by (d, family): layer " + " ".join(l for l, _ in tracing.BREAKDOWN_LAYERS))
        for (d, fam), row in stats.breakdown_ms().items():
            lines.append(f"  d={d} {fam}: " + " ".join(f"{v:.3f}" for v in row.values()))
        extra = {"breakdown_ms": {f"d{d}.{fam}": row for (d, fam), row in stats.breakdown_ms().items()},
                 "missing_spans": tracer.missing}
    else:
        probes = []
        raw_walls, walls, rates, _ = timed_runs(runner, spec, args.seconds, None,
                                                between=lambda: probes.append(probe_setup(spec)))
        while len(probes) < MIN_SETUP_PROBES:
            probes.append(probe_setup(spec))
        raw_setups = [raw for raw, _ in probes]
        setups = [scaled for _, scaled in probes]
        # Peak memory repeats to within 0.3% from run to run, so one process suffices.
        mib, code = probe_rss(spec, out / "rss")
        rss = [mib]
        if code != 0:
            runner.fail(f"fresh-process run exited {code}", 1)
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "checks_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MiB"},
        }
        for name, samples in (("wall_s", walls), ("checks_per_s", rates), ("setup_s", setups),
                              ("peak_rss_mb", rss)):
            q1, _, q3 = quartiles(samples)
            lines.append(f"{name:13s} {metrics[name]['value']:.6g} {metrics[name]['unit']:4s} "
                         f"(median of {len(samples)}; quartiles {q1:.6g} .. {q3:.6g}; "
                         f"min {min(samples):.6g}, max {max(samples):.6g})")
        lines.append(f"unscaled      wall_s median {statistics.median(raw_walls):.6g} s, setup_s median "
                     f"{statistics.median(raw_setups):.6g} s; host at {statistics.median(walls) / statistics.median(raw_walls):.3f} "
                     "of the reference speed")
        extra = {"samples": {"wall_s": walls, "checks_per_s": rates, "setup_s": setups, "peak_rss_mb": rss,
                             "unscaled_wall_s": raw_walls, "unscaled_setup_s": raw_setups}}

    failed_frac = runner.failed / max(runner.attempted, 1)
    lines.append(f"{'failed_frac':13s} {failed_frac:.6g} share ({runner.failed} of {runner.attempted} checks)")
    lines.append("env: " + json.dumps(env, sort_keys=True))
    for problem in runner.problems[:20]:
        lines.append(f"PROBLEM: {problem}")
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    record = {**result, "workload": workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "failed_frac": failed_frac, "env": env,
              "problems": runner.problems, **extra}
    out.mkdir(parents=True, exist_ok=True)
    record_path = out / f"result-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    lines.append(f"record -> {record_path.relative_to(ROOT)}")
    print(f"workload {workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def regenerate_reference() -> int:
    """Write the reference outputs of every workload from the current sources."""
    cli, _ = import_chanent()
    runner = Runner(cli, OUT_DIR / "regen")
    for workload in WORKLOADS:
        spec = run_spec(workload, "reference_samples", REFERENCE_SEED)
        _, files, _ = runner.run(spec)
        if files is None or check_outputs(spec, files):
            print(f"{workload}: reference run failed: {runner.problems or check_outputs(spec, files)}",
                  file=sys.stderr)
            return 1
        write_reference(workload, files)
        print(f"{workload}: reference written to {REFERENCE_DIR / workload}")
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="CLI seed of the timed runs (>= 0)")
    parser.add_argument("--seconds", type=float, default=36.0, help="how long the timed runs last")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a few samples per run, for smoke tests")
    parser.add_argument("--regen-reference", action="store_true",
                        help="write the reference outputs from the current sources and exit")
    args = parser.parse_args(argv)
    if not args.regen_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.regen_reference:
            return regenerate_reference()
        return bench(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
