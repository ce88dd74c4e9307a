"""The package's public surface: every exported name resolves, and no removed one is back."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import chanent
from chanent import channel, cli, errors, matcore

MODULES = ("channel", "cli", "entropy", "errors", "matcore", "sampler", "spectra", "tradeoff")

# Routes that left the library: the per-family samplers, second routes to
# what profile_channel and reshuffle(dynamical_from_kraus(ch), d) give, the
# one-cell entropies and the one-cell evaluation, the regime dispatcher of
# the Schatten functions, the closed forms and helpers only the tests used
# (now in tests/oracles.py and tests/helpers.py), the wrappers of spectra, D
# and K, which are plain arrays, the one-input report of the checks, which
# take stacks only, and the channel object with its stacking, config and
# one-sample entry point: a channel is its (k, d, d) Kraus array.  The
# one-cell order pair and bound went to tests/oracles.py: the library
# tabulates bounds with bound_table.  The CLI reads its input files with
# channel_from_json and matrix_from_json, so load_channel went too.  A bound
# violation is data, the grid's violation cell, so its exception went, and
# a cell is the dict GridReport.cell gives, so its report class went.  Every
# cell is asserted, the q = 1 ones too, so the band that exempted them went.
# The suite's Ginibre matrices are population's mat and psd families, so
# the second population generator went.  A cptp sample is drawn once, its
# normalizer never near singular, so the resampling limits and their error went.
# The suite's check names and channel checks are read off its one check table.
# Tr_2 D is one product of the Kraus array and the receiver spectrum is read
# off D, Hermitian by construction, so the partial trace and the separate
# Hermiticity check went.  A matrix is coerced where it is serialized, so
# the 2-D coercion went into matrix_to_json.
REMOVED = {
    "cli": ("CHECK_NAMES", "CHANNEL_CHECKS"),
    "sampler": (
        "sample_cptp", "sample_unitary_mixture", "sample_unistochastic", "unistochastic_from_unitary",
        "derive_seed", "SamplerConfig", "sample_channel", "ginibre_population", "COND_LIMIT",
        "RESAMPLE_ATTEMPTS",
    ),
    "channel": (
        "superoperator_from_kraus", "apply_channel", "unital_defect", "is_unital",
        "DynamicalMatrix", "SuperoperatorMatrix", "save_channel", "KrausChannel", "stack_kraus",
        "load_channel",
    ),
    "entropy": ("q_log", "uniform_entropy", "map_entropy", "receiver_entropy", "EntropyParams"),
    "matcore": ("Spectrum", "vec", "partial_trace", "require_hermitian", "as_matrix"),
    "spectra": ("schatten", "InequalityReport"),
    "tradeoff": ("evaluate_tradeoff", "lower_bound", "TradeoffReport", "LIMIT_EPS", "is_limit_row"),
    "errors": ("BoundViolation", "SingularNormalizerError"),
}


def test_exported_names_resolve_and_removed_ones_stay_removed():
    modules = {name: importlib.import_module(f"chanent.{name}") for name in MODULES}
    for name in chanent.__all__:
        assert hasattr(chanent, name), name
    for module_name, module in modules.items():
        for name in module.__all__:
            assert hasattr(module, name), f"chanent.{module_name}.{name}"
    for module_name, names in REMOVED.items():
        for name in names:
            assert not hasattr(modules[module_name], name), f"chanent.{module_name}.{name}"
            assert not hasattr(chanent, name), f"chanent.{name}"


def test_every_exported_error_is_raised():
    # an exception the package exports but never raises is API for nothing
    raised = set()
    for path in Path(errors.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    assert set(errors.__all__) - raised == set()


def test_spectra_d_and_k_are_plain_float_arrays():
    ch = chanent.named_channel("amplitude-damping", 2, 0.3)
    dyn = chanent.dynamical_from_kraus(ch)
    prof = chanent.profile_channel(ch[None])
    arrays = {
        "hermitian_eigenvalues": matcore.hermitian_eigenvalues(dyn),
        "singular_values": matcore.singular_values(chanent.reshuffle(dyn, 2)),
        "choi_spectrum": prof.choi_spectrum,
        "superop_spectrum": prof.superop_spectrum,
    }
    for name, values in arrays.items():
        assert type(values) is np.ndarray and values.dtype == np.float64, name
    assert arrays["choi_spectrum"].shape == arrays["superop_spectrum"].shape == (1, 4)
    assert type(dyn) is np.ndarray and dyn.shape == (4, 4)
    loaded = channel.channel_from_json(channel.channel_to_json(ch))
    for name, ops in (("named_channel", ch), ("channel_from_json", loaded)):
        assert type(ops) is np.ndarray and ops.dtype == np.complex128 and ops.shape == (2, 2, 2), name


def test_readme_library_tour_runs(capsys, tmp_path):
    # the README's Python block, run as written: a name it imports that left
    # the library fails here; and its JSON config block, run as a sweep's
    # config file
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme[readme.index("## Library tour"):]
    block = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert "cptp 2" in capsys.readouterr().out
    config = tmp_path / "config.json"
    config.write_text(re.search(r"```json\n(.*?)```", readme, re.DOTALL).group(1))
    assert cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "config")]) == 0
    assert capsys.readouterr().out.startswith("sweep ok: 18900 rows,")


def test_library_loads_neither_scipy_nor_mpmath(tmp_path):
    # scipy is no dependency and mpmath a test extra: a run of both
    # subcommands, in a fresh interpreter, imports neither
    src = str(Path(chanent.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    script = (
        "import sys\n"
        "from chanent import cli\n"
        "common = ['--dims', '2', '--samples', '1', '--q', '0.5,2']\n"
        f"assert cli.main(['sweep', *common, '--s', '0', '--out', {str(tmp_path / 'sweep')!r}]) == 0\n"
        f"assert cli.main(['inequalities', *common, '--out', {str(tmp_path / 'ineq')!r}]) == 0\n"
        "print(sorted(name for name in ('scipy', 'mpmath') if name in sys.modules))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
