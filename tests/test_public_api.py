"""The package's public surface: every exported name resolves, and no removed one is back."""

import importlib

import chanent

MODULES = ("channel", "cli", "entropy", "errors", "matcore", "sampler", "spectra", "tradeoff")

# Routes that left the library: wrappers of sample_channel, second routes to
# what profile_channel and dynamical_from_kraus(ch).superoperator() give,
# the one-cell entropies (evaluate_tradeoff's report carries both), the
# regime dispatcher of the Schatten functions, and the closed forms only the
# tests used (now in tests/oracles.py).
REMOVED = {
    "sampler": ("sample_cptp", "sample_unitary_mixture", "sample_unistochastic", "unistochastic_from_unitary"),
    "channel": ("superoperator_from_kraus", "apply_channel", "unital_defect", "is_unital"),
    "entropy": ("q_log", "uniform_entropy", "map_entropy", "receiver_entropy"),
    "spectra": ("schatten",),
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
