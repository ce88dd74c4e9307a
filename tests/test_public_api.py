"""The package's public surface: every exported name resolves, and no removed one is back."""

import importlib

import numpy as np

import chanent
from chanent import channel, matcore

MODULES = ("channel", "cli", "entropy", "errors", "matcore", "sampler", "spectra", "tradeoff")

# Routes that left the library: wrappers of sample_channel, second routes to
# what profile_channel and reshuffle(dynamical_from_kraus(ch), d) give, the
# one-cell entropies (evaluate_tradeoff's report carries both), the regime
# dispatcher of the Schatten functions, the closed forms and helpers only the
# tests used (now in tests/oracles.py and tests/helpers.py), the wrappers of
# spectra, D and K, which are plain arrays, and the one-input report of the
# checks, which take stacks only.
REMOVED = {
    "sampler": (
        "sample_cptp", "sample_unitary_mixture", "sample_unistochastic", "unistochastic_from_unitary",
        "derive_seed",
    ),
    "channel": (
        "superoperator_from_kraus", "apply_channel", "unital_defect", "is_unital",
        "DynamicalMatrix", "SuperoperatorMatrix", "save_channel",
    ),
    "entropy": ("q_log", "uniform_entropy", "map_entropy", "receiver_entropy"),
    "matcore": ("Spectrum", "vec"),
    "spectra": ("schatten", "InequalityReport"),
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
    assert not hasattr(channel.KrausChannel, "tp_defect")


def test_spectra_d_and_k_are_plain_float_arrays():
    ch = chanent.named_channel("amplitude-damping", 2, 0.3)
    dyn = chanent.dynamical_from_kraus(ch)
    prof = chanent.profile_channel(channel.stack_kraus([ch]))
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
