"""Entropic characteristics of finite-dimensional quantum channels.

Channels live in Kraus form; their dynamical and superoperator matrix
representations carry the map and receiver entropies, whose sum obeys
dimension-dependent lower bounds.  The package computes both entropy
families, verifies the supporting norm and anti-norm inequalities, and
ships samplers plus a CLI harness for Monte-Carlo verification runs.
"""

from .channel import (
    KrausChannel,
    dynamical_from_kraus,
    profile_channel,
    reshuffle,
)
from .entropy import EntropyParams
from .matcore import hermitian_eigenvalues, partial_trace, singular_values
from .sampler import SamplerConfig, named_channel, sample_channel
from .spectra import schatten_antinorm, schatten_norm
from .tradeoff import (
    TradeoffReport,
    evaluate_tradeoff,
    gamma_kappa,
    lower_bound,
)

__version__ = "0.1.0"

__all__ = [
    "EntropyParams",
    "KrausChannel",
    "SamplerConfig",
    "TradeoffReport",
    "dynamical_from_kraus",
    "evaluate_tradeoff",
    "gamma_kappa",
    "hermitian_eigenvalues",
    "lower_bound",
    "named_channel",
    "partial_trace",
    "profile_channel",
    "reshuffle",
    "sample_channel",
    "schatten_antinorm",
    "schatten_norm",
    "singular_values",
]
