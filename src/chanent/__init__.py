"""Entropic characteristics of finite-dimensional quantum channels.

Channels live in Kraus form; their dynamical and superoperator matrix
representations carry the map and receiver entropies, whose sum obeys
dimension-dependent lower bounds.  The package computes both entropy
families, verifies the supporting norm and anti-norm inequalities, and
ships samplers plus a CLI harness for Monte-Carlo verification runs.
"""

from .channel import (
    DynamicalMatrix,
    KrausChannel,
    SuperoperatorMatrix,
    apply_channel,
    dynamical_from_kraus,
    is_unital,
    reshuffle,
    superoperator_from_kraus,
)
from .entropy import EntropyParams, map_entropy, q_log, receiver_entropy
from .matcore import Spectrum, hermitian_eigenvalues, partial_trace, singular_values, vec
from .sampler import SamplerConfig, named_channel, sample_channel
from .spectra import InequalityReport, schatten_antinorm, schatten_norm
from .tradeoff import (
    TradeoffReport,
    evaluate_tradeoff,
    gamma_kappa,
    lower_bound,
    profile_channel,
)

__version__ = "0.1.0"

__all__ = [
    "DynamicalMatrix",
    "EntropyParams",
    "InequalityReport",
    "KrausChannel",
    "SamplerConfig",
    "Spectrum",
    "SuperoperatorMatrix",
    "TradeoffReport",
    "apply_channel",
    "dynamical_from_kraus",
    "evaluate_tradeoff",
    "gamma_kappa",
    "hermitian_eigenvalues",
    "is_unital",
    "lower_bound",
    "map_entropy",
    "named_channel",
    "partial_trace",
    "profile_channel",
    "q_log",
    "receiver_entropy",
    "reshuffle",
    "sample_channel",
    "schatten_antinorm",
    "schatten_norm",
    "singular_values",
    "superoperator_from_kraus",
    "vec",
]
