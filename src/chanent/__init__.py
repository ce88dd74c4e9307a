"""Entropic characteristics of finite-dimensional quantum channels.

Channels live in Kraus form; their dynamical and superoperator matrix
representations carry the map and receiver entropies, whose sum obeys
dimension-dependent lower bounds.  The package computes both entropy
families, verifies the supporting norm and anti-norm inequalities, and
ships samplers plus a CLI harness for Monte-Carlo verification runs.
"""

from .channel import (
    dynamical_from_kraus,
    profile_channel,
    reshuffle,
)
from .matcore import hermitian_eigenvalues, singular_values
from .sampler import named_channel
from .spectra import schatten_antinorm, schatten_norm
from .tradeoff import gamma_kappa

__version__ = "0.1.0"

__all__ = [
    "dynamical_from_kraus",
    "gamma_kappa",
    "hermitian_eigenvalues",
    "named_channel",
    "profile_channel",
    "reshuffle",
    "schatten_antinorm",
    "schatten_norm",
    "singular_values",
]
