"""Unified two-parameter entropies of the channel representations.

The map entropy is the ``(q, s)``-entropy of the dynamical-matrix spectrum
normalized by ``d`` (its trace); the receiver entropy is the same functional
of the superoperator singular values normalized by their sum.  Both delegate
to one kernel on a normalized weight vector ``w``:

* ``s != 0, q != 1``:  ``(A**s - 1) / ((1-q) s)`` with ``A = sum_j w_j**q``,
* ``s = 0`` (Renyi):   ``ln(A) / (1-q)``,
* ``q = 1`` (von Neumann/Shannon, any ``s``):  ``-sum_j w_j ln w_j``.

Inside a band of half-width ``LIMIT_EPS`` around ``s = 0`` and ``q = 1`` the
closed-form limits replace the generic expression, which loses all precision
there to cancellation; outside the band ``(A**s - 1)/s`` is evaluated as
``expm1(s ln A)/s`` to keep ~12 digits right up to the band edge.  Zero
weights contribute nothing for every ``q > 0`` (continuity convention);
``q <= 0`` is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel as chmod
from .errors import DomainError, InvalidSpectrumError
from .matcore import Spectrum

__all__ = [
    "LIMIT_EPS",
    "EntropyParams",
    "q_log",
    "entropy_from_spectrum",
    "map_entropy",
    "receiver_entropy",
    "uniform_entropy",
]

# Half-width of the q -> 1 and s -> 0 limit bands.
LIMIT_EPS = 1e-8


@dataclass(frozen=True)
class EntropyParams:
    """The entropy order pair ``(q, s)``; ``s = 0`` encodes the Renyi limit."""

    q: float
    s: float

    def __post_init__(self):
        if not (math.isfinite(self.q) and self.q > 0.0 and math.isfinite(self.s)):
            raise DomainError(
                f"entropy orders need finite q > 0 and finite s, got q={self.q}, s={self.s}"
            )

    @property
    def von_neumann_limit(self) -> bool:
        return abs(self.q - 1.0) <= LIMIT_EPS

    @property
    def renyi_limit(self) -> bool:
        return abs(self.s) <= LIMIT_EPS


def q_log(x: float, q: float) -> float:
    """Deformed logarithm ``(x**(1-q) - 1) / (1-q)``, plain ``ln`` at q = 1."""
    if not (x > 0.0):
        raise DomainError(f"q_log needs x > 0, got {x}")
    if not (q > 0.0):
        raise DomainError(f"q_log needs q > 0, got {q}")
    if abs(q - 1.0) <= LIMIT_EPS:
        return math.log(x)
    return math.expm1((1.0 - q) * math.log(x)) / (1.0 - q)


def entropy_from_spectrum(spectrum: Spectrum, normalizer: float, params: EntropyParams) -> float:
    """Unified entropy of ``spectrum.values / normalizer``.

    Shared kernel behind the map and receiver entropies; ``normalizer`` is
    the total weight of the spectrum (the dynamical-matrix trace ``d`` in
    the map case, the singular-value sum in the receiver case).
    """
    vals = np.asarray(spectrum.values, dtype=float)
    if vals.size == 0 or float(vals.min()) < 0.0:
        raise InvalidSpectrumError("spectrum must be nonempty and nonnegative")
    w = vals[vals > 0.0] / normalizer
    if w.size == 0:
        raise InvalidSpectrumError("spectrum carries no weight")
    if params.von_neumann_limit:
        value = float(-np.sum(w * np.log(w)))
    else:
        log_a = math.log(float(np.sum(w**params.q)))
        if params.renyi_limit:
            value = log_a / (1.0 - params.q)
        else:
            value = math.expm1(params.s * log_a) / ((1.0 - params.q) * params.s)
    return value + 0.0  # +0.0 drops a -0.0 sign


def map_entropy(dyn: chmod.DynamicalMatrix, params: EntropyParams) -> float:
    """Entropy of the clamped dynamical-matrix spectrum over weight ``d``.

    Zero for every ``(q, s)`` on unitary channels (rank-1 spectrum) and
    maximal, ``(1/s) q_log(d**(2s))``, on the completely depolarizing one.
    """
    spec = chmod.dynamical_spectrum(dyn)
    return entropy_from_spectrum(spec, float(dyn.dim), params)


def receiver_entropy(sup: chmod.SuperoperatorMatrix, params: EntropyParams) -> float:
    """Entropy of the superoperator singular values over their own sum.

    The normalizer is the trace norm of the superoperator matrix; guarded
    against an all-zero spectrum even though trace preservation rules that
    out.
    """
    spec = chmod.superoperator_spectrum(sup)
    return entropy_from_spectrum(spec, float(np.sum(spec.values)), params)


def uniform_entropy(n: int, params: EntropyParams) -> float:
    """Entropy of the flat distribution on ``n`` outcomes.

    This is the maximum over all spectra of effective rank ``n``, hence the
    rank upper bound for both channel entropies; equals ``(1/s) q_log(n**s)``
    away from the limits and ``ln n`` in both of them.
    """
    if n < 1:
        raise DomainError(f"need at least one outcome, got {n}")
    log_n = math.log(n)
    if params.von_neumann_limit or params.renyi_limit:
        return log_n
    return math.expm1(params.s * (1.0 - params.q) * log_n) / ((1.0 - params.q) * params.s)
