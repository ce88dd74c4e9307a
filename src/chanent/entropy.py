"""Unified two-parameter entropies of the channel representations.

The map entropy is the ``(q, s)``-entropy of the dynamical-matrix spectrum
normalized by ``d`` (its trace); the receiver entropy is the same functional
of the superoperator singular values normalized by their sum.  Both come from
one kernel, :func:`entropy_grid`, on a normalized weight vector ``w``:

* ``s != 0, q != 1``:  ``(A**s - 1) / ((1-q) s)`` with ``A = sum_j w_j**q``,
* ``s = 0`` (Renyi):   ``ln(A) / (1-q)``,
* ``q = 1`` (von Neumann/Shannon, any ``s``):  ``-sum_j w_j ln w_j``.

The kernel evaluates a whole ``(q, s)`` grid at once: ``ln A`` once per
``q`` from the ``(n_q, n_w)`` power matrix ``w**q``, then the ``s``
dependence by broadcasting.  Inside a band of half-width ``LIMIT_EPS`` around
``s = 0`` and ``q = 1`` the closed-form limits replace the generic
expression, which loses all precision there to cancellation; outside the
band ``(A**s - 1)/s`` is evaluated as ``expm1(s ln A)/s`` to keep ~12 digits
right up to the band edge.  Zero weights contribute nothing for every
``q > 0`` (continuity convention); ``q <= 0`` is rejected.  Cells whose value
does not fit a double (``|s|`` or ``q`` so large that ``A**s`` overflows)
come out as ``inf`` or ``nan``, for the caller to check; ``A`` itself may
underflow at large ``q`` without harm, because ``ln A`` is then taken in the
scaled form ``q ln w_max + ln sum (w/w_max)**q``.
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
    "entropy_grid",
    "entropy_from_spectrum",
    "map_entropy",
    "receiver_entropy",
    "uniform_entropy",
]

# Half-width of the q -> 1 and s -> 0 limit bands.
LIMIT_EPS = 1e-8
# Smallest normal double: a power sum below it has lost digits to underflow.
_TINY = float(np.finfo(float).tiny)


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


def entropy_grid(spectrum: Spectrum, normalizer, q_grid, s_grid) -> np.ndarray:
    """Unified entropies of ``spectrum.values / normalizer`` on the grid ``q_grid x s_grid``.

    Returns the ``(len(q_grid), len(s_grid))`` array, cell ``[i, j]`` at
    ``(q_grid[i], s_grid[j])``.  ``normalizer`` is the total weight of the
    spectrum (the dynamical-matrix trace ``d`` in the map case, the
    singular-value sum in the receiver case).  A stack of ``n`` spectra
    ``(n, m)`` takes one normalizer or one per row and gives
    ``(n, len(q_grid), len(s_grid))``; shorter spectra are padded with zeros,
    which carry no weight.  When all rows have their zeros in the same places
    (descending spectra of one rank), each row's result equals the
    one-spectrum call exactly; a row with more zeros than others is summed in
    another grouping and may differ from that call by rounding, which the
    generic form amplifies by ``1/|q-1|`` next to the ``q = 1`` band.
    """
    vals = np.asarray(spectrum.values, dtype=float)
    if vals.size == 0 or float(vals.min()) < 0.0:
        raise InvalidSpectrumError("spectrum must be nonempty and nonnegative")
    rows = np.atleast_2d(vals)
    pos = rows > 0.0
    if not pos.any(axis=-1).all():
        raise InvalidSpectrumError("spectrum carries no weight")
    # Zero weights stay in place: 0**q = 0 for every q > 0, and the q = 1 term
    # masks w ln w there.  Entries zero in every row are dropped, so a single
    # spectrum, or a stack of equal rank, is summed over its nonzero weights
    # alone, in the same order as without the padding.  compress keeps each
    # row contiguous (a boolean-index copy is column-major), which keeps the
    # row sums below pairwise, as for one spectrum.
    keep = pos.any(axis=0)
    w = (rows.compress(keep, axis=-1) / np.reshape(normalizer, (-1, 1)))[:, None, :]
    pos = pos.compress(keep, axis=-1)[:, None, :]
    q = np.asarray(q_grid, dtype=float).reshape(-1, 1)
    s = np.asarray(s_grid, dtype=float).reshape(1, -1)
    if not ((q > 0.0).all() and np.isfinite(q).all() and np.isfinite(s).all()):
        raise DomainError(f"entropy orders need finite q > 0 and finite s, got q={q_grid}, s={s_grid}")
    # The cells a limit form replaces divide by zero here, and out-of-range
    # orders overflow; both are left to IEEE arithmetic.
    with np.errstate(all="ignore"):
        a = (w**q).sum(axis=-1, keepdims=True)
        log_a = np.log(a)
        # Once w_max**q drops below the smallest normal double, A loses its
        # digits and then underflows to 0 (large q).  There ln A is taken in
        # the scaled form q ln w_max + ln sum (w/w_max)**q; elsewhere the plain
        # form is as accurate or better (measured against mpmath for q from
        # 0.3 to 100), and near q = 1 the scaled form's two O(1) terms cancel.
        small = a < _TINY
        if small.any():
            w_max = w.max(axis=-1, keepdims=True)
            scaled = q * np.log(w_max) + np.log(((w / w_max) ** q).sum(axis=-1, keepdims=True))
            log_a = np.where(small, scaled, log_a)
        value = np.where(
            np.abs(s) <= LIMIT_EPS, log_a / (1.0 - q), np.expm1(s * log_a) / ((1.0 - q) * s)
        )
        shannon = -np.where(pos, w * np.log(w), 0.0).sum(axis=-1, keepdims=True)
        value = np.where(np.abs(q - 1.0) <= LIMIT_EPS, shannon, value)
    value = value + 0.0  # +0.0 drops a -0.0 sign
    return value[0] if vals.ndim == 1 else value


def entropy_from_spectrum(spectrum: Spectrum, normalizer: float, params: EntropyParams) -> float:
    """Unified entropy of ``spectrum.values / normalizer`` at one ``(q, s)``."""
    return float(entropy_grid(spectrum, normalizer, (params.q,), (params.s,))[0, 0])


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
