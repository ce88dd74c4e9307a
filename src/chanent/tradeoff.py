"""Lower bounds on the sum of the map and receiver entropies.

For system dimension ``d`` and orders ``q > 0``, ``s``, the entropic sum is
bounded below by ``(gamma/s) q_log_q(d**(s*kappa/gamma))`` over all channels
and by the same expression with ``2*s*kappa/gamma`` over unital ones, where

* ``gamma`` is 1 when ``(1-q) s < 0`` and 2 when it is positive, and
* ``kappa`` is 1 for ``q <= 2`` and ``q / (2 (q-1))`` beyond.

The ``s = 0`` limits are ``kappa ln d`` and ``2 kappa ln d``.  The bound's
derivation excludes ``q = 1`` exactly, so on that row the evaluator reports
the ``q -> 1`` limit value (``kappa = 1``) without asserting it as a theorem:
:class:`BoundViolation` is raised only off the ``q = 1`` band.

The auxiliary minimizations behind the bound, over the planar regions
``{0 <= x, y <= 1, x y <= a}`` and ``{x, y >= 1, x y >= b}``, have closed
forms ``1 - a`` and ``2 (sqrt(b) - 1)``; those closed forms, their
grid-search oracles and the check of the norm-ratio preconditions live in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel as chmod
from .entropy import LIMIT_EPS, EntropyParams, entropy_from_spectrum
from .errors import BoundViolation, DomainError
from .matcore import Spectrum

__all__ = [
    "SAT_TOL",
    "GAP_TOL",
    "gamma_kappa",
    "lower_bound",
    "ChannelProfile",
    "profile_channel",
    "TradeoffReport",
    "evaluate_profile",
    "evaluate_tradeoff",
]

# Gap below which a report is flagged as saturating its bound; separates
# analytic equality from generic small gaps at double precision.
SAT_TOL = 1e-7
# Negative gap beyond this is a bound violation, not rounding.
GAP_TOL = 1e-9


def _kappa(q: float) -> float:
    # Both branches give 1 at q = 2.
    return 1.0 if q <= 2.0 else q / (2.0 * (q - 1.0))


def gamma_kappa(q: float, s: float) -> tuple[int, float]:
    """The piecewise bound exponents ``(gamma, kappa)`` for orders off the limits."""
    if not (q > 0.0):
        raise DomainError(f"need q > 0, got {q}")
    if abs(q - 1.0) <= LIMIT_EPS or abs(s) <= LIMIT_EPS:
        raise DomainError(f"gamma is undefined on the limit rows q=1 / s=0 (q={q}, s={s})")
    gamma = 1 if (1.0 - q) * s < 0.0 else 2
    return gamma, _kappa(q)


def lower_bound(d: int, params: EntropyParams, unital: bool) -> float:
    """Lower bound on the entropic sum for dimension ``d`` at ``params``.

    Unital channels get the sharper bound with the doubled exponent.  On the
    ``s = 0`` row this is ``kappa ln d`` (``2 kappa ln d`` unital); on the
    ``q = 1`` row, the limit value with ``kappa = 1``.
    """
    if d < 2:
        raise DomainError(f"need dimension d >= 2, got {d}")
    factor = 2.0 if unital else 1.0
    log_d = math.log(d)
    if params.von_neumann_limit:
        return factor * log_d
    kappa = _kappa(params.q)
    if params.renyi_limit:
        return factor * kappa * log_d
    gamma, _ = gamma_kappa(params.q, params.s)
    exponent = factor * params.s * kappa / gamma
    # (gamma/s) * q_log(d**exponent) with the inner power folded into expm1.
    return gamma / params.s * math.expm1((1.0 - params.q) * exponent * log_d) / (1.0 - params.q)


@dataclass(frozen=True, eq=False)
class ChannelProfile:
    """Everything the grid evaluation needs, computed once per channel."""

    channel_id: str
    dim: int
    unital: bool
    choi_spectrum: Spectrum
    superop_spectrum: Spectrum


def profile_channel(ch: chmod.KrausChannel, channel_id: str = "") -> ChannelProfile:
    """Extract the two spectra and the unital flag of a channel."""
    dyn = chmod.dynamical_from_kraus(ch)
    return ChannelProfile(
        channel_id=channel_id,
        dim=ch.dim,
        unital=chmod.is_unital(ch),
        choi_spectrum=chmod.dynamical_spectrum(dyn),
        superop_spectrum=chmod.superoperator_spectrum(dyn.superoperator()),
    )


@dataclass(frozen=True, eq=False)
class TradeoffReport:
    """One cell of the trade-off evaluation.

    ``bound_unital`` is present only for unital channels; ``gap`` is the
    entropic sum minus the sharpest applicable bound and stays above
    ``-GAP_TOL`` for every valid channel off the ``q = 1`` row (that is the
    statement under test).
    """

    channel_id: str
    params: EntropyParams
    map_value: float
    receiver_value: float
    bound_all: float
    bound_unital: float | None
    gap: float
    saturated: bool


def evaluate_profile(
    profile: ChannelProfile,
    params: EntropyParams,
    sat_tol: float = SAT_TOL,
    gap_tol: float = GAP_TOL,
) -> TradeoffReport:
    """Entropic sum, applicable bound(s) and gap for one grid cell.

    Raises :class:`BoundViolation` carrying the full report if the gap drops
    below ``-gap_tol`` outside the ``q = 1`` band; such a failure is either
    a tolerance problem or a genuine bug and must never be ignored.
    """
    m = entropy_from_spectrum(profile.choi_spectrum, float(profile.dim), params)
    r = entropy_from_spectrum(
        profile.superop_spectrum, float(np.sum(profile.superop_spectrum.values)), params
    )
    bound_all = lower_bound(profile.dim, params, unital=False)
    bound_unital = lower_bound(profile.dim, params, unital=True) if profile.unital else None
    applicable = bound_unital if bound_unital is not None else bound_all
    gap = (m + r) - applicable
    report = TradeoffReport(
        channel_id=profile.channel_id,
        params=params,
        map_value=m,
        receiver_value=r,
        bound_all=bound_all,
        bound_unital=bound_unital,
        gap=gap,
        saturated=gap <= sat_tol,
    )
    if gap < -gap_tol and not params.von_neumann_limit:
        raise BoundViolation(
            f"entropic sum fell {-gap:.3e} below the bound on channel "
            f"{profile.channel_id!r} at q={params.q}, s={params.s}",
            report,
        )
    return report


def evaluate_tradeoff(ch: chmod.KrausChannel, params: EntropyParams, channel_id: str = "") -> TradeoffReport:
    """Profile a channel and evaluate one grid cell."""
    return evaluate_profile(profile_channel(ch, channel_id), params)
