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

A channel is evaluated on a whole ``(q, s)`` grid at once: the bounds of
one dimension are tabulated once (:func:`bound_table`), and
:func:`evaluate_profile` computes the map and receiver entropies and the gap
of every cell of that table in one array pass.

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
from .entropy import LIMIT_EPS, EntropyParams, entropy_grid
from .errors import BoundViolation, DimensionMismatchError, DomainError
from .matcore import Spectrum

__all__ = [
    "SAT_TOL",
    "GAP_TOL",
    "gamma_kappa",
    "lower_bound",
    "BoundTable",
    "bound_table",
    "ChannelProfile",
    "profile_channel",
    "TradeoffReport",
    "GridReport",
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
class BoundTable:
    """Both lower bounds of one dimension on every cell of a ``(q, s)`` grid.

    ``all_channels[i, j]`` and ``unital[i, j]`` are :func:`lower_bound` at
    ``(q[i], s[j])``; ``limit_rows[i]`` marks the ``q = 1`` band, where the
    bound is reported but not asserted.
    """

    dim: int
    q: np.ndarray
    s: np.ndarray
    all_channels: np.ndarray
    unital: np.ndarray

    @property
    def limit_rows(self) -> np.ndarray:
        return np.abs(self.q - 1.0) <= LIMIT_EPS


def bound_table(d: int, q_grid, s_grid) -> BoundTable:
    """Tabulate :func:`lower_bound` for dimension ``d`` on ``q_grid x s_grid``.

    A bound too large for a double (huge ``|s|``) is stored as ``+inf``, its
    true sign, so the evaluation reports the cell instead of overflowing.
    """
    q = np.array(q_grid, dtype=float)
    s = np.array(s_grid, dtype=float)
    cells = [EntropyParams(qi, si) for qi in q.tolist() for si in s.tolist()]

    def table(unital: bool) -> np.ndarray:
        values = []
        for params in cells:
            try:
                values.append(lower_bound(d, params, unital))
            except OverflowError:
                values.append(math.inf)
        return np.array(values).reshape(q.size, s.size)

    return BoundTable(d, q, s, table(False), table(True))


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


@dataclass(frozen=True, eq=False)
class GridReport:
    """One channel evaluated on every cell of a :class:`BoundTable`.

    The arrays are ``(n_q, n_s)``, laid out like the table; ``gap`` is
    measured against the unital bound for unital channels and against the
    all-channels bound otherwise.
    """

    profile: ChannelProfile
    bounds: BoundTable
    map_values: np.ndarray
    receiver_values: np.ndarray
    gap: np.ndarray
    saturated: np.ndarray

    def report(self, i: int, j: int) -> TradeoffReport:
        """The cell at ``(q[i], s[j])`` as a :class:`TradeoffReport`."""
        b = self.bounds
        return TradeoffReport(
            channel_id=self.profile.channel_id,
            params=EntropyParams(float(b.q[i]), float(b.s[j])),
            map_value=float(self.map_values[i, j]),
            receiver_value=float(self.receiver_values[i, j]),
            bound_all=float(b.all_channels[i, j]),
            bound_unital=float(b.unital[i, j]) if self.profile.unital else None,
            gap=float(self.gap[i, j]),
            saturated=bool(self.saturated[i, j]),
        )


def evaluate_profile(
    profile: ChannelProfile,
    bounds: BoundTable,
    sat_tol: float = SAT_TOL,
    gap_tol: float = GAP_TOL,
) -> GridReport:
    """Entropic sums, applicable bounds and gaps on every cell of ``bounds``.

    Raises :class:`DomainError` naming the first cell, in ``(q, s)``
    row-major order, whose entropy or gap is not finite.  Raises
    :class:`BoundViolation` carrying the report of the first cell whose gap
    drops below ``-gap_tol`` outside the ``q = 1`` band, and the whole grid;
    such a failure is either a tolerance problem or a genuine bug and must
    never be ignored.
    """
    if bounds.dim != profile.dim:
        raise DimensionMismatchError(f"bound table for d={bounds.dim}, channel has d={profile.dim}")
    m = entropy_grid(profile.choi_spectrum, float(profile.dim), bounds.q, bounds.s)
    r = entropy_grid(
        profile.superop_spectrum, float(np.sum(profile.superop_spectrum.values)), bounds.q, bounds.s
    )
    applicable = bounds.unital if profile.unital else bounds.all_channels
    with np.errstate(invalid="ignore"):  # inf - inf; reported below
        gap = (m + r) - applicable
    non_finite = ~np.isfinite(gap)
    if non_finite.any():
        i, j = np.argwhere(non_finite)[0]
        raise DomainError(
            f"entropy or gap is not finite at q={float(bounds.q[i])}, s={float(bounds.s[j])} on "
            f"channel {profile.channel_id!r}: map {float(m[i, j])}, receiver {float(r[i, j])}, "
            f"bound {float(applicable[i, j])}"
        )
    grid = GridReport(profile, bounds, m, r, gap, gap <= sat_tol)
    violated = (gap < -gap_tol) & ~bounds.limit_rows[:, None]
    if violated.any():
        i, j = np.argwhere(violated)[0]
        report = grid.report(i, j)
        raise BoundViolation(
            f"entropic sum fell {-report.gap:.3e} below the bound on channel "
            f"{profile.channel_id!r} at q={report.params.q}, s={report.params.s}",
            report,
            grid=grid,
            cell=(int(i), int(j)),
        )
    return grid


def evaluate_tradeoff(ch: chmod.KrausChannel, params: EntropyParams, channel_id: str = "") -> TradeoffReport:
    """Profile a channel and evaluate one grid cell."""
    bounds = bound_table(ch.dim, (params.q,), (params.s,))
    return evaluate_profile(profile_channel(ch, channel_id), bounds).report(0, 0)
