"""Lower bounds on the sum of the map and receiver entropies.

For system dimension ``d`` and orders ``q > 0``, ``s``, the entropic sum is
bounded below by ``(gamma/s) q_log_q(d**(f s kappa/gamma))``, with ``f = 1``
over all channels and ``f = 2`` over unital ones, where

* ``gamma`` is 1 when ``(1-q) s < 0`` and 2 when it is positive, and
* ``kappa`` is 1 for ``q <= 2`` and ``q / (2 (q-1))`` beyond.

Written as ``f kappa ln d exprel((1-q) s f kappa ln d / gamma)`` this is one
expression on every cell: ``gamma`` drops out where the argument is 0, the
``s = 0`` row gives ``f kappa ln d`` and the ``q = 1`` row ``f ln d``.  The
bound's derivation excludes ``q = 1`` exactly, so on that row (to within
``LIMIT_EPS``) the evaluator reports the limit value without asserting it as
a theorem: :class:`BoundViolation` is raised only off the ``q = 1`` rows.

Channels are evaluated on a whole ``(q, s)`` grid at once: the bounds of
one dimension are tabulated once (:func:`bound_table`), and
:func:`evaluate_profile` computes the map and receiver entropies and the gap
of every cell of that table, for every channel of a
:class:`~chanent.channel.ChannelProfile` stack, in one array pass.
:func:`evaluate_tradeoff` profiles one channel, as a stack of one, and
evaluates one cell.

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
from .entropy import EntropyParams, entropy_grid, exprel
from .errors import BoundViolation, DimensionMismatchError, DomainError

__all__ = [
    "SAT_TOL",
    "GAP_TOL",
    "LIMIT_EPS",
    "gamma_kappa",
    "lower_bound",
    "BoundTable",
    "bound_table",
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
# Half-width of the q = 1 rows, whose bound is reported but not asserted.
LIMIT_EPS = 1e-8


def gamma_kappa(q, s) -> tuple:
    """The piecewise bound exponents ``(gamma, kappa)`` at orders ``q > 0``, ``s``; elementwise on arrays."""
    q, s = np.asarray(q, dtype=float), np.asarray(s, dtype=float)
    if not (q > 0.0).all():
        raise DomainError(f"need q > 0, got {q}")
    with np.errstate(over="ignore"):  # only the product's sign is read
        gamma = np.where((1.0 - q) * s < 0.0, 1.0, 2.0)
    # Both branches of kappa give 1 at q = 2; the maximum only keeps the
    # unused branch from dividing by zero at q = 1.  Halving last keeps a
    # huge q from overflowing.
    kappa = np.where(q <= 2.0, 1.0, q / np.maximum(q - 1.0, 1.0) / 2.0)
    return gamma[()], kappa[()]


def _bounds(d: int, q, s, unital: bool):
    """:func:`lower_bound` elementwise on broadcast arrays ``q``, ``s``."""
    if d < 2:
        raise DomainError(f"need dimension d >= 2, got {d}")
    gamma, kappa = gamma_kappa(q, s)
    scale = (2.0 if unital else 1.0) * kappa * math.log(d)
    with np.errstate(over="ignore"):  # an exponent beyond a double is +-inf, exprel's limits
        return scale * exprel((1.0 - q) * s * scale / gamma)


def lower_bound(d: int, params: EntropyParams, unital: bool) -> float:
    """Lower bound on the entropic sum for dimension ``d`` at ``params``.

    Unital channels get the sharper bound with the doubled exponent.  On the
    ``s = 0`` row this is ``kappa ln d`` (``2 kappa ln d`` unital); on the
    ``q = 1`` row, the limit value ``ln d`` (``2 ln d``).  A bound too large
    for a double (huge ``|s|``) is ``+inf``, its true sign.
    """
    return float(_bounds(d, params.q, params.s, unital))


@dataclass(frozen=True, eq=False)
class BoundTable:
    """Both lower bounds of one dimension on every cell of a ``(q, s)`` grid.

    ``all_channels[i, j]`` and ``unital[i, j]`` are :func:`lower_bound` at
    ``(q[i], s[j])``; ``limit_rows[i]`` marks the ``q = 1`` rows, where the
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
    """Tabulate :func:`lower_bound` for dimension ``d`` on ``q_grid x s_grid``, in one array pass."""
    q = np.array(q_grid, dtype=float)
    s = np.array(s_grid, dtype=float)
    return BoundTable(d, q, s, _bounds(d, q[:, None], s, False), _bounds(d, q[:, None], s, True))


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
    """A stack of ``n`` channels evaluated on every cell of a :class:`BoundTable`.

    The arrays are ``(n, n_q, n_s)``, channel ``k``'s laid out like the table
    at index ``k``; ``gap`` is measured against the unital bound for unital
    channels and against the all-channels bound otherwise.
    """

    profile: chmod.ChannelProfile
    bounds: BoundTable
    map_values: np.ndarray
    receiver_values: np.ndarray
    gap: np.ndarray
    saturated: np.ndarray

    def report(self, k: int, i: int, j: int) -> TradeoffReport:
        """The cell at ``(q[i], s[j])`` of channel ``k`` as a :class:`TradeoffReport`."""
        b = self.bounds
        return TradeoffReport(
            channel_id=self.profile.channel_id[k],
            params=EntropyParams(float(b.q[i]), float(b.s[j])),
            map_value=float(self.map_values[k, i, j]),
            receiver_value=float(self.receiver_values[k, i, j]),
            bound_all=float(b.all_channels[i, j]),
            bound_unital=float(b.unital[i, j]) if self.profile.unital[k] else None,
            gap=float(self.gap[k, i, j]),
            saturated=bool(self.saturated[k, i, j]),
        )


def evaluate_profile(profile: chmod.ChannelProfile, bounds: BoundTable) -> GridReport:
    """Entropic sums, applicable bounds and gaps on every cell of ``bounds``.

    The stack is evaluated in one array pass, and its errors are those of
    evaluating its channels one after the other: the first channel with a
    non-finite cell or a violation decides, and within it a non-finite cell
    comes first.  Raises :class:`DomainError` naming the first cell, in
    ``(q, s)`` row-major order, whose entropy or gap is not finite.  Raises
    :class:`BoundViolation` carrying the report of the first cell whose gap
    drops below ``-GAP_TOL`` outside the ``q = 1`` band, the whole grid and
    the cell's index ``(k, i, j)`` in it, on channel ``k``; such a failure
    is either a tolerance problem or a genuine bug and must never be
    ignored.
    """
    if bounds.dim != profile.dim:
        raise DimensionMismatchError(f"bound table for d={bounds.dim}, channel has d={profile.dim}")
    m = entropy_grid(profile.choi_spectrum, bounds.q, bounds.s)
    r = entropy_grid(profile.superop_spectrum, bounds.q, bounds.s)
    applicable = np.where(profile.unital[:, None, None], bounds.unital, bounds.all_channels)
    with np.errstate(invalid="ignore"):  # inf - inf; reported below
        gap = (m + r) - applicable
    grid = GridReport(profile, bounds, m, r, gap, gap <= SAT_TOL)
    cells = bounds.q.size * bounds.s.size
    non_finite = ~np.isfinite(gap).reshape(-1, cells)
    violated = ((gap < -GAP_TOL) & ~bounds.limit_rows[:, None]).reshape(-1, cells)
    failing = np.flatnonzero(non_finite.any(axis=1) | violated.any(axis=1))
    if not failing.size:
        return grid
    k = int(failing[0])
    if non_finite[k].any():
        i, j = divmod(int(np.argmax(non_finite[k])), bounds.s.size)
        report = grid.report(k, i, j)
        bound = report.bound_all if report.bound_unital is None else report.bound_unital
        raise DomainError(
            f"entropy or gap is not finite at q={report.params.q}, s={report.params.s} on "
            f"channel {report.channel_id!r}: map {report.map_value}, "
            f"receiver {report.receiver_value}, bound {bound}"
        )
    i, j = divmod(int(np.argmax(violated[k])), bounds.s.size)
    report = grid.report(k, i, j)
    raise BoundViolation(
        f"entropic sum fell {-report.gap:.3e} below the bound on channel "
        f"{report.channel_id!r} at q={report.params.q}, s={report.params.s}",
        report,
        grid=grid,
        cell=(k, i, j),
    )


def evaluate_tradeoff(ch: chmod.KrausChannel, params: EntropyParams, channel_id: str = "") -> TradeoffReport:
    """Profile a channel, as a stack of one, and evaluate one grid cell."""
    bounds = bound_table(ch.dim, (params.q,), (params.s,))
    return evaluate_profile(chmod.profile_channel(chmod.stack_kraus([ch]), (channel_id,)), bounds).report(0, 0, 0)
