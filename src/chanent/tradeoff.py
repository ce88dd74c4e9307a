"""Lower bounds on the sum of the map and receiver entropies.

For system dimension ``d`` and orders ``q > 0``, ``s``, the entropic sum is
bounded below by ``(gamma/s) q_log_q(d**(f s kappa/gamma))``, with ``f = 1``
over all channels and ``f = 2`` over unital ones, where

* ``gamma`` is 1 when ``(1-q) s < 0`` and 2 when it is positive, and
* ``kappa`` is 1 for ``q <= 2`` and ``q / (2 (q-1))`` beyond.

Written as ``f kappa ln d exprel((1-q) s f kappa ln d / gamma)`` this is one
expression on every cell: ``gamma`` drops out where the argument is 0, the
``s = 0`` row gives ``f kappa ln d`` and the ``q = 1`` row ``f ln d``.  The
bound is continuous through ``q = 1``, where both entropies become von
Neumann entropies and it is the von Neumann trade-off ``f ln d``, so every
cell of the grid is asserted, that row included.

Channels are evaluated on a whole ``(q, s)`` grid at once: the bounds of
one dimension are tabulated once (:func:`bound_table`), and
:func:`evaluate_profile` computes the map and receiver entropies and the gap
of every cell of that table, for every channel of a
:class:`~chanent.channel.ChannelProfile` stack, in one array pass.  A
violation is read off the grid it returns, which names its first violated
cell; one cell is the dict :meth:`GridReport.cell` gives, the record a sweep
counterexample writes under ``"report"``.

The auxiliary minimizations behind the bound, over the planar regions
``{0 <= x, y <= 1, x y <= a}`` and ``{x, y >= 1, x y >= b}``, have closed
forms ``1 - a`` and ``2 (sqrt(b) - 1)``; those closed forms, their
grid-search oracles and the check of the norm-ratio preconditions live in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import channel as chmod
from .entropy import entropy_grid, exprel
from .errors import DimensionMismatchError, DomainError

__all__ = [
    "SAT_TOL",
    "GAP_TOL",
    "gamma_kappa",
    "BoundTable",
    "bound_table",
    "GridReport",
    "evaluate_profile",
]

# Gap below which a report is flagged as saturating its bound; separates
# analytic equality from generic small gaps at double precision.
SAT_TOL = 1e-7
# Negative gap beyond this is a bound violation, not rounding.
GAP_TOL = 1e-9


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
    """Lower bound on the entropic sum for dimension ``d``, elementwise on broadcast orders ``q``, ``s``.

    Unital channels get the sharper bound with the doubled exponent.  On the
    ``s = 0`` row this is ``kappa ln d`` (``2 kappa ln d`` unital); on the
    ``q = 1`` row, the von Neumann value ``ln d`` (``2 ln d``).  A bound too
    large for a double (huge ``|s|``) is ``+inf``, its true sign.
    """
    if d < 2:
        raise DomainError(f"need dimension d >= 2, got {d}")
    gamma, kappa = gamma_kappa(q, s)
    scale = (2.0 if unital else 1.0) * kappa * math.log(d)
    with np.errstate(over="ignore"):  # an exponent beyond a double is +-inf, exprel's limits
        return scale * exprel((1.0 - q) * s * scale / gamma)


@dataclass(frozen=True, eq=False)
class BoundTable:
    """Both lower bounds of one dimension on every cell of a ``(q, s)`` grid.

    ``all_channels[i, j]`` and ``unital[i, j]`` are the bounds at
    ``(q[i], s[j])``.
    """

    dim: int
    q: np.ndarray
    s: np.ndarray
    all_channels: np.ndarray
    unital: np.ndarray


def bound_table(d: int, q_grid, s_grid) -> BoundTable:
    """Tabulate both bounds for dimension ``d`` on ``q_grid x s_grid``, in one array pass."""
    q = np.array(q_grid, dtype=float)
    s = np.array(s_grid, dtype=float)
    if not (q.size and s.size):
        raise DomainError(f"need nonempty order grids, got {q.size} q and {s.size} s")
    return BoundTable(d, q, s, _bounds(d, q[:, None], s, False), _bounds(d, q[:, None], s, True))


@dataclass(frozen=True, eq=False)
class GridReport:
    """A stack of ``n`` channels evaluated on every cell of a :class:`BoundTable`.

    The arrays are ``(n, n_q, n_s)``, channel ``k``'s laid out like the table
    at index ``k``; ``gap`` is measured against the unital bound for unital
    channels and against the all-channels bound otherwise.  ``violation`` is
    the index ``(k, i, j)`` of the first cell in row-major order whose gap
    drops below ``-GAP_TOL``, or None if no cell does.
    """

    profile: chmod.ChannelProfile
    bounds: BoundTable
    map_values: np.ndarray
    receiver_values: np.ndarray
    gap: np.ndarray
    saturated: np.ndarray
    violation: tuple | None = None

    def cell(self, k: int, i: int, j: int) -> dict:
        """Channel ``k``'s cell at ``(q[i], s[j])``, as a sweep counterexample records it.

        Python floats and the channel id; ``bound_unital`` is None for a
        non-unital channel, and ``gap`` is the entropic sum minus the
        applicable bound.
        """
        b = self.bounds
        return {
            "channel_id": self.profile.channel_id[k],
            "q": float(b.q[i]),
            "s": float(b.s[j]),
            "map_entropy": float(self.map_values[k, i, j]),
            "receiver_entropy": float(self.receiver_values[k, i, j]),
            "bound_all": float(b.all_channels[i, j]),
            "bound_unital": float(b.unital[i, j]) if self.profile.unital[k] else None,
            "gap": float(self.gap[k, i, j]),
        }


def evaluate_profile(profile: chmod.ChannelProfile, bounds: BoundTable) -> GridReport:
    """Entropic sums, applicable bounds and gaps on every cell of ``bounds``.

    The stack is evaluated in one array pass and read in stack order, its
    cells ``(k, i, j)`` row-major: a non-finite cell anywhere in the stack
    raises :class:`DomainError` naming the first, and otherwise the first
    violated cell is the returned grid's ``violation``.  A violation is
    either a tolerance problem or a genuine bug, and its caller must never
    ignore it.
    """
    if bounds.dim != profile.dim:
        raise DimensionMismatchError(f"bound table for d={bounds.dim}, channel has d={profile.dim}")
    m = entropy_grid(profile.choi_spectrum, bounds.q, bounds.s)
    r = entropy_grid(profile.superop_spectrum, bounds.q, bounds.s)
    applicable = np.where(profile.unital[:, None, None], bounds.unital, bounds.all_channels)
    with np.errstate(invalid="ignore"):  # inf - inf; reported below
        gap = (m + r) - applicable
    grid = GridReport(profile, bounds, m, r, gap, gap <= SAT_TOL)
    non_finite = np.argwhere(~np.isfinite(gap))  # indices in row-major order
    if len(non_finite):
        cell = grid.cell(*non_finite[0].tolist())
        raise DomainError(
            "entropy or gap is not finite at q={q}, s={s} on channel {channel_id!r}: "
            "map {map_entropy}, receiver {receiver_entropy}, bound {bound}".format(
                **cell, bound=cell["bound_all"] if cell["bound_unital"] is None else cell["bound_unital"]
            )
        )
    violated = np.argwhere(gap < -GAP_TOL)
    return replace(grid, violation=tuple(violated[0].tolist())) if len(violated) else grid
