"""Schatten norms, Schatten anti-norms, and the norm-inequality checkers.

The same power-sum expression ``(sum_j v_j**q)**(1/q)`` is a norm of the
singular values for ``q >= 1`` (including ``q = inf`` as the spectral norm)
and an anti-norm of the eigenvalues of a positive matrix for ``q < 1``
(``q != 0``): superadditive instead of subadditive.  ``0 < q < 1`` needs PSD
input with the ``0**q = 0`` convention; ``q < 0`` needs a strictly positive
matrix, since negative powers amplify spectral noise without bound.  The
orders ``-inf`` and NaN are rejected everywhere, and the checkers take finite
orders only.

Every checker takes one input (a matrix, or a channel) or a stack of them
``(n, m, m)`` (a sequence of same-dimension channels, or a
:class:`ChannelStack`), and one order or a list of them.  Each input's
spectrum is computed once, with one LAPACK call for the whole stack, and
shared by all of its orders.  One input at one order gives an
:class:`InequalityReport`; anything else gives an :class:`InequalityBatch` of
``(n_inputs, n_orders)`` arrays.  ``slack`` is signed in the passing
direction and relative to ``max(|lhs|, |rhs|, 1)``, so one tolerance
convention covers all magnitudes.  An input the check cannot take raises
the error the single-input call on it raises; with several such inputs, the
error named may come from a later input than the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel as chmod
from . import matcore
from .errors import (
    InvalidOrderError,
    InvalidSpectrumError,
    NotPositiveError,
)

__all__ = [
    "STRICT_POS_TOL",
    "InequalityReport",
    "InequalityBatch",
    "ChannelStack",
    "stack_channels",
    "schatten_norm",
    "schatten_antinorm",
    "schatten",
    "check_prop1",
    "check_two_inf_one",
    "check_superop_norm_bound",
    "check_antinorm_monotonicity",
    "check_superadditivity",
    "check_norm_product_chain",
]

# Smallest eigenvalue accepted by q < 0 anti-norms; below this the inverse
# powers are numerically meaningless.
STRICT_POS_TOL = 1e-10

_NORM = "norm"
_ANTINORM_PSD = "antinorm-psd"
_ANTINORM_STRICT = "antinorm-strict"


def _regime(q: float) -> str:
    if q != q:  # NaN
        raise InvalidOrderError("order q must not be NaN")
    if q == -math.inf:
        raise InvalidOrderError("order q = -inf has no anti-norm")
    if q >= 1.0 or q == math.inf:
        return _NORM
    if 0.0 < q < 1.0:
        return _ANTINORM_PSD
    if q < 0.0:
        return _ANTINORM_STRICT
    raise InvalidOrderError("order q = 0 has no norm or anti-norm regime")


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one inequality check.

    ``slack`` is the margin in the passing ``direction`` ("<=" or ">="),
    relative to ``max(|lhs|, |rhs|, 1)``; negative slack means the stated
    direction failed by that relative amount.
    """

    lhs: float
    rhs: float
    slack: float
    passed: bool
    direction: str


@dataclass(frozen=True, eq=False)
class InequalityBatch:
    """Outcome of one check on a stack of inputs, at one or more orders.

    ``lhs``, ``rhs``, ``slack`` and ``passed`` have shape
    ``(n_inputs, n_orders)``, with one order column for the checks that take
    no order; ``directions`` holds the direction of each order.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    slack: np.ndarray
    passed: np.ndarray
    directions: tuple

    def report(self, i: int, j: int = 0) -> InequalityReport:
        """Input ``i`` at order ``j`` as an :class:`InequalityReport`."""
        return InequalityReport(
            float(self.lhs[i, j]),
            float(self.rhs[i, j]),
            float(self.slack[i, j]),
            bool(self.passed[i, j]),
            self.directions[j],
        )

    def first_failure(self):
        """``(input, order)`` of the first failing entry, inputs outermost; None if all pass."""
        failed = np.flatnonzero(~self.passed)
        return divmod(int(failed[0]), self.passed.shape[1]) if failed.size else None


def _batch(lhs, rhs, directions, passed) -> InequalityBatch:
    """Columns ``(n, k)`` of one check; ``passed`` is the verdict or a function of the slack."""
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
    le = np.array([d == "<=" for d in directions])
    slack = np.where(le, rhs - lhs, lhs - rhs) / scale
    if callable(passed):
        passed = passed(slack)
    return InequalityBatch(lhs, rhs, slack, np.asarray(passed, dtype=bool), tuple(directions))


def _result(batch: InequalityBatch, single: bool) -> InequalityReport | InequalityBatch:
    return batch.report(0, 0) if single else batch


def _stack(x) -> tuple[np.ndarray, bool]:
    """``x`` as a stack of matrices, and whether it was one matrix."""
    m = matcore.as_matrices(x)
    return (m[None], True) if m.ndim == 2 else (m, False)


def _orders(q) -> tuple[list, bool]:
    """The orders in ``q`` as a list, and whether ``q`` was one order.

    The checks compare finite powers of norms, so an infinite order is
    rejected; NaN is left to :func:`_regime`.
    """
    arr = np.asarray(q, dtype=float)
    if np.isinf(arr).any():
        raise InvalidOrderError(f"inequality checks need finite orders, got {q}")
    return arr.reshape(-1).tolist(), arr.ndim == 0


def _power_mean_root(values: np.ndarray, q: float) -> np.ndarray:
    """``(sum v**q)**(1/q)`` over the positive entries of each row, 0 for none.

    Scaling by the row's extreme positive entry keeps every ratio power in
    (0, 1]; the sum then lives in [1, n] and the outer root is always
    representable.
    """
    pos = values > 0
    with np.errstate(all="ignore"):  # the entries it divides badly are masked out
        if q > 0:
            m = values.max(axis=-1, keepdims=True)
        else:
            m = np.where(pos, values, np.inf).min(axis=-1, keepdims=True)
        total = np.where(pos, (values / m) ** q, 0.0).sum(axis=-1)
        return m[..., 0] * total ** (1.0 / q)


class _Spectra:
    """The spectra of a stack of matrices, each decomposed at most once."""

    def __init__(self, stack: np.ndarray):
        self.stack = stack
        self._cache: dict = {}

    def _get(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def for_order(self, q: float) -> np.ndarray:
        """Per input, the spectrum order ``q`` acts on, ready for power sums.

        Singular values for norm orders; for anti-norm orders the
        eigenvalues, clamped for ``0 < q < 1`` and required above
        ``STRICT_POS_TOL`` for ``q < 0``.
        """
        regime = _regime(q)
        if regime == _NORM:
            return self._get(_NORM, lambda: matcore.singular_values(self.stack).values)
        eig = self._get("eig", lambda: matcore.hermitian_eigenvalues(self.stack).values)
        if regime == _ANTINORM_STRICT:
            lo = eig.min(axis=-1)
            bad = np.flatnonzero(lo <= STRICT_POS_TOL)
            if bad.size:
                raise NotPositiveError(
                    f"q < 0 anti-norm needs a strictly positive matrix; "
                    f"min eigenvalue {lo[bad[0]]:.3e} <= {STRICT_POS_TOL:.1e}"
                )
            return eig
        return self._get(
            regime, lambda: matcore.clamp_spectrum(eig, neg_tol=matcore.eig_tol(eig.shape[-1]))
        )

    def schatten(self, q: float) -> np.ndarray:
        """Norm or anti-norm of every input at order ``q``, by regime."""
        vals = self.for_order(q)
        if q == math.inf:
            return vals[:, 0] if vals.shape[-1] else np.zeros(len(vals))
        if q == 1.0:
            return vals.sum(axis=-1)
        return _power_mean_root(vals, q)


def _schatten(x, q: float):
    stack, single = _stack(x)
    norms = _Spectra(stack).schatten(q)
    return float(norms[0]) if single else norms


def schatten_norm(x, q: float):
    """Schatten q-norm of an arbitrary matrix, ``q >= 1`` or ``q = inf``.

    A stack of matrices gives one norm per matrix.
    """
    if _regime(q) != _NORM:
        raise InvalidOrderError(f"Schatten norm needs q >= 1 or q = inf, got {q}")
    return _schatten(x, q)


def schatten_antinorm(x, q: float):
    """Schatten q-anti-norm of a positive matrix, ``q < 1`` and ``q != 0``.

    For ``0 < q < 1`` the input must be PSD (tiny negative eigenvalues are
    clamped, zeros contribute nothing); for ``q < 0`` it must be strictly
    positive with smallest eigenvalue above ``STRICT_POS_TOL``.  A stack of
    matrices gives one anti-norm per matrix.
    """
    if _regime(q) == _NORM:
        raise InvalidOrderError(f"Schatten anti-norm needs q < 1 (q != 0), got {q}")
    return _schatten(x, q)


def schatten(x, q: float):
    """Norm or anti-norm of ``x`` at order ``q``, dispatched by regime."""
    return schatten_norm(x, q) if _regime(q) == _NORM else schatten_antinorm(x, q)


def check_prop1(x, q) -> InequalityReport | InequalityBatch:
    """Interpolation between the q-, 2- and trace norms, at every order in ``q``.

    Compares ``lhs = |X|_q**q`` against ``rhs = |X|_2**(2(q-1)) * |X|_1**(2-q)``.
    Jensen on the normalized spectrum gives ``lhs <= rhs`` for ``1 <= q <= 2``
    and ``lhs >= rhs`` for ``q >= 2`` as well as for ``q < 1`` (anti-norm
    regime, positive input).  Passes when the direction holds with relative
    slack above ``-1e-9``; flat spectra saturate it exactly.
    """
    stack, single = _stack(x)
    orders, one_order = _orders(q)
    spectra = _Spectra(stack)
    lhs, rhs = [], []
    for order in orders:
        vals = spectra.for_order(order)
        pos = np.where(vals > 0, vals, 0.0)
        if not (pos > 0).any(axis=-1).all():
            raise InvalidSpectrumError("matrix is zero; the interpolation is undefined")
        n1 = pos.sum(axis=-1)
        n2sq = (pos**2).sum(axis=-1)
        lhs.append((pos**order).sum(axis=-1))
        rhs.append(n2sq ** (order - 1.0) * n1 ** (2.0 - order))
    directions = ["<=" if 1.0 <= order <= 2.0 else ">=" for order in orders]
    batch = _batch(np.stack(lhs, axis=1), np.stack(rhs, axis=1), directions, lambda s: s >= -1e-9)
    return _result(batch, single and one_order)


def check_two_inf_one(x) -> InequalityReport | InequalityBatch:
    """``|X|_2 <= sqrt(|X|_inf * |X|_1)`` for an arbitrary nonzero matrix."""
    stack, single = _stack(x)
    sv = matcore.singular_values(stack).values
    lhs = np.sqrt((sv**2).sum(axis=-1, keepdims=True))
    rhs = np.sqrt(sv[:, :1] * sv.sum(axis=-1, keepdims=True))
    return _result(_batch(lhs, rhs, ("<=",), lhs <= rhs + 1e-10), single)


@dataclass(frozen=True, eq=False)
class ChannelStack:
    """Same-dimension channels with the spectra both channel checks read.

    Built by :func:`stack_channels`, so that :func:`check_superop_norm_bound`
    and :func:`check_norm_product_chain` share one build of ``D`` per
    channel, one ``is_unital`` per channel and one decomposition per stack.
    """

    dim: int
    dynamical_sv: np.ndarray  # (n, d**2) singular values of each D
    superop_sv: np.ndarray  # (n, d**2) singular values of each K = reshuffle(D)
    output_norm: np.ndarray  # (n,) spectral norm of each channel(I/d) = Tr_2(D)/d
    unital: np.ndarray  # (n,) bool


def stack_channels(channels) -> ChannelStack:
    """Build the ``D`` stack in one product and decompose the ``D``, ``K`` and ``channel(I/d)`` stacks."""
    chs = list(channels)
    dyn = chmod.dynamical_from_kraus(chs)
    d = dyn.dim
    output = matcore.partial_trace(dyn.matrix, d, "second") / d
    return ChannelStack(
        dim=d,
        dynamical_sv=matcore.singular_values(dyn.matrix).values,
        superop_sv=matcore.singular_values(dyn.superoperator().matrix).values,
        output_norm=matcore.singular_values(output).values[:, 0],
        unital=np.array([chmod.is_unital(ch) for ch in chs]),
    )


def _channel_stack(channels) -> tuple[ChannelStack, bool]:
    """``channels`` as a :class:`ChannelStack`, and whether it was one channel."""
    if isinstance(channels, ChannelStack):
        return channels, False
    if isinstance(channels, chmod.KrausChannel):
        return stack_channels([channels]), True
    return stack_channels(channels), False


def check_superop_norm_bound(channels) -> InequalityReport | InequalityBatch:
    """Spectral-norm bound on the superoperator matrix.

    ``|K|_inf <= sqrt(d) * |channel(I/d)|_inf**(1/2)`` for every channel;
    unital channels must additionally satisfy ``|K|_inf <= 1``.  The report
    compares against the sharper applicable right-hand side.
    """
    st, single = _channel_stack(channels)
    k_inf = st.superop_sv[:, :1]
    unital = st.unital[:, None]
    bound = math.sqrt(st.dim) * np.sqrt(st.output_norm[:, None])
    passed = (k_inf <= bound + 1e-10) & (~unital | (k_inf <= 1.0 + 1e-10))
    rhs = np.where(unital, np.minimum(bound, 1.0), bound)
    return _result(_batch(k_inf, rhs, ("<=",), passed), single)


def check_antinorm_monotonicity(x, p, q) -> InequalityReport | InequalityBatch:
    """``|X|_q <= |X|_p`` for ``0 < p < q`` on a positive matrix, pair by pair.

    ``p`` and ``q`` are one order each or two equally long lists of them.
    """
    ps, one_p = _orders(p)
    qs, one_q = _orders(q)
    if len(ps) != len(qs):
        raise InvalidOrderError(f"monotonicity check needs as many p as q, got {len(ps)} and {len(qs)}")
    for lo, hi in zip(ps, qs):
        if not (0.0 < lo < hi):
            raise InvalidOrderError(f"monotonicity check needs 0 < p < q, got p={lo}, q={hi}")
    stack, single = _stack(x)
    spectra = _Spectra(stack)
    norms: dict = {}
    lhs, rhs = [], []
    for lo, hi in zip(ps, qs):
        for order, side in ((hi, lhs), (lo, rhs)):
            if order not in norms:
                norms[order] = spectra.schatten(order)
            side.append(norms[order])
    lhs, rhs = np.stack(lhs, axis=1), np.stack(rhs, axis=1)
    batch = _batch(lhs, rhs, ("<=",) * len(ps), lhs <= rhs + 1e-10)
    return _result(batch, single and one_p and one_q)


def check_superadditivity(x, y, q) -> InequalityReport | InequalityBatch:
    """``|X + Y|_q >= |X|_q + |Y|_q`` in the anti-norm regimes, at every order in ``q``."""
    orders, one_order = _orders(q)
    for order in orders:
        if _regime(order) == _NORM:
            raise InvalidOrderError(f"superadditivity is an anti-norm property, got q={order}")
    xs, single = _stack(x)
    ys, _ = _stack(y)
    spectra = [_Spectra(xs + ys), _Spectra(xs), _Spectra(ys)]
    lhs, rhs = [], []
    for order in orders:
        total, a, b = (sp.schatten(order) for sp in spectra)
        lhs.append(total)
        rhs.append(a + b)
    lhs, rhs = np.stack(lhs, axis=1), np.stack(rhs, axis=1)
    batch = _batch(lhs, rhs, (">=",) * len(orders), lhs >= rhs - 1e-10)
    return _result(batch, single and one_order)


def check_norm_product_chain(channels) -> InequalityReport | InequalityBatch:
    """Trace-to-Frobenius norm-ratio product of the two representations.

    ``(|D|_1/|D|_2) * (|K|_1/|K|_2) >= sqrt(d)`` for every channel and
    ``>= d`` for unital ones; the two Frobenius norms agree because the
    representations share their entries up to reshuffling.
    """
    st, single = _channel_stack(channels)
    d_sv, k_sv = st.dynamical_sv, st.superop_sv
    ratio = (
        d_sv.sum(axis=-1) / _power_mean_root(d_sv, 2.0) * k_sv.sum(axis=-1) / _power_mean_root(k_sv, 2.0)
    )[:, None]
    bound = np.where(st.unital, float(st.dim), math.sqrt(st.dim))[:, None]
    return _result(_batch(ratio, bound, (">=",), ratio >= bound - 1e-9), single)
