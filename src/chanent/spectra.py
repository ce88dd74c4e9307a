"""Schatten norms, Schatten anti-norms, and the norm-inequality checkers.

The same power-sum expression ``(sum_j v_j**q)**(1/q)`` is a norm of the
singular values for ``q >= 1`` (including ``q = inf`` as the spectral norm)
and an anti-norm of the eigenvalues of a positive matrix for ``q < 1``
(``q != 0``): superadditive instead of subadditive.  ``0 < q < 1`` needs PSD
input with the ``0**q = 0`` convention; ``q < 0`` needs a strictly positive
matrix, since negative powers amplify spectral noise without bound.  The
orders ``-inf`` and NaN are rejected everywhere, and the checkers take finite
orders only.

Every checker takes a stack of matrices ``(n, m, m)``, or for the channel
checks the :class:`~chanent.channel.ChannelProfile` of a channel stack, and
one order or a list of them, and gives an :class:`InequalityBatch` of
``(n_inputs, n_orders)`` arrays; one matrix is passed as a stack of one, and
a 2-D input is rejected.  A check takes only the spectra its orders read,
each with one LAPACK call for the whole stack, shared by all of its orders:
a stack read at any anti-norm order must be PSD, and a PSD matrix's
singular values are the absolute values of its eigenvalues, so such a stack
gets one eigenvalue decomposition for all of its orders, and a stack read
at norm orders only one SVD.  The channel checks read the profile's ``K``
spectrum and ``Tr_2 D``, and no spectrum of ``D``.  ``slack`` is signed in
the passing direction and relative to ``max(|lhs|, |rhs|, 1)``, so one
tolerance convention covers all magnitudes; an entry whose slack is not
finite (both sides infinite, say) fails.

An input the check cannot take raises the error a stack of that input alone
raises, and of several such inputs the first is named, as a loop over the
inputs would name it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import channel as chmod
from . import matcore
from .entropy import exprel
from .errors import (
    DimensionMismatchError,
    DomainError,
    InvalidOrderError,
    InvalidSpectrumError,
    NotPositiveError,
)

__all__ = [
    "STRICT_POS_TOL",
    "InequalityBatch",
    "schatten_norm",
    "schatten_antinorm",
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

    def first_failure(self):
        """``(input, order)`` of the first failing entry, inputs outermost; None if all pass."""
        failed = np.flatnonzero(~self.passed)
        return divmod(int(failed[0]), self.passed.shape[1]) if failed.size else None


def _batch(lhs, rhs, directions, passed, log_ratio=None, tol=0.0) -> InequalityBatch:
    """Columns ``(n, k)`` of one check; ``passed`` is the verdict or a function of the slack.

    ``log_ratio``, if given, holds ``ln(rhs/lhs)`` of positive sides, or NaN
    where it was not taken, and gives the slack of the entries where it was
    and a side is not a positive finite double (beyond a double, or 0 from
    underflow): the larger side is then the scale, and a verdict given as an
    array is ``slack >= -tol`` there.  An entry whose slack is not finite
    fails whatever the verdict says.
    """
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
    le = np.array([d == "<=" for d in directions])
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN slack, failed below
        slack = np.where(le, rhs - lhs, lhs - rhs) / scale
    if log_ratio is not None:
        # (lhs - rhs)/max(lhs, rhs) = sign(ln(rhs/lhs)) expm1(-|ln(rhs/lhs)|)
        scaled = np.sign(log_ratio) * np.expm1(-np.abs(log_ratio))
        plain = np.isnan(log_ratio) | ((0.0 < lhs) & (lhs < np.inf) & (0.0 < rhs) & (rhs < np.inf))
        slack = np.where(plain, slack, np.where(le, -scaled, scaled))
        if not callable(passed):
            passed = np.where(plain, passed, slack >= -tol)
    if callable(passed):
        passed = passed(slack)
    passed = np.asarray(passed, dtype=bool) & np.isfinite(slack)
    return InequalityBatch(lhs, rhs, slack, passed, tuple(directions))


def _stack(x) -> np.ndarray:
    """``x`` as a stack of matrices; a 2-D matrix is rejected."""
    m = matcore.as_matrices(x)
    if m.ndim != 3:
        raise DimensionMismatchError(f"the checks take a stack (n, m, m) of matrices, got shape {m.shape}")
    return m


def _inputs_in_turn(n_stacks: int):
    """Decorate a check on ``n_stacks`` stacks: an input error names the first input that fails.

    The check takes each step over the whole stack, so a later input could
    fail an earlier step first; on an input error each input is run alone,
    in turn, and the first one's error is raised.
    """
    def wrap(check):
        @functools.wraps(check)
        def run(*args):
            try:
                return check(*args)
            except (DomainError, NotPositiveError):
                for inputs in zip(*map(_stack, args[:n_stacks])):
                    check(*(m[None] for m in inputs), *args[n_stacks:])
                raise
        return run
    return wrap


def _orders(q) -> list:
    """The orders in ``q``, one or a nonempty sequence of them, as a list.

    The checks compare finite powers of norms, so an infinite order is
    rejected; NaN is left to :func:`_regime`.
    """
    arr = np.asarray(q, dtype=float)
    if not arr.size:
        raise InvalidOrderError("inequality checks need at least one order")
    if np.isinf(arr).any():
        raise InvalidOrderError(f"inequality checks need finite orders, got {q}")
    return arr.reshape(-1).tolist()


def _power_mean_root(values: np.ndarray, q: float) -> np.ndarray:
    """``(sum v**q)**(1/q)`` over the positive entries of each row, 0 for none.

    Scaling by the row's extreme positive entry ``m`` keeps every ratio power
    in (0, 1]; the sum ``S`` then lives in [1, n], and ``m S**(1/q)``
    overflows only where ``1/q`` is large (a small anti-norm order), where
    :func:`_log_power_mean_root` gives its logarithm.
    """
    pos = values > 0
    with np.errstate(all="ignore"):  # the entries it divides badly are masked out
        m = _extreme(values, q)
        total = np.where(pos, (values / m) ** q, 0.0).sum(axis=-1)
        return m[..., 0] * total ** (1.0 / q)


def _log_power_mean_root(values: np.ndarray, q: float) -> tuple[np.ndarray, np.ndarray]:
    """``ln`` of :func:`_power_mean_root` as ``ln(n)/q + part``, given as ``(ln n, part)``.

    With ``n`` positive entries in a row, ``S = n (1 + delta)``, ``delta``
    the mean of ``expm1(q L)`` and ``L = ln(v/m)``, the part is ``ln m +
    log1p(delta)/q``.  The caller divides a difference of ``ln n`` parts by
    ``q``: it is exactly 0 for spectra of equal rank, where ``ln(n)/q`` alone
    overflows at a subnormal ``q``.  The part stays of the order of ``ln v``
    however small ``q`` is, and keeps its digits where ``ln m + (1/q) ln S``
    would lose them to ``(1/q) ln n``.  It forms no product that underflows:
    ``r``, the mean of ``L exprel(q L)``, is ``delta/q``, and
    ``log1p(delta)/q`` is ``r log1p(q r)/(q r)``, whose last factor is 1 at
    0; as ``q -> 0`` the part tends to the log of the geometric mean.
    """
    pos = values > 0
    n = pos.sum(axis=-1)
    with np.errstate(all="ignore"):  # masked entries, and a row with none
        m = _extreme(values, q)
        log_v = np.log(values / m)
        r = np.where(pos, log_v * exprel(q * log_v), 0.0).sum(axis=-1) / n
        x = q * r
        log1p_ratio = np.divide(np.log1p(x), x, out=np.ones_like(x), where=x != 0.0)
        return np.log(n), np.log(m[..., 0]) + r * log1p_ratio


def _extreme(values: np.ndarray, q: float) -> np.ndarray:
    """Per row, the positive entry that scales every ``q``-th power into (0, 1].

    The largest for ``q > 0``, the smallest for ``q < 0``; as a column.
    """
    if q > 0:
        return values.max(axis=-1, keepdims=True)
    return np.where(values > 0, values, np.inf).min(axis=-1, keepdims=True)


class _Spectra:
    """The spectra of a stack of matrices that the orders ``orders`` read, each taken once.

    A stack read at an anti-norm order must be PSD, and the singular values
    of a PSD matrix are the absolute values of its eigenvalues: if any of
    ``orders`` is an anti-norm order, one eigenvalue decomposition gives the
    spectra of all of them; otherwise one SVD gives the singular values.
    """

    def __init__(self, stack: np.ndarray, orders):
        self.stack = stack
        self._by_eig = any(_regime(q) != _NORM for q in orders)
        self._cache: dict = {}

    def _get(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def for_order(self, q: float) -> np.ndarray:
        """Per input, the spectrum order ``q`` acts on, ready for power sums.

        Singular values for norm orders, descending; for anti-norm orders
        the eigenvalues, clamped for ``0 < q < 1`` and required above
        ``STRICT_POS_TOL`` for ``q < 0``.
        """
        regime = _regime(q)
        if regime == _NORM and not self._by_eig:
            return self._get(_NORM, lambda: matcore.singular_values(self.stack))
        eig = self._get("eig", lambda: matcore.hermitian_eigenvalues(self.stack))
        if regime == _NORM:
            return self._get(_NORM, lambda: -np.sort(-np.abs(eig), axis=-1))
        if regime == _ANTINORM_STRICT:
            lo = eig.min(axis=-1)
            bad = np.flatnonzero(lo <= STRICT_POS_TOL)
            if bad.size:
                raise NotPositiveError(
                    f"q < 0 anti-norm needs a strictly positive matrix; "
                    f"min eigenvalue {lo[bad[0]]:.3e} <= {STRICT_POS_TOL:.1e}"
                )
            return eig
        return self._get(regime, lambda: matcore.clamp_spectrum(eig))

    def schatten(self, q: float) -> np.ndarray:
        """Norm or anti-norm of every input at order ``q``, by regime."""
        vals = self.for_order(q)
        if q == math.inf:
            return vals[:, 0] if vals.shape[-1] else np.zeros(len(vals))
        if q == 1.0:
            return vals.sum(axis=-1)
        return _power_mean_root(vals, q)


def _schatten(x, q: float):
    m = matcore.as_matrices(x)
    norms = _Spectra(m if m.ndim == 3 else m[None], [q]).schatten(q)
    return norms if m.ndim == 3 else float(norms[0])


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


@_inputs_in_turn(1)
def check_prop1(x, q) -> InequalityBatch:
    """Interpolation between the q-, 2- and trace norms, at every order in ``q``.

    Compares ``lhs = |X|_q**q`` against ``rhs = |X|_2**(2(q-1)) * |X|_1**(2-q)``.
    Jensen on the normalized spectrum gives ``lhs <= rhs`` for ``1 <= q <= 2``
    and ``lhs >= rhs`` for ``q >= 2`` as well as for ``q < 1`` (anti-norm
    regime, positive input).  Passes when the direction holds with relative
    slack above ``-1e-9``; flat spectra saturate it exactly.

    Where a side is not a positive finite double (beyond one at a large
    order, or 0 where the powers of a tiny spectrum underflow: the input is
    nonzero, so a zero side is underflow), the sides are compared through the
    spectrum ``mu`` scaled by its largest entry (its smallest for ``q < 0``):
    both have degree ``q``, so ``ln(rhs/lhs) = (q-1) ln sum mu**2 + (2-q) ln
    sum mu - ln sum mu**q``, where each sum of ``mu**q`` lies in ``[1, n]``.
    """
    orders = _orders(q)
    spectra = _Spectra(_stack(x), orders)
    lhs, rhs, log_ratio = [], [], []
    for order in orders:
        vals = spectra.for_order(order)
        pos = np.where(vals > 0, vals, 0.0)
        if not (pos > 0).any(axis=-1).all():
            raise InvalidSpectrumError("matrix is zero; the interpolation is undefined")
        n1 = pos.sum(axis=-1)
        n2sq = (pos**2).sum(axis=-1)
        # a side beyond a double, or 0 (a zero sum to a negative power is
        # infinite), is compared scaled
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            lhs.append((pos**order).sum(axis=-1))
            rhs.append(n2sq ** (order - 1.0) * n1 ** (2.0 - order))
        log_ratio.append(np.full(len(pos), np.nan))
        if not ((0.0 < lhs[-1]) & (lhs[-1] < np.inf) & (0.0 < rhs[-1]) & (rhs[-1] < np.inf)).all():
            mu = pos / _extreme(pos, order)
            with np.errstate(over="ignore"):
                a, b, c = (np.log((mu**p).sum(axis=-1)) for p in (2.0, 1.0, order))
            log_ratio[-1] = order * (a - b) + (2.0 * b - a - c)
    directions = ["<=" if 1.0 <= order <= 2.0 else ">=" for order in orders]
    lhs, rhs, log_ratio = (np.stack(side, axis=1) for side in (lhs, rhs, log_ratio))
    return _batch(lhs, rhs, directions, lambda s: s >= -1e-9, log_ratio)


def check_two_inf_one(x) -> InequalityBatch:
    """``|X|_2 <= sqrt(|X|_inf * |X|_1)`` for an arbitrary nonzero matrix.

    Where a side is beyond a double (singular values near ``1e155``), the
    sides are compared through the singular values ``mu`` scaled by the
    largest: ``ln(rhs/lhs) = (ln sum mu - ln sum mu**2) / 2``.
    """
    sv = matcore.singular_values(_stack(x))
    with np.errstate(over="ignore"):  # a side beyond a double is compared scaled
        lhs = np.sqrt((sv**2).sum(axis=-1, keepdims=True))
        rhs = np.sqrt(sv[:, :1] * sv.sum(axis=-1, keepdims=True))
    with np.errstate(invalid="ignore"):  # a zero input: NaN, and its sides are compared plain
        mu = sv / sv[:, :1]
        log_ratio = 0.5 * (np.log(mu.sum(axis=-1)) - np.log((mu**2).sum(axis=-1)))[:, None]
    return _batch(lhs, rhs, ("<=",), lhs <= rhs + 1e-10, log_ratio, tol=1e-10)


def check_superop_norm_bound(profile: chmod.ChannelProfile) -> InequalityBatch:
    """Spectral-norm bound on the superoperator matrix.

    ``|K|_inf <= sqrt(d) * |channel(I/d)|_inf**(1/2)`` for every channel;
    unital channels must additionally satisfy ``|K|_inf <= 1``.  ``rhs`` is
    the sharper applicable right-hand side.  Both
    comparisons allow a relative slack of ``TP_TOL``: a Kraus set scaled by
    ``1 + eps``, admitted while its TP defect ``~2 eps`` is within
    ``TP_TOL``, scales ``K`` by ``(1 + eps)**2`` and the all-channel
    right-hand side by ``1 + eps``.  ``channel(I/d) = Tr_2(D)/d`` is PSD, so
    its spectral norm is its largest eigenvalue.
    """
    d = profile.dim
    k_inf = profile.superop_spectrum[:, :1]
    unital = profile.unital[:, None]
    output_norm = matcore.hermitian_eigenvalues(profile.tr2 / d)[:, :1]
    bound = math.sqrt(d) * np.sqrt(output_norm)
    slack = 1.0 + chmod.TP_TOL
    passed = (k_inf <= bound * slack) & (~unital | (k_inf <= slack))
    rhs = np.where(unital, np.minimum(bound, 1.0), bound)
    return _batch(k_inf, rhs, ("<=",), passed)


@_inputs_in_turn(1)
def check_antinorm_monotonicity(x, p, q) -> InequalityBatch:
    """``|X|_q <= |X|_p`` for ``0 < p < q`` on a positive matrix, pair by pair.

    ``p`` and ``q`` are one order each or two equally long lists of them.
    Where a side overflows (a small ``p``), their logarithms are compared.
    """
    ps, qs = _orders(p), _orders(q)
    if len(ps) != len(qs):
        raise InvalidOrderError(f"monotonicity check needs as many p as q, got {len(ps)} and {len(qs)}")
    for lo, hi in zip(ps, qs):
        if not (0.0 < lo < hi):
            raise InvalidOrderError(f"monotonicity check needs 0 < p < q, got p={lo}, q={hi}")
    stack = _stack(x)
    spectra = _Spectra(stack, ps + qs)
    norms: dict = {}
    lhs, rhs, log_ratio = [], [], []
    for lo, hi in zip(ps, qs):
        for order, side in ((hi, lhs), (lo, rhs)):
            if order not in norms:
                norms[order] = spectra.schatten(order)
            side.append(norms[order])
        log_ratio.append(np.full(len(stack), np.nan))
        if not (np.isfinite(lhs[-1]) & np.isfinite(rhs[-1])).all():  # a small order overflows
            (n_hi, hi_part), (n_lo, lo_part) = (_log_power_mean_root(spectra.for_order(o), o) for o in (hi, lo))
            # ln(n)/p beyond a double is its true inf; a zero input has finite sides
            with np.errstate(invalid="ignore", over="ignore"):
                log_ratio[-1] = (n_lo / lo - n_hi / hi) + (lo_part - hi_part)
    lhs, rhs, log_ratio = (np.stack(side, axis=1) for side in (lhs, rhs, log_ratio))
    return _batch(lhs, rhs, ("<=",) * len(ps), lhs <= rhs + 1e-10, log_ratio, tol=1e-10)


@_inputs_in_turn(2)
def check_superadditivity(x, y, q) -> InequalityBatch:
    """``|X + Y|_q >= |X|_q + |Y|_q`` in the anti-norm regimes, at every order in ``q``.

    Where a side is not a positive finite double (a small order ``q``, whose
    root ``1/q`` overflows, or for ``q < 0`` underflows to 0: the input is
    then strictly positive), the sides are compared through their logarithms,
    ``ln m + (1/q) ln S`` per anti-norm (taken as :func:`_log_power_mean_root`
    parts, the ``ln n`` ones subtracted before the division by ``q``) and
    ``logaddexp`` for the sum.  Down to subnormal orders the slack then tends
    to ``1 - (G(X) + G(Y))/G(X + Y)``, ``G`` the geometric mean of the
    eigenvalues.
    """
    orders = _orders(q)
    for order in orders:
        if _regime(order) == _NORM:
            raise InvalidOrderError(f"superadditivity is an anti-norm property, got q={order}")
    xs, ys = _stack(x), _stack(y)
    if xs.shape != ys.shape:
        raise DimensionMismatchError(f"superadditivity pairs equal stacks, got {xs.shape} and {ys.shape}")
    spectra = _Spectra(np.stack([xs, ys, xs + ys]).reshape(-1, *xs.shape[1:]), orders)  # operands, then sums
    lhs, rhs, log_ratio = [], [], []
    for order in orders:
        a, b, total = spectra.schatten(order).reshape(3, -1)
        lhs.append(total)
        rhs.append(a + b)
        log_ratio.append(np.full(len(xs), np.nan))
        if not (np.isfinite(total) & np.isfinite(rhs[-1]) & (total > 0) & (rhs[-1] > 0)).all():
            logs = _log_power_mean_root(spectra.for_order(order), order)
            (n_a, n_b, n_t), (a, b, t) = (v.reshape(3, -1) for v in logs)
            # a rank gap over a subnormal q is its true -inf; a zero input: NaN, compared plain
            with np.errstate(invalid="ignore", over="ignore"):
                log_ratio[-1] = np.logaddexp((n_a - n_t) / order + a, (n_b - n_t) / order + b) - t
    lhs, rhs, log_ratio = (np.stack(side, axis=1) for side in (lhs, rhs, log_ratio))
    return _batch(lhs, rhs, (">=",) * len(orders), lhs >= rhs - 1e-10, log_ratio, tol=1e-10)


def check_norm_product_chain(profile: chmod.ChannelProfile) -> InequalityBatch:
    """Trace-to-Frobenius norm-ratio product of the two representations.

    ``(|D|_1/|D|_2) * (|K|_1/|K|_2) >= sqrt(d)`` for every channel and
    ``>= d`` for unital ones.  ``D`` is PSD, so ``|D|_1 = Tr D = Tr Tr_2
    D``, and the two Frobenius norms agree because the representations
    share their entries up to reshuffling: the product is ``Tr D |K|_1 /
    |K|_2**2``, which reads no spectrum of ``D``.
    """
    k_sv = profile.superop_spectrum
    trace = np.trace(profile.tr2, axis1=-2, axis2=-1).real
    ratio = (trace * k_sv.sum(axis=-1) / (k_sv**2).sum(axis=-1))[:, None]
    bound = np.where(profile.unital, float(profile.dim), math.sqrt(profile.dim))[:, None]
    return _batch(ratio, bound, (">=",), ratio >= bound - 1e-9)
