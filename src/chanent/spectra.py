"""Schatten norms, Schatten anti-norms, and the norm-inequality checkers.

The same power-sum expression ``(sum_j v_j**q)**(1/q)`` is a norm of the
singular values for ``q >= 1`` (including ``q = inf`` as the spectral norm)
and an anti-norm of the eigenvalues of a positive matrix for ``q < 1``
(``q != 0``): superadditive instead of subadditive.  ``0 < q < 1`` needs PSD
input with the ``0**q = 0`` convention; ``q < 0`` needs a strictly positive
matrix, its smallest eigenvalue above ``STRICT_POS_TOL`` times its largest,
since negative powers amplify spectral noise without bound.  The orders
``-inf`` and NaN are rejected everywhere, and the checkers take finite
orders only.

Every power sum is taken by one kernel, :func:`_log_power_mean_root`, whose
parts ``(ln n, m, t)`` give ``ln (sum v**q)**(1/q) = ln(n)/q + ln m + t``: a
norm is ``m exp(ln(n)/q + t)``, and each check combines its sides' parts
with their ``ln m`` terms cancelled as symbols.

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
spectrum and ``Tr_2 D``, and no spectrum of ``D``.

Every check compares its sides one way, as ``ln(rhs/lhs)``, and its slack
is ``(rhs - lhs)/max(lhs, rhs)``, signed in the passing direction.  The six
inequalities are homogeneous and every input tolerance is relative to the
input's scale, so the verdict and slack of ``c X`` are those of ``X``
however small or large ``c``; an entry passes iff its slack is at least
``-tol``, one relative tolerance per check.  A zero input, whose sides
are both 0, has slack 0; an entry whose slack is not finite fails.

A check takes each of its steps over the whole stack, in stack order: the
first step an input fails raises, naming that step's first failing input,
so a stack with one input the check cannot take raises what that input
alone raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel as chmod
from . import matcore
from .entropy import exprel
from .errors import DimensionMismatchError, InvalidOrderError, InvalidSpectrumError, NotPositiveError

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

# Smallest eigenvalue accepted by q < 0 anti-norms, as a fraction of the
# largest; below this the inverse powers are numerically meaningless.
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

    ``slack`` and ``passed`` have shape ``(n_inputs, n_orders)``, with one
    order column for the checks that take no order; a positive slack is the
    margin in the direction of its order's inequality.
    """

    slack: np.ndarray
    passed: np.ndarray

    def first_failure(self):
        """``(input, order)`` of the first failing entry, inputs outermost; None if all pass."""
        failed = np.flatnonzero(~self.passed)
        return divmod(int(failed[0]), self.passed.shape[1]) if failed.size else None


def _batch(log_ratio, directions, tol: float) -> InequalityBatch:
    """Columns ``(n, k)`` of one check from ``L = ln(rhs/lhs)``; an entry passes iff its slack is >= ``-tol``.

    ``(rhs - lhs)/max(lhs, rhs) = sign(L) (-expm1(-|L|))``, and ``-L``
    gives the slack of a ``>=`` entry; a NaN ``L`` fails.
    """
    signed = np.where([d == "<=" for d in directions], log_ratio, -log_ratio)
    slack = np.sign(signed) * -np.expm1(-np.abs(signed))
    return InequalityBatch(slack, slack >= -tol)


def _stack(x) -> np.ndarray:
    """``x`` as a stack of matrices; a 2-D matrix is rejected."""
    m = matcore.as_matrices(x)
    if m.ndim != 3:
        raise DimensionMismatchError(f"the checks take a stack (n, m, m) of matrices, got shape {m.shape}")
    return m


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


def _log_power_mean_root(values: np.ndarray, q: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row, ``(ln n, m, t)`` with ``ln (sum v**q)**(1/q) = ln(n)/q + ln m + t`` over the positive entries.

    ``m`` is the row's extreme positive entry, the largest for ``q > 0`` and
    the smallest for ``q < 0``, so every ``(v/m)**q`` is in (0, 1]; with
    ``n`` positive entries the sum is ``n (1 + delta)``, ``delta`` the mean
    of ``expm1(q L)``, ``L = ln(v/m)``, and ``t = log1p(delta)/q``.  Callers
    subtract ``ln n`` parts before dividing by ``q`` (exactly 0 at equal
    rank, where ``ln(n)/q`` alone overflows at a subnormal ``q``) and cancel
    ``ln m`` parts as symbols.  ``t`` stays of the order of ``L`` however
    small ``q`` is, and forms no product that underflows: ``r``, the mean of
    ``L exprel(q L)``, is ``delta/q``, and ``t = r log1p(q r)/(q r)``, whose
    last factor is 1 at 0.  A row with no positive entry has ``ln n = -inf``
    and ``t = 0``.
    """
    pos = values > 0
    n = pos.sum(axis=-1)
    with np.errstate(all="ignore"):  # masked entries, and a row with none
        m = values.max(axis=-1) if q > 0 else np.where(pos, values, np.inf).min(axis=-1)
        log_v = np.log(values / m[..., None])
        r = np.where(pos, log_v * exprel(q * log_v), 0.0).sum(axis=-1) / n
        x = q * r
        log1p_ratio = np.divide(np.log1p(x), x, out=np.ones_like(x), where=x != 0.0)
        return np.log(n), m, np.where(n > 0, r * log1p_ratio, 0.0)


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
        ``STRICT_POS_TOL`` times the largest for ``q < 0``.
        """
        regime = _regime(q)
        if regime == _NORM and not self._by_eig:
            return self._get(_NORM, lambda: matcore.singular_values(self.stack))
        eig = self._get("eig", lambda: matcore.hermitian_eigenvalues(self.stack))
        if regime == _NORM:
            return self._get(_NORM, lambda: -np.sort(-np.abs(eig), axis=-1))
        if regime == _ANTINORM_STRICT:
            lo, hi = eig[:, -1], eig[:, 0]
            bad = np.flatnonzero(~(lo > STRICT_POS_TOL * hi))
            if bad.size:
                raise NotPositiveError(
                    f"q < 0 anti-norm needs a strictly positive matrix; min eigenvalue "
                    f"{lo[bad[0]]:.3e} <= {STRICT_POS_TOL:.1e} times the largest, {hi[bad[0]]:.3e}"
                )
            return eig
        return self._get(regime, lambda: matcore.clamp_spectrum(eig))

    def parts(self, q: float, p: float):
        """:func:`_log_power_mean_root` at power ``p`` of the spectrum order ``q`` reads, taken once."""
        return self._get((_regime(q), p), lambda: _log_power_mean_root(self.for_order(q), p))

    def schatten(self, q: float) -> np.ndarray:
        """Norm or anti-norm of every input at order ``q``, by regime: ``m exp(ln(n)/q + t)``."""
        if q == math.inf:
            vals = self.for_order(q)
            return vals[:, 0] if vals.shape[-1] else np.zeros(len(vals))
        log_n, m, t = self.parts(q, q)
        with np.errstate(over="ignore"):  # a small order's root beyond a double is its true inf
            return m * np.exp(log_n / q + t)


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
    positive, its smallest eigenvalue above ``STRICT_POS_TOL`` times its
    largest.  A stack of matrices gives one anti-norm per matrix.
    """
    if _regime(q) == _NORM:
        raise InvalidOrderError(f"Schatten anti-norm needs q < 1 (q != 0), got {q}")
    return _schatten(x, q)


def check_prop1(x, q) -> InequalityBatch:
    """Interpolation between the q-, 2- and trace norms, at every order in ``q``.

    Compares ``lhs = |X|_q**q`` against ``rhs = |X|_2**(2(q-1)) * |X|_1**(2-q)``.
    Jensen on the normalized spectrum gives ``lhs <= rhs`` for ``1 <= q <= 2``
    and ``lhs >= rhs`` for ``q >= 2`` as well as for ``q < 1`` (anti-norm
    regime, positive input).  Passes when the direction holds with relative
    slack above ``-1e-9``; flat spectra saturate it exactly.

    Both sides have degree ``q``: with the :func:`_log_power_mean_root`
    parts ``t_1``, ``t_2`` (taken once per spectrum) and ``t_q`` of the
    spectrum, and its largest entry ``m`` over ``m_q``, ``ln(rhs/lhs) =
    (q-2)(2 t_2 - t_1) + (2 t_2 - q t_q) + q ln(m/m_q)``, which is exactly 0
    at ``q = 1`` and ``q = 2``.
    """
    orders = _orders(q)
    spectra = _Spectra(_stack(x), orders)
    log_ratio = []
    for order in orders:
        (log_n, top, t1), (_, _, t2), (_, m_q, t_q) = (spectra.parts(order, p) for p in (1.0, 2.0, order))
        if (log_n == -np.inf).any():
            raise InvalidSpectrumError("matrix is zero; the interpolation is undefined")
        log_ratio.append((order - 2.0) * (2.0 * t2 - t1) + (2.0 * t2 - order * t_q) + order * np.log(top / m_q))
    directions = ["<=" if 1.0 <= order <= 2.0 else ">=" for order in orders]
    return _batch(np.stack(log_ratio, axis=1), directions, 1e-9)


def check_two_inf_one(x) -> InequalityBatch:
    """``|X|_2 <= sqrt(|X|_inf * |X|_1)`` for an arbitrary matrix, relative slack above ``-1e-10``.

    With the :func:`_log_power_mean_root` parts ``t_1``, ``t_2`` of the
    singular values, ``ln(rhs/lhs) = t_1/2 - t_2``, and 0 for the zero matrix.
    """
    sv = matcore.singular_values(_stack(x))
    (_, _, t1), (_, _, t2) = (_log_power_mean_root(sv, p) for p in (1.0, 2.0))
    return _batch((0.5 * t1 - t2)[:, None], ("<=",), 1e-10)


def check_superop_norm_bound(profile: chmod.ChannelProfile) -> InequalityBatch:
    """Spectral-norm bound on the superoperator matrix.

    ``|K|_inf <= sqrt(d) * |channel(I/d)|_inf**(1/2)`` for every channel;
    unital channels must additionally satisfy ``|K|_inf <= 1``.  ``rhs`` is
    the sharper applicable right-hand side.  The check allows a relative
    slack of ``TP_TOL``: a Kraus set scaled by ``1 + eps``, admitted while
    its TP defect ``~2 eps`` is within ``TP_TOL``, scales ``K`` by ``(1 +
    eps)**2`` and the all-channel right-hand side by ``1 + eps``.
    ``channel(I/d) = Tr_2(D)/d`` is PSD, so its spectral norm is its largest
    eigenvalue.
    """
    output_norm = matcore.hermitian_eigenvalues(profile.tr2 / profile.dim)[:, 0]
    bound = math.sqrt(profile.dim) * np.sqrt(output_norm)
    rhs = np.where(profile.unital, np.minimum(bound, 1.0), bound)
    return _batch(np.log(rhs / profile.superop_spectrum[:, 0])[:, None], ("<=",), chmod.TP_TOL)


def check_antinorm_monotonicity(x, p, q) -> InequalityBatch:
    """``|X|_q <= |X|_p`` for ``0 < p < q`` on a positive matrix, pair by pair.

    ``p`` and ``q`` are one order each or two equally long lists of them.
    The anti-norms' logs are compared as :func:`_log_power_mean_root` parts,
    with relative slack above ``-1e-10``, and 0 for the zero matrix.  Both
    orders read the largest eigenvalue as ``m``, so its ``ln m`` cancels.
    """
    ps, qs = _orders(p), _orders(q)
    if len(ps) != len(qs):
        raise InvalidOrderError(f"monotonicity check needs as many p as q, got {len(ps)} and {len(qs)}")
    for lo, hi in zip(ps, qs):
        if not (0.0 < lo < hi):
            raise InvalidOrderError(f"monotonicity check needs 0 < p < q, got p={lo}, q={hi}")
    spectra = _Spectra(_stack(x), ps + qs)
    log_ratio = []
    for lo, hi in zip(ps, qs):
        (n_hi, _, hi_part), (n_lo, _, lo_part) = spectra.parts(hi, hi), spectra.parts(lo, lo)
        # ln(n)/p beyond a double is its true inf; the zero matrix's NaN is replaced
        with np.errstate(invalid="ignore", over="ignore"):
            ratio = (n_lo / lo - n_hi / hi) + (lo_part - hi_part)
        log_ratio.append(np.where((n_lo == -np.inf) & (n_hi == -np.inf), 0.0, ratio))
    return _batch(np.stack(log_ratio, axis=1), ("<=",) * len(ps), 1e-10)


def check_superadditivity(x, y, q) -> InequalityBatch:
    """``|X + Y|_q >= |X|_q + |Y|_q`` in the anti-norm regimes, at every order in ``q``.

    The sides are compared through their logarithms: each anti-norm's
    :func:`_log_power_mean_root` parts relative to those of ``X + Y`` (``ln
    n`` parts subtracted before the division by ``q``), and ``logaddexp``
    for the sum, with relative slack above ``-1e-10``, and 0 for two zero
    operands.  Down to subnormal orders the slack tends to ``1 - (G(X) +
    G(Y))/G(X + Y)``, ``G`` the geometric mean of the eigenvalues.
    """
    orders = _orders(q)
    for order in orders:
        if _regime(order) == _NORM:
            raise InvalidOrderError(f"superadditivity is an anti-norm property, got q={order}")
    xs, ys = _stack(x), _stack(y)
    if xs.shape != ys.shape:
        raise DimensionMismatchError(f"superadditivity pairs equal stacks, got {xs.shape} and {ys.shape}")
    spectra = _Spectra(np.stack([xs, ys, xs + ys]).reshape(-1, *xs.shape[1:]), orders)  # operands, then sums
    log_ratio = []
    for order in orders:
        (n_a, n_b, n_t), (m_a, m_b, m_t), (a, b, t) = (v.reshape(3, -1) for v in spectra.parts(order, order))
        # a rank gap at a subnormal q, or a zero operand, is a true -inf; two zero operands' NaN is replaced
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = np.logaddexp((n_a - n_t) / order + np.log(m_a / m_t) + a,
                                 (n_b - n_t) / order + np.log(m_b / m_t) + b) - t
        log_ratio.append(np.where((n_a == -np.inf) & (n_b == -np.inf), 0.0, ratio))
    return _batch(np.stack(log_ratio, axis=1), (">=",) * len(orders), 1e-10)


def check_norm_product_chain(profile: chmod.ChannelProfile) -> InequalityBatch:
    """Trace-to-Frobenius norm-ratio product of the two representations.

    ``(|D|_1/|D|_2) * (|K|_1/|K|_2) >= sqrt(d)`` for every channel and
    ``>= d`` for unital ones, with relative slack above ``-1e-9``.  ``D`` is
    PSD, so ``|D|_1 = Tr D = Tr Tr_2 D``, and the two Frobenius norms agree
    because the representations share their entries up to reshuffling: the
    product is ``Tr D |K|_1 / |K|_2**2``, which reads no spectrum of ``D``.
    With the :func:`_log_power_mean_root` parts ``t_1``, ``t_2`` of ``K``'s
    singular values, largest ``m``, its log is ``ln(Tr D/m) + t_1 - 2 t_2``.
    """
    (_, top, t1), (_, _, t2) = (_log_power_mean_root(profile.superop_spectrum, p) for p in (1.0, 2.0))
    trace = np.trace(profile.tr2, axis1=-2, axis2=-1).real
    bound = np.where(profile.unital, float(profile.dim), math.sqrt(profile.dim))
    return _batch((np.log(bound * top / trace) + (2.0 * t2 - t1))[:, None], (">=",), 1e-9)
