"""Schatten norms, Schatten anti-norms, and the norm-inequality checkers.

The same power-sum expression ``(sum_j v_j**q)**(1/q)`` is a norm of the
singular values for ``q >= 1`` (including ``q = inf`` as the spectral norm)
and an anti-norm of the eigenvalues of a positive matrix for ``q < 1``
(``q != 0``): superadditive instead of subadditive.  ``0 < q < 1`` needs PSD
input with the ``0**q = 0`` convention; ``q < 0`` needs a strictly positive
matrix, since negative powers amplify spectral noise without bound.

Every checker returns an :class:`InequalityReport` whose ``slack`` is signed
in the passing direction and relative to ``max(|lhs|, |rhs|, 1)``, so one
tolerance convention covers all magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel as chmod
from . import matcore
from .errors import InvalidOrderError, InvalidSpectrumError, NotPositiveError

__all__ = [
    "STRICT_POS_TOL",
    "InequalityReport",
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


def _report(lhs: float, rhs: float, direction: str, passed: bool) -> InequalityReport:
    scale = max(abs(lhs), abs(rhs), 1.0)
    slack = (rhs - lhs) / scale if direction == "<=" else (lhs - rhs) / scale
    return InequalityReport(float(lhs), float(rhs), float(slack), bool(passed), direction)


def _power_mean_root(values: np.ndarray, q: float) -> float:
    """``(sum v**q)**(1/q)`` over positive values, scaled so no power overflows."""
    if values.size == 0:
        return 0.0
    # Scaling by the extreme entry keeps every ratio power in (0, 1]; the
    # sum then lives in [1, n] and the outer root is always representable.
    m = float(values.max() if q > 0 else values.min())
    total = float(np.sum((values / m) ** q))
    return m * total ** (1.0 / q)


def schatten_norm(x, q: float) -> float:
    """Schatten q-norm of an arbitrary matrix, ``q >= 1`` or ``q = inf``."""
    if _regime(q) != _NORM:
        raise InvalidOrderError(f"Schatten norm needs q >= 1 or q = inf, got {q}")
    sv = matcore.singular_values(x).values
    if q == math.inf:
        return float(sv[0]) if sv.size else 0.0
    if q == 1.0:
        return float(np.sum(sv))
    return _power_mean_root(sv[sv > 0], q)


def _order_spectrum(x, q: float) -> np.ndarray:
    """The spectrum order ``q`` acts on, ready for power sums.

    Singular values for norm orders; for anti-norm orders the eigenvalues,
    clamped for ``0 < q < 1`` and required above ``STRICT_POS_TOL`` for
    ``q < 0``.
    """
    regime = _regime(q)
    if regime == _NORM:
        return matcore.singular_values(x).values
    eig = matcore.hermitian_eigenvalues(x)
    if regime == _ANTINORM_STRICT:
        lo = float(eig.values.min())
        if lo <= STRICT_POS_TOL:
            raise NotPositiveError(
                f"q < 0 anti-norm needs a strictly positive matrix; "
                f"min eigenvalue {lo:.3e} <= {STRICT_POS_TOL:.1e}"
            )
        return eig.values
    return matcore.clamp_spectrum(eig.values, neg_tol=matcore.eig_tol(len(eig)))


def schatten_antinorm(x, q: float) -> float:
    """Schatten q-anti-norm of a positive matrix, ``q < 1`` and ``q != 0``.

    For ``0 < q < 1`` the input must be PSD (tiny negative eigenvalues are
    clamped, zeros contribute nothing); for ``q < 0`` it must be strictly
    positive with smallest eigenvalue above ``STRICT_POS_TOL``.
    """
    if _regime(q) == _NORM:
        raise InvalidOrderError(f"Schatten anti-norm needs q < 1 (q != 0), got {q}")
    vals = _order_spectrum(x, q)
    return _power_mean_root(vals[vals > 0], q)


def schatten(x, q: float) -> float:
    """Norm or anti-norm of ``x`` at order ``q``, dispatched by regime."""
    return schatten_norm(x, q) if _regime(q) == _NORM else schatten_antinorm(x, q)


def check_prop1(x, q: float) -> InequalityReport:
    """Interpolation between the q-, 2- and trace norms on one matrix.

    Compares ``lhs = |X|_q**q`` against ``rhs = |X|_2**(2(q-1)) * |X|_1**(2-q)``.
    Jensen on the normalized spectrum gives ``lhs <= rhs`` for ``1 <= q <= 2``
    and ``lhs >= rhs`` for ``q >= 2`` as well as for ``q < 1`` (anti-norm
    regime, positive input).  Passes when the direction holds with relative
    slack above ``-1e-9``; flat spectra saturate it exactly.
    """
    vals = _order_spectrum(x, q)
    pos = vals[vals > 0]
    if pos.size == 0:
        raise InvalidSpectrumError("matrix is zero; the interpolation is undefined")
    n1 = float(np.sum(pos))
    n2sq = float(np.sum(pos**2))
    lhs = float(np.sum(pos**q))
    rhs = n2sq ** (q - 1.0) * n1 ** (2.0 - q)
    direction = "<=" if 1.0 <= q <= 2.0 else ">="
    ok = (rhs - lhs if direction == "<=" else lhs - rhs) / max(abs(lhs), abs(rhs), 1.0) >= -1e-9
    return _report(lhs, rhs, direction, ok)


def check_two_inf_one(x) -> InequalityReport:
    """``|X|_2 <= sqrt(|X|_inf * |X|_1)`` for an arbitrary nonzero matrix."""
    sv = matcore.singular_values(x).values
    lhs = float(np.sqrt(np.sum(sv**2)))
    rhs = float(np.sqrt(sv[0] * np.sum(sv))) if sv.size else 0.0
    return _report(lhs, rhs, "<=", lhs <= rhs + 1e-10)


def check_superop_norm_bound(ch: chmod.KrausChannel) -> InequalityReport:
    """Spectral-norm bound on the superoperator matrix.

    ``|K|_inf <= sqrt(d) * |channel(I/d)|_inf**(1/2)`` for every channel;
    unital channels must additionally satisfy ``|K|_inf <= 1``.  The report
    compares against the sharper applicable right-hand side.
    """
    d = ch.dim
    sup = chmod.superoperator_from_kraus(ch)
    k_inf = schatten_norm(sup.matrix, math.inf)
    out = chmod.apply_channel(ch, np.eye(d, dtype=complex) / d)
    bound = math.sqrt(d) * math.sqrt(schatten_norm(out, math.inf))
    passed = k_inf <= bound + 1e-10
    if chmod.is_unital(ch):
        bound = min(bound, 1.0)
        passed = passed and k_inf <= 1.0 + 1e-10
    return _report(k_inf, bound, "<=", passed)


def check_antinorm_monotonicity(x, p: float, q: float) -> InequalityReport:
    """``|X|_q <= |X|_p`` for ``0 < p < q`` on a positive matrix."""
    if not (0.0 < p < q):
        raise InvalidOrderError(f"monotonicity check needs 0 < p < q, got p={p}, q={q}")
    lhs = schatten(x, q)
    rhs = schatten(x, p)
    return _report(lhs, rhs, "<=", lhs <= rhs + 1e-10)


def check_superadditivity(x, y, q: float) -> InequalityReport:
    """``|X + Y|_q >= |X|_q + |Y|_q`` in the anti-norm regimes."""
    if _regime(q) == _NORM:
        raise InvalidOrderError(f"superadditivity is an anti-norm property, got q={q}")
    lhs = schatten_antinorm(np.asarray(x) + np.asarray(y), q)
    rhs = schatten_antinorm(x, q) + schatten_antinorm(y, q)
    return _report(lhs, rhs, ">=", lhs >= rhs - 1e-10)


def check_norm_product_chain(ch: chmod.KrausChannel) -> InequalityReport:
    """Trace-to-Frobenius norm-ratio product of the two representations.

    ``(|D|_1/|D|_2) * (|K|_1/|K|_2) >= sqrt(d)`` for every channel and
    ``>= d`` for unital ones; the two Frobenius norms agree because the
    representations share their entries up to reshuffling.
    """
    dyn = chmod.dynamical_from_kraus(ch)
    sup = dyn.superoperator()
    ratio = (
        schatten_norm(dyn.matrix, 1.0)
        / schatten_norm(dyn.matrix, 2.0)
        * schatten_norm(sup.matrix, 1.0)
        / schatten_norm(sup.matrix, 2.0)
    )
    bound = float(ch.dim) if chmod.is_unital(ch) else math.sqrt(ch.dim)
    return _report(ratio, bound, ">=", ratio >= bound - 1e-9)
