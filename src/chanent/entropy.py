"""Unified two-parameter entropies of the channel representations.

The map entropy is the ``(q, s)``-entropy of the dynamical-matrix spectrum,
the receiver entropy the same functional of the superoperator singular
values.  Both come from one kernel, :func:`entropy_grid`, which takes plain
arrays of weights (a stack as the rows of an ``(n, m)`` array), normalizes
each spectrum ``w`` by its own sum, ``p = w / sum(w)``, and evaluates

    ``(A**s - 1) / ((1-q) s)``  with  ``A = sum_j p_j**q``,

continued by its limits: Renyi ``ln(A) / (1-q)`` at ``s = 0`` and
Shannon ``-sum_j p_j ln p_j`` at ``q = 1``, for every ``s``.  One formula
covers all of them.  With ``exprel(y) = expm1(y)/y`` (1 at ``y = 0``)

* ``u = sum_j p_j ln p_j exprel((q-1) ln p_j)``, which is ``(A-1)/(q-1)``
  (a term whose ``p_j**q`` exceeds ``p_j`` e-fold is ``(p_j**q - p_j)/(q-1)``,
  which cancels nothing),
* ``x = (q-1) u``, which is ``A - 1``, and ``ln A = log1p(x)``,
* ``R = -u ln(A)/x``, which is ``ln(A)/(1-q)`` (``-u`` at ``x = 0``),
* the entropy ``R exprel(s ln A)``,

so no term cancels next to ``q = 1`` or ``s = 0``.  Once ``A < 1/2``
(``x < -1/2``, so ``q - 1`` is not small) ``log1p`` would amplify the
rounding of ``x``, and ``u`` may lose terms to an overflowing
``(q-1) ln p_j``; there ``R = ln(A)/(1-q)`` with ``ln A`` from the power sum
itself, and where that underflows (large ``q``) from the scaled form
``q ln p_max + ln sum (p/p_max)**q``.  Zero weights
contribute nothing for every ``q > 0`` (continuity convention); ``q <= 0``
is rejected.  Cells whose value does not fit a double (``|s|`` or ``q`` so
large that ``A**s`` overflows) come out as ``inf`` or ``nan``, for the
caller to check.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InvalidSpectrumError

__all__ = [
    "exprel",
    "entropy_grid",
]

# Smallest normal double: a power sum below it has lost digits to underflow.
_TINY = float(np.finfo(float).tiny)


def exprel(y) -> np.ndarray:
    """``expm1(y) / y`` elementwise, continued by its limits 1 at ``y = 0`` and ``inf`` at ``inf``."""
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore"):
        return np.divide(np.expm1(y), y, out=np.where(y == 0.0, 1.0, y), where=(y != 0.0) & (y < np.inf))


def entropy_grid(values, q_grid, s_grid) -> np.ndarray:
    """Unified entropies of the spectrum ``values`` over its sum on the grid ``q_grid x s_grid``.

    Returns the ``(len(q_grid), len(s_grid))`` array, cell ``[i, j]`` at
    ``(q_grid[i], s_grid[j])``.  A stack of ``n`` spectra ``(n, m)``, each
    row normalized by its own sum, gives ``(n, len(q_grid), len(s_grid))``;
    shorter spectra are padded with zeros, which carry no weight.  When all
    rows have their zeros in the same places (descending spectra of one
    rank), each row's result equals the one-spectrum call exactly; a row
    with more zeros than others is summed in another grouping and may differ
    from that call by rounding.
    """
    vals = np.asarray(values, dtype=float)
    if vals.size == 0 or float(vals.min()) < 0.0:
        raise InvalidSpectrumError("spectrum must be nonempty and nonnegative")
    rows = np.atleast_2d(vals)
    pos = rows > 0.0
    if not pos.any(axis=-1).all():
        raise InvalidSpectrumError("spectrum carries no weight")
    # Entries zero in every row are dropped, so a single spectrum, or a stack
    # of equal rank, is summed over its nonzero weights alone, in the same
    # order as without the padding.  compress keeps each row contiguous (a
    # boolean-index copy is column-major), which keeps the row sums below
    # pairwise, as for one spectrum.
    w = rows.compress(pos.any(axis=0), axis=-1)
    q = np.asarray(q_grid, dtype=float).reshape(-1, 1)
    s = np.asarray(s_grid, dtype=float).reshape(1, -1)
    if not ((q > 0.0).all() and np.isfinite(q).all() and np.isfinite(s).all()):
        raise DomainError(f"entropy orders need finite q > 0 and finite s, got q={q_grid}, s={s_grid}")
    # Out-of-range orders, and infinite weights, overflow; that is left to
    # IEEE arithmetic.
    with np.errstate(all="ignore"):
        p = (w / w.sum(axis=-1, keepdims=True))[:, None, :]
        log_p = np.log(p, out=np.zeros(p.shape), where=p > 0.0)  # 0 ln 0 = 0
        pq = p**q
        a = pq.sum(axis=-1, keepdims=True)
        # exprel(y) alone overflows for subnormal p at q near 0; there, and
        # wherever y > 1, the term (p**q - p)/(q - 1) cancels nothing.
        y = (q - 1.0) * log_p
        u = np.where(y > 1.0, (pq - p) / (q - 1.0), p * log_p * exprel(y)).sum(axis=-1, keepdims=True)
        x = (q - 1.0) * u
        far = a < 0.5
        log_a = np.where(far, np.log(a), np.log1p(x))
        small = a < _TINY
        if small.any():
            p_max = p.max(axis=-1, keepdims=True)
            scaled = q * np.log(p_max) + np.log(((p / p_max) ** q).sum(axis=-1, keepdims=True))
            log_a = np.where(small, scaled, log_a)
        near = -u * np.divide(log_a, x, out=np.ones(x.shape), where=x != 0.0)
        value = np.where(far, log_a / (1.0 - q), near) * exprel(s * log_a)
    value = value + 0.0  # +0.0 drops a -0.0 sign
    return value[0] if vals.ndim == 1 else value

