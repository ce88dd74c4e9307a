"""Dense complex linear-algebra primitives shared by every other module.

Conventions
-----------
Operators are plain complex ``numpy`` arrays; a real input to the spectral
functions stays real, so its decomposition runs in real arithmetic.
Vectorization is ROW-major:
``vec(|mu><nu|) = |mu> (x) |nu>``, i.e. ``vec(X) = X.reshape(-1)``, which is
isometric for the Hilbert-Schmidt inner product.  Composite
indices on a two-factor space are laid out as ``(mu, nu) -> mu*d + nu`` with
the principal system first.  These two choices are canonical for the whole
package: the superoperator layout and the reshuffling permutation are only
correct relative to them.

Spectra are plain float arrays, returned with multiplicity, sorted
descending; ties keep the backend order (entropies are symmetric functions
of the spectrum, so the order is cosmetic).

The spectral functions (:func:`hermitian_eigenvalues`, :func:`singular_values`,
:func:`clamp_spectrum`) and :func:`partial_trace` also take a stack of
same-shape matrices ``(n, m, m)`` and return one result per matrix, with one
LAPACK call for the whole stack.  Every check on a stack (Hermiticity, the
PSD clamp) is made per matrix, and the first matrix that fails it raises the
error a single-matrix call on it would raise.  A matrix with a non-finite
entry has no spectrum: the spectral functions reject it with
:class:`~chanent.errors.InvalidSpectrumError`.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidSpectrumError,
    NonSquareError,
    NotHermitianError,
    NotPositiveError,
)

__all__ = [
    "HERM_TOL",
    "EIG_TOL_PER_DIM",
    "ZERO_REL_TOL",
    "eig_tol",
    "as_matrix",
    "as_matrices",
    "require_hermitian",
    "hermitian_eigenvalues",
    "singular_values",
    "partial_trace",
    "clamp_spectrum",
    "matrix_to_json",
    "matrix_from_json",
]

# Max-entry Hermiticity deviation accepted before symmetrization.
HERM_TOL = 1e-8
# Absolute spectral tolerance per matrix dimension (trace checks, PSD clamp).
EIG_TOL_PER_DIM = 1e-9
# Spectrum entries below this fraction of the largest entry collapse to 0,
# so rank-deficient spectra stay exactly rank-deficient under q < 1 power
# sums (x**q has infinite slope at 0; eigensolver noise must not leak in).
ZERO_REL_TOL = 1e-12


def eig_tol(dim: int) -> float:
    """Absolute spectral tolerance for a ``dim``-dimensional matrix."""
    return EIG_TOL_PER_DIM * dim


def as_matrix(x) -> np.ndarray:
    """Coerce input to a 2-D complex array."""
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def as_matrices(x) -> np.ndarray:
    """Coerce input to a matrix (2-D) or a stack of matrices (3-D), real if it is real, else complex."""
    m = np.asarray(x)
    m = m.astype(float if np.isrealobj(m) else complex, copy=False)
    if m.ndim not in (2, 3):
        raise DimensionMismatchError(
            f"expected a 2-D matrix or a 3-D stack of matrices, got ndim={m.ndim}"
        )
    return m


def _finite_matrices(x) -> np.ndarray:
    """:func:`as_matrices`, with a non-finite entry an :class:`InvalidSpectrumError`: it has no spectrum."""
    m = as_matrices(x)
    if not np.isfinite(m).all():
        raise InvalidSpectrumError("matrix entries must be finite")
    return m


def _require_square(x: np.ndarray) -> np.ndarray:
    if x.shape[-2] != x.shape[-1]:
        raise NonSquareError(f"expected a square matrix, got shape {x.shape[-2:]}")
    return x


def _first_row_above(row_values: np.ndarray, limit: float) -> float:
    """The first of the per-matrix values that exceeds ``limit`` or is NaN."""
    flat = row_values.reshape(-1)
    return float(flat[np.flatnonzero(~(flat <= limit))[0]])


def require_hermitian(deviation: np.ndarray) -> None:
    """Raise :class:`NotHermitianError` if an entry of ``deviation`` exceeds ``HERM_TOL`` or is NaN.

    ``deviation`` is the entrywise deviation from Hermiticity of a matrix, or
    of each matrix of a stack; the error names the first matrix over the
    tolerance, with its max entry.
    """
    if deviation.size and not deviation.max() <= HERM_TOL:
        worst = _first_row_above(deviation.max(axis=(-2, -1)), HERM_TOL)
        raise NotHermitianError(f"Hermiticity deviation {worst:.3e} exceeds {HERM_TOL:.1e}")


def hermitian_eigenvalues(x) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, or of each matrix of a stack, descending.

    The input is symmetrized as ``(X + X^dag)/2`` before decomposition;
    deviations above ``HERM_TOL`` (max entry) are rejected instead of
    silently averaged away.
    """
    m = _require_square(_finite_matrices(x))
    adj = m.conj().swapaxes(-2, -1)
    require_hermitian(np.abs(m - adj))
    h = np.add(m, adj)
    return np.linalg.eigvalsh(np.divide(h, 2.0, out=h))[..., ::-1]


def singular_values(x) -> np.ndarray:
    """Singular values of a matrix, or of each matrix of a stack, descending.

    A real input is decomposed in real arithmetic.
    """
    return np.linalg.svd(_finite_matrices(x), compute_uv=False)


def partial_trace(x, d: int) -> np.ndarray:
    """Trace out the second tensor factor of a ``d**2 x d**2`` matrix, or of each matrix of a stack.

    That is the trailing index ``nu`` of the composite ``mu*d + nu``.
    """
    m = as_matrices(x)
    if m.shape[-2:] != (d * d, d * d):
        raise DimensionMismatchError(f"expected shape {(d * d, d * d)}, got {m.shape[-2:]}")
    return np.einsum("...ijkj->...ik", m.reshape(*m.shape[:-2], d, d, d, d))


def clamp_spectrum(values) -> np.ndarray:
    """Clamp a PSD-intended spectrum, or each row of a stack of spectra.

    Entries below ``-eig_tol(m)``, for spectra of ``m`` entries, and NaN
    entries, raise :class:`NotPositiveError`; remaining entries smaller than
    ``ZERO_REL_TOL`` times the largest entry of their spectrum (noise from
    rank-deficient decompositions, negative or positive) become exactly 0.
    """
    vals = np.asarray(values, dtype=float)
    neg_tol = eig_tol(vals.shape[-1])
    if vals.size and not vals.min() >= -neg_tol:
        lo = -_first_row_above(-vals.min(axis=-1), neg_tol)
        raise NotPositiveError(f"eigenvalue {lo:.6e} below -{neg_tol:.1e}")
    cutoff = ZERO_REL_TOL * vals.max(axis=-1, keepdims=True, initial=0.0)
    return np.where(vals < cutoff, 0.0, vals)


def matrix_to_json(x) -> dict:
    """Serialize a matrix to the shared JSON object format.

    ``{"rows": n, "cols": m, "re": [...], "im": [...]}`` with row-major
    arrays of length ``n*m``.
    """
    m = as_matrix(x)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": m.real.reshape(-1).tolist(),
        "im": m.imag.reshape(-1).tolist(),
    }


def _json_size(obj: dict, key: str) -> int:
    """``obj[key]``, a size in a JSON input: an integer >= 1, and not ``true``."""
    size = obj[key]
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise ValueError(f"{key!r} must be an integer >= 1, got {size!r}")
    return size


def _json_entries(obj: dict, key: str) -> np.ndarray:
    """``obj[key]``, a flat list of numbers, as a float array.

    numpy alone would also read a numeric string, ``true`` or a nested list,
    none of which is an entry; its own number types are numbers.
    """
    entries = obj[key]
    if not isinstance(entries, list):
        raise ValueError(f"{key!r} must be a list of numbers, got {type(entries).__name__}")
    for i, entry in enumerate(entries):
        if not isinstance(entry, (int, float, np.integer, np.floating)) or isinstance(entry, bool):
            raise ValueError(f"{key!r} entry {i} must be a number, got {entry!r}")
    return np.asarray(entries, dtype=float)


def matrix_from_json(obj: dict) -> np.ndarray:
    """Parse the shared JSON matrix object format; every entry must be a finite number.

    ``json`` reads ``NaN`` and ``Infinity``; a matrix holding them has no
    spectrum to check.  The sizes are JSON integers >= 1: an empty matrix has
    no spectrum either, and ``2.9`` or ``true`` is no size.
    """
    rows, cols = _json_size(obj, "rows"), _json_size(obj, "cols")
    re, im = _json_entries(obj, "re"), _json_entries(obj, "im")
    if re.size != rows * cols or im.size != rows * cols:
        raise DimensionMismatchError(
            f"matrix object announces {rows}x{cols} but carries "
            f"{re.size} real / {im.size} imaginary entries"
        )
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("matrix entries must be finite")
    return (re + 1j * im).reshape(rows, cols)
