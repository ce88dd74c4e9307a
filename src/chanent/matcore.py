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


# JSON input types: true and false are no integer or number, and numpy's own
# number types are numbers (numpy alone would also read a numeric string, true
# or a nested list as an entry).
_NUMBER = (int, float, np.integer, np.floating)
_SIZE = (int, None, "an integer >= 1", None)
_ENTRIES = (list, _NUMBER, "a list of numbers", "a number")
# Each key of a matrix or channel file: its type, its entries' type if it is a
# list, and what the errors say it and an entry must be.
_INPUT_KEYS = dict(rows=_SIZE, cols=_SIZE, dim=_SIZE, re=_ENTRIES, im=_ENTRIES,
                   kraus=(list, dict, "a list of matrix objects", "a matrix object"))
# The JSON type of a parsed value, as the errors name it: "number" if none of these.
_JSON_NAMES = {dict: "object", list: "list", str: "string", bool: "boolean", type(None): "null"}


def _is(value, kind) -> bool:
    """Whether a parsed JSON value is of ``kind``; ``true`` is no count, size, seed or order."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _json_fields(obj, what: str, *keys) -> list:
    """The values of ``keys`` in the input object ``obj``, each of the type :data:`_INPUT_KEYS` gives it.

    Another shape is a ``ValueError`` naming the key and what it must be;
    ``what`` names ``obj`` in it.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {_JSON_NAMES.get(type(obj), 'number')}")
    for key in keys:
        kind, member, expected, entry = _INPUT_KEYS[key]
        if key not in obj:
            raise ValueError(f"{what} object has no key {key!r}, which must be {expected}")
        value = obj[key]
        if not _is(value, kind) or (kind is int and value < 1):
            got = _JSON_NAMES.get(type(value), "number") if kind is list else repr(value)
            raise ValueError(f"{key!r} must be {expected}, got {got}")
        for i, v in enumerate(value if member else ()):
            if not _is(v, member):
                raise ValueError(f"{key!r} entry {i} must be {entry}, got {v!r}")
    return [obj[key] for key in keys]


def matrix_from_json(obj: dict) -> np.ndarray:
    """Parse the shared JSON matrix object format; every entry must be a finite number.

    ``json`` reads ``NaN`` and ``Infinity``; a matrix holding them has no
    spectrum to check.  The sizes are JSON integers >= 1: an empty matrix has
    no spectrum either, and ``2.9`` or ``true`` is no size.  Another shape,
    such as a list, is a ``ValueError`` that names the key and its type.
    """
    rows, cols, re, im = _json_fields(obj, "a matrix", "rows", "cols", "re", "im")
    re, im = np.asarray(re, dtype=float), np.asarray(im, dtype=float)
    if re.size != rows * cols or im.size != rows * cols:
        raise DimensionMismatchError(
            f"matrix object announces {rows}x{cols} but carries "
            f"{re.size} real / {im.size} imaginary entries"
        )
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("matrix entries must be finite")
    return (re + 1j * im).reshape(rows, cols)
