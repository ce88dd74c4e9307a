"""Dense complex linear-algebra primitives shared by every other module.

Conventions
-----------
Operators are plain complex ``numpy`` arrays.  Vectorization is ROW-major:
``vec(|mu><nu|) = |mu> (x) |nu>``, i.e. ``vec(X) = X.reshape(-1)``.  Composite
indices on a two-factor space are laid out as ``(mu, nu) -> mu*d + nu`` with
the principal system first.  These two choices are canonical for the whole
package: the superoperator layout and the reshuffling permutation are only
correct relative to them.

Spectra are returned with multiplicity, sorted descending; ties keep the
backend order (entropies are symmetric functions of the spectrum, so the
order is cosmetic).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonSquareError,
    NotHermitianError,
    NotPositiveError,
)

__all__ = [
    "HERM_TOL",
    "EIG_TOL_PER_DIM",
    "ZERO_REL_TOL",
    "Spectrum",
    "eig_tol",
    "as_matrix",
    "hermitian_eigenvalues",
    "singular_values",
    "partial_trace",
    "vec",
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


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Real spectrum, descending, multiplicities included.

    ``kind`` is either ``"eigenvalues-hermitian"`` or ``"singular-values"``;
    singular-value spectra are elementwise nonnegative.
    """

    values: np.ndarray
    kind: str = field(default="eigenvalues-hermitian")

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    def __len__(self) -> int:
        return int(self.values.size)


def as_matrix(x) -> np.ndarray:
    """Coerce input to a 2-D complex array."""
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def _require_square(x: np.ndarray) -> np.ndarray:
    if x.shape[0] != x.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {x.shape}")
    return x


def hermitian_eigenvalues(x) -> Spectrum:
    """Eigenvalues of a Hermitian matrix, descending.

    The input is symmetrized as ``(X + X^dag)/2`` before decomposition;
    deviations above ``HERM_TOL`` (max entry) are rejected instead of
    silently averaged away.
    """
    m = _require_square(as_matrix(x))
    dev = np.abs(m - m.conj().T).max() if m.size else 0.0
    if dev > HERM_TOL:
        raise NotHermitianError(f"Hermiticity deviation {dev:.3e} exceeds {HERM_TOL:.1e}")
    sym = (m + m.conj().T) / 2.0
    vals = np.linalg.eigvalsh(sym)[::-1]
    return Spectrum(vals, "eigenvalues-hermitian")


def singular_values(x) -> Spectrum:
    """Singular values, descending (eigenvalues of ``sqrt(X^dag X)``)."""
    m = as_matrix(x)
    vals = np.linalg.svd(m, compute_uv=False)
    return Spectrum(vals, "singular-values")


def partial_trace(x, d: int, subsystem: str = "second") -> np.ndarray:
    """Trace out one tensor factor of a ``d**2 x d**2`` matrix.

    ``subsystem="first"`` traces the leading factor (index ``mu`` of the
    composite ``mu*d + nu``), ``"second"`` the trailing one.
    """
    m = as_matrix(x)
    if m.shape != (d * d, d * d):
        raise DimensionMismatchError(f"expected shape {(d * d, d * d)}, got {m.shape}")
    t = m.reshape(d, d, d, d)
    if subsystem == "first":
        return np.einsum("ijik->jk", t)
    if subsystem == "second":
        return np.einsum("ijkj->ik", t)
    raise ValueError(f"subsystem must be 'first' or 'second', got {subsystem!r}")


def vec(x) -> np.ndarray:
    """Row-major vectorization: ``vec(X)[mu*d + nu] = X[mu, nu]``.

    Isometric for the Hilbert-Schmidt inner product:
    ``<vec(X)|vec(Y)> = trace(X^dag Y)``.
    """
    m = _require_square(as_matrix(x))
    return m.reshape(-1)


def clamp_spectrum(values, neg_tol: float, zero_rel: float = ZERO_REL_TOL) -> np.ndarray:
    """Clamp a PSD-intended spectrum.

    Entries below ``-neg_tol`` raise :class:`NotPositiveError`; remaining
    entries smaller than ``zero_rel`` times the largest entry (noise from
    rank-deficient decompositions, negative or positive) become exactly 0.
    """
    vals = np.asarray(values, dtype=float)
    lo = vals.min() if vals.size else 0.0
    if lo < -neg_tol:
        raise NotPositiveError(f"eigenvalue {lo:.6e} below -{neg_tol:.1e}")
    out = vals.copy()
    cutoff = zero_rel * max(out.max(initial=0.0), 0.0)
    out[out < max(cutoff, 0.0)] = 0.0
    return out


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


def matrix_from_json(obj: dict) -> np.ndarray:
    """Parse the shared JSON matrix object format."""
    rows, cols = int(obj["rows"]), int(obj["cols"])
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.size != rows * cols or im.size != rows * cols:
        raise DimensionMismatchError(
            f"matrix object announces {rows}x{cols} but carries "
            f"{re.size} real / {im.size} imaginary entries"
        )
    return (re + 1j * im).reshape(rows, cols)
