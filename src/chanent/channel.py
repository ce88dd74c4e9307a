"""Quantum channels in Kraus form and their two matrix representations.

A channel on a ``d``-dimensional system is stored only as its Kraus
operators; the dynamical (Choi-type) matrix ``D`` and the superoperator
matrix ``K`` are derived views, never mutated in place.  Under the row-major
``vec`` convention of :mod:`chanent.matcore`

* ``D = sum_i vec(A_i) vec(A_i)^dag``  (Hermitian, PSD, trace ``d``), built
  as one product of the stacked ``vec(A_i)``, and
* ``K = reshuffle(D)``, which equals ``sum_i A_i (x) conj(A_i)`` and acts as
  ``vec(out) = K vec(in)``,

where the reshuffling permutation ``K[a*d+b, m*d+n] = D[a*d+m, b*d+n]`` is an
involution that preserves the multiset of entries and hence the Frobenius
norm.  Independent routes to both matrices (the Kronecker loop for ``K``,
the entangled-input construction for ``D``) live in ``tests/oracles.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import DimensionMismatchError, NotTracePreservingError
from .matcore import Spectrum

__all__ = [
    "TP_TOL",
    "UNITAL_TOL",
    "MAX_DIM",
    "KrausChannel",
    "DynamicalMatrix",
    "SuperoperatorMatrix",
    "dynamical_from_kraus",
    "superoperator_from_kraus",
    "reshuffle",
    "apply_channel",
    "is_unital",
    "dynamical_spectrum",
    "superoperator_spectrum",
    "channel_to_json",
    "channel_from_json",
    "save_channel",
    "load_channel",
]

# Max-entry tolerance on sum_i A_i^dag A_i - I.  Sampler normalization is
# exact to rounding, so anything larger is a genuinely non-TP input.
TP_TOL = 1e-8
# Max-entry tolerance on sum_i A_i A_i^dag - I for the unital predicate.
UNITAL_TOL = 1e-10
MAX_DIM = 16


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A channel as a finite list of ``d x d`` Kraus operators.

    Construction validates shapes, the supported dimension range
    (2 <= d <= MAX_DIM) and trace preservation within ``TP_TOL``.
    """

    dim: int
    kraus_ops: tuple

    def __post_init__(self):
        if not (2 <= self.dim <= MAX_DIM):
            raise DimensionMismatchError(
                f"system dimension must be in [2, {MAX_DIM}], got {self.dim}"
            )
        if not self.kraus_ops:
            raise ValueError("a channel needs at least one Kraus operator")
        ops = []
        for a in self.kraus_ops:
            m = matcore.as_matrix(a)
            if m.shape != (self.dim, self.dim):
                raise DimensionMismatchError(
                    f"Kraus operator has shape {m.shape}, expected {(self.dim, self.dim)}"
                )
            ops.append(m)
        object.__setattr__(self, "kraus_ops", tuple(ops))
        defect = self.tp_defect()
        if defect > TP_TOL:
            raise NotTracePreservingError(
                f"trace-preservation defect {defect:.3e} exceeds {TP_TOL:.1e}"
            )

    def tp_defect(self) -> float:
        """Max-entry deviation of ``sum_i A_i^dag A_i`` from the identity."""
        acc = sum(a.conj().T @ a for a in self.kraus_ops)
        return float(np.abs(acc - np.eye(self.dim)).max())

    def unital_defect(self) -> float:
        """Max-entry deviation of ``sum_i A_i A_i^dag`` from the identity."""
        acc = sum(a @ a.conj().T for a in self.kraus_ops)
        return float(np.abs(acc - np.eye(self.dim)).max())


@dataclass(frozen=True, eq=False)
class DynamicalMatrix:
    """The ``d**2 x d**2`` dynamical matrix of a channel (trace ``d``)."""

    dim: int
    matrix: np.ndarray

    def superoperator(self) -> "SuperoperatorMatrix":
        """The superoperator matrix of the same channel, ``reshuffle(D)``."""
        return SuperoperatorMatrix(self.dim, reshuffle(self.matrix, self.dim))


@dataclass(frozen=True, eq=False)
class SuperoperatorMatrix:
    """The ``d**2 x d**2`` superoperator matrix (generally non-Hermitian)."""

    dim: int
    matrix: np.ndarray


def dynamical_from_kraus(ch: KrausChannel) -> DynamicalMatrix:
    """Dynamical matrix ``sum_i vec(A_i) vec(A_i)^dag`` as ``V^T conj(V)``.

    Row ``i`` of ``V`` is ``vec(A_i)``, so the sum over Kraus operators is
    one matrix product.
    """
    d = ch.dim
    v = np.stack(ch.kraus_ops).reshape(len(ch.kraus_ops), d * d)
    return DynamicalMatrix(d, v.T @ v.conj())


def superoperator_from_kraus(ch: KrausChannel) -> SuperoperatorMatrix:
    """Superoperator matrix ``sum_i A_i (x) conj(A_i)``, as ``reshuffle(D)``.

    Unique matrix with ``vec(channel(X)) = K vec(X)`` under the row-major
    ``vec`` convention.
    """
    return dynamical_from_kraus(ch).superoperator()


def reshuffle(m, d: int) -> np.ndarray:
    """Reshuffling permutation ``out[a*d+b, m*d+n] = in[a*d+m, b*d+n]``.

    An involution on ``d**2 x d**2`` matrices; maps the dynamical matrix to
    the superoperator matrix and back.
    """
    x = matcore.as_matrix(m)
    if x.shape != (d * d, d * d):
        raise DimensionMismatchError(f"expected shape {(d * d, d * d)}, got {x.shape}")
    return x.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def apply_channel(ch: KrausChannel, x) -> np.ndarray:
    """Apply the channel: ``sum_i A_i X A_i^dag``."""
    m = matcore.as_matrix(x)
    if m.shape != (ch.dim, ch.dim):
        raise DimensionMismatchError(f"input has shape {m.shape}, expected {(ch.dim, ch.dim)}")
    out = np.zeros_like(m)
    for a in ch.kraus_ops:
        out += a @ m @ a.conj().T
    return out


def is_unital(ch: KrausChannel, tol: float = UNITAL_TOL) -> bool:
    """True iff the channel maps the identity to itself within ``tol``."""
    return ch.unital_defect() <= tol


def dynamical_spectrum(dyn: DynamicalMatrix) -> Spectrum:
    """Clamped eigenvalue spectrum of the dynamical matrix, descending."""
    spec = matcore.hermitian_eigenvalues(dyn.matrix)
    vals = matcore.clamp_spectrum(spec.values, neg_tol=matcore.eig_tol(dyn.dim**2))
    return Spectrum(vals, "eigenvalues-hermitian")


def superoperator_spectrum(sup: SuperoperatorMatrix) -> Spectrum:
    """Cleaned singular-value spectrum of the superoperator matrix."""
    spec = matcore.singular_values(sup.matrix)
    vals = matcore.clamp_spectrum(spec.values, neg_tol=matcore.eig_tol(sup.dim**2))
    return Spectrum(vals, "singular-values")


def channel_to_json(ch: KrausChannel) -> dict:
    """Serialize to ``{"dim": d, "kraus": [matrix-object, ...]}``."""
    return {
        "dim": int(ch.dim),
        "kraus": [matcore.matrix_to_json(a) for a in ch.kraus_ops],
    }


def channel_from_json(obj: dict) -> KrausChannel:
    """Parse the channel JSON format (validates trace preservation)."""
    ops = [matcore.matrix_from_json(o) for o in obj["kraus"]]
    return KrausChannel(int(obj["dim"]), tuple(ops))


def save_channel(ch: KrausChannel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(channel_to_json(ch), fh)


def load_channel(path) -> KrausChannel:
    with open(path, encoding="utf-8") as fh:
        return channel_from_json(json.load(fh))
