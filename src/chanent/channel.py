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
        """Max-entry deviation of ``sum_i A_i^dag A_i`` from the identity.

        The sum is one product: the operators stacked vertically, ``(k d, d)``,
        times their adjoint.
        """
        a = np.concatenate(self.kraus_ops)
        return float(np.abs(a.conj().T @ a - np.eye(self.dim)).max())

    def unital_defect(self) -> float:
        """Max-entry deviation of ``sum_i A_i A_i^dag`` from the identity.

        The sum is one product: the operators side by side, ``(d, k d)``, times
        their adjoint.
        """
        a = np.concatenate(self.kraus_ops, axis=1)
        return float(np.abs(a @ a.conj().T - np.eye(self.dim)).max())


@dataclass(frozen=True, eq=False)
class DynamicalMatrix:
    """The ``d**2 x d**2`` dynamical matrix of a channel (trace ``d``).

    ``matrix`` may also hold the ``(n, d**2, d**2)`` stack of ``n``
    same-dimension channels; every function of this module that takes a
    :class:`DynamicalMatrix` or :class:`SuperoperatorMatrix` then acts on each
    matrix of the stack.
    """

    dim: int
    matrix: np.ndarray

    def superoperator(self) -> "SuperoperatorMatrix":
        """The superoperator matrix of the same channel, ``reshuffle(D)``."""
        return SuperoperatorMatrix(self.dim, reshuffle(self.matrix, self.dim))


@dataclass(frozen=True, eq=False)
class SuperoperatorMatrix:
    """The ``d**2 x d**2`` superoperator matrix (generally non-Hermitian), or a stack of them."""

    dim: int
    matrix: np.ndarray


def dynamical_from_kraus(channels) -> DynamicalMatrix:
    """Dynamical matrix ``sum_i vec(A_i) vec(A_i)^dag`` as ``V^T conj(V)``.

    Row ``i`` of ``V`` is ``vec(A_i)``, so the sum over Kraus operators is
    one matrix product.  A sequence of same-dimension channels gives their
    stack of dynamical matrices ``(n, d**2, d**2)`` from one batched product;
    a channel with fewer Kraus operators than the others is padded with zero
    operators, which add nothing.
    """
    single = isinstance(channels, KrausChannel)
    chs = [channels] if single else list(channels)
    if not chs:
        raise ValueError("a channel stack needs at least one channel")
    d = chs[0].dim
    if any(ch.dim != d for ch in chs):
        raise DimensionMismatchError(
            f"a channel stack needs one dimension, got {sorted({ch.dim for ch in chs})}"
        )
    v = np.zeros((len(chs), max(len(ch.kraus_ops) for ch in chs), d, d), dtype=complex)
    for row, ch in zip(v, chs):
        row[: len(ch.kraus_ops)] = ch.kraus_ops
    v = v.reshape(len(chs), -1, d * d)
    dyn = v.swapaxes(-2, -1) @ v.conj()
    return DynamicalMatrix(d, dyn[0] if single else dyn)


def superoperator_from_kraus(ch: KrausChannel) -> SuperoperatorMatrix:
    """Superoperator matrix ``sum_i A_i (x) conj(A_i)``, as ``reshuffle(D)``.

    Unique matrix with ``vec(channel(X)) = K vec(X)`` under the row-major
    ``vec`` convention.
    """
    return dynamical_from_kraus(ch).superoperator()


def reshuffle(m, d: int) -> np.ndarray:
    """Reshuffling permutation ``out[a*d+b, m*d+n] = in[a*d+m, b*d+n]``.

    An involution on ``d**2 x d**2`` matrices, applied to each matrix of a
    stack; maps the dynamical matrix to the superoperator matrix and back.
    """
    x = matcore.as_matrices(m)
    if x.shape[-2:] != (d * d, d * d):
        raise DimensionMismatchError(f"expected shape {(d * d, d * d)}, got {x.shape[-2:]}")
    lead = x.shape[:-2]
    return x.reshape(*lead, d, d, d, d).swapaxes(-3, -2).reshape(*lead, d * d, d * d)


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
    """Clamped eigenvalue spectrum of the dynamical matrix, descending; one row per matrix of a stack."""
    spec = matcore.hermitian_eigenvalues(dyn.matrix)
    vals = matcore.clamp_spectrum(spec.values, neg_tol=matcore.eig_tol(dyn.dim**2))
    return Spectrum(vals, "eigenvalues-hermitian")


def superoperator_spectrum(sup: SuperoperatorMatrix) -> Spectrum:
    """Cleaned singular-value spectrum of the superoperator matrix; one row per matrix of a stack."""
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
