"""Quantum channels in Kraus form and their two matrix representations.

A channel on a ``d``-dimensional system is stored only as its Kraus
operators; the dynamical (Choi-type) matrix ``D`` and the superoperator
matrix ``K`` are plain arrays derived from them, never mutated in place
(:func:`dynamical_from_kraus` gives ``D``, ``reshuffle(D, d)`` gives ``K``).
One channel is a :class:`KrausChannel`; a stack of ``n`` same-dimension
channels is their ``(n, k, d, d)`` Kraus array, validated by
:func:`check_kraus_stack` (one trace-preservation check for the whole stack)
and built from channel objects, zero-padded, by :func:`stack_kraus`.  The
harnesses keep the arrays the sampler draws and make a :class:`KrausChannel`
only for a channel that leaves them (a counterexample).  Under the row-major
``vec`` convention of :mod:`chanent.matcore`

* ``D = sum_i vec(A_i) vec(A_i)^dag``  (Hermitian, PSD, trace ``d``), built
  as one product of the stacked ``vec(A_i)``, and
* ``K = reshuffle(D)``, which equals ``sum_i A_i (x) conj(A_i)`` and acts as
  ``vec(out) = K vec(in)``,

where the reshuffling permutation ``K[a*d+b, m*d+n] = D[a*d+m, b*d+n]`` is an
involution that preserves the multiset of entries and hence the Frobenius
norm.  Independent routes to both matrices (the Kronecker loop for ``K``,
the entangled-input construction for ``D``) live in ``tests/oracles.py``.

Each spectrum is taken from the smallest real problem that has it:

* The map spectrum (eigenvalues of ``D = V^T conj(V)``, row ``i`` of ``V``
  being ``vec(A_i)``): when ``D`` comes with the ``k < d**2`` Kraus
  operators of its channel, or stack, the nonzero eigenvalues are those of
  the ``k x k`` Gram matrix ``conj(V) V^T``, padded with exact zeros to
  ``d**2``; otherwise one ``eigvalsh`` of ``D``.
* The receiver spectrum (singular values of ``K``): ``D`` is Hermitian, so
  ``conj(K) = F K F`` with ``F`` the swap ``a*d+b -> b*d+a``.  The unitary
  ``T = (I + iF)/sqrt(2)`` then makes ``T K T^dag = Re K - Im(F K)`` real,
  with the singular values of ``K``, and one real SVD of that matrix
  replaces the complex SVD of ``K``.  A ``K`` whose ``conj(K) - F K F``
  exceeds ``HERM_TOL`` in some entry is not Hermiticity preserving and is
  rejected with :class:`~chanent.errors.NotHermitianError`.

The complex ``svd(K)`` and the dense ``eigvalsh(D)`` are the reference
routes in ``tests/oracles.py``.

One tolerance decides both numerical predicates: a channel is admitted as
trace preserving iff its TP defect (max entry of ``sum_i A_i^dag A_i - I``)
is at most ``TP_TOL``, and it is unital iff its unital defect (max entry of
``sum_i A_i A_i^dag - I``) is at most the same ``TP_TOL``.  A channel whose
Kraus set carries a rounding-level scale error is then both TP and unital,
and is held to the sharper unital bound.  With row-major ``vec``,
``sum_i A_i A_i^dag = Tr_2 D``, so the unital defect of a whole stack is one
reduction on its ``D`` stack, taken in one place: :func:`profile_channel`
reads the unital flags off it (``ChannelProfile.tr2`` and ``.unital``).

:func:`profile_channel` is the one place that turns channels into what both
harnesses read: for the Kraus array of a stack of same-dimension channels
(one channel is a stack of one) it builds ``D`` in one batched product,
takes ``K``, both spectra with one decomposition each, and ``Tr_2 D`` with
one reduction, from which the unital flags are read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import DimensionMismatchError, NotTracePreservingError

__all__ = [
    "TP_TOL",
    "MAX_DIM",
    "KrausChannel",
    "check_kraus_stack",
    "stack_kraus",
    "dynamical_from_kraus",
    "reshuffle",
    "dynamical_spectrum",
    "superoperator_spectrum",
    "ChannelProfile",
    "profile_channel",
    "channel_to_json",
    "channel_from_json",
    "load_channel",
]

# Max-entry tolerance on sum_i A_i^dag A_i - I, and on sum_i A_i A_i^dag - I
# for the unital predicate.  Sampler normalization is exact to rounding, so
# anything larger is a genuinely non-TP (or non-unital) input.
TP_TOL = 1e-8
MAX_DIM = 16


def _identity_defects(m: np.ndarray) -> np.ndarray:
    """Max-entry deviation of ``m``, or of each matrix of a stack, from the identity."""
    return np.abs(m - np.eye(m.shape[-1])).max(axis=(-2, -1))


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A channel as a finite list of ``d x d`` Kraus operators.

    Construction validates shapes, then, as :func:`check_kraus_stack` on a
    stack of one, the supported dimension range (2 <= d <= MAX_DIM) and
    trace preservation within ``TP_TOL``.
    """

    dim: int
    kraus_ops: tuple

    def __post_init__(self):
        ops = tuple(matcore.as_matrix(a) for a in self.kraus_ops)
        for m in ops:
            if m.shape != (self.dim, self.dim):
                raise DimensionMismatchError(
                    f"Kraus operator has shape {m.shape}, expected {(self.dim, self.dim)}"
                )
        object.__setattr__(self, "kraus_ops", ops)
        check_kraus_stack(np.reshape(ops, (1, len(ops), self.dim, self.dim)))


def check_kraus_stack(ops) -> np.ndarray:
    """The ``(n, k, d, d)`` array ``ops`` of Kraus sets as complex, validated.

    Validates the dimension range, a nonempty Kraus set and, with one
    trace-preservation check for the whole stack, that no channel is over
    ``TP_TOL``; the first one over it raises.
    """
    ops = np.asarray(ops, dtype=complex)
    if ops.ndim != 4 or ops.shape[-2] != ops.shape[-1]:
        raise DimensionMismatchError(f"expected an (n, k, d, d) Kraus stack, got shape {ops.shape}")
    n, k, d, _ = ops.shape
    if not (2 <= d <= MAX_DIM):
        raise DimensionMismatchError(f"system dimension must be in [2, {MAX_DIM}], got {d}")
    if not k:
        raise ValueError("a channel needs at least one Kraus operator")
    # sum_i A_i^dag A_i as one product per channel: its operators stacked
    # vertically, (k d, d), times their adjoint; entries too large for it give
    # an inf or NaN defect, which no tolerance admits
    v = ops.reshape(n, k * d, d)
    with np.errstate(over="ignore", invalid="ignore"):
        defects = _identity_defects(v.conj().swapaxes(-2, -1) @ v)
    for defect in defects.tolist():
        if not defect <= TP_TOL:  # a NaN defect is no evidence of trace preservation
            raise NotTracePreservingError(
                f"trace-preservation defect {defect:.3e} exceeds {TP_TOL:.1e}"
            )
    return ops


def stack_kraus(channels) -> np.ndarray:
    """The ``(n, k, d, d)`` Kraus array of a sequence of same-dimension channels.

    A channel with fewer Kraus operators than the most of any is padded with
    zero operators, which add nothing to ``D`` or ``K``.
    """
    chs = list(channels)
    if not chs:
        raise ValueError("a channel stack needs at least one channel")
    d = chs[0].dim
    if any(ch.dim != d for ch in chs):
        raise DimensionMismatchError(
            f"a channel stack needs one dimension, got {sorted({ch.dim for ch in chs})}"
        )
    ops = np.zeros((len(chs), max(len(ch.kraus_ops) for ch in chs), d, d), dtype=complex)
    for row, ch in zip(ops, chs):
        row[: len(ch.kraus_ops)] = ch.kraus_ops
    return ops


def dynamical_from_kraus(ops) -> np.ndarray:
    """Dynamical matrix ``sum_i vec(A_i) vec(A_i)^dag`` as ``V^T conj(V)``.

    Row ``i`` of ``V`` is ``vec(A_i)``, so the sum over Kraus operators is
    one matrix product.  ``ops`` is a :class:`KrausChannel`, giving its
    ``(d**2, d**2)`` matrix, or the ``(n, k, d, d)`` Kraus array of ``n``
    same-dimension channels, which gives their stack of dynamical matrices
    ``(n, d**2, d**2)`` from one batched product.
    """
    a = np.stack(ops.kraus_ops) if isinstance(ops, KrausChannel) else np.asarray(ops)
    v = a.reshape(*a.shape[:-2], -1)
    return v.swapaxes(-2, -1) @ v.conj()


def reshuffle(m, d: int) -> np.ndarray:
    """Reshuffling permutation ``out[a*d+b, m*d+n] = in[a*d+m, b*d+n]``.

    An involution on ``d**2 x d**2`` matrices, applied to each matrix of a
    stack; maps the dynamical matrix to the superoperator matrix and back.
    """
    t = _blocks(m, d)
    return t.swapaxes(-3, -2).reshape(*t.shape[:-4], d * d, d * d)


def _blocks(m, d: int) -> np.ndarray:
    """A ``d**2 x d**2`` matrix, or each of a stack, as the 4-index view ``[a, b, m, n]``."""
    x = matcore.as_matrices(m)
    if x.shape[-2:] != (d * d, d * d):
        raise DimensionMismatchError(f"expected shape {(d * d, d * d)}, got {x.shape[-2:]}")
    return x.reshape(*x.shape[:-2], d, d, d, d)


def dynamical_spectrum(dyn, kraus=None) -> np.ndarray:
    """Clamped eigenvalue spectrum of the dynamical matrix, descending; one row per matrix of a stack.

    ``kraus`` optionally holds the Kraus operators ``D`` was built from:
    ``(k, d, d)`` for one matrix, ``(n, k, d, d)`` for a stack.  With
    ``k < d**2`` of them, the spectrum comes from the ``k x k`` Gram matrix
    ``conj(V) V^T`` of their rows ``vec(A_i)``, padded with zeros; otherwise
    from ``D`` itself.
    """
    n = np.shape(dyn)[-1]
    v = None if kraus is None else np.reshape(kraus, (*np.shape(dyn)[:-2], -1, n))
    if v is not None and v.shape[-2] < n:
        vals = matcore.hermitian_eigenvalues(v.conj() @ v.swapaxes(-2, -1))
        vals = np.concatenate([vals, np.zeros(vals.shape[:-1] + (n - vals.shape[-1],))], axis=-1)
    else:
        vals = matcore.hermitian_eigenvalues(dyn)
    return matcore.clamp_spectrum(vals, neg_tol=matcore.eig_tol(n))


def superoperator_spectrum(sup, d: int) -> np.ndarray:
    """Cleaned singular-value spectrum of the superoperator matrix; one row per matrix of a stack.

    Taken by one real SVD of ``Re K - Im(F K)``; raises
    :class:`~chanent.errors.NotHermitianError` when ``conj(K) - F K F``
    exceeds ``HERM_TOL`` in some entry, that is when ``K`` does not come
    from a Hermitian ``D``.
    """
    t = _blocks(sup, d)  # t[a, b, m, n] = K[a*d+b, m*d+n]
    lead = t.shape[:-4]
    ftf = t.swapaxes(-4, -3).swapaxes(-2, -1)
    matcore.require_hermitian(np.abs(t.conj() - ftf).reshape(*lead, d * d, d * d))
    real = (t.real - t.swapaxes(-4, -3).imag).reshape(*lead, d * d, d * d)
    return matcore.clamp_spectrum(matcore.singular_values(real), neg_tol=matcore.eig_tol(d * d))


@dataclass(frozen=True, eq=False)
class ChannelProfile:
    """What the trade-off grid and the channel checks read, for a stack of ``n`` channels.

    ``channel_id`` is a tuple of ``n`` ids and ``unital`` an ``(n,)`` bool
    array; the spectra are ``(n, d**2)`` float arrays and ``tr2`` is the
    ``(n, d, d)`` stack of ``Tr_2 D = sum_i A_i A_i^dag``, the image of the
    identity.  Row ``k`` of each belongs to channel ``k``.
    """

    channel_id: tuple
    dim: int
    unital: np.ndarray
    choi_spectrum: np.ndarray
    superop_spectrum: np.ndarray
    tr2: np.ndarray


def profile_channel(ops, channel_id=()) -> ChannelProfile:
    """Profile the ``(n, k, d, d)`` Kraus array of ``n`` same-dimension channels.

    ``channel_id`` holds one id per channel (all empty by default).  The
    dynamical matrices come from one batched product, ``Tr_2 D`` from one
    reduction of them, the unital flags from ``Tr_2 D`` and each spectrum
    from one decomposition of the whole stack.  :func:`stack_kraus` gives
    the array of a list of channels; one channel is a stack of one.
    """
    ids = tuple(channel_id) or ("",) * len(ops)
    if len(ids) != len(ops):
        raise ValueError(f"{len(ops)} channels but {len(ids)} channel ids")
    d = np.shape(ops)[-1]
    dyn = dynamical_from_kraus(ops)
    tr2 = matcore.partial_trace(dyn, d)
    return ChannelProfile(
        channel_id=ids,
        dim=d,
        unital=_identity_defects(tr2) <= TP_TOL,
        choi_spectrum=dynamical_spectrum(dyn, ops),
        superop_spectrum=superoperator_spectrum(reshuffle(dyn, d), d),
        tr2=tr2,
    )


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


def load_channel(path) -> KrausChannel:
    with open(path, encoding="utf-8") as fh:
        return channel_from_json(json.load(fh))
