"""Quantum channels in Kraus form and their two matrix representations.

A channel on a ``d``-dimensional system is stored only as its Kraus
operators; the dynamical (Choi-type) matrix ``D`` and the superoperator
matrix ``K`` are plain arrays derived from them, never mutated in place
(:func:`dynamical_from_kraus` gives ``D``, ``reshuffle(D, d)`` gives ``K``).
One channel is its ``(k, d, d)`` array of Kraus operators, and a stack of
``n`` same-dimension channels their ``(n, k, d, d)`` array; both are
validated by :func:`check_kraus_stack` (one channel as a stack of one, with
one trace-preservation check for the whole stack).  Under the row-major
``vec`` convention of :mod:`chanent.matcore`

* ``D = sum_i vec(A_i) vec(A_i)^dag``  (Hermitian, PSD, trace ``d``), built
  as one product of the stacked ``vec(A_i)``, and
* ``K = reshuffle(D)``, which equals ``sum_i A_i (x) conj(A_i)`` and acts as
  ``vec(out) = K vec(in)``,

where the reshuffling permutation ``K[a*d+b, m*d+n] = D[a*d+m, b*d+n]`` is an
involution that preserves the multiset of entries and hence the Frobenius
norm.  Independent routes to both matrices (the Kronecker loop for ``K``,
the entangled-input construction for ``D``) and to both spectra (the dense
``eigvalsh(D)``, the complex ``svd(K)``) live in ``tests/oracles.py``.

Each spectrum is one SVD, and neither decomposes ``D`` itself:

* The map spectrum (eigenvalues of ``D = V^T conj(V)``, row ``i`` of ``V``
  being ``vec(A_i)``) is the squared singular values of the ``(k, d**2)``
  Kraus matrix ``V``, padded with exact zeros to ``d**2``.  An entry is known
  to about ``2 m u sqrt(lam_i lam_max)``, with ``m = max(k, d**2)`` and ``u``
  machine epsilon, so small eigenvalues keep their leading digits.
* The receiver spectrum (singular values of ``K``): ``D`` is Hermitian, so
  ``conj(K) = F K F`` with ``F`` the swap ``a*d+b -> b*d+a``.  The unitary
  ``T = (I + iF)/sqrt(2)`` then makes ``T K T^dag = Re K - Im(F K)`` real,
  with the singular values of ``K``, and one real SVD of that matrix
  replaces the complex SVD of ``K``.  A ``K`` whose ``conj(K) - F K F``
  exceeds ``HERM_TOL`` times its largest entry in some entry is not
  Hermiticity preserving and is rejected with
  :class:`~chanent.errors.NotHermitianError`.

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
takes ``K`` and its spectrum with one decomposition, and ``Tr_2 D`` with
one reduction, from which the unital flags are read.  The map spectrum is
taken from the Kraus array with one decomposition on its first read, which
the sweep makes and the inequality suite does not: its checks read ``D`` only
through ``Tr D = Tr Tr_2 D`` and ``|D|_2 = |K|_2``.
"""

from __future__ import annotations

import numpy as np

from . import matcore
from .errors import DimensionMismatchError, NotTracePreservingError

__all__ = [
    "TP_TOL",
    "MAX_DIM",
    "check_kraus_stack",
    "dynamical_from_kraus",
    "reshuffle",
    "dynamical_spectrum",
    "superoperator_spectrum",
    "ChannelProfile",
    "profile_channel",
    "channel_to_json",
    "channel_from_json",
]

# Max-entry tolerance on sum_i A_i^dag A_i - I, and on sum_i A_i A_i^dag - I
# for the unital predicate.  Sampler normalization is exact to rounding, so
# anything larger is a genuinely non-TP (or non-unital) input.
TP_TOL = 1e-8
MAX_DIM = 16


def _identity_defects(m: np.ndarray) -> np.ndarray:
    """Max-entry deviation of ``m``, or of each matrix of a stack, from the identity."""
    return np.abs(m - np.eye(m.shape[-1])).max(axis=(-2, -1))


def _check_sizes(d: int, k: int) -> None:
    """Raise unless ``d`` is a system dimension the library takes and the Kraus count ``k`` is not 0."""
    if not (2 <= d <= MAX_DIM):
        raise DimensionMismatchError(f"system dimension must be in [2, {MAX_DIM}], got {d}")
    if not k:
        raise ValueError("a channel needs at least one Kraus operator")


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
    _check_sizes(d, k)
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


def dynamical_from_kraus(ops) -> np.ndarray:
    """Dynamical matrix ``sum_i vec(A_i) vec(A_i)^dag`` as ``V^T conj(V)``.

    Row ``i`` of ``V`` is ``vec(A_i)``, so the sum over Kraus operators is
    one matrix product.  ``ops`` is the ``(k, d, d)`` Kraus array of one
    channel, giving its ``(d**2, d**2)`` matrix, or the ``(n, k, d, d)``
    Kraus array of ``n`` same-dimension channels, which gives their stack of
    dynamical matrices ``(n, d**2, d**2)`` from one batched product.
    """
    a = np.asarray(ops)
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


def dynamical_spectrum(kraus) -> np.ndarray:
    """Eigenvalues of ``D``, descending, from its Kraus array; one row per channel of a stack ``(n, k, d, d)``.

    The squared singular values of the rows ``vec(A_i)``, padded with exact
    zeros to ``d**2``; those below the SVD's floor ``(m u)**2`` of the
    largest, ``m = max(k, d**2)`` and ``u`` machine epsilon, become 0.
    """
    n = np.shape(kraus)[-1] ** 2
    v = np.reshape(kraus, (*np.shape(kraus)[:-3], -1, n))
    vals = matcore.singular_values(v) ** 2
    vals[vals < (np.finfo(float).eps * max(v.shape[-2], n)) ** 2 * vals[..., :1]] = 0.0
    return np.concatenate([vals, np.zeros((*vals.shape[:-1], n - vals.shape[-1]))], axis=-1)


def superoperator_spectrum(sup, d: int) -> np.ndarray:
    """Cleaned singular-value spectrum of the superoperator matrix; one row per matrix of a stack.

    Taken by one real SVD of ``Re K - Im(F K)``; raises
    :class:`~chanent.errors.NotHermitianError` when ``conj(K) - F K F``
    exceeds ``HERM_TOL`` times ``K``'s largest entry in some entry, that is
    when ``K`` does not come from a Hermitian ``D``.
    """
    t = _blocks(sup, d)  # t[a, b, m, n] = K[a*d+b, m*d+n]
    ftf = t.swapaxes(-4, -3).swapaxes(-2, -1)
    k = t.reshape(*t.shape[:-4], d * d, d * d)
    matcore.require_hermitian(np.abs(t.conj() - ftf).reshape(k.shape), k)
    real = (t.real - t.swapaxes(-4, -3).imag).reshape(k.shape)
    return matcore.clamp_spectrum(matcore.singular_values(real))


class ChannelProfile:
    """What the trade-off grid and the channel checks read, for a stack of ``n`` channels.

    ``channel_id`` is a tuple of ``n`` ids and ``unital`` an ``(n,)`` bool
    array; the spectra are ``(n, d**2)`` float arrays and ``tr2`` is the
    ``(n, d, d)`` stack of ``Tr_2 D = sum_i A_i A_i^dag``, the image of the
    identity.  Row ``k`` of each belongs to channel ``k``.  ``choi_spectrum``
    is given as the array, or as a function of no arguments that gives it:
    that is called on the first read of the spectrum, and its array kept.
    """

    def __init__(self, channel_id, dim, unital, choi_spectrum, superop_spectrum, tr2):
        self.channel_id = channel_id
        self.dim = dim
        self.unital = unital
        self._choi = choi_spectrum
        self.superop_spectrum = superop_spectrum
        self.tr2 = tr2

    @property
    def choi_spectrum(self) -> np.ndarray:
        if callable(self._choi):
            self._choi = self._choi()
        return self._choi


def profile_channel(ops, channel_id=()) -> ChannelProfile:
    """Profile the ``(n, k, d, d)`` Kraus array of ``n`` same-dimension channels.

    ``channel_id`` holds one id per channel (all empty by default).  The
    dynamical matrices come from one batched product, ``Tr_2 D`` from one
    reduction of them, the unital flags from ``Tr_2 D`` and the receiver
    spectrum from one decomposition of the whole stack; the map spectrum is
    taken from ``ops`` the same way on its first read, so a reader of ``K``
    and ``Tr_2 D`` alone pays no decomposition for it, and the profile keeps
    no ``D``.  One channel is a stack of one, ``ops[None]``.
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
        choi_spectrum=lambda: dynamical_spectrum(ops),
        superop_spectrum=superoperator_spectrum(reshuffle(dyn, d), d),
        tr2=tr2,
    )


def channel_to_json(ops) -> dict:
    """Serialize a channel's ``(k, d, d)`` Kraus array to ``{"dim": d, "kraus": [matrix-object, ...]}``."""
    return {
        "dim": int(np.shape(ops)[-1]),
        "kraus": [matcore.matrix_to_json(a) for a in ops],
    }


def channel_from_json(obj: dict) -> np.ndarray:
    """Parse the channel JSON format into a validated ``(k, d, d)`` Kraus array; ``dim`` is an integer >= 1.

    Another shape is a ``ValueError`` that names the key and its type, as for a matrix."""
    d, kraus = matcore._json_fields(obj, "channel", "dim", "kraus")
    _check_sizes(d, len(kraus))  # before an array of d x d operators is built
    ops = [matcore.matrix_from_json(o) for o in kraus]
    for m in ops:
        if m.shape != (d, d):
            raise DimensionMismatchError(f"Kraus operator has shape {m.shape}, expected {(d, d)}")
    return check_kraus_stack(np.reshape(ops, (1, len(ops), d, d)))[0]
