"""Random and named channel generators.

Reproducibility contract: all randomness flows from numpy's ``SeedSequence``
/ PCG64 machinery, which has a fixed cross-platform stream definition.  A
sampler derives one child stream per Kraus index from a sample's seed
(mixtures use one extra stream for the weights), so identical seeds yield
bit-identical channels.  Harnesses that draw many samples give the sample
addressed by ``indices`` the seed ``SeedSequence([base_seed, *indices])``
(the first 64-bit word of its state), which keeps parallel sampling
order-independent.  :func:`population` is the only place that addresses
samples, the inequality suite's Ginibre matrices included.

Samples are drawn in stacks of consecutive indices of one dimension and
family, and a single sample is a stack of one; the contract holds bit for
bit per sample, while each fixed cost is paid once per stack, so memory
does not grow with the population:

* seeding: a stack's seeds come from one vectorized ``uint32`` pass of
  numpy's published ``SeedSequence`` algorithm (entropy pool mixing, then
  ``generate_state``) over its one prefix and its own indices, each below
  ``2**32``, and its stream words from one more (uint64 seeds zero-padded
  to the pool's 4 words, then the key); the hash constants are tabulated
  once per length;
* streams: one seed source hands a stack's rows of stream words, in order,
  to a ``PCG64`` each, as a ``SeedSequence`` would hand them, and one loop
  makes one draw per stream: ``standard_normal((2, d, d))`` for a Ginibre
  matrix (the numbers of two ``normal((d, d))`` calls of ``default_rng``,
  its real and imaginary parts), ``standard_exponential(k)`` for mixture
  weights, whose rows times the reciprocals of their sequential sums are
  ``dirichlet(np.ones(k))``, as numpy normalizes;
* algebra: the QR with its phase fix, the normalizer sum and ``eigh``, the
  inverse square root and the Kraus products run once per stack, and
  :func:`~chanent.channel.check_kraus_stack` checks trace preservation for
  the whole stack;
* resampling: a cptp sample whose normalizer fails ``COND_LIMIT`` is drawn
  again from its attempt-1, attempt-2, ... streams, with the other failures
  of its stack.

A stack stays the ``(n, k, d, d)`` Kraus array it is drawn as, and a named
channel is its ``(k, d, d)`` Kraus array.

numpy's own ``SeedSequence`` and ``default_rng`` are the test oracle for the
seeding, and the per-sample samplers in ``tests/oracles.py`` for the
channels and matrices.  The seeding is reimplemented because numpy's own is
seven times slower: seeding the 4,800 streams of ``chanent inequalities
--dims 2,3 --samples 150`` through a ``SeedSequence`` per sample seed and a
``SeedSequence``, ``PCG64`` and ``Generator`` per stream took 139 ms,
against 18 ms for the per-stack words above (best of 7; numpy 2.4, a
2-vCPU Xeon host).
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .channel import check_kraus_stack
from .errors import (
    DimensionMismatchError,
    ParamOutOfRangeError,
    SingularNormalizerError,
    UnknownChannelError,
)

__all__ = [
    "FAMILY_CODES",
    "default_kraus_count",
    "named_channel",
    "named_family_channel",
    "population",
]

# Normalizer condition number above this triggers a resample; Ginibre
# normalizers are almost surely well-conditioned, this guards the tail.
COND_LIMIT = 1e12
RESAMPLE_ATTEMPTS = 8

# Stable family codes for seed derivation; independent of config order.
FAMILY_CODES = {"cptp": 0, "unitary-mixture": 1, "unistochastic": 2}
# The inequality suite's Ginibre matrices G ("mat") and G G^dag ("psd"), drawn at
# family code 0 from the stream key (); no sweep draws them.
_MATRIX_FAMILIES = ("mat", "psd")

# numpy's SeedSequence (numpy/random/bit_generator.pyx): pool size, hash and
# mix constants, all arithmetic modulo 2**32.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)


def _words(value) -> list[int]:
    """A non-negative integer as ``SeedSequence`` reads it: little-endian 32-bit words, at least one."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


@functools.cache
def _hash_consts(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of SeedSequence's next ``count`` hashes, as read-only uint32 columns.

    Tabulated once per ``count``: the table does not depend on the data.
    """
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & _MASK32)
    h = np.array(h, dtype=np.uint32)[:, None]
    h.setflags(write=False)
    return h[:-1], h[1:]


def _hash(value, consts):
    x, m = consts
    value = (value ^ x) * m
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    r = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return r ^ (r >> _XSHIFT)


def _seed_states(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(row).generate_state(n_words)`` for each row of the uint32 ``entropy``.

    numpy's pool mixing and output hashing, over all rows at once; the hash
    constants do not depend on the data, so the hashes of one pool word into
    the three others, and of one extra entropy word into all four, are one
    array operation each.  Returns ``(rows, n_words)`` uint32.
    """
    n = entropy.shape[1]
    x, m = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE**2 + _POOL_SIZE * max(0, n - _POOL_SIZE))
    pool = np.zeros((_POOL_SIZE, entropy.shape[0]), dtype=np.uint32)
    pool[: min(n, _POOL_SIZE)] = entropy.T[:_POOL_SIZE]
    pool = _hash(pool, (x[:_POOL_SIZE], m[:_POOL_SIZE]))
    c = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], (x[c : c + 3], m[c : c + 3])))
        c += 3
    for src in range(_POOL_SIZE, n):
        pool = _mix(pool, _hash(entropy[:, src], (x[c : c + _POOL_SIZE], m[c : c + _POOL_SIZE])))
        c += _POOL_SIZE
    out = _hash(pool[np.arange(n_words) % _POOL_SIZE], _hash_consts(_INIT_B, _MULT_B, n_words))
    return out.T


def _seed_table(heads, tails, n64: int) -> np.ndarray:
    """``generate_state(n64, np.uint64)`` of each head row of ``uint32`` words joined to each tail row, head-major.

    One :func:`_seed_states` pass over the ``uint32`` table of every such
    row; numpy joins the output words in little-endian pairs.  Returns a
    C-contiguous ``(len(heads) * len(tails), n64)`` uint64 table.
    """
    heads, tails = np.asarray(heads, dtype=np.uint32), np.asarray(tails, dtype=np.uint32)
    width = heads.shape[1]
    table = np.empty((len(heads), len(tails), width + tails.shape[1]), dtype=np.uint32)
    table[..., :width] = heads[:, None]
    table[..., width:] = tails
    words = _seed_states(table.reshape(-1, table.shape[-1]), 2 * n64)
    return np.ascontiguousarray(words, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


def _below(values, bits: int, what: str) -> list[int]:
    """``values`` as integers, each non-negative, as ``SeedSequence`` requires, and below ``2**bits``."""
    values = [operator.index(v) for v in values]
    if values and min(values) < 0:
        raise ValueError("expected non-negative integer")
    if values and max(values) >> bits:
        raise ValueError(f"{what} must be below 2**{bits}, got {max(values)}")
    return values


def _derive_seeds(prefix, indices) -> np.ndarray:
    """The seed ``SeedSequence([*prefix, index])`` for each of ``indices``, as uint64.

    A table row is the prefix's words and then the index as one word, so
    every index must be below ``2**32``.
    """
    index = np.array(_below(indices, 32, "a sample index"), dtype=np.uint32).reshape(-1, 1)
    return _seed_table([[w for v in prefix for w in _words(v)]], index, 1)[:, 0]


def _stream_states(seeds, keys) -> np.ndarray:
    """The words ``SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)``, each seed, then each key.

    A table row is the seed as two words, zero-padded to the pool size, then
    the key's words: ``SeedSequence`` pads a spawned seed so, and hashes an
    unspawned one of at most the pool size as if so padded.  Every seed must
    be below ``2**64``, as a derived seed is, and the keys of one call must
    have one word count.  Returns a C-contiguous ``(len(seeds) * len(keys), 4)`` uint64 table.
    """
    seed64 = np.array(_below(seeds, 64, "a stream seed"), dtype=np.uint64)
    heads = np.zeros((len(seed64), _POOL_SIZE), dtype=np.uint32)
    heads[:, 0], heads[:, 1] = seed64 & np.uint64(_MASK32), seed64 >> np.uint64(32)
    return _seed_table(heads, [[w for v in key for w in _words(v)] for key in keys], 4)


class _Streams(np.random.bit_generator.ISeedSequence):
    """A table of stream words, one ``(4,)`` uint64 row per stream, handed in order to the ``PCG64``s seeded from it.

    ``PCG64`` asks its seed source for ``generate_state(4, np.uint64)`` once
    and reads the four words from the array's buffer, as it would read them
    from the ``SeedSequence`` they come from.
    """

    def __init__(self, words: np.ndarray):
        self.rows = iter(np.ascontiguousarray(words, dtype=np.uint64).reshape(-1, 4))

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a stream is 4 uint64 words, asked for {n_words} of {np.dtype(dtype)}")
        row = next(self.rows, None)
        if row is None:
            raise ValueError("the stream table has fewer rows than draws")
        return row


def _draw(streams: _Streams, fill, out: np.ndarray) -> np.ndarray:
    """``fill(generator, out=row)`` for each row of ``out``, each on a ``PCG64`` seeded from the next stream."""
    for row in out:
        fill(np.random.Generator(np.random.PCG64(streams)), out=row)
    return out


def _ginibre(streams: _Streams, shape) -> np.ndarray:
    """One ``shape + (d, d)`` stack of complex Ginibre matrices, a matrix per stream."""
    *lead, d = shape
    z = np.empty((*lead, 2, d, d))
    _draw(streams, np.random.Generator.standard_normal, z.reshape(-1, 2, d, d))
    g = np.empty((*lead, d, d), dtype=complex)
    g.real, g.imag = z[..., 0, :, :], z[..., 1, :, :]
    return g


def _haar(g: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries via QR of a stack of Ginibre matrices.

    The R-diagonal phases are pushed into Q; without that correction the QR
    sign convention skews the distribution.
    """
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def default_kraus_count(family: str, dim: int) -> int:
    """Kraus count of a drawn channel of ``family`` at dimension ``dim``."""
    if family == "unitary-mixture":
        return dim
    return dim * dim


def _cptp_ops(seeds, d: int, k: int) -> np.ndarray:
    """Kraus stacks ``(n, k, d, d)`` of normalized Ginibre sets ``G_i S**(-1/2)``.

    A numerically singular normalizer ``S = sum_i G_i^dag G_i`` is resampled from a sibling stream.
    """
    ops = np.empty((len(seeds), k, d, d), dtype=complex)
    todo = np.arange(len(seeds))
    for attempt in range(RESAMPLE_ATTEMPTS):
        words = _stream_states([seeds[i] for i in todo], [(attempt, i) for i in range(k)])
        g = _ginibre(_Streams(words), (len(todo), k, d))
        normalizer = sum((g.conj().swapaxes(-2, -1) @ g).swapaxes(0, 1))
        vals, vecs = np.linalg.eigh(normalizer)
        ratio = np.divide(vals[:, -1], vals[:, 0], out=np.zeros(len(todo)), where=vals[:, 0] > 0.0)
        bad = (vals[:, 0] <= 0.0) | (ratio > COND_LIMIT)
        good = ~bad
        vecs = vecs[good]
        inv_sqrt = (vecs / np.sqrt(vals[good])[:, None, :]) @ vecs.conj().swapaxes(-2, -1)
        ops[todo[good]] = g[good] @ inv_sqrt[:, None]
        todo = todo[bad]
        if not todo.size:
            return ops
    raise SingularNormalizerError(
        f"normalizer stayed ill-conditioned after {RESAMPLE_ATTEMPTS} attempts (seed {seeds[todo[0]]})"
    )


def _unitary_mixture_ops(seeds, d: int, k: int) -> np.ndarray:
    """Kraus stacks ``sqrt(p_i) U_i``: Haar unitaries, flat-Dirichlet weights from stream ``k``."""
    # streams 0..k-1 of a seed draw its matrices, stream k its weights; every matrix is drawn first
    words = _stream_states(seeds, [(i,) for i in range(k + 1)]).reshape(len(seeds), k + 1, 4)
    streams = _Streams(np.concatenate([words[:, :k].reshape(-1, 4), words[:, k]]))
    unitaries = _haar(_ginibre(streams, (len(seeds), k, d)))
    weights = _draw(streams, np.random.Generator.standard_exponential, np.empty((len(seeds), k)))
    # numpy's dirichlet at alpha = 1: standard_gamma(1) is standard_exponential,
    # and each row is multiplied by the reciprocal of its sequential sum
    weights *= 1.0 / np.cumsum(weights, axis=1)[:, -1:]
    return np.sqrt(weights)[..., None, None] * unitaries


def _unistochastic_ops(u: np.ndarray, d: int) -> np.ndarray:
    """Kraus stacks ``A_(e,f) = (I (x) <e|) u (I (x) |f>) / sqrt(d)`` of a stack of composite unitaries.

    The channel ``rho -> Tr_env[u (rho (x) I/d) u^dag]``: trace preserving and unital for any unitary ``u``.
    """
    t = u.reshape(-1, d, d, d, d).transpose(0, 2, 4, 1, 3)
    return t.reshape(-1, d * d, d, d) / math.sqrt(d)


def _sample_stack(family: str, d: int, seeds) -> np.ndarray:
    """The ``(n, k, d, d)`` Kraus array of one channel per seed, all of ``family`` at dimension ``d``.

    A drawn family has :func:`default_kraus_count` operators; a named family
    is its one channel's Kraus array, broadcast to ``n`` rows, and a matrix
    family its ``(n, d, d)`` matrices.  Each family's draw is described at
    its stack sampler (``_cptp_ops`` and the like).
    """
    if family in _MATRIX_FAMILIES:
        g = _ginibre(_Streams(_stream_states(seeds, [()])), (len(seeds), d))
        return g @ g.conj().swapaxes(-2, -1) if family == "psd" else g
    if family == "cptp":
        ops = _cptp_ops(seeds, d, default_kraus_count(family, d))
    elif family == "unitary-mixture":
        ops = _unitary_mixture_ops(seeds, d, default_kraus_count(family, d))
    elif family == "unistochastic":
        streams = _Streams(_stream_states(seeds, [(0,)]))
        ops = _unistochastic_ops(_haar(_ginibre(streams, (len(seeds), d * d))), d)
    elif family.startswith("named:"):
        ops = named_family_channel(family, d)
        return np.broadcast_to(ops, (len(seeds), *ops.shape))
    else:
        raise UnknownChannelError(f"unknown sampler family {family!r}")
    return check_kraus_stack(ops)


def _require_param(name: str, param, lo: float, hi: float) -> float:
    if param is None:
        raise ParamOutOfRangeError(f"channel {name!r} needs a parameter in [{lo}, {hi}]")
    p = float(param)
    if not (lo <= p <= hi):
        raise ParamOutOfRangeError(f"parameter {p} of channel {name!r} outside [{lo}, {hi}]")
    return p


def named_channel(name: str, d: int, param: float | None = None) -> np.ndarray:
    """Closed-form channels used as oracles, as validated ``(k, d, d)`` Kraus arrays.

    ``identity`` and ``completely-depolarizing``, which take no parameter;
    ``depolarizing`` (mix with
    the completely depolarizing one, weight ``p``); ``dephasing`` (diagonal
    part with weight ``p``); ``amplitude-damping`` (qubit only, decay
    ``param``); ``unitary`` (rotation by ``param`` in the first two basis
    directions).
    """
    eye = np.eye(d, dtype=complex)
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)  # |mu><nu| at row mu * d + nu
    if name in ("identity", "completely-depolarizing") and param is not None:
        raise ParamOutOfRangeError(f"channel {name!r} takes no parameter, got {param}")
    if name == "identity":
        ops = [eye]
    elif name == "completely-depolarizing":
        ops = units / math.sqrt(d)
    elif name == "depolarizing":
        p = _require_param(name, param, 0.0, 1.0)
        ops = [math.sqrt(1.0 - p) * eye, *(math.sqrt(p / d) * units)]
    elif name == "dephasing":
        p = _require_param(name, param, 0.0, 1.0)
        ops = [math.sqrt(1.0 - p) * eye, *(math.sqrt(p) * units[:: d + 1])]
    elif name == "amplitude-damping":
        if d != 2:
            raise ParamOutOfRangeError("amplitude-damping is defined for d = 2 only")
        g = _require_param(name, param, 0.0, 1.0)
        ops = [np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - g)]]),
               np.array([[0.0, math.sqrt(g)], [0.0, 0.0]])]
    elif name == "unitary":
        if d < 2:
            raise DimensionMismatchError(f"channel 'unitary' rotates two basis directions, got d = {d}")
        if param is None or not math.isfinite(param):
            raise ParamOutOfRangeError(f"channel 'unitary' needs a finite rotation angle, got {param}")
        theta = float(param)
        u = np.eye(d, dtype=complex)
        u[0, 0] = u[1, 1] = math.cos(theta)
        u[0, 1] = -math.sin(theta)
        u[1, 0] = math.sin(theta)
        ops = [u]
    else:
        raise UnknownChannelError(f"unknown named channel {name!r}")
    return check_kraus_stack(np.stack(ops)[None])[0]


def named_family_channel(family: str, d: int) -> np.ndarray:
    """The channel a ``named:<name>[:<param>]`` family stands for at dimension ``d``.

    A parameter that is not a finite number, or a second parameter, is a
    :class:`ParamOutOfRangeError`.
    """
    _, name, *rest = family.split(":")
    param = None
    if len(rest) > 1:
        raise ParamOutOfRangeError(f"channel {name!r} takes at most one parameter, got {len(rest)}")
    if rest:
        try:
            param = float(rest[0])
        except ValueError:
            param = math.nan
        if not math.isfinite(param):
            raise ParamOutOfRangeError(f"parameter {rest[0]!r} of channel {name!r} is not a finite number")
    return named_channel(name, d, param)


def _cuts(count: int, size):
    """``range(count)`` cut into consecutive ranges of at most ``size`` (at least one), one at a time."""
    size = max(1, size)
    for start in range(0, count, size):
        yield range(start, min(start + size, count))


def population(seed: int, dims, families, count: int, stream: int = 0, size=None):
    """Yield ``(family, dim, channel_ids, ops)`` stacks in ``(dim, family, index)`` order.

    Sample ``index`` of ``family`` at ``dim`` is drawn with the default Kraus
    count from the seed ``SeedSequence([seed, stream + code, dim, index])``,
    where ``code`` is the family's entry in :data:`FAMILY_CODES`; harnesses keep
    their populations apart by ``stream``.  ``ops`` is the ``(n, k, d, d)``
    Kraus array of a stack of consecutive indices of one ``(dim, family)``,
    at most ``size(dim)`` of them (all ``count`` by default), checked for
    trace preservation; a named family repeats its one channel's Kraus
    array.  The matrix families ``mat`` and ``psd``, at family code 0 and
    stream key ``()``, give the ``(n, d, d)`` stack of the Ginibre matrices
    ``G`` of ``default_rng`` on each seed, real parts first, or of
    ``G G^dag``, unchecked.  Each stack's seeds are derived when it is drawn,
    for its own indices alone, so memory does not grow with ``count``.
    """
    for d in map(int, dims):
        for family in families:
            drawn = family in FAMILY_CODES or family in _MATRIX_FAMILIES
            for indices in _cuts(count, count if size is None else size(d)):
                ids = [f"{family}-d{d}-{index:04d}" for index in indices]
                seeds = _derive_seeds((seed, stream + FAMILY_CODES.get(family, 0), d), indices) if drawn else indices
                yield family, d, ids, _sample_stack(family, d, seeds)
