"""Random and named channel generators.

Reproducibility contract: all randomness flows from numpy's ``SeedSequence``
/ PCG64 machinery, which has a fixed cross-platform stream definition.  A
sampler derives one child stream per Kraus index from a sample's seed
(mixtures use one extra stream for the weights), so identical seeds yield
bit-identical channels.  Harnesses that draw many samples give the sample
addressed by ``indices`` the seed ``SeedSequence([base_seed, *indices])``
(the first 64-bit word of its state), which keeps parallel sampling
order-independent.  :func:`population` and :func:`ginibre_population` are
the only places that address samples this way.

Samples are drawn in stacks of consecutive indices of one dimension (and
family), and a single sample is a stack of one; the contract holds bit for
bit per sample, while each fixed cost is paid once per population or once
per stack:

* seeding: the derived seeds of a whole population, every ``(dim, family)``
  of it, come from one vectorized ``uint32`` pass of numpy's published
  ``SeedSequence`` algorithm (entropy pool mixing, then
  ``generate_state``), one pass per entropy word count, and each stack's
  stream states from one more such pass, followed by PCG64's seeding step
  in integer arithmetic; the algorithm's hash constants are tabulated once
  per length;
* streams: each stream is one PCG64 state set, through one state dict
  reused for the stack, on a generator local to the call, and one draw
  into the stack: ``standard_normal((2, d, d))`` for a
  Ginibre matrix, the numbers numpy's two ``normal((d, d))`` calls of a
  ``default_rng`` on that stream give, and ``standard_exponential(k)`` for
  mixture weights; one multiplication of the weight stack by the
  reciprocals of its sequential row sums, as numpy's ``dirichlet``
  normalizes, then gives the numbers ``dirichlet(np.ones(k))`` gives;
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
channels and matrices.
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
    "ginibre_population",
]

# Normalizer condition number above this triggers a resample; Ginibre
# normalizers are almost surely well-conditioned, this guards the tail.
COND_LIMIT = 1e12
RESAMPLE_ATTEMPTS = 8

# Stable family codes for seed derivation; independent of config order.
FAMILY_CODES = {"cptp": 0, "unitary-mixture": 1, "unistochastic": 2}

# numpy's SeedSequence (numpy/random/bit_generator.pyx): pool size, hash and
# mix constants, all arithmetic modulo 2**32.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _words(value) -> list[int]:
    """A non-negative integer as ``SeedSequence`` reads it: little-endian 32-bit words, at least one."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _word_groups(values, pad: int = 0):
    """Yield ``(rows, words)``: the positions in ``values`` of one word count and
    their ``(len(rows), n)`` uint32 words, zero-padded to at least ``pad`` words.

    ``values`` are integers, or a uint64 array of derived seeds, taken as is.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.uint64:
        v = values
    else:
        values = [operator.index(v) for v in values]
        if values and min(values) < 0:
            raise ValueError("expected non-negative integer")
        if values and max(values) >> 64:  # only a caller's own seed is this large: one at a time
            for row, value in enumerate(values):
                words = _words(value)
                yield [row], np.array([words + [0] * (pad - len(words))], dtype=np.uint32)
            return
        v = np.array(values, dtype=np.uint64)
    words = np.zeros((v.size, max(pad, 2)), dtype=np.uint32)
    words[:, 0], words[:, 1] = v & np.uint64(_MASK32), v >> np.uint64(32)
    counts = np.maximum(np.where(words[:, 1] != 0, 2, 1), pad)
    for n in sorted(set(counts.tolist())):
        rows = np.flatnonzero(counts == n)
        yield rows, words[rows, :n]


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


def _uint64(words: np.ndarray) -> np.ndarray:
    """Little-endian pairs of uint32 words as uint64, as ``generate_state(n, np.uint64)`` joins them."""
    w = words.astype(np.uint64)
    return w[..., 0::2] | (w[..., 1::2] << np.uint64(32))


def _derive_seeds(prefixes, indices) -> np.ndarray:
    """The seed ``SeedSequence([*prefix, index])`` for each of ``prefixes`` and each of ``indices``.

    Returns ``(len(prefixes), len(indices))`` uint64.  The rows of one
    entropy word count, which are all rows when the prefixes differ only in
    small entries, go through one :func:`_seed_states` pass.
    """
    heads = [np.array([w for v in prefix for w in _words(v)], dtype=np.uint32) for prefix in prefixes]
    groups = list(_word_groups(indices))
    passes: dict[int, list] = {}  # entropy word count -> (prefix, rows, entropy) parts
    for p, head in enumerate(heads):
        for rows, words in groups:
            entropy = np.concatenate([np.broadcast_to(head, (len(rows), head.size)), words], axis=1)
            passes.setdefault(entropy.shape[1], []).append((p, rows, entropy))
    seeds = np.empty((len(heads), len(indices)), dtype=np.uint64)
    for parts in passes.values():
        states = _uint64(_seed_states(np.concatenate([e for *_, e in parts]), 2))[:, 0]
        start = 0
        for p, rows, _ in parts:
            seeds[p, rows] = states[start : start + len(rows)]
            start += len(rows)
    return seeds


def _stream_states(seeds, keys) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``SeedSequence(seed, spawn_key=key)`` for each seed, then each key.

    A nonempty spawn key pads the seed's words to the pool size, as
    ``SeedSequence`` does, so that a spawned stream never meets a root one.
    """
    key_words = np.array([[w for v in key for w in _words(v)] for key in keys], dtype=np.uint32)
    k = len(keys)
    words = np.empty((len(seeds), k, 8), dtype=np.uint32)
    for rows, seed_words in _word_groups(seeds, _POOL_SIZE if key_words.size else 0):
        entropy = np.concatenate([
            np.repeat(seed_words, k, axis=0),
            np.tile(key_words, (len(seed_words), 1)),
        ], axis=1)
        words[rows] = _seed_states(entropy, 8).reshape(len(seed_words), k, 8)
    # PCG64's seeding (pcg64_set_seed): the 128-bit seed and increment are
    # words (0, 1) and (2, 3), high word first; srandom sets inc = 2 * incr + 1
    # and state = (inc + seed) * MULT + inc, two steps of the LCG from 0
    states = []
    for s_hi, s_lo, i_hi, i_lo in _uint64(words).reshape(-1, 4).tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        states.append((((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & _MASK128, inc))
    return states


def _generators(states):
    """One generator, set to each PCG64 ``(state, inc)`` in turn through one reused state dict."""
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    inner: dict = {}
    state = {"bit_generator": "PCG64", "state": inner, "has_uint32": 0, "uinteger": 0}
    for inner["state"], inner["inc"] in states:
        bits.state = state
        yield gen


def _ginibre(gens, shape) -> np.ndarray:
    """One ``shape + (d, d)`` stack of complex Ginibre matrices, a matrix per generator."""
    *lead, d = shape
    z = np.empty((*lead, 2, d, d))
    for row, gen in zip(z.reshape(-1, 2, d, d), gens):
        gen.standard_normal(out=row)
    return z[..., 0, :, :] + 1j * z[..., 1, :, :]


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
        states = _stream_states([seeds[i] for i in todo], [(attempt, i) for i in range(k)])
        g = _ginibre(_generators(states), (len(todo), k, d))
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
    states = _stream_states(seeds, [(i,) for i in range(k + 1)])  # per seed: k matrices, then the weights
    matrix_states = [state for j, state in enumerate(states) if j % (k + 1) < k]
    unitaries = _haar(_ginibre(_generators(matrix_states), (len(seeds), k, d)))
    weights = np.empty((len(seeds), k))
    for w, gen in zip(weights, _generators(states[k :: k + 1])):
        gen.standard_exponential(out=w)
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
    is its one channel's Kraus array, broadcast to ``n`` rows.  Each family's
    draw is described at its stack sampler (``_cptp_ops`` and the like).
    """
    if family == "cptp":
        ops = _cptp_ops(seeds, d, default_kraus_count(family, d))
    elif family == "unitary-mixture":
        ops = _unitary_mixture_ops(seeds, d, default_kraus_count(family, d))
    elif family == "unistochastic":
        gens = _generators(_stream_states(seeds, [(0,)]))
        ops = _unistochastic_ops(_haar(_ginibre(gens, (len(seeds), d * d))), d)
    elif family.startswith("named:"):
        ops = named_family_channel(family, d)
        return np.broadcast_to(ops, (len(seeds), *ops.shape))
    else:
        raise UnknownChannelError(f"unknown sampler family {family!r}")
    return check_kraus_stack(ops)


def _basis_matrix(d: int, mu: int, nu: int) -> np.ndarray:
    m = np.zeros((d, d), dtype=complex)
    m[mu, nu] = 1.0
    return m


def _require_param(name: str, param, lo: float, hi: float) -> float:
    if param is None:
        raise ParamOutOfRangeError(f"channel {name!r} needs a parameter in [{lo}, {hi}]")
    p = float(param)
    if not (lo <= p <= hi):
        raise ParamOutOfRangeError(f"parameter {p} of channel {name!r} outside [{lo}, {hi}]")
    return p


def named_channel(name: str, d: int, param: float | None = None) -> np.ndarray:
    """Closed-form channels used as oracles, as validated ``(k, d, d)`` Kraus arrays.

    ``identity``; ``completely-depolarizing``; ``depolarizing`` (mix with
    the completely depolarizing one, weight ``p``); ``dephasing`` (diagonal
    part with weight ``p``); ``amplitude-damping`` (qubit only, decay
    ``param``); ``unitary`` (rotation by ``param`` in the first two basis
    directions).
    """
    eye = np.eye(d, dtype=complex)
    if name == "identity":
        ops = [eye]
    elif name == "completely-depolarizing":
        ops = [_basis_matrix(d, mu, nu) / math.sqrt(d) for mu in range(d) for nu in range(d)]
    elif name == "depolarizing":
        p = _require_param(name, param, 0.0, 1.0)
        ops = [math.sqrt(1.0 - p) * eye]
        ops += [math.sqrt(p / d) * _basis_matrix(d, mu, nu) for mu in range(d) for nu in range(d)]
    elif name == "dephasing":
        p = _require_param(name, param, 0.0, 1.0)
        ops = [math.sqrt(1.0 - p) * eye]
        ops += [math.sqrt(p) * _basis_matrix(d, mu, mu) for mu in range(d)]
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

    A parameter that is not a finite number is a :class:`ParamOutOfRangeError`.
    """
    _, name, *rest = family.split(":")
    param = None
    if rest:
        try:
            param = float(rest[0])
        except ValueError:
            param = math.nan
        if not math.isfinite(param):
            raise ParamOutOfRangeError(f"parameter {rest[0]!r} of channel {name!r} is not a finite number")
    return named_channel(name, d, param)


def _cuts(count: int, size) -> list[range]:
    """``range(count)`` cut into consecutive ranges of at most ``size`` (at least one)."""
    size = max(1, size)
    return [range(start, min(start + size, count)) for start in range(0, count, size)]


def population(seed: int, dims, families, count: int, stream: int = 0, size=None):
    """Yield ``(family, dim, channel_ids, ops)`` stacks in ``(dim, family, index)`` order.

    Sample ``index`` of ``family`` at ``dim`` is drawn with the default Kraus
    count from the seed ``SeedSequence([seed, stream + code, dim, index])``,
    where ``code`` is the family's entry in :data:`FAMILY_CODES`; harnesses keep
    their populations apart by ``stream``.  ``ops`` is the ``(n, k, d, d)``
    Kraus array of a stack of consecutive indices of one ``(dim, family)``,
    at most ``size(dim)`` of them (all ``count`` by default), checked for
    trace preservation; a named family repeats its one channel's Kraus
    array.  The seeds of every ``(dim, family)`` are derived together,
    before the first stack is drawn, and sliced per stack.
    """
    pairs = [(int(dim), family) for dim in dims for family in families]
    drawn = [(d, family) for d, family in pairs if family in FAMILY_CODES]
    table = _derive_seeds([(seed, stream + FAMILY_CODES[f], d) for d, f in drawn], range(count))
    seeds = dict(zip(drawn, table))
    for d, family in pairs:
        for indices in _cuts(count, count if size is None else size(d)):
            ids = [f"{family}-d{d}-{index:04d}" for index in indices]
            stack = seeds.get((d, family), range(count))[indices.start : indices.stop]
            yield family, d, ids, _sample_stack(family, d, stack)


def ginibre_population(seed: int, dims, count: int, stream: int, size=None):
    """Yield ``(dim, indices, G)`` stacks of Ginibre matrices in ``(dim, index)`` order.

    Matrix ``index`` at ``dim`` is the complex Ginibre matrix of
    ``default_rng`` on the seed ``SeedSequence([seed, stream, dim, index])``,
    its real parts drawn before its imaginary parts; ``G`` stacks the matrices of
    ``indices``, at most ``size(dim)`` of them (all ``count`` by default).
    The seeds of every dimension are derived together, and sliced per stack.
    """
    dims = [int(dim) for dim in dims]
    table = _derive_seeds([(seed, stream, d) for d in dims], range(count))
    for d, seeds in zip(dims, table):
        for indices in _cuts(count, count if size is None else size(d)):
            states = _stream_states(seeds[indices.start : indices.stop], [()])
            yield d, indices, _ginibre(_generators(states), (len(indices), d))
