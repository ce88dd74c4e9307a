"""Random and named channel generators.

Reproducibility contract: all randomness flows from numpy's ``SeedSequence``
/ PCG64 machinery, which has a fixed cross-platform stream definition.  A
sampler derives one child stream per Kraus index from ``SamplerConfig.seed``
(mixtures use one extra stream for the weights), so identical configs yield
bit-identical channels.  Harnesses that draw many samples derive per-sample
seeds with :func:`derive_seed`, i.e. ``SeedSequence([base_seed, *indices])``,
which keeps parallel sampling order-independent.  :func:`population` and
:func:`ginibre_population` are the only places that address samples this way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import KrausChannel
from .errors import (
    ParamOutOfRangeError,
    SingularNormalizerError,
    UnknownChannelError,
)

__all__ = [
    "FAMILY_CODES",
    "SamplerConfig",
    "derive_seed",
    "default_kraus_count",
    "ginibre",
    "haar_unitary",
    "sample_cptp",
    "sample_unitary_mixture",
    "sample_unistochastic",
    "unistochastic_from_unitary",
    "named_channel",
    "sample_channel",
    "population",
    "ginibre_population",
]

# Normalizer condition number above this triggers a resample; Ginibre
# normalizers are almost surely well-conditioned, this guards the tail.
COND_LIMIT = 1e12
RESAMPLE_ATTEMPTS = 8

# Stable family codes for seed derivation; independent of config order.
FAMILY_CODES = {"cptp": 0, "unitary-mixture": 1, "unistochastic": 2}


@dataclass(frozen=True)
class SamplerConfig:
    """Deterministic recipe for one channel draw.

    ``family`` is one of ``cptp``, ``unitary-mixture``, ``unistochastic`` or
    ``named:<name>[:<param>]``; ``kraus_count`` applies to the first two.
    """

    dim: int
    kraus_count: int
    seed: int
    family: str

    def __post_init__(self):
        if self.kraus_count < 1:
            raise ParamOutOfRangeError(f"kraus_count must be >= 1, got {self.kraus_count}")


def derive_seed(base_seed: int, *indices: int) -> int:
    """Collision-free 64-bit seed for a sample addressed by ``indices``."""
    ss = np.random.SeedSequence([int(base_seed), *[int(i) for i in indices]])
    return int(ss.generate_state(1, np.uint64)[0])


def default_kraus_count(family: str, dim: int) -> int:
    """Kraus count used by the harnesses when the config leaves it open."""
    if family == "unitary-mixture":
        return dim
    return dim * dim


def ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Square matrix of i.i.d. standard complex Gaussian entries."""
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix.

    The R-diagonal phases are pushed into Q; without that correction the QR
    sign convention skews the distribution.
    """
    q, r = np.linalg.qr(ginibre(dim, rng))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def sample_cptp(cfg: SamplerConfig) -> KrausChannel:
    """Random trace-preserving channel from normalized Ginibre Kraus sets.

    Draws ``kraus_count`` Ginibre matrices ``G_i``, forms the normalizer
    ``S = sum_i G_i^dag G_i`` and returns ``A_i = G_i S**(-1/2)``; the
    trace-preservation defect is at rounding level by construction.  A
    numerically singular normalizer is resampled from a sibling stream up
    to ``RESAMPLE_ATTEMPTS`` times.
    """
    d, k = cfg.dim, cfg.kraus_count
    for attempt in range(RESAMPLE_ATTEMPTS):
        root = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(attempt,))
        gs = [ginibre(d, np.random.default_rng(s)) for s in root.spawn(k)]
        normalizer = sum(g.conj().T @ g for g in gs)
        vals, vecs = np.linalg.eigh(normalizer)
        if vals[0] <= 0.0 or vals[-1] / vals[0] > COND_LIMIT:
            continue
        inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
        return KrausChannel(d, tuple(g @ inv_sqrt for g in gs))
    raise SingularNormalizerError(
        f"normalizer stayed ill-conditioned after {RESAMPLE_ATTEMPTS} attempts (seed {cfg.seed})"
    )


def sample_unitary_mixture(cfg: SamplerConfig) -> KrausChannel:
    """Random unital channel: Haar unitaries with flat-Dirichlet weights.

    Kraus operators ``sqrt(p_i) U_i``; unital because each ``U_i U_i^dag``
    is the identity regardless of the weights.
    """
    d, k = cfg.dim, cfg.kraus_count
    streams = np.random.SeedSequence(cfg.seed).spawn(k + 1)
    unitaries = [haar_unitary(d, np.random.default_rng(s)) for s in streams[:k]]
    weights = np.random.default_rng(streams[k]).dirichlet(np.ones(k))
    return KrausChannel(d, tuple(math.sqrt(p) * u for p, u in zip(weights, unitaries)))


def unistochastic_from_unitary(u: np.ndarray, d: int) -> KrausChannel:
    """Channel obtained by coupling to a maximally mixed ``d``-dim environment.

    ``u`` acts on system (x) environment with composite index ``mu*d + e``;
    the ``d**2`` Kraus operators are the environment contractions
    ``A_(e,f) = (I (x) <e|) u (I (x) |f>) / sqrt(d)``, realizing
    ``rho -> Tr_env[u (rho (x) I/d) u^dag]``.  Trace-preserving and unital
    for any unitary ``u``.
    """
    t = np.asarray(u, dtype=complex).reshape(d, d, d, d)
    ops = tuple(t[:, e, :, f] / math.sqrt(d) for e in range(d) for f in range(d))
    return KrausChannel(d, ops)


def sample_unistochastic(cfg: SamplerConfig) -> KrausChannel:
    """Random unistochastic channel from a Haar unitary on the composite."""
    stream = np.random.SeedSequence(cfg.seed).spawn(1)[0]
    u = haar_unitary(cfg.dim * cfg.dim, np.random.default_rng(stream))
    return unistochastic_from_unitary(u, cfg.dim)


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


def named_channel(name: str, d: int, param: float | None = None) -> KrausChannel:
    """Closed-form channels used as oracles.

    ``identity``; ``completely-depolarizing``; ``depolarizing`` (mix with
    the completely depolarizing one, weight ``p``); ``dephasing`` (diagonal
    part with weight ``p``); ``amplitude-damping`` (qubit only, decay
    ``param``); ``unitary`` (rotation by ``param`` in the first two basis
    directions).
    """
    eye = np.eye(d, dtype=complex)
    if name == "identity":
        return KrausChannel(d, (eye,))
    if name == "completely-depolarizing":
        ops = tuple(_basis_matrix(d, mu, nu) / math.sqrt(d) for mu in range(d) for nu in range(d))
        return KrausChannel(d, ops)
    if name == "depolarizing":
        p = _require_param(name, param, 0.0, 1.0)
        ops = [math.sqrt(1.0 - p) * eye]
        ops += [
            math.sqrt(p / d) * _basis_matrix(d, mu, nu) for mu in range(d) for nu in range(d)
        ]
        return KrausChannel(d, tuple(ops))
    if name == "dephasing":
        p = _require_param(name, param, 0.0, 1.0)
        ops = [math.sqrt(1.0 - p) * eye]
        ops += [math.sqrt(p) * _basis_matrix(d, mu, mu) for mu in range(d)]
        return KrausChannel(d, tuple(ops))
    if name == "amplitude-damping":
        if d != 2:
            raise ParamOutOfRangeError("amplitude-damping is defined for d = 2 only")
        g = _require_param(name, param, 0.0, 1.0)
        k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - g)]], dtype=complex)
        k1 = np.array([[0.0, math.sqrt(g)], [0.0, 0.0]], dtype=complex)
        return KrausChannel(2, (k0, k1))
    if name == "unitary":
        if param is None:
            raise ParamOutOfRangeError("channel 'unitary' needs a rotation angle")
        theta = float(param)
        u = np.eye(d, dtype=complex)
        u[0, 0] = u[1, 1] = math.cos(theta)
        u[0, 1] = -math.sin(theta)
        u[1, 0] = math.sin(theta)
        return KrausChannel(d, (u,))
    raise UnknownChannelError(f"unknown named channel {name!r}")


def sample_channel(cfg: SamplerConfig) -> KrausChannel:
    """Dispatch a config to its family sampler."""
    if cfg.family == "cptp":
        return sample_cptp(cfg)
    if cfg.family == "unitary-mixture":
        return sample_unitary_mixture(cfg)
    if cfg.family == "unistochastic":
        return sample_unistochastic(cfg)
    if cfg.family.startswith("named:"):
        parts = cfg.family.split(":")
        param = float(parts[2]) if len(parts) > 2 else None
        return named_channel(parts[1], cfg.dim, param)
    raise UnknownChannelError(f"unknown sampler family {cfg.family!r}")


def population(seed: int, dims, families, count: int, stream: int = 0):
    """Yield ``(family, dim, channel_id, channel)`` in ``(dim, family, index)`` order.

    Sample ``index`` of ``family`` at ``dim`` is drawn with the default Kraus
    count from ``derive_seed(seed, stream + code, dim, index)``, where
    ``code`` is the family's entry in :data:`FAMILY_CODES`; harnesses keep
    their populations apart by ``stream``.
    """
    for dim in dims:
        d = int(dim)
        for family in families:
            code = stream + FAMILY_CODES.get(family, 99)  # 99: the named channels
            for index in range(count):
                cfg = SamplerConfig(
                    dim=d,
                    kraus_count=default_kraus_count(family, d),
                    seed=derive_seed(seed, code, d, index),
                    family=family,
                )
                yield family, d, f"{family}-d{d}-{index:04d}", sample_channel(cfg)


def ginibre_population(seed: int, dims, count: int, stream: int):
    """Yield ``(dim, index, G)`` Ginibre matrices in ``(dim, index)`` order.

    Matrix ``index`` at ``dim`` is drawn from ``derive_seed(seed, stream,
    dim, index)``.
    """
    for dim in dims:
        d = int(dim)
        for index in range(count):
            yield d, index, ginibre(d, np.random.default_rng(derive_seed(seed, stream, d, index)))
