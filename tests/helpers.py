"""Shared generators for the test suite (all seeded, all deterministic)."""

import json

import numpy as np
import oracles

from chanent import channel as chmod
from chanent import sampler


def complex_gaussian(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_psd(rng, n):
    g = complex_gaussian(rng, (n, n))
    return g @ g.conj().T


def random_density(rng, d):
    rho = random_psd(rng, d)
    return rho / np.trace(rho).real


def random_unitary(rng, d):
    return oracles.haar_unitary(d, rng)


def population(*args, **kwargs):
    """``sampler.population`` one channel at a time: ``(family, dim, channel_id, channel)``."""
    for family, d, ids, ops in sampler.population(*args, **kwargs):
        for channel_id, row in zip(ids, ops):
            yield family, d, channel_id, chmod.KrausChannel(d, tuple(row))


def noisy_depolarizing():
    """depolarizing(0.3) at d = 3 with its Kraus set scaled by ``1 + 4.5e-9``.

    Trace preserving and unital only up to 9.0e-9, inside ``TP_TOL``: its
    ``D`` has trace ``3 (1 + 9e-9)``, not 3.
    """
    ch = sampler.named_channel("depolarizing", 3, 0.3)
    return chmod.KrausChannel(3, tuple(a * (1.0 + 4.5e-9) for a in ch.kraus_ops))


def profile(*channels):
    """The :class:`~chanent.channel.ChannelProfile` of a stack of same-dimension channels."""
    return chmod.profile_channel(chmod.stack_kraus(channels))


def unital_defects(prof):
    """Max-entry deviation of each channel's ``Tr_2 D`` from the identity, read off its profile."""
    return np.abs(prof.tr2 - np.eye(prof.dim)).max(axis=(-2, -1))


def save_channel(ch, path):
    """Write ``ch`` in the channel JSON format that ``chanent sweep --channel`` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chmod.channel_to_json(ch), fh)
