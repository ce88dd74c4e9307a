"""Shared generators for the test suite (all seeded, all deterministic)."""

import numpy as np

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
    return sampler.haar_unitary(d, rng)
