"""The law each drawn family samples from, against closed forms.

Every other sampler test compares bits with ``tests/oracles.py``, which runs
the same algorithm, so a fault that both share is invisible to them.  These
tests state the law instead: two moments of each drawn family at
``d = 2, 3, 4``, read off ``sampler.population``'s stacks, as
``sampler.sample_stack`` draws them, and ``channel.profile_channel`` alone, and two moments of the unitary mixture's
weights, read off its Kraus array, so they hold for any sampler that draws
these laws, whatever its bits.  Each mean is taken over ``COUNT`` samples at
one fixed seed and must lie within ``Z_MAX`` standard errors of its closed
form: a false alarm about once in 1.7 million checks.

Planted on a copy of the sampler, each of these faults fails at least one
test: ``_haar`` without its R-phase fix (``Tr K``), real Ginibre entries
(the ``cptp`` and unistochastic purities) and mixture weights of a Dirichlet
law that is not flat (the unitary mixture's purity, and its weights' second
moment: Dirichlet(2) weights read z from -38 to -68).
"""

import functools
import math

import numpy as np
import pytest
from helpers import drawn_stacks

from chanent import sampler
from chanent.channel import profile_channel

SEED = 20250101
COUNT = 4000
Z_MAX = 5.0
DIMS = (2, 3, 4)


@functools.cache
def moments(family: str, d: int) -> tuple:
    """Per sample: ``Tr K = sum_i |Tr A_i|**2`` and the map purity ``Tr (D/d)**2``."""
    (*_, ops), = drawn_stacks(SEED, (d,), (family,), COUNT)
    tr_k = (np.abs(np.trace(ops, axis1=-2, axis2=-1)) ** 2).sum(axis=-1)
    purity = (profile_channel(ops).choi_spectrum ** 2).sum(axis=-1) / d**2
    return tr_k, purity


@functools.cache
def mixture_weights(d: int) -> np.ndarray:
    """Per sample, the weights ``w_i = Tr(A_i^dag A_i)/d`` of the ``unitary-mixture`` Kraus array."""
    (*_, ops), = drawn_stacks(SEED, (d,), ("unitary-mixture",), COUNT)
    return (np.abs(ops) ** 2).sum(axis=(-2, -1)) / d


def z_score(values: np.ndarray, mean: float) -> float:
    return (values.mean() - mean) / (values.std(ddof=1) / math.sqrt(len(values)))


def map_purity(family: str, d: int) -> float:
    """The closed-form mean of ``Tr (D/d)**2`` over ``family`` at its default Kraus count."""
    k = sampler.default_kraus_count(family, d)
    if family == "unitary-mixture":
        # sum_ij w_i w_j |Tr U_i^dag U_j|**2 / d**2, with E sum w**2 = 2/(k + 1) for
        # flat Dirichlet weights and E |Tr U^dag V|**2 = 1 for independent Haar U, V
        return 2.0 / (k + 1) * (1.0 - 1.0 / d**2) + 1.0 / d**2
    if family == "unistochastic":
        # the mean operator purity of a Haar unitary on C^d (x) C^d (Zanardi, PRA 63, 040304 (2001))
        return 2.0 / (d**2 + 1)
    # cptp: G S**(-1/2) is the polar part of a Ginibre matrix, a Haar isometry
    # V = sum_i |i> (x) A_i, and D/d is as pure as Tr_out(V V^dag)/d.  V V^dag is a
    # Haar rank-r projector P on N = k d dimensions, and E P (x) P = a 1 + b F by the
    # degree-2 Weingarten formula (Collins and Sniady, CMP 264, 773 (2006))
    n, r = k * d, d
    b = r * (n - r) / (n * (n * n - 1))
    a = (r - b * n * n) / n
    return (a * k * d * d + b * k * k * d) / d**2


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("family", sampler.FAMILY_CODES)
def test_mean_trace_of_k_is_one(family, d):
    # a law invariant under Phi -> V o Phi with Haar V has E_V |Tr V A|**2 = Tr(A^dag A)/d,
    # so E Tr K = Tr(sum_i A_i^dag A_i)/d = 1
    tr_k, _ = moments(family, d)
    assert abs(z_score(tr_k, 1.0)) < Z_MAX


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("family", sampler.FAMILY_CODES)
def test_mean_map_purity_is_the_closed_form(family, d):
    _, purity = moments(family, d)
    assert abs(z_score(purity, map_purity(family, d))) < Z_MAX


@pytest.mark.parametrize("d", DIMS)
def test_mixture_weights_have_the_flat_dirichlet_moments(d):
    # flat Dirichlet on k weights: E w_0 = 1/k and E sum w**2 = 2/(k + 1); a
    # Dirichlet(alpha) law has E sum w**2 = (alpha + 1)/(k alpha + 1), 3/(2k + 1) at alpha = 2
    w = mixture_weights(d)
    k = sampler.default_kraus_count("unitary-mixture", d)
    assert w.shape == (COUNT, k)
    assert abs(z_score(w[:, 0], 1.0 / k)) < Z_MAX
    assert abs(z_score((w**2).sum(axis=-1), 2.0 / (k + 1))) < Z_MAX
