"""Covariance oracle: a channel and its unitarily equivalent images share every number the sweep reads.

The map spectrum (of ``D``), the receiver spectrum (of ``K``), and hence the
whole ``(q, s)`` grid and its gaps do not change under

* unitaries on either side, ``A_i -> U A_i V``: ``D`` becomes
  ``(U (x) V^T) D (U (x) V^T)^dag`` and ``K`` becomes
  ``(U (x) conj U) K (V (x) conj V)``;
* a unitary mixing of the Kraus set, ``A_i -> sum_j W_ij A_j``, a
  permutation of it, or a zero operator appended to it: each leaves ``D``
  itself unchanged, up to rounding.

Nor does the unital flag, for channels whose unital defect is far from
``TP_TOL`` on either side, as every sampled one's is (unitary mixtures and
unistochastic channels are unital to rounding, and Ginibre channels are
not unital by far).  The max-entry defect itself is not unitarily
invariant, so the flags are compared, not the defects.

No ``mpmath`` is needed, so this runs up to ``d = 16``, where the
high-precision oracles are impractical.  What it cannot catch: a route that
is itself unitarily invariant passes even when it is wrong, such as taking
``K = D``; the dense and ``mpmath`` oracles stay for that.
"""

import numpy as np
import oracles
from hypothesis import given, settings
from hypothesis import strategies as st

from chanent import channel as chmod
from chanent import sampler, tradeoff

EPS = np.finfo(float).eps
# Every deviation is bounded by TOL * m * EPS * max, m the spectrum's length
# (d**2) and max the largest magnitude compared (a spectrum's largest entry;
# for a gap, 1 or the cell's larger entropy).  The constant is one for every
# d: each side builds D from up to m + 1 Kraus operators, a sum of as many
# products per entry, and the image's Kraus set is one more such sum (W) and
# two more products (U, V), each rounding by at most m * EPS relative; each
# side's decomposition is backward stable to about m * EPS * max (LAPACK's
# bound), so a spectrum differs by some 4 * m * EPS * max per side and 8 in
# all, and the entropy kernel, summing m terms of O(1) slope in the
# spectrum, at most doubles that for a gap.
TOL = 16
# The default grid without q = 0.3 and 0.5: there the kernel's p**q has slope
# q * p**(q - 1), which grows without bound as p -> 0, so a channel with a small
# receiver singular value amplifies the real SVD's rounding, about m * EPS * max
# per entry, by (max / min)**(1 - q), past the bound: 16.9 * m * EPS at q = 0.3
# on a d = 3 unistochastic channel with min / max = 2.6e-6.  The map spectrum,
# squared singular values accurate relative to each entry, stayed within
# 1.3 * m * EPS on the same random draws.
Q_GRID = (0.9, 1.0, 1.1, 1.5, 2.0, 3.0, 5.0)
S_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
MOVES = ("unitaries", "mixing", "permutation", "zero operator")


def _image(ops, moves, rng):
    """The Kraus set ``ops`` of one channel under each of ``moves``, with unitaries drawn from ``rng``."""
    k, d, _ = ops.shape
    if "unitaries" in moves:
        ops = oracles.haar_unitary(d, rng) @ ops @ oracles.haar_unitary(d, rng)
    if "mixing" in moves:
        ops = np.einsum("ij,jab->iab", oracles.haar_unitary(k, rng), ops)
    if "permutation" in moves:
        ops = ops[rng.permutation(k)]
    if "zero operator" in moves:
        ops = np.concatenate([ops, np.zeros((1, d, d))])
    return ops


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(tuple(sampler.FAMILY_CODES)),
    d=st.integers(2, 16),
    seed=st.integers(0, 2**32 - 1),
    moves=st.sets(st.sampled_from(MOVES), min_size=1),
)
def test_unitarily_equivalent_channels_agree(family, d, seed, moves):
    ((_, _, _, ops),) = sampler.population(seed, (d,), (family,), 1)
    # the image must still be trace preserving
    image = chmod.check_kraus_stack(_image(ops[0], moves, np.random.default_rng(seed))[None])
    original, moved = chmod.profile_channel(ops), chmod.profile_channel(image)
    assert (original.unital == moved.unital).all()
    bound = TOL * d * d * EPS
    for a, b in ((original.choi_spectrum, moved.choi_spectrum),
                 (original.superop_spectrum, moved.superop_spectrum)):
        assert np.abs(a - b).max() <= bound * a.max()
    bounds = tradeoff.bound_table(d, Q_GRID, S_GRID)
    grid, moved_grid = tradeoff.evaluate_profile(original, bounds), tradeoff.evaluate_profile(moved, bounds)
    scale = np.maximum(1.0, np.maximum(np.abs(grid.map_values), np.abs(grid.receiver_values)))
    assert (np.abs(grid.gap - moved_grid.gap) <= bound * scale).all()
