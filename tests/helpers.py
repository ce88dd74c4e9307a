"""Shared generators for the test suite (all seeded, all deterministic)."""

import ctypes
import json
import re
from pathlib import Path

import numpy as np
import oracles

from chanent import channel as chmod
from chanent import sampler, tradeoff
from chanent.errors import DimensionMismatchError


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


def drawn_stacks(*args, **kwargs):
    """``sampler.population``'s stacks, each drawn by ``sampler.sample_stack``: ``(family, dim, channel_ids, ops)``."""
    for family, d, ids, seeds in sampler.population(*args, **kwargs):
        yield family, d, ids, sampler.sample_stack(family, d, seeds)


def population(*args, **kwargs):
    """``sampler.population`` drawn, one channel at a time: ``(family, dim, channel_id, ops)``."""
    for family, d, ids, ops in drawn_stacks(*args, **kwargs):
        for channel_id, row in zip(ids, ops):
            yield family, d, channel_id, row


def plant_zero_ginibre_set(monkeypatch):
    """Make the first matrix set of every ``sampler._ginibre`` draw zero: a cptp stack's first normalizer is 0."""
    ginibre = sampler._ginibre

    def first_set_zero(streams, shape):
        g = ginibre(streams, shape)
        g[0] = 0.0
        return g

    monkeypatch.setattr(sampler, "_ginibre", first_set_zero)


def noisy_depolarizing():
    """depolarizing(0.3) at d = 3 with its Kraus set scaled by ``1 + 4.5e-9``.

    Trace preserving and unital only up to 9.0e-9, inside ``TP_TOL``: its
    ``D`` has trace ``3 (1 + 9e-9)``, not 3.
    """
    ops = sampler.named_channel("depolarizing", 3, 0.3) * (1.0 + 4.5e-9)
    return chmod.check_kraus_stack(ops[None])[0]


def stack_channels(channels):
    """The ``(n, k, d, d)`` Kraus array of same-dimension channels, each ``(k_i, d, d)``.

    A channel with fewer Kraus operators than the most of any is padded with
    zero operators, which add nothing to ``D`` or ``K``.
    """
    chs = [np.asarray(ch) for ch in channels]
    dims = sorted({ch.shape[-1] for ch in chs})
    if len(dims) != 1:
        raise DimensionMismatchError(f"a channel stack needs one dimension, got {dims}")
    ops = np.zeros((len(chs), max(len(ch) for ch in chs), dims[0], dims[0]), dtype=complex)
    for row, ch in zip(ops, chs):
        row[: len(ch)] = ch
    return ops


def profile(*channels):
    """The :class:`~chanent.channel.ChannelProfile` of a stack of same-dimension channels."""
    return chmod.profile_channel(stack_channels(channels))


def evaluate_cell(ch, params, channel_id=""):
    """Profile one channel, as a stack of one, and evaluate the one grid cell at ``params``.

    The grid's cell record, with its ``saturated`` flag added.
    """
    bounds = tradeoff.bound_table(ch.shape[-1], (params.q,), (params.s,))
    grid = tradeoff.evaluate_profile(chmod.profile_channel(ch[None], (channel_id,)), bounds)
    return {**grid.cell(0, 0, 0), "saturated": bool(grid.saturated[0, 0, 0])}


def unital_defects(prof):
    """Max-entry deviation of each channel's ``Tr_2 D`` from the identity, read off its profile."""
    return np.abs(prof.tr2 - np.eye(prof.dim)).max(axis=(-2, -1))


def save_channel(ch, path):
    """Write ``ch`` in the channel JSON format that ``chanent sweep --channel`` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chmod.channel_to_json(ch), fh)


def openblas_threads():
    """``(get, set)`` of the thread count of the OpenBLAS that numpy loaded, or None if none is found.

    An independent reader of what ``matcore._one_blas_thread`` sets: the
    library's path is read off ``/proc/self/maps``, and each symbol name of
    numpy's wheels and of a system OpenBLAS is tried.
    """
    maps = Path("/proc/self/maps")
    if not maps.exists():
        return None
    for path in sorted(set(re.findall(r"(/\S*openblas[^/\s]*)$", maps.read_text(), re.M))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            get, put = (getattr(lib, f"{prefix}_{verb}_num_threads{suffix}", None) for verb in ("get", "set"))
            if get is not None and put is not None:
                return get, put
    return None
