"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as ``pytest tests/test_acceptance.py`` (the verdict lines stay visible
even without ``-s``).  Tolerances are pinned here and nowhere else.
"""

import itertools
import math

import numpy as np
import oracles
import pytest
from helpers import complex_gaussian, population
from oracles import EntropyParams

from chanent import channel as chmod
from chanent import cli, matcore, sampler, spectra, tradeoff
from chanent.entropy import entropy_grid

Q_GRID = (0.3, 0.5, 0.9, 1.1, 1.5, 2.0, 3.0, 5.0)
S_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
GRID = tuple(EntropyParams(q, s) for q in Q_GRID for s in S_GRID)

DIMS = (2, 3, 4)
CPTP_PER_DIM = 200
MIXTURE_PER_DIM = 200
UNISTOCHASTIC_PER_DIM = 100
# criterion 3 pins each equality case on its region of the default grid at these
SATURATION_DIMS = (2, 3, 4, 5, 8, 16)
# criterion 6 compares D and K with their oracles on every family up to d = 16
ROUTE_DIMS = (2, 3, 4, 8, 16)
# fixed population seeds: the margin printed must not move with unrelated edits
ROUTE_SEEDS = (1010, 1011)

_CACHE = {}


def _verdict(capsys, ok, label):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def _profiled(pop):
    """One ``(family, d, ids, channels, profile)`` stack per ``(family, d)`` of a population.

    Row ``k`` of a stack's profile is bit for bit the profile of its channel ``k`` alone.
    """
    stacks = []
    for (fam, d), group in itertools.groupby(pop, key=lambda entry: entry[:2]):
        ids, chs = zip(*[(cid, ch) for _, _, cid, ch in group])
        stacks.append((fam, d, ids, chs, chmod.profile_channel(np.stack(chs), ids)))
    return stacks


def cptp_population():
    if "cptp" not in _CACHE:
        _CACHE["cptp"] = _profiled(population(1001, DIMS, ("cptp",), CPTP_PER_DIM))
    return _CACHE["cptp"]


def unital_population():
    if "unital" not in _CACHE:
        pop = list(population(1002, DIMS, ("unitary-mixture",), MIXTURE_PER_DIM))
        pop += population(1003, DIMS, ("unistochastic",), UNISTOCHASTIC_PER_DIM)
        _CACHE["unital"] = _profiled(pop)
    return _CACHE["unital"]


def channels(stacks):
    """``(d, channel, choi spectrum, superoperator spectrum)`` of each channel of ``stacks``, in order."""
    return [
        (d, ch, choi, sup)
        for _, d, _, chs, prof in stacks
        for ch, choi, sup in zip(chs, prof.choi_spectrum, prof.superop_spectrum)
    ]


def count(stacks):
    return sum(len(ids) for _, _, ids, _, _ in stacks)


def bound_tables():
    """The bounds of every dimension on the criteria's order grid."""
    return {d: tradeoff.bound_table(d, Q_GRID, S_GRID) for d in DIMS}


def test_criterion_1_tradeoff_bound_all_channels(capsys):
    """Entropic sum >= the all-channels bound on every CPTP sample and cell."""
    min_gap = math.inf
    cells = 0
    tables = bound_tables()
    for _, d, _, _, profile in cptp_population():
        grid = tradeoff.evaluate_profile(profile, tables[d])  # raises on violation
        gap_all = grid.map_values + grid.receiver_values - tables[d].all_channels
        min_gap = min(min_gap, float(gap_all.min()))
        cells += gap_all.size
    ok = min_gap >= -1e-9
    _verdict(
        capsys,
        ok,
        f"criterion 1: trade-off bound, {count(cptp_population())} CPTP channels x "
        f"{len(GRID)} cells ({cells} total), min gap {min_gap:.3e} >= -1e-9",
    )


def test_criterion_2_tradeoff_bound_unital_channels(capsys):
    """Entropic sum >= the sharper unital bound on mixture/unistochastic samples."""
    min_gap = math.inf
    tables = bound_tables()
    for _, d, ids, _, profile in unital_population():
        assert profile.unital.all(), ids[int(np.argmin(profile.unital))]  # so gaps are to the unital bound
        grid = tradeoff.evaluate_profile(profile, tables[d])
        min_gap = min(min_gap, float(grid.gap.min()))
    ok = min_gap >= -1e-9
    _verdict(
        capsys,
        ok,
        f"criterion 2: unital bound, {count(unital_population())} unital channels, "
        f"min gap {min_gap:.3e} >= -1e-9",
    )


def test_criterion_3_saturation(capsys):
    """Identity and completely depolarizing channels meet 2 ln d exactly at s=0,
    on the von Neumann row q = 1 and next to it as well; each equality case
    meets its bound on its whole region of the default grid."""
    worst = 0.0
    for d in DIMS:
        bounds = tradeoff.bound_table(d, (0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 1.5, 2.0), (0.0,))
        assert np.abs(bounds.unital - 2 * math.log(d)).max() <= 1e-15
        for name in ("identity", "completely-depolarizing"):
            profile = chmod.profile_channel(sampler.named_channel(name, d)[None], [name])
            assert profile.unital[0]  # so the gap is measured against 2 ln d
            grid = tradeoff.evaluate_profile(profile, bounds)
            worst = max(worst, float(np.abs(grid.gap).max()))
            assert grid.saturated.all() and grid.violation is None
    # each equality case's region of the default grid, in c = (1 - q) s and
    # q; outside it the channel's entropic sum exceeds the bound
    cfg = cli.SweepConfig()
    q, s = np.array(cfg.q_grid)[:, None], np.array(cfg.s_grid)
    c = (1.0 - q) * s
    saturators = (
        ("named:identity", SATURATION_DIMS, True, c <= 0.0),
        ("named:completely-depolarizing", SATURATION_DIMS, True, c <= 0.0),
        ("named:dephasing:1", SATURATION_DIMS, True, c >= 0.0),
        ("named:amplitude-damping:1", (2,), False, c <= 0.0),  # the replacement channel at d = 2
    )
    worst_relative = 0.0
    for family, dims, unital, region in saturators:
        region = region & (q <= 2.0)
        for d in dims:
            bounds = tradeoff.bound_table(d, cfg.q_grid, cfg.s_grid)
            profile = chmod.profile_channel(sampler.named_family_channel(family, d)[None], [family])
            assert profile.unital[0] == unital  # so the gap is measured against the bound named
            grid = tradeoff.evaluate_profile(profile, bounds)
            bound = bounds.unital if unital else bounds.all_channels
            gap = grid.map_values[0] + grid.receiver_values[0] - bound
            relative = np.abs(gap[region]) / np.maximum(1.0, bound[region])
            worst_relative = max(worst_relative, float(relative.max()))
            assert (relative <= 1e-12).all() and grid.saturated[0][region].all(), (family, d)
    ok = worst <= 1e-9 and worst_relative <= 1e-12
    _verdict(
        capsys,
        ok,
        f"criterion 3: saturation of the unital bound 2 ln d, worst |gap| {worst:.3e} <= 1e-9; "
        f"equality cases on their regions of the default grid, worst |gap|/max(1, bound) "
        f"{worst_relative:.3e} <= 1e-12",
    )


def test_criterion_4_norm_interpolation_suite(capsys):
    """Norm interpolation holds on 500 random PSD matrices per dimension 2..16."""
    orders = (0.3, 0.7, 1.2, 1.8, 2.0, 2.5, 4.0)
    min_slack = math.inf
    count = 0
    for n in range(2, 17):
        # matrix i from default_rng(derive_seed(1004, n, i)), all 500 checked in one call
        seeds = sampler._derive_seeds((1004, n), range(500)).tolist()
        g = np.stack([complex_gaussian(np.random.default_rng(seed), (n, n)) for seed in seeds])
        batch = spectra.check_prop1(g @ g.conj().swapaxes(-2, -1), orders)
        first = batch.first_failure()
        assert first is None, (n, first[0], orders[first[1]], batch.slack[first])
        min_slack = min(min_slack, float(batch.slack.min()))
        count += batch.slack.size
    # flat spectra saturate: scaled identities and scaled projectors
    worst_flat = 0.0
    for n in (2, 7, 16):
        rng = np.random.default_rng(oracles.derive_seed(1005, n))
        c = float(rng.uniform(0.1, 3.0))
        rank = int(rng.integers(1, n + 1))
        u = oracles.haar_unitary(n, rng)
        proj = (u[:, :rank] * c) @ u[:, :rank].conj().T
        batch = spectra.check_prop1(np.stack([c * np.eye(n), proj]), orders)
        worst_flat = max(worst_flat, float(np.abs(batch.slack).max()))
    ok = min_slack >= -1e-9 and worst_flat <= 1e-10
    _verdict(
        capsys,
        ok,
        f"criterion 4: norm interpolation, {count} checks, min slack {min_slack:.3e} >= -1e-9; "
        f"flat-spectrum |slack| {worst_flat:.3e} <= 1e-10",
    )


def test_criterion_5_norm_chain_suite(capsys):
    """2-inf-1 interpolation, superoperator norm bound and ratio chain on all samples."""
    population = cptp_population() + unital_population()
    min_slack = math.inf
    min_unital_ratio = math.inf
    for _, d, ids, chs, profile in population:
        dyn = chmod.dynamical_from_kraus(np.stack(chs))
        for m in (dyn, chmod.reshuffle(dyn, d)):
            batch = spectra.check_two_inf_one(m)
            assert batch.first_failure() is None, ids[batch.first_failure()[0]]
            min_slack = min(min_slack, float(batch.slack.min()))
        for check in (spectra.check_superop_norm_bound, spectra.check_norm_product_chain):
            batch = check(profile)
            assert batch.first_failure() is None, ids[batch.first_failure()[0]]
            min_slack = min(min_slack, float(batch.slack.min()))
        for cid, unital, ch in zip(ids, profile.unital, chs):
            if unital:
                ratio = oracles.check_norm_product_chain(ch).lhs  # the chain's ratio
                assert ratio >= d - 1e-9, (cid, ratio)
                min_unital_ratio = min(min_unital_ratio, ratio / d)
    ok = min_slack >= -1e-9
    _verdict(
        capsys,
        ok,
        f"criterion 5: norm chain on {count(population)} channels, min slack {min_slack:.3e}; "
        f"min unital ratio/d {min_unital_ratio:.6f} >= 1 - 1e-9",
    )


def test_criterion_6_oracle_equivalences(capsys):
    """Independent computation routes agree at their stated tolerances."""
    worst = {"D": 0.0, "K": 0.0}
    routes = []

    # one channel per family and dimension for each seed
    for seed in ROUTE_SEEDS:
        for fam, d, _, ch in population(seed, ROUTE_DIMS, tuple(sampler.FAMILY_CODES), 1):
            dyn = chmod.dynamical_from_kraus(ch)
            sup = chmod.reshuffle(dyn, d)
            d_err = np.abs(dyn - oracles.dynamical_via_entangled_input(ch)).max()
            k_err = np.abs(sup - oracles.superoperator_via_kron(ch)).max()
            worst["D"] = max(worst["D"], float(d_err))
            worst["K"] = max(worst["K"], float(k_err))
            routes.append((fam, d, len(ch)))
    assert ("cptp", 16, 256) in routes

    worst_spec = 0.0
    worst_entropy = 0.0
    for d, ch, _, _ in channels(cptp_population())[::10] + channels(unital_population())[::10]:
        # library routes (SVD of the Kraus matrix for D, real SVD for K)
        # against the dense eigvalsh of D and the complex SVD of K
        dyn = chmod.dynamical_from_kraus(ch)
        sup = chmod.reshuffle(dyn, d)
        pairs = (
            (chmod.dynamical_spectrum(ch), oracles.dynamical_eigenvalues(dyn)),
            (chmod.superoperator_spectrum(sup, d), oracles.superoperator_singular_values(sup)),
        )
        for spec, reference in pairs:
            worst_spec = max(worst_spec, float(np.abs(spec - reference).max()))
            reference = matcore.clamp_spectrum(reference)
            via_library = entropy_grid(spec, Q_GRID, S_GRID)
            via_oracle = entropy_grid(reference, Q_GRID, S_GRID)
            # tolerance scale max(|lhs|, |rhs|, 1): reduces to the absolute
            # tolerance wherever the entropy is of order one
            scale = np.maximum(np.maximum(np.abs(via_library), np.abs(via_oracle)), 1.0)
            worst_entropy = max(worst_entropy, float((np.abs(via_library - via_oracle) / scale).max()))
    rng = np.random.default_rng(1006)
    worst_grid = 0.0
    for _ in range(10):
        a = float(rng.uniform(0.05, 0.95))
        worst_grid = max(worst_grid, abs(oracles.grid_domain_min_low(a) - oracles.domain_min_low(a)))
        b = float(rng.uniform(1.05, 4.0))
        points = max(1000, int(math.ceil((b - 1.0) / 1e-3)))
        worst_grid = max(
            worst_grid, abs(oracles.grid_domain_min_high(b, points) - oracles.domain_min_high(b))
        )
    ok = (
        worst["D"] <= 1e-12
        and worst["K"] <= 1e-12
        and worst_spec <= 1e-9
        and worst_entropy <= 1e-9
        and worst_grid <= 2e-3
    )
    _verdict(
        capsys,
        ok,
        "criterion 6: oracle equivalences -- "
        f"D vs entangled input {worst['D']:.2e} <= 1e-12 and "
        f"K vs Kronecker loop {worst['K']:.2e} <= 1e-12 on {len(routes)} channels, "
        f"d in {set(ROUTE_DIMS)}; "
        f"map and receiver spectra vs eigvalsh(D) and complex svd(K) {worst_spec:.2e} <= 1e-9; "
        f"entropies via library vs oracle spectra {worst_entropy:.2e} <= 1e-9; "
        f"domain minima vs grid {worst_grid:.2e} <= 2e-3",
    )


def test_criterion_7_limit_continuity(capsys):
    """Entropies vary linearly through the s = 0 and q = 1 limit rows."""
    population = channels(cptp_population())[::40] + channels(unital_population())[::60]
    worst = {(1e-4, 1e-2): 0.0, (1e-6, 1e-4): 0.0}
    def entropy(spec, params):
        return float(entropy_grid(spec, (params.q,), (params.s,))[0, 0])

    for _, _, choi, sup in population:
        for spec in (choi, sup):
            for q in (0.3, 2.0, 5.0):
                base = entropy(spec, EntropyParams(q, 0.0))
                for eps, tol in worst:
                    for sign in (1.0, -1.0):
                        near = entropy(spec, EntropyParams(q, sign * eps))
                        worst[(eps, tol)] = max(worst[(eps, tol)], abs(near - base))
            for s in (-1.0, 0.0, 1.0):
                base = entropy(spec, EntropyParams(1.0, s))
                for eps, tol in worst:
                    for sign in (1.0, -1.0):
                        near = entropy(spec, EntropyParams(1.0 + sign * eps, s))
                        worst[(eps, tol)] = max(worst[(eps, tol)], abs(near - base))
    ok = all(w <= tol for (eps, tol), w in worst.items())
    detail = "; ".join(f"eps={eps:g}: {w:.2e} <= {tol:g}" for (eps, tol), w in sorted(worst.items()))
    _verdict(capsys, ok, f"criterion 7: limit continuity, {detail}")


def test_criterion_8_rank_upper_bounds(capsys):
    """Both entropies stay below the flat-spectrum value at the effective rank."""
    worst = -math.inf
    flat = {}  # rank -> uniform_entropy on the grid

    def flat_grid(n):
        if n not in flat:
            flat[n] = np.array([oracles.uniform_entropy(n, p) for p in GRID]).reshape(len(Q_GRID), len(S_GRID))
        return flat[n]

    for d, _, choi, sup in channels(cptp_population()) + channels(unital_population()):
        rank_choi = int(np.count_nonzero(choi))
        rank_sup = int(np.count_nonzero(sup))
        m = entropy_grid(choi, Q_GRID, S_GRID)
        r = entropy_grid(sup, Q_GRID, S_GRID)
        worst = max(worst, float((m - flat_grid(rank_choi)).max()))
        worst = max(worst, float((r - flat_grid(rank_sup)).max()))
        assert (m <= flat_grid(d * d) + 1e-9).all()
        assert (r <= flat_grid(d * d) + 1e-9).all()
    ok = worst <= 1e-9
    _verdict(
        capsys, ok, f"criterion 8: rank upper bounds, worst excess {worst:.3e} <= 1e-9"
    )


def test_criterion_9_sweep_determinism(capsys, tmp_path):
    """Two default-config sweeps with one seed produce byte-identical CSVs."""
    cfg = cli.SweepConfig()
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli.run_sweep(cfg, out1) == 0
    assert cli.run_sweep(cfg, out2) == 0
    b1 = (out1 / "report.csv").read_bytes()
    b2 = (out2 / "report.csv").read_bytes()
    rows = len(b1.splitlines()) - 1
    ok = b1 == b2 and rows == 2 * 3 * 50 * 9 * 7
    _verdict(
        capsys,
        ok,
        f"criterion 9: default sweep determinism, {rows} rows, byte-identical reruns: {b1 == b2}",
    )
