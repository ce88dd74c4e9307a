"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as ``pytest tests/test_acceptance.py`` (the verdict lines stay visible
even without ``-s``).  Tolerances are pinned here and nowhere else.
"""

import math

import numpy as np
import oracles
import pytest
from helpers import complex_gaussian

from chanent import channel as chmod
from chanent import cli, matcore, sampler, spectra, tradeoff
from chanent.entropy import EntropyParams, entropy_from_spectrum, entropy_grid, uniform_entropy
from chanent.matcore import Spectrum
from chanent.sampler import population

Q_GRID = (0.3, 0.5, 0.9, 1.1, 1.5, 2.0, 3.0, 5.0)
S_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
GRID = tuple(EntropyParams(q, s) for q in Q_GRID for s in S_GRID)

DIMS = (2, 3, 4)
CPTP_PER_DIM = 200
MIXTURE_PER_DIM = 200
UNISTOCHASTIC_PER_DIM = 100
# criterion 6 compares D and K with their oracles on every family up to d = 16
ROUTE_DIMS = (2, 3, 4, 8, 16)
# fixed population seeds: the margin printed must not move with unrelated edits
ROUTE_SEEDS = (1010, 1011)

_CACHE = {}


def _verdict(capsys, ok, label):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def cptp_population():
    if "cptp" not in _CACHE:
        _CACHE["cptp"] = [
            (fam, d, cid, ch, tradeoff.profile_channel(ch, cid))
            for fam, d, cid, ch in population(1001, DIMS, ("cptp",), CPTP_PER_DIM)
        ]
    return _CACHE["cptp"]


def unital_population():
    if "unital" not in _CACHE:
        pop = list(population(1002, DIMS, ("unitary-mixture",), MIXTURE_PER_DIM))
        pop += population(1003, DIMS, ("unistochastic",), UNISTOCHASTIC_PER_DIM)
        _CACHE["unital"] = [
            (fam, d, cid, ch, tradeoff.profile_channel(ch, cid)) for fam, d, cid, ch in pop
        ]
    return _CACHE["unital"]


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
        f"criterion 1: trade-off bound, {len(cptp_population())} CPTP channels x "
        f"{len(GRID)} cells ({cells} total), min gap {min_gap:.3e} >= -1e-9",
    )


def test_criterion_2_tradeoff_bound_unital_channels(capsys):
    """Entropic sum >= the sharper unital bound on mixture/unistochastic samples."""
    min_gap = math.inf
    tables = bound_tables()
    for _, d, cid, _, profile in unital_population():
        assert profile.unital, cid  # so the gap is measured against the unital bound
        grid = tradeoff.evaluate_profile(profile, tables[d])
        min_gap = min(min_gap, float(grid.gap.min()))
    ok = min_gap >= -1e-9
    _verdict(
        capsys,
        ok,
        f"criterion 2: unital bound, {len(unital_population())} unital channels, "
        f"min gap {min_gap:.3e} >= -1e-9",
    )


def test_criterion_3_saturation(capsys):
    """Identity and completely depolarizing channels meet 2 ln d exactly at s=0."""
    worst = 0.0
    for d in DIMS:
        bounds = tradeoff.bound_table(d, (0.5, 1.5, 2.0), (0.0,))
        assert np.abs(bounds.unital - 2 * math.log(d)).max() <= 1e-15
        for name in ("identity", "completely-depolarizing"):
            profile = tradeoff.profile_channel(sampler.named_channel(name, d), name)
            assert profile.unital  # so the gap is measured against 2 ln d
            grid = tradeoff.evaluate_profile(profile, bounds)
            worst = max(worst, float(np.abs(grid.gap).max()))
            assert grid.saturated.all()
    ok = worst <= 1e-9
    _verdict(
        capsys,
        ok,
        f"criterion 3: saturation of the unital bound 2 ln d, worst |gap| {worst:.3e} <= 1e-9",
    )


def test_criterion_4_norm_interpolation_suite(capsys):
    """Norm interpolation holds on 500 random PSD matrices per dimension 2..16."""
    orders = (0.3, 0.7, 1.2, 1.8, 2.0, 2.5, 4.0)
    min_slack = math.inf
    count = 0
    for n in range(2, 17):
        for i in range(500):
            rng = np.random.default_rng(sampler.derive_seed(1004, n, i))
            g = complex_gaussian(rng, (n, n))
            x = g @ g.conj().T
            for q in orders:
                rep = spectra.check_prop1(x, q)
                assert rep.passed, (n, i, q, rep)
                min_slack = min(min_slack, rep.slack)
                count += 1
    # flat spectra saturate: scaled identities and scaled projectors
    worst_flat = 0.0
    for n in (2, 7, 16):
        rng = np.random.default_rng(sampler.derive_seed(1005, n))
        c = float(rng.uniform(0.1, 3.0))
        rank = int(rng.integers(1, n + 1))
        u = sampler.haar_unitary(n, rng)
        proj = (u[:, :rank] * c) @ u[:, :rank].conj().T
        for x in (c * np.eye(n), proj):
            for q in orders:
                rep = spectra.check_prop1(x, q)
                worst_flat = max(worst_flat, abs(rep.slack))
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
    for _, d, cid, ch, profile in population:
        dyn = chmod.dynamical_from_kraus(ch)
        sup = chmod.superoperator_from_kraus(ch)
        for m in (dyn.matrix, sup.matrix):
            rep = spectra.check_two_inf_one(m)
            assert rep.passed, cid
            min_slack = min(min_slack, rep.slack)
        rep = spectra.check_superop_norm_bound(ch)
        assert rep.passed, cid
        min_slack = min(min_slack, rep.slack)
        rep = spectra.check_norm_product_chain(ch)
        assert rep.passed, cid
        min_slack = min(min_slack, rep.slack)
        if profile.unital:
            assert rep.lhs >= d - 1e-9, (cid, rep)
            min_unital_ratio = min(min_unital_ratio, rep.lhs / d)
    ok = min_slack >= -1e-9
    _verdict(
        capsys,
        ok,
        f"criterion 5: norm chain on {len(population)} channels, min slack {min_slack:.3e}; "
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
            sup = chmod.superoperator_from_kraus(ch)
            d_err = np.abs(dyn.matrix - oracles.dynamical_via_entangled_input(ch)).max()
            k_err = np.abs(sup.matrix - oracles.superoperator_via_kron(ch)).max()
            worst["D"] = max(worst["D"], float(d_err))
            worst["K"] = max(worst["K"], float(k_err))
            routes.append((fam, d, len(ch.kraus_ops)))
    assert ("cptp", 16, 256) in routes

    channels = cptp_population()[::10] + unital_population()[::10]
    worst_spec = 0.0
    worst_entropy = 0.0
    for _, d, _, ch, _ in channels:
        dyn = chmod.dynamical_from_kraus(ch)
        choi_vals = matcore.hermitian_eigenvalues(dyn.matrix).values
        gram_vals = matcore.hermitian_eigenvalues(oracles.kraus_gram(ch)).values
        width = max(choi_vals.size, gram_vals.size)
        lhs = np.sort(np.pad(choi_vals, (0, width - choi_vals.size)))
        rhs = np.sort(np.pad(gram_vals, (0, width - gram_vals.size)))
        worst_spec = max(worst_spec, float(np.abs(lhs - rhs).max()))
        gram_spec = Spectrum(
            matcore.clamp_spectrum(gram_vals, neg_tol=matcore.eig_tol(d * d)),
            "eigenvalues-hermitian",
        )
        choi_spec = chmod.dynamical_spectrum(dyn)
        via_choi = entropy_grid(choi_spec, float(d), Q_GRID, S_GRID)
        via_gram = entropy_grid(gram_spec, float(d), Q_GRID, S_GRID)
        # tolerance scale max(|lhs|, |rhs|, 1): reduces to the absolute
        # tolerance wherever the entropy is of order one
        scale = np.maximum(np.maximum(np.abs(via_choi), np.abs(via_gram)), 1.0)
        worst_entropy = max(worst_entropy, float((np.abs(via_choi - via_gram) / scale).max()))
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
        f"Choi vs Gram spectra {worst_spec:.2e} <= 1e-9; "
        f"entropy via Choi vs Gram {worst_entropy:.2e} <= 1e-9; "
        f"domain minima vs grid {worst_grid:.2e} <= 2e-3",
    )


def test_criterion_7_limit_continuity(capsys):
    """Entropies vary linearly through the s = 0 and q = 1 limit rows."""
    population = cptp_population()[::40] + unital_population()[::60]
    worst = {(1e-4, 1e-2): 0.0, (1e-6, 1e-4): 0.0}
    for _, d, _, _, profile in population:
        pairs = (
            (profile.choi_spectrum, float(d)),
            (profile.superop_spectrum, float(np.sum(profile.superop_spectrum.values))),
        )
        for spec, norm in pairs:
            for q in (0.3, 2.0, 5.0):
                base = entropy_from_spectrum(spec, norm, EntropyParams(q, 0.0))
                for eps, tol in worst:
                    for sign in (1.0, -1.0):
                        near = entropy_from_spectrum(spec, norm, EntropyParams(q, sign * eps))
                        worst[(eps, tol)] = max(worst[(eps, tol)], abs(near - base))
            for s in (-1.0, 0.0, 1.0):
                base = entropy_from_spectrum(spec, norm, EntropyParams(1.0, s))
                for eps, tol in worst:
                    for sign in (1.0, -1.0):
                        near = entropy_from_spectrum(
                            spec, norm, EntropyParams(1.0 + sign * eps, s)
                        )
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
            flat[n] = np.array([uniform_entropy(n, p) for p in GRID]).reshape(len(Q_GRID), len(S_GRID))
        return flat[n]

    for _, d, _, _, profile in cptp_population() + unital_population():
        choi, sup = profile.choi_spectrum, profile.superop_spectrum
        norm = float(np.sum(sup.values))
        rank_choi = int(np.count_nonzero(choi.values))
        rank_sup = int(np.count_nonzero(sup.values))
        m = entropy_grid(choi, float(d), Q_GRID, S_GRID)
        r = entropy_grid(sup, norm, Q_GRID, S_GRID)
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
