import math

import numpy as np
import oracles
import pytest
from helpers import noisy_depolarizing, population

from chanent import channel as chmod
from chanent import entropy as ent
from chanent import matcore, sampler, tradeoff
from chanent.errors import DomainError, InvalidSpectrumError

Q_GRID = (0.3, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0, 5.0)
S_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)


def grid_params():
    return [oracles.EntropyParams(q, s) for q in Q_GRID for s in S_GRID]


def entropy_cell(spec, params):
    """The kernel at one ``(q, s)``: a 1x1 grid."""
    return float(ent.entropy_grid(spec, (params.q,), (params.s,))[0, 0])


def map_entropy(ch, params):
    """The map entropy at one ``(q, s)``: the kernel on the clamped spectrum of ``D``."""
    return entropy_cell(_channel_spectra(ch)[0], params)


def receiver_entropy(ch, params):
    """The receiver entropy at one ``(q, s)``: the kernel on the singular values of ``K``."""
    return entropy_cell(_channel_spectra(ch)[1], params)


def _channel_spectra(ch):
    """``eig(D)``, as the squared singular values of the Kraus matrix, and ``svd(K)`` of a channel."""
    return chmod.dynamical_spectrum(ch), chmod.superoperator_spectrum(ch)


class TestEntropyParams:
    def test_rejects_bad_orders(self):
        with pytest.raises(DomainError):
            oracles.EntropyParams(0.0, 1.0)
        with pytest.raises(DomainError):
            oracles.EntropyParams(-2.0, 1.0)
        with pytest.raises(DomainError):
            oracles.EntropyParams(1.0, float("nan"))

    @pytest.mark.parametrize("q, s", [(math.inf, 1.0), (2.0, math.inf), (2.0, -math.inf)])
    def test_rejects_infinite_orders(self, q, s):
        with pytest.raises(DomainError):
            oracles.EntropyParams(q, s)


class TestQLog:
    @pytest.mark.parametrize("q", [0.3, 1.0, 2.5])
    def test_vanishes_at_one(self, q):
        assert oracles.q_log(1.0, q) == 0.0

    def test_half_order(self):
        assert oracles.q_log(4.0, 0.5) == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("q", [1.0 - 1e-12, 1.0 + 1e-12])
    def test_limit_is_plain_log(self, q):
        assert abs(oracles.q_log(math.e, q) - 1.0) <= 1e-6

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            oracles.q_log(0.0, 0.5)
        with pytest.raises(DomainError):
            oracles.q_log(2.0, -1.0)


class TestEntropyFromSpectrum:
    def test_flat_distribution_renyi(self):
        spec = np.full(6, 0.25)
        for q in (0.3, 2.0, 5.0):
            got = entropy_cell(spec, oracles.EntropyParams(q, 0.0))
            assert got == pytest.approx(math.log(6), abs=1e-12)

    def test_point_mass_is_zero(self):
        spec = np.array([3.0, 0.0, 0.0])
        for params in grid_params():
            assert abs(entropy_cell(spec, params)) <= 1e-14

    def test_tsallis_two(self):
        # 1 - sum p**2 at q = 2, s = 1
        spec = np.array([0.75, 0.25])
        got = entropy_cell(spec, oracles.EntropyParams(2.0, 1.0))
        assert got == pytest.approx(3.0 / 8.0, abs=1e-15)

    def test_rejects_bad_spectra(self):
        with pytest.raises(InvalidSpectrumError):
            entropy_cell(np.array([-1.0, 2.0]), oracles.EntropyParams(2, 1))
        with pytest.raises(InvalidSpectrumError):
            entropy_cell(np.zeros(3), oracles.EntropyParams(2, 1))


class TestMapEntropy:
    def test_identity_channel_vanishes_everywhere(self):
        ch = sampler.named_channel("identity", 2)
        for params in grid_params():
            assert abs(map_entropy(ch, params)) <= 1e-12

    def test_completely_depolarizing_worked_example(self):
        ch = sampler.named_channel("completely-depolarizing", 2)
        got = map_entropy(ch, oracles.EntropyParams(0.5, 1.0))
        assert got == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_completely_depolarizing_is_maximal(self, d):
        ch = sampler.named_channel("completely-depolarizing", d)
        for params in grid_params():
            want = oracles.uniform_entropy(d * d, params)
            assert map_entropy(ch, params) == pytest.approx(want, rel=1e-12, abs=1e-12)
        renyi = map_entropy(ch, oracles.EntropyParams(0.5, 0.0))
        assert renyi == pytest.approx(2 * math.log(d), abs=1e-12)


class TestReceiverEntropy:
    @pytest.mark.parametrize("d", [2, 3])
    def test_identity_channel_is_maximal(self, d):
        ch = sampler.named_channel("identity", d)
        got = receiver_entropy(ch, oracles.EntropyParams(3.0, 0.0))
        assert got == pytest.approx(2 * math.log(d), abs=1e-12)
        for params in grid_params():
            want = oracles.uniform_entropy(d * d, params)
            assert receiver_entropy(ch, params) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_completely_depolarizing_vanishes(self):
        ch = sampler.named_channel("completely-depolarizing", 2)
        for params in grid_params():
            assert abs(receiver_entropy(ch, params)) <= 1e-12

    def test_unitary_channel_is_maximal(self):
        rng = np.random.default_rng(101)
        u = oracles.haar_unitary(3, rng)
        got = receiver_entropy(u[None], oracles.EntropyParams(0.5, 0.0))
        assert got == pytest.approx(2 * math.log(3), abs=1e-10)


class TestLimitConsistency:
    def test_s_limit_shrinks_linearly(self):
        for _, _, _, ch in population(911, (2, 3), ("cptp",), 3):
            for spec in _channel_spectra(ch):
                for q in (0.3, 2.0, 5.0):
                    at_zero = entropy_cell(spec, oracles.EntropyParams(q, 0.0))
                    for eps, tol in ((1e-4, 1e-2), (1e-6, 1e-4)):
                        for sign in (1.0, -1.0):
                            near = entropy_cell(spec, oracles.EntropyParams(q, sign * eps))
                            assert abs(near - at_zero) <= tol

    def test_q_limit_matches_von_neumann(self):
        for _, _, _, ch in population(912, (2, 3), ("cptp",), 3):
            for spec in _channel_spectra(ch):
                for s in (-1.0, 0.0, 1.0):
                    vn = entropy_cell(spec, oracles.EntropyParams(1.0, s))
                    for eps, tol in ((1e-4, 1e-2), (1e-6, 1e-4)):
                        for sign in (1.0, -1.0):
                            near = entropy_cell(spec, oracles.EntropyParams(1.0 + sign * eps, s))
                            assert abs(near - vn) <= tol


class TestBoundsAndOracles:
    def test_nonnegative_on_samples(self):
        pop = population(913, (2, 3), ("cptp", "unitary-mixture", "unistochastic"), 3)
        for _, _, _, ch in pop:
            choi, sup = _channel_spectra(ch)
            for params in grid_params():
                assert entropy_cell(choi, params) >= -1e-10
                assert entropy_cell(sup, params) >= -1e-10

    def test_rank_upper_bound(self):
        pop = list(population(914, (2, 3), ("cptp", "unitary-mixture"), 3))
        pop.append(("named", 2, "dephasing", sampler.named_channel("dephasing", 2, 0.4)))
        for _, d, _, ch in pop:
            choi, sup = _channel_spectra(ch)
            rank_choi = int(np.count_nonzero(choi))
            rank_sup = int(np.count_nonzero(sup))
            for params in grid_params():
                m = entropy_cell(choi, params)
                r = entropy_cell(sup, params)
                assert m <= oracles.uniform_entropy(rank_choi, params) + 1e-9
                assert r <= oracles.uniform_entropy(rank_sup, params) + 1e-9
                assert m <= oracles.uniform_entropy(d * d, params) + 1e-9
                assert r <= oracles.uniform_entropy(d * d, params) + 1e-9

    def test_map_entropy_matches_gram_route(self):
        pop = list(population(915, (2, 3), ("cptp", "unitary-mixture"), 3))
        pop.append(("named", 2, "amplitude-damping", sampler.named_channel("amplitude-damping", 2, 0.35)))
        for _, d, _, ch in pop:
            # the library takes the spectrum from the Kraus matrix's SVD,
            # the oracle from a dense eigvalsh of D
            dyn = chmod.dynamical_from_kraus(ch)
            choi_spec = matcore.clamp_spectrum(oracles.dynamical_eigenvalues(dyn))
            for params in grid_params():
                via_gram = map_entropy(ch, params)
                via_choi = entropy_cell(choi_spec, params)
                scale = max(abs(via_choi), abs(via_gram), 1.0)
                assert abs(via_choi - via_gram) <= 1e-9 * scale


class TestUniformEntropy:
    def test_limits_agree_with_kernel(self):
        spec = np.ones(5)
        for params in grid_params():
            kernel = entropy_cell(spec, params)
            assert oracles.uniform_entropy(5, params) == pytest.approx(kernel, rel=1e-12, abs=1e-12)

    def test_single_outcome(self):
        assert oracles.uniform_entropy(1, oracles.EntropyParams(0.7, 2.0)) == 0.0
        with pytest.raises(DomainError):
            oracles.uniform_entropy(0, oracles.EntropyParams(0.7, 2.0))


def _rel_err(got, want):
    """Relative error floored at magnitude 1, cell by cell."""
    return np.abs(got - want) / np.maximum(np.maximum(np.abs(got), np.abs(want)), 1.0)


def _padded_stack(d):
    """Map and receiver spectra of every family at ``d`` as two ``(n, d**2)`` stacks, with
    rank-deficient rows (unitary mixtures, named channels) zero-padded."""
    chs = [ch for *_, ch in population(922, (d,), tuple(sampler.FAMILY_CODES), 2)]
    chs += [sampler.named_channel("identity", d), sampler.named_channel("dephasing", d, 0.5)]
    choi, sup = zip(*(_channel_spectra(ch) for ch in chs))
    return np.stack(choi), np.stack(sup)


class TestGridKernel:
    # the default grid plus cells next to the q = 1 and s = 0 rows
    Q = Q_GRID + (1.0 - 1e-7, 1.0 + 1e-7)
    S = S_GRID + (-1e-7, 1e-7)

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_matches_scalar_oracle_cell_by_cell(self, d):
        pop = population(921, (d,), tuple(sampler.FAMILY_CODES), 3)
        for _, _, cid, ch in pop:
            for spec in _channel_spectra(ch):
                grid = ent.entropy_grid(spec, self.Q, self.S)
                assert grid.shape == (len(self.Q), len(self.S))
                assert _rel_err(grid, oracles.entropy_mp(spec, self.Q, self.S)).max() <= 1e-12, cid

    def test_scalar_entry_points_are_grid_cells(self):
        ch = sampler.named_channel("amplitude-damping", 2, 0.4)
        choi, sup = _channel_spectra(ch)
        choi_grid = ent.entropy_grid(choi, self.Q, self.S)
        sup_grid = ent.entropy_grid(sup, self.Q, self.S)
        for i, q in enumerate(self.Q):
            for j, s in enumerate(self.S):
                params = oracles.EntropyParams(q, s)
                # equal up to the last bits numpy's vectorized pow may differ in
                assert _rel_err(map_entropy(ch, params), choi_grid[i, j]) <= 1e-14
                assert _rel_err(receiver_entropy(ch, params), sup_grid[i, j]) <= 1e-14

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_bound_table_matches_lower_bound(self, d):
        table = tradeoff.bound_table(d, self.Q, self.S)
        for i, q in enumerate(self.Q):
            for j, s in enumerate(self.S):
                params = oracles.EntropyParams(q, s)
                for unital, got in ((False, table.all_channels), (True, table.unital)):
                    want = oracles.lower_bound(d, params, unital)
                    assert _rel_err(got[i, j], want) <= 1e-12

    def test_out_of_range_cells_are_not_finite(self):
        # the true value exceeds the double range; the grid leaves the cell
        # non-finite for the trade-off evaluation to report
        spec = np.array([0.5, 0.3, 0.2])
        grid = ent.entropy_grid(spec, (0.3, 2.0), (1e6,))
        assert grid[0, 0] == math.inf and np.isfinite(grid[1, 0])
        np.testing.assert_array_equal(oracles.entropy_mp(spec, (0.3,), (1e6,)), [[math.inf]])

    @pytest.mark.parametrize("q, s", [((0.0, 2.0), (1.0,)), ((2.0,), (math.nan,)), ((math.inf,), (1.0,))])
    def test_rejects_bad_orders(self, q, s):
        with pytest.raises(DomainError):
            ent.entropy_grid(np.array([0.5, 0.5]), q, s)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_stack_rows_match_single_spectra_and_oracle(self, d):
        # Next to q = 1 and s = 0 as well.  Where zero padding regroups a row's
        # pairwise sum (rank 4 of 16 at d = 4), the row differs from the
        # single call by rounding, and no formula amplifies it.
        stacks = _padded_stack(d)
        assert (stacks[0] == 0.0).any()  # some map spectra are zero-padded
        for values in stacks:
            grid = ent.entropy_grid(values, self.Q, self.S)
            assert grid.shape == (len(values), len(self.Q), len(self.S))
            for row, got, want in zip(values, grid, oracles.entropy_mp(values, self.Q, self.S)):
                single = ent.entropy_grid(row, self.Q, self.S)
                assert _rel_err(got, single).max() <= 1e-14
                assert _rel_err(got, want).max() <= 1e-12

    def test_stack_takes_large_orders_row_by_row(self):
        # at q = 600 each row switches to the scaled form with its own w_max
        values = _padded_stack(3)[0]
        grid = ent.entropy_grid(values, (2.0, 600.0), (0.0, 1.0))
        assert np.isfinite(grid).all()
        for row, got in zip(values, grid):
            single = ent.entropy_grid(row, (2.0, 600.0), (0.0, 1.0))
            assert _rel_err(got, single).max() <= 1e-12

    def test_stack_of_one_is_the_single_spectrum(self):
        spec = np.array([0.5, 0.3, 0.2, 0.0])
        single = ent.entropy_grid(spec, self.Q, self.S)
        stacked = ent.entropy_grid(spec[None], self.Q, self.S)
        np.testing.assert_array_equal(stacked, single[None])

    def test_stack_with_an_empty_row_is_rejected(self):
        with pytest.raises(InvalidSpectrumError):
            ent.entropy_grid(np.array([[0.5, 0.5], [0.0, 0.0]]), self.Q, self.S)


class TestAccuracy:
    """The kernel within ``BOUND`` of the 60-digit oracle (relative, floored at 1)
    on and next to the q = 1 and s = 0 rows, with no band that switches formulas."""

    BOUND = 1e-13
    Q = tuple(1.0 + e for e in (0.0, 1e-12, -1e-12, 1e-9, 2e-8, -1e-7, 1e-4, -0.5, 0.1, 1.0, 4.0)) + (
        0.05, 30.0, 100.0,
    )
    S = (0.0, 1e-12, -1e-12, -1e-9, 2e-8, 1e-4, -0.5, 1.0, -1.0, 2.0)

    def _worst(self, values):
        grid = ent.entropy_grid(values, self.Q, self.S)
        return float(_rel_err(grid, oracles.entropy_mp(values, self.Q, self.S)).max())

    def test_sampled_spectra_of_every_family(self):
        worst = 0.0
        for _, _, _, ch in population(951, (2, 3, 4), tuple(sampler.FAMILY_CODES), 4):
            for spec in _channel_spectra(ch):
                worst = max(worst, self._worst(spec))
        assert worst <= self.BOUND

    def test_mixed_rank_stack(self):
        choi, sup = _padded_stack(3)
        assert len(set(np.count_nonzero(choi, axis=-1).tolist())) > 1  # mixed ranks
        assert max(self._worst(choi), self._worst(sup)) <= self.BOUND

    def test_tp_noisy_channel(self):
        # Each entropy normalizes by its own sum, so the scaled Kraus set has
        # the entropies of the exact one; a normalizer of d would read the map
        # entropy as 0.6844 instead of 1.1344 at q = 1 + 2e-8, s = 0.
        noisy, exact = noisy_depolarizing(), sampler.named_channel("depolarizing", 3, 0.3)
        assert 5e-9 < oracles.tp_defect(noisy) <= chmod.TP_TOL
        for spec, ref in zip(_channel_spectra(noisy), _channel_spectra(exact)):
            assert self._worst(spec) <= self.BOUND
            grid = ent.entropy_grid(spec, self.Q, self.S)
            assert _rel_err(grid, ent.entropy_grid(ref, self.Q, self.S)).max() <= self.BOUND
        assert map_entropy(noisy, oracles.EntropyParams(1.0 + 2e-8, 0.0)) == pytest.approx(1.1344, abs=1e-4)


class TestLargeOrders:
    """At large q every w**q may underflow; ln A then comes from the scaled form."""

    def test_matches_mpmath(self):
        q_grid, s_grid = (100.0, 600.0), (0.0, 1.0)
        underflows = 0
        for _, _, cid, ch in population(941, (2, 3), tuple(sampler.FAMILY_CODES), 4):
            for spec in _channel_spectra(ch):
                grid = ent.entropy_grid(spec, q_grid, s_grid)
                w = spec[spec > 0] / np.sum(spec)
                underflows += float(np.sum(w**600.0)) < np.finfo(float).tiny
                want = oracles.entropy_mp(spec, q_grid, s_grid)
                assert np.isfinite(grid).all(), cid
                assert (np.abs(grid - want) / np.abs(want)).max() <= 1e-14, cid
        assert underflows  # the population reaches the scaled form

    def test_extreme_orders(self):
        # at huge q, (q - 1) ln p overflows for the smaller weights, whose
        # terms the kernel does not need below A = 1/2; at q near 0,
        # exprel((q - 1) ln p) overflows for a subnormal weight
        for values, q_grid in (
            (np.array([0.5, 0.3, 0.2, 1e-300]), (1e10, 1e300, 1.7e308)),
            (np.array([0.7, 0.3, 5e-324]), (0.01, 0.04, 0.3)),
        ):
            grid = ent.entropy_grid(values, q_grid, (0.0, 1.0))
            assert _rel_err(grid, oracles.entropy_mp(values, q_grid, (0.0, 1.0))).max() <= 1e-15
