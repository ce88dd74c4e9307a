import math

import mpmath
import numpy as np
import oracles
import pytest

from chanent import channel as chmod
from chanent import entropy as ent
from chanent import matcore, sampler, tradeoff
from chanent.errors import DomainError, InvalidSpectrumError
from chanent.matcore import Spectrum
from chanent.sampler import population

Q_GRID = (0.3, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0, 5.0)
S_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)


def grid_params():
    return [ent.EntropyParams(q, s) for q in Q_GRID for s in S_GRID]


class TestEntropyParams:
    def test_rejects_bad_orders(self):
        with pytest.raises(DomainError):
            ent.EntropyParams(0.0, 1.0)
        with pytest.raises(DomainError):
            ent.EntropyParams(-2.0, 1.0)
        with pytest.raises(DomainError):
            ent.EntropyParams(1.0, float("nan"))

    def test_family_labels(self):
        # the two limit rows of the (q, s) family; elsewhere neither applies
        assert ent.EntropyParams(2.0, 0.0).renyi_limit
        assert not ent.EntropyParams(2.0, 0.0).von_neumann_limit
        assert ent.EntropyParams(1.0, 1.0).von_neumann_limit
        assert not ent.EntropyParams(1.0, 1.0).renyi_limit
        for q, s in ((2.0, 1.0), (2.0, 0.5), (1.0 + 1e-6, 1e-6)):
            assert not ent.EntropyParams(q, s).renyi_limit
            assert not ent.EntropyParams(q, s).von_neumann_limit

    @pytest.mark.parametrize("q, s", [(math.inf, 1.0), (2.0, math.inf), (2.0, -math.inf)])
    def test_rejects_infinite_orders(self, q, s):
        with pytest.raises(DomainError):
            ent.EntropyParams(q, s)


class TestQLog:
    @pytest.mark.parametrize("q", [0.3, 1.0, 2.5])
    def test_vanishes_at_one(self, q):
        assert ent.q_log(1.0, q) == 0.0

    def test_half_order(self):
        assert ent.q_log(4.0, 0.5) == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("q", [1.0 - 1e-12, 1.0 + 1e-12])
    def test_limit_is_plain_log(self, q):
        assert abs(ent.q_log(math.e, q) - 1.0) <= 1e-6

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ent.q_log(0.0, 0.5)
        with pytest.raises(DomainError):
            ent.q_log(2.0, -1.0)


class TestEntropyFromSpectrum:
    def test_flat_distribution_renyi(self):
        spec = Spectrum(np.full(6, 0.25), "singular-values")
        for q in (0.3, 2.0, 5.0):
            got = ent.entropy_from_spectrum(spec, 1.5, ent.EntropyParams(q, 0.0))
            assert got == pytest.approx(math.log(6), abs=1e-12)

    def test_point_mass_is_zero(self):
        spec = Spectrum(np.array([3.0, 0.0, 0.0]), "eigenvalues-hermitian")
        for params in grid_params():
            assert abs(ent.entropy_from_spectrum(spec, 3.0, params)) <= 1e-14

    def test_tsallis_two(self):
        # 1 - sum p**2 at q = 2, s = 1
        spec = Spectrum(np.array([0.75, 0.25]), "eigenvalues-hermitian")
        got = ent.entropy_from_spectrum(spec, 1.0, ent.EntropyParams(2.0, 1.0))
        assert got == pytest.approx(3.0 / 8.0, abs=1e-15)

    def test_rejects_bad_spectra(self):
        with pytest.raises(InvalidSpectrumError):
            ent.entropy_from_spectrum(Spectrum(np.array([-1.0, 2.0])), 1.0, ent.EntropyParams(2, 1))
        with pytest.raises(InvalidSpectrumError):
            ent.entropy_from_spectrum(Spectrum(np.zeros(3)), 1.0, ent.EntropyParams(2, 1))


class TestMapEntropy:
    def test_identity_channel_vanishes_everywhere(self):
        dyn = chmod.dynamical_from_kraus(sampler.named_channel("identity", 2))
        for params in grid_params():
            assert abs(ent.map_entropy(dyn, params)) <= 1e-12

    def test_completely_depolarizing_worked_example(self):
        dyn = chmod.dynamical_from_kraus(sampler.named_channel("completely-depolarizing", 2))
        got = ent.map_entropy(dyn, ent.EntropyParams(0.5, 1.0))
        assert got == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_completely_depolarizing_is_maximal(self, d):
        dyn = chmod.dynamical_from_kraus(sampler.named_channel("completely-depolarizing", d))
        for params in grid_params():
            want = ent.uniform_entropy(d * d, params)
            assert ent.map_entropy(dyn, params) == pytest.approx(want, rel=1e-12, abs=1e-12)
        renyi = ent.map_entropy(dyn, ent.EntropyParams(0.5, 0.0))
        assert renyi == pytest.approx(2 * math.log(d), abs=1e-12)


class TestReceiverEntropy:
    @pytest.mark.parametrize("d", [2, 3])
    def test_identity_channel_is_maximal(self, d):
        sup = chmod.superoperator_from_kraus(sampler.named_channel("identity", d))
        got = ent.receiver_entropy(sup, ent.EntropyParams(3.0, 0.0))
        assert got == pytest.approx(2 * math.log(d), abs=1e-12)
        for params in grid_params():
            want = ent.uniform_entropy(d * d, params)
            assert ent.receiver_entropy(sup, params) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_completely_depolarizing_vanishes(self):
        sup = chmod.superoperator_from_kraus(sampler.named_channel("completely-depolarizing", 2))
        for params in grid_params():
            assert abs(ent.receiver_entropy(sup, params)) <= 1e-12

    def test_unitary_channel_is_maximal(self):
        rng = np.random.default_rng(101)
        u = sampler.haar_unitary(3, rng)
        sup = chmod.superoperator_from_kraus(chmod.KrausChannel(3, (u,)))
        got = ent.receiver_entropy(sup, ent.EntropyParams(0.5, 0.0))
        assert got == pytest.approx(2 * math.log(3), abs=1e-10)


def _channel_spectra(ch):
    dyn = chmod.dynamical_from_kraus(ch)
    sup = chmod.superoperator_from_kraus(ch)
    return chmod.dynamical_spectrum(dyn), chmod.superoperator_spectrum(sup)


class TestLimitConsistency:
    def test_s_limit_shrinks_linearly(self):
        for _, d, _, ch in population(911, (2, 3), ("cptp",), 3):
            choi, sup = _channel_spectra(ch)
            norm = float(np.sum(sup.values))
            for q in (0.3, 2.0, 5.0):
                for spec, w in ((choi, float(d)), (sup, norm)):
                    at_zero = ent.entropy_from_spectrum(spec, w, ent.EntropyParams(q, 0.0))
                    for eps, tol in ((1e-4, 1e-2), (1e-6, 1e-4)):
                        for sign in (1.0, -1.0):
                            near = ent.entropy_from_spectrum(
                                spec, w, ent.EntropyParams(q, sign * eps)
                            )
                            assert abs(near - at_zero) <= tol

    def test_q_limit_matches_von_neumann(self):
        for _, d, _, ch in population(912, (2, 3), ("cptp",), 3):
            choi, sup = _channel_spectra(ch)
            norm = float(np.sum(sup.values))
            for s in (-1.0, 0.0, 1.0):
                for spec, w in ((choi, float(d)), (sup, norm)):
                    vn = ent.entropy_from_spectrum(spec, w, ent.EntropyParams(1.0, s))
                    for eps, tol in ((1e-4, 1e-2), (1e-6, 1e-4)):
                        for sign in (1.0, -1.0):
                            near = ent.entropy_from_spectrum(
                                spec, w, ent.EntropyParams(1.0 + sign * eps, s)
                            )
                            assert abs(near - vn) <= tol


class TestBoundsAndOracles:
    def test_nonnegative_on_samples(self):
        pop = population(913, (2, 3), ("cptp", "unitary-mixture", "unistochastic"), 3)
        for _, d, _, ch in pop:
            choi, sup = _channel_spectra(ch)
            norm = float(np.sum(sup.values))
            for params in grid_params():
                assert ent.entropy_from_spectrum(choi, float(d), params) >= -1e-10
                assert ent.entropy_from_spectrum(sup, norm, params) >= -1e-10

    def test_rank_upper_bound(self):
        pop = list(population(914, (2, 3), ("cptp", "unitary-mixture"), 3))
        pop.append(("named", 2, "dephasing", sampler.named_channel("dephasing", 2, 0.4)))
        for _, d, _, ch in pop:
            choi, sup = _channel_spectra(ch)
            norm = float(np.sum(sup.values))
            rank_choi = int(np.count_nonzero(choi.values))
            rank_sup = int(np.count_nonzero(sup.values))
            for params in grid_params():
                m = ent.entropy_from_spectrum(choi, float(d), params)
                r = ent.entropy_from_spectrum(sup, norm, params)
                assert m <= ent.uniform_entropy(rank_choi, params) + 1e-9
                assert r <= ent.uniform_entropy(rank_sup, params) + 1e-9
                assert m <= ent.uniform_entropy(d * d, params) + 1e-9
                assert r <= ent.uniform_entropy(d * d, params) + 1e-9

    def test_map_entropy_matches_gram_route(self):
        pop = list(population(915, (2, 3), ("cptp", "unitary-mixture"), 3))
        pop.append(("named", 2, "amplitude-damping", sampler.named_channel("amplitude-damping", 2, 0.35)))
        for _, d, _, ch in pop:
            dyn = chmod.dynamical_from_kraus(ch)
            gram_vals = matcore.hermitian_eigenvalues(oracles.kraus_gram(ch)).values
            gram_vals = matcore.clamp_spectrum(gram_vals, neg_tol=matcore.eig_tol(d * d))
            gram_spec = Spectrum(gram_vals, "eigenvalues-hermitian")
            for params in grid_params():
                via_choi = ent.map_entropy(dyn, params)
                via_gram = ent.entropy_from_spectrum(gram_spec, float(d), params)
                scale = max(abs(via_choi), abs(via_gram), 1.0)
                assert abs(via_choi - via_gram) <= 1e-9 * scale


class TestUniformEntropy:
    def test_limits_agree_with_kernel(self):
        spec = Spectrum(np.ones(5), "singular-values")
        for params in grid_params():
            kernel = ent.entropy_from_spectrum(spec, 5.0, params)
            assert ent.uniform_entropy(5, params) == pytest.approx(kernel, rel=1e-12, abs=1e-12)

    def test_single_outcome(self):
        assert ent.uniform_entropy(1, ent.EntropyParams(0.7, 2.0)) == 0.0
        with pytest.raises(DomainError):
            ent.uniform_entropy(0, ent.EntropyParams(0.7, 2.0))


def _rel_err(got, want):
    """Relative error floored at magnitude 1, cell by cell."""
    return np.abs(got - want) / np.maximum(np.maximum(np.abs(got), np.abs(want)), 1.0)


class TestGridKernel:
    # the default grid plus cells just outside the q = 1 and s = 0 bands
    Q = Q_GRID + (1.0 - 1e-7, 1.0 + 1e-7)
    S = S_GRID + (-1e-7, 1e-7)

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_matches_scalar_oracle_cell_by_cell(self, d):
        pop = population(921, (d,), tuple(sampler.FAMILY_CODES), 3)
        for _, _, cid, ch in pop:
            choi, sup = _channel_spectra(ch)
            for spec, norm in ((choi, float(d)), (sup, float(np.sum(sup.values)))):
                grid = ent.entropy_grid(spec, norm, self.Q, self.S)
                assert grid.shape == (len(self.Q), len(self.S))
                oracle = np.array(
                    [[oracles.entropy_per_cell(spec, norm, ent.EntropyParams(q, s)) for s in self.S]
                     for q in self.Q]
                )
                assert _rel_err(grid, oracle).max() <= 1e-12, cid

    def test_scalar_entry_points_are_grid_cells(self):
        ch = sampler.named_channel("amplitude-damping", 2, 0.4)
        dyn = chmod.dynamical_from_kraus(ch)
        sup = dyn.superoperator()
        spec = chmod.superoperator_spectrum(sup)
        choi_grid = ent.entropy_grid(chmod.dynamical_spectrum(dyn), 2.0, self.Q, self.S)
        sup_grid = ent.entropy_grid(spec, float(np.sum(spec.values)), self.Q, self.S)
        for i, q in enumerate(self.Q):
            for j, s in enumerate(self.S):
                params = ent.EntropyParams(q, s)
                # equal up to the last bits numpy's vectorized pow may differ in
                assert _rel_err(ent.map_entropy(dyn, params), choi_grid[i, j]) <= 1e-14
                assert _rel_err(ent.receiver_entropy(sup, params), sup_grid[i, j]) <= 1e-14

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_bound_table_matches_lower_bound(self, d):
        table = tradeoff.bound_table(d, self.Q, self.S)
        for i, q in enumerate(self.Q):
            for j, s in enumerate(self.S):
                params = ent.EntropyParams(q, s)
                for unital, got in ((False, table.all_channels), (True, table.unital)):
                    want = tradeoff.lower_bound(d, params, unital)
                    assert _rel_err(got[i, j], want) <= 1e-12
        assert table.limit_rows.tolist() == [abs(q - 1.0) <= ent.LIMIT_EPS for q in self.Q]

    def test_out_of_range_cells_are_not_finite(self):
        # the scalar oracle raises OverflowError here; the grid leaves the
        # cells non-finite for the trade-off evaluation to report
        spec = Spectrum(np.array([0.5, 0.3, 0.2]), "eigenvalues-hermitian")
        grid = ent.entropy_grid(spec, 1.0, (0.3, 2.0), (1e6,))
        assert grid[0, 0] == math.inf and np.isfinite(grid[1, 0])
        with pytest.raises(OverflowError):
            oracles.entropy_per_cell(spec, 1.0, ent.EntropyParams(0.3, 1e6))

    @pytest.mark.parametrize("q, s", [((0.0, 2.0), (1.0,)), ((2.0,), (math.nan,)), ((math.inf,), (1.0,))])
    def test_rejects_bad_orders(self, q, s):
        with pytest.raises(DomainError):
            ent.entropy_grid(Spectrum(np.array([0.5, 0.5])), 1.0, q, s)


    @staticmethod
    def _padded_stack(d):
        """Map and receiver spectra of every family at ``d`` as ``(n, d**2)`` stacks, with
        rank-deficient rows (unitary mixtures, named channels) zero-padded, and their normalizers."""
        chs = [ch for *_, ch in population(922, (d,), tuple(sampler.FAMILY_CODES), 2)]
        chs += [sampler.named_channel("identity", d), sampler.named_channel("dephasing", d, 0.5)]
        choi, sup = zip(*(_channel_spectra(ch) for ch in chs))
        choi = np.stack([c.values for c in choi])
        sup = np.stack([c.values for c in sup])
        return ((choi, np.full(len(chs), float(d))), (sup, sup.sum(axis=-1)))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_stack_rows_match_single_spectra_and_oracle(self, d):
        # On the sweep's grid.  Where zero padding regroups a row's pairwise
        # sum (rank 4 of 16 at d = 4), the row differs from the single call by
        # rounding, which the generic form amplifies by 1/|q - 1|: up to 2e-9
        # at the band-edge cells q = 1 +- 1e-7 of self.Q.
        stacks = self._padded_stack(d)
        assert (stacks[0][0] == 0.0).any()  # some map spectra are zero-padded
        for values, norms in stacks:
            grid = ent.entropy_grid(Spectrum(values), norms, Q_GRID, S_GRID)
            assert grid.shape == (len(values), len(Q_GRID), len(S_GRID))
            for row, norm, got in zip(values, norms, grid):
                single = ent.entropy_grid(Spectrum(row), norm, Q_GRID, S_GRID)
                oracle = np.array(
                    [[oracles.entropy_per_cell(Spectrum(row), norm, params) for params in grid_params()]]
                ).reshape(single.shape)
                assert _rel_err(got, single).max() <= 1e-12
                assert _rel_err(got, oracle).max() <= 1e-12

    def test_stack_takes_large_orders_row_by_row(self):
        # at q = 600 each row switches to the scaled form with its own w_max
        values, norms = self._padded_stack(3)[0]
        grid = ent.entropy_grid(Spectrum(values), norms, (2.0, 600.0), (0.0, 1.0))
        assert np.isfinite(grid).all()
        for row, norm, got in zip(values, norms, grid):
            single = ent.entropy_grid(Spectrum(row), norm, (2.0, 600.0), (0.0, 1.0))
            assert _rel_err(got, single).max() <= 1e-12

    def test_stack_of_one_is_the_single_spectrum(self):
        spec = Spectrum(np.array([0.5, 0.3, 0.2, 0.0]))
        single = ent.entropy_grid(spec, 1.0, self.Q, self.S)
        stacked = ent.entropy_grid(Spectrum(spec.values[None]), np.array([1.0]), self.Q, self.S)
        np.testing.assert_array_equal(stacked, single[None])

    def test_stack_with_an_empty_row_is_rejected(self):
        with pytest.raises(InvalidSpectrumError):
            ent.entropy_grid(Spectrum(np.array([[0.5, 0.5], [0.0, 0.0]])), 1.0, self.Q, self.S)


class TestLargeOrders:
    """At large q every w**q may underflow; ln A then comes from the scaled form."""

    @staticmethod
    def _reference(w, q, s):
        with mpmath.workdps(50):
            log_a = mpmath.log(mpmath.fsum(mpmath.mpf(x) ** q for x in w))
            value = log_a / (1 - q) if s == 0 else mpmath.expm1(s * log_a) / ((1 - q) * s)
            return float(value)

    def test_matches_mpmath(self):
        q_grid, s_grid = (100.0, 600.0), (0.0, 1.0)
        underflows = 0
        for _, d, cid, ch in population(941, (2, 3), tuple(sampler.FAMILY_CODES), 4):
            choi, sup = _channel_spectra(ch)
            for spec, norm in ((choi, float(d)), (sup, float(np.sum(sup.values)))):
                grid = ent.entropy_grid(spec, norm, q_grid, s_grid)
                w = spec.values[spec.values > 0] / norm
                underflows += float(np.sum(w**600.0)) < np.finfo(float).tiny
                want = np.array([[self._reference(w, q, s) for s in s_grid] for q in q_grid])
                assert np.isfinite(grid).all(), cid
                assert (np.abs(grid - want) / np.abs(want)).max() <= 1e-14, cid
        assert underflows  # the population reaches the scaled form

