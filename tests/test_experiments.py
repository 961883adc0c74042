import math

import numpy as np
import pytest

from gammanoise import experiments
from gammanoise.conditions import ParamTuple
from gammanoise.experiments import (block_field, boundary_sweep, dirichlet_field,
                                    dirichlet_norm_test, frequency_block_test,
                                    rescaled_bump_test, shifted_bump_test)
from gammanoise.fit import FitReport, growth_label, linfit
from gammanoise.grid import Grid
from gammanoise.norms import lq_norm
from gammanoise.systems import Coloring, FourierSystem, frequency_block


class TestFrequencyBlock:
    def test_mu_norm_is_block_count_power(self):
        # the indicator coloring's weighted norm equals |C_N|^{1/zeta} exactly
        sys = FourierSystem(1)
        for N in (3, 4, 5):
            block = frequency_block(N, 1)
            count = len(block)
            big = sys.ball_indices(3 * 2 ** (N - 1) + 1)

            mu = Coloring.block_indicator(N)
            total = sum(mu.weights(big) ** 4)
            assert total ** 0.25 == pytest.approx(count ** 0.25, rel=1e-12)

    def test_g_norm_growth_rate(self):
        # ||g||_eta grows like (per-axis count)^{1 - 1/eta} within 0.05
        eta = 2.0
        xs, ys = [], []
        for N in range(3, 8):
            grid = Grid(1, 2 ** (N + 3))
            g = block_field(grid, N)
            xs.append(math.log2(2 ** (N - 1) + 1))
            ys.append(math.log2(lq_norm(g, eta)))
        slope, _ = linfit(np.array(xs), np.array(ys))
        assert abs(slope - (1 - 1 / eta)) < 0.05

    @pytest.mark.parametrize("s,expected_sign", [(0.9, -1), (0.5, 0), (0.2, +1)])
    def test_ratio_exponent(self, s, expected_sign):
        params = ParamTuple(1, s, 4.0, 2.0, 4.0)
        records, fit = frequency_block_test(params, range(3, 8))
        assert abs(fit.exponent - fit.predicted) <= 0.15
        if expected_sign == 0:
            assert abs(fit.exponent) <= 0.15
        else:
            assert fit.exponent * expected_sign > 0

    def test_zeta_infinity_rhs_reduces_to_g_norm(self):
        params = ParamTuple(1, 0.9, 4.0, 2.0, math.inf)
        records, _ = frequency_block_test(params, [3, 4, 5, 6])
        for r in records:
            grid_n = 2 ** (round(r.scale_index) + 3)
            g = block_field(Grid(1, grid_n), round(r.scale_index))
            assert r.rhs == pytest.approx(lq_norm(g, 2.0, oversample=2), rel=1e-12)

    def test_dimension_bound(self):
        params = ParamTuple(3, 0.9, 4.0, 2.0, 4.0)
        with pytest.raises(ValueError):
            frequency_block_test(params, [3, 4])
        with pytest.raises(ValueError):
            # the term-stack budget caps the block level
            frequency_block_test(ParamTuple(2, 0.9, 4.0, 2.0, 4.0), [3, 9])

    @pytest.mark.parametrize("d,N_range", [(2, range(3, 8)), (2, [3, 4, 5, 6]), (1, [3, 20])])
    def test_term_stack_budget_checked_before_rendering(self, d, N_range, monkeypatch):
        # the largest level's |C_N| * n^d cells are bounded before any term is built
        def must_not_render(*args, **kwargs):
            raise AssertionError("rendered a term stack over the budget")
        monkeypatch.setattr(experiments, "render_terms", must_not_render)
        with pytest.raises(ValueError, match="budget"):
            frequency_block_test(ParamTuple(d, 0.9, 4.0, 2.0, 4.0), N_range)

    def test_two_dimensional_blocks(self):
        # same construction in d = 2 on small levels; the exponent picks up
        # the dimensional factor in the prediction
        params = ParamTuple(2, 1.2, 4.0, 2.0, 4.0)
        records, fit = frequency_block_test(params, [2, 3, 4])
        assert fit.predicted == pytest.approx(-1.2 + 2 * 0.5)
        assert abs(fit.exponent - fit.predicted) <= 0.3


class TestRescaledBump:
    def test_h_l2_dilation_identity(self):
        # change of variables: ||h(2^m .)||_2 = 2^{-m/2} ||h||_2
        from gammanoise.grid import forward_transform
        from gammanoise.systems import bump_values
        grid = Grid(1, 2**14)
        coords = grid.coords()
        base = None
        for m in range(6):
            w = 0.25 * 2.0**-m
            h = forward_transform(grid, bump_values(coords, w / 2, w))
            val = lq_norm(h, 2.0)
            if base is None:
                base = val
            assert val == pytest.approx(base * 2.0 ** (-m / 2), rel=0.01)

    @pytest.mark.parametrize("name,params,band", [
        ("equality", ParamTuple(1, 0.5, 4.0, 2.0, 4.0), 0.15),
        ("violated", ParamTuple(1, 0.2, 4.0, 2.0, 4.0), 0.15),
        ("strict", ParamTuple(1, 0.65, 4.0, 2.5, 10.0 / 3.0), 0.15),
    ])
    def test_exponents(self, name, params, band):
        _, fit = rescaled_bump_test(params, range(0, 6))
        assert abs(fit.exponent - fit.predicted) <= band

    def test_resolution_guard(self):
        params = ParamTuple(1, 0.5, 4.0, 2.0, 4.0)
        with pytest.raises(ValueError):
            rescaled_bump_test(params, range(0, 12), n=2**10)


class TestShiftedBump:
    def test_g_norm_disjoint_supports(self):
        # plateau sums over disjoint cells: ||g||_eta = ||psi||_eta count^{1/eta};
        # rhs is ||g||_eta times the mu-norm (2N)^{1/zeta} of the 2N unit weights
        params = ParamTuple(1, 0.6, 2.0, 4.0, 4.0)
        records, _ = shifted_bump_test(params, [2, 4, 8])
        base = None
        for r in records:
            count = 2 * 2**r.scale_index
            g_eta = r.rhs / count ** (1 / params.zeta)
            per = g_eta / count ** (1 / params.eta)
            if base is None:
                base = per
            assert per == pytest.approx(base, rel=0.01)

    def test_boundary_tuple_flat(self):
        params = ParamTuple(1, 0.6, 2.0, 4.0, 4.0)  # 1/eta + 1/zeta = 1/q
        _, fit = shifted_bump_test(params, [2, 4, 8, 16])
        assert fit.predicted == pytest.approx(0.0, abs=1e-12)
        assert abs(fit.exponent) <= 0.15

    def test_growing_tuple(self):
        params = ParamTuple(1, 0.6, 2.0, 8.0, 8.0)  # exponent d/4
        _, fit = shifted_bump_test(params, [2, 4, 8, 16])
        assert fit.predicted == pytest.approx(0.25)
        assert abs(fit.exponent - 0.25) <= 0.15


class TestDirichlet:
    def test_peak_value_exact(self):
        grid = Grid(1, 1024)
        for N in (8, 64):
            f = dirichlet_field(grid, N)
            assert f.values()[0].real == pytest.approx(2 * N + 1, rel=1e-12)

    @pytest.mark.parametrize("eta", [2.0, 3.0, 4.0])
    def test_growth_exponent(self, eta):
        _, fit = dirichlet_norm_test(eta, [8, 16, 32, 64, 128, 256])
        assert abs(fit.exponent - (1 - 1 / eta)) <= 0.05

    def test_eta_one_excluded(self):
        with pytest.raises(ValueError):
            dirichlet_norm_test(1.0, [8, 16, 32])

    def test_l1_growth_is_logarithmic_not_power(self):
        ns, ys = [], []
        for N in [8, 16, 32, 64, 128, 256, 512, 1024]:
            # eight or more points per term, as dirichlet_norm_test samples D_N
            grid = Grid(1, max(1024, 2 ** math.ceil(math.log2(8 * (2 * N + 1)))))
            ns.append(2 * N + 1)
            ys.append(lq_norm(dirichlet_field(grid, N), 1.0))
        ns, ys = np.array(ns, dtype=float), np.array(ys)
        # affine in log N with decreasing local log-log slope: log-like growth
        _, affine_r2 = linfit(np.log(ns), ys)
        assert affine_r2 > 0.99
        half = len(ns) // 2
        s1, _ = linfit(np.log(ns[:half]), np.log(ys[:half]))
        s2, _ = linfit(np.log(ns[half:]), np.log(ys[half:]))
        assert s2 < s1 * 0.9


class TestBoundarySweep:
    def test_strict_cells_bounded(self):
        tuples = [ParamTuple(1, s, 4.0, 2.0, 4.0) for s in (0.75, 0.85, 0.95)]
        cells = boundary_sweep(tuples, "freq_block", range(3, 8))
        ok = sum(c.label == "bounded" for c in cells)
        assert ok >= 0.9 * len(cells)

    def test_violated_cells_divergent(self):
        tuples = [ParamTuple(1, s, 4.0, 2.0, 4.0) for s in (0.1, 0.2, 0.3)]
        cells = boundary_sweep(tuples, "freq_block", range(3, 8))
        ok = sum(c.label == "divergent" for c in cells)
        assert ok >= 0.9 * len(cells)

    def test_empty_grid(self):
        assert boundary_sweep([], "freq_block", range(3, 6)) == []

    def test_failures_recorded_not_raised(self):
        # d = 3 is rejected by the construction; the sweep keeps going
        tuples = [ParamTuple(3, 0.5, 4.0, 2.0, 4.0),
                  ParamTuple(1, 0.9, 4.0, 2.0, 4.0)]
        cells = boundary_sweep(tuples, "freq_block", range(3, 6))
        assert [c.status for c in cells] == ["failed", "ok"]

    def test_unknown_construction(self):
        with pytest.raises(ValueError):
            boundary_sweep([], "bogus", range(3, 6))


def test_low_r2_trend_reported_inconclusive():
    fit = FitReport(exponent=0.4, r2=0.5, predicted=0.3)
    assert growth_label(fit) == "inconclusive"
