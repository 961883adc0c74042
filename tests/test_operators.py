import math
import tracemalloc

import numpy as np
import pytest

from gammanoise import operators
from gammanoise.fit import linfit
from gammanoise.grid import Grid, SpectralField, constant_field, forward_coeffs, forward_transform
from gammanoise.norms import bessel_kernel, chunk_rows, lq_norm
from gammanoise.operators import (ConvPair, afg_bruteforce_hs,
                                  afg_gamma_norm, gamma_young_check,
                                  heat_kernel_field, mg_sobolev_gamma_norm,
                                  schatten_heat_norm)
from gammanoise.rng import stream
from gammanoise.systems import bump_values

# hand value for a single-cell kernel on the 4-cell circle:
# |f_cell| * cell^{1/2} * ||g||_2 with f = [2,0,0,0], g = [1,-1,0.5,3]
DELTA_HAND_VALUE = 1.6770509831248424


def mg_one(g, s, q):
    """``mg_sobolev_gamma_norm`` of a single field, passed as a stack of one."""
    return mg_sobolev_gamma_norm(g.grid, g.coeffs[None], s, q, real=g.real)[0]


def multiplier_stack(grid, rows, real, seed):
    """``rows`` random multipliers on ``grid``, real or complex, with row 3 all zero."""
    samples = np.stack([stream(seed, i).standard_normal(grid.shape) for i in range(rows)])
    if not real:
        samples = samples + 1j * np.stack([stream(seed, rows + i).standard_normal(grid.shape)
                                           for i in range(rows)])
    samples[3] = 0.0
    return forward_coeffs(grid, samples)


def field_formula(kernel, g, q):
    """``|| |f|^2 * |g|^2 ||_{L^{q/2}}^{1/2}`` of two fields, one transform at a time."""
    grid = kernel.grid
    F = forward_transform(grid, np.abs(kernel.values()) ** 2)
    G = forward_transform(grid, np.abs(g.values()) ** 2)
    conv = SpectralField(grid, F.coeffs * G.coeffs * grid.length**grid.dim, real=True)
    if q == 2:
        return math.sqrt(abs(conv.coeff_at((0,) * grid.dim)) * grid.length**grid.dim)
    return math.sqrt(lq_norm(conv, q / 2.0))


def random_pair(gen, n=64, q=2.0):
    g = Grid(1, n)
    f = forward_transform(g, gen.standard_normal(n))
    h = forward_transform(g, gen.standard_normal(n))
    return ConvPair(f, h, q)


class TestAfgGammaNorm:
    def test_zero_kernel(self):
        g = Grid(1, 64)
        pair = ConvPair(constant_field(g, 0.0), constant_field(g, 1.0), 4.0)
        assert afg_gamma_norm(pair) == 0.0

    def test_simon_equality_q2(self):
        for i in range(50):
            pair = random_pair(stream(31, i))
            ref = lq_norm(pair.f, 2) * lq_norm(pair.g, 2)
            assert afg_gamma_norm(pair) == pytest.approx(ref, rel=1e-8)

    def test_oracle_agreement_q2(self):
        for i in range(50):
            pair = random_pair(stream(32, i))
            a = afg_gamma_norm(pair)
            b = afg_bruteforce_hs(pair)
            assert a == pytest.approx(b, rel=1e-8)

    def test_symmetry(self):
        pair = random_pair(stream(33, 0), q=4.0)
        sym = ConvPair(pair.g, pair.f, 4.0)
        assert afg_gamma_norm(pair) == pytest.approx(afg_gamma_norm(sym), rel=1e-12)

    def test_homogeneity(self):
        pair = random_pair(stream(34, 0), q=4.0)
        scaled = ConvPair(SpectralField(pair.f.grid, -2.5 * pair.f.coeffs, real=pair.f.real),
                          pair.g, 4.0)
        assert afg_gamma_norm(scaled) == pytest.approx(2.5 * afg_gamma_norm(pair), rel=1e-12)

    def test_modulus_of_g_irrelevant(self):
        gen = stream(35, 0)
        g = Grid(1, 64)
        f = forward_transform(g, gen.standard_normal(64))
        hv = gen.standard_normal(64)
        a = afg_gamma_norm(ConvPair(f, forward_transform(g, hv), 4.0))
        b = afg_gamma_norm(ConvPair(f, forward_transform(g, np.abs(hv)), 4.0))
        assert a == pytest.approx(b, rel=1e-12)

    def test_q_below_two_rejected(self):
        g = Grid(1, 64)
        with pytest.raises(ValueError):
            ConvPair(constant_field(g, 0.0), constant_field(g, 0.0), 1.5)


class TestBruteForce:
    def test_delta_kernel_hand_value(self):
        g = Grid(1, 4)
        f = forward_transform(g, np.array([2.0, 0.0, 0.0, 0.0]))
        h = forward_transform(g, np.array([1.0, -1.0, 0.5, 3.0]))
        got = afg_bruteforce_hs(ConvPair(f, h, 2.0))
        assert got == pytest.approx(DELTA_HAND_VALUE, rel=1e-12)

    def test_gaussian_pair_cross_oracle(self):
        g = Grid(1, 64)
        coords = g.coords()
        f = forward_transform(g, np.exp(-50 * (coords[0] - 0.5) ** 2))
        h = forward_transform(g, np.exp(-80 * (coords[0] - 0.3) ** 2))
        pair = ConvPair(f, h, 2.0)
        assert afg_bruteforce_hs(pair) == pytest.approx(afg_gamma_norm(pair), rel=1e-10)

    def test_zero_multiplier(self):
        g = Grid(1, 16)
        pair = ConvPair(constant_field(g, 1.0), constant_field(g, 0.0), 2.0)
        assert afg_bruteforce_hs(pair) == 0.0

    def test_2d_small_grid(self):
        g = Grid(2, 16)
        gen = stream(36, 0)
        f = forward_transform(g, gen.standard_normal(g.shape))
        h = forward_transform(g, gen.standard_normal(g.shape))
        pair = ConvPair(f, h, 2.0)
        assert afg_bruteforce_hs(pair) == pytest.approx(afg_gamma_norm(pair), rel=1e-10)

    def test_resource_bound(self):
        g = Grid(1, 8192)
        pair = ConvPair(constant_field(g, 0.0), constant_field(g, 0.0), 2.0)
        with pytest.raises(ValueError, match="budget"):
            afg_bruteforce_hs(pair)

    def test_budget_edge(self, monkeypatch):
        # norms.CELLS_MAX lowered where the oracle reads it: a 64-cell grid's operator
        # has exactly 64^2 cells; at 128 cells it is rejected before any array is
        # built (building it peaks near 570 KiB)
        monkeypatch.setattr(operators, "CELLS_MAX", 64**2)
        pairs = {n: ConvPair(constant_field(Grid(1, n), 1.0), constant_field(Grid(1, n), 1.0), 2.0)
                 for n in (64, 128)}
        assert afg_bruteforce_hs(pairs[64]) == pytest.approx(1.0)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"16384 cells, above the budget of {64**2}"):
                afg_bruteforce_hs(pairs[128])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16


class TestGammaYoung:
    def test_bessel_kernel_ratio_bounded(self):
        # the fitted constant over random multipliers stays within a decade
        n, s = 1024, 0.75
        grid = Grid(1, n)
        r = 1.0 / (1.0 - s)
        q = 8.0
        eta = 1.0 / (1.0 / q + 0.5 - 1.0 / r)
        kernel = bessel_kernel(grid, s)
        g = forward_coeffs(grid, np.stack([stream(37, i).standard_normal(n) for i in range(100)]))
        _, _, ratios = gamma_young_check(kernel, g, q, r, eta, real=True)
        assert ratios.shape == (100,)
        assert max(ratios) / min(ratios) < 10.0

    def test_zero_g(self):
        grid = Grid(1, 256)
        kernel = bessel_kernel(grid, 0.75)
        zero = constant_field(grid, 0.0).coeffs[None]
        lhs, rhs, ratio = gamma_young_check(kernel, zero, 8.0, 4.0, 8.0 / 3.0, real=True)
        assert (lhs[0], rhs[0], ratio[0]) == (0.0, 0.0, 0.0)

    def test_kernel_scaling_cancels(self):
        grid = Grid(1, 256)
        kernel = bessel_kernel(grid, 0.75)
        g = forward_transform(grid, stream(38, 0).standard_normal(256)).coeffs[None]
        _, _, r1 = gamma_young_check(kernel, g, 8.0, 4.0, 8.0 / 3.0, real=True)
        scaled = SpectralField(grid, 3.0 * kernel.coeffs, real=kernel.real)
        _, _, r2 = gamma_young_check(scaled, g, 8.0, 4.0, 8.0 / 3.0, real=True)
        assert r1[0] == pytest.approx(r2[0], rel=1e-12)

    def test_exponent_relation_enforced(self):
        grid = Grid(1, 64)
        kernel = bessel_kernel(grid, 0.75)
        zero = constant_field(grid, 0.0).coeffs[None]
        with pytest.raises(ValueError):
            gamma_young_check(kernel, zero, 8.0, 4.0, 3.0)
        with pytest.raises(ValueError):
            gamma_young_check(kernel, zero, 8.0, 2.0, 8.0)


class TestMgSobolev:
    def test_constant_g_lattice_identity(self):
        # multiplication by one at q = 2: the truncated lattice sum, exactly
        for n in (256, 1024):
            grid = Grid(1, n)
            got = mg_one(constant_field(grid, 1.0), 0.75, 2.0)
            k = grid.freq_axis()
            ref = math.sqrt(np.sum((1 + 4 * np.pi**2 * k.astype(float) ** 2) ** -0.75))
            assert got == pytest.approx(ref, rel=1e-10)

    def test_lattice_sum_diverges_below_half(self):
        # s below d/2: the truncated identity norm keeps growing with n
        vals = [mg_one(constant_field(Grid(1, n), 1.0), 0.4, 2.0) for n in (256, 1024, 4096)]
        assert vals[2] > vals[1] > vals[0]
        assert vals[2] / vals[0] > 1.2

    def test_bump_dilation_stability(self):
        # spec-scale check: constant against ||g||_eta stays within factor 2
        grid = Grid(1, 8192)
        coords = grid.coords()
        consts = []
        for m in range(6):
            w = 0.25 * 2.0**-m
            g = forward_transform(grid, bump_values(coords, w / 2.0, w))
            c = mg_one(g, 0.75, 4.0) / lq_norm(g, 8.0 / 3.0)
            consts.append(c)
        assert max(consts) / min(consts) < 2.0

    def test_zero_g(self):
        grid = Grid(1, 256)
        assert mg_one(constant_field(grid, 0.0), 0.75, 4.0) == 0.0


# 13 rows, not a multiple of the rows per chunk of the L^q rule at eta = 8/3: 8 in 1-d, 2 in 2-d
STACK_GRIDS = [Grid(1, 1024), Grid(2, 32)]


@pytest.mark.parametrize("grid", STACK_GRIDS, ids=["d1", "d2"])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
class TestStackMatchesStacksOfOne:
    rows = 13

    def test_gamma_young_check(self, grid, real):
        kernel = bessel_kernel(grid, 0.75 * grid.dim)
        g = multiplier_stack(grid, self.rows, real, seed=44)
        assert self.rows % chunk_rows(4 * grid.n, grid.n, grid.dim) != 0
        for q, r, eta in ((4.0, 8.0 / 3.0, 8.0 / 3.0), (8.0, 4.0, 8.0 / 3.0)):
            stacked = gamma_young_check(kernel, g, q, r, eta, real=real)
            ones = [gamma_young_check(kernel, g[i:i + 1], q, r, eta, real=real)
                    for i in range(self.rows)]
            for side, got in enumerate(stacked):
                assert np.array_equal(got, np.concatenate([one[side] for one in ones])), (q, side)
            # the zero row: both sides vanish, and 0 / 0 reads as 0
            assert (stacked[0][3], stacked[1][3], stacked[2][3]) == (0.0, 0.0, 0.0)

    def test_mg_sobolev_gamma_norm(self, grid, real):
        g = multiplier_stack(grid, self.rows, real, seed=45)
        for q in (2.0, 4.0, 8.0):
            stacked = mg_sobolev_gamma_norm(grid, g, 0.75 * grid.dim, q, real=real)
            ones = [mg_sobolev_gamma_norm(grid, g[i:i + 1], 0.75 * grid.dim, q, real=real)
                    for i in range(self.rows)]
            assert np.array_equal(stacked, np.concatenate(ones)), q
            assert stacked[3] == 0.0
            kernel = bessel_kernel(grid, 0.75 * grid.dim)
            fields = [SpectralField(grid, c, real=real) for c in g]
            assert np.array_equal(stacked, [field_formula(kernel, f, q) for f in fields]), q


class TestSchattenHeat:
    def test_large_time_limit(self):
        grid = Grid(1, 128)
        g = forward_transform(grid, stream(39, 0).standard_normal(128))
        val = schatten_heat_norm(g, 50.0)
        assert val == pytest.approx(lq_norm(g, 2), rel=1e-10)

    def test_nonincreasing_in_t(self):
        grid = Grid(1, 128)
        g = forward_transform(grid, stream(39, 1).standard_normal(128))
        ts = np.geomspace(1e-3, 1.0, 12)
        vals = [schatten_heat_norm(g, t) for t in ts]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_g_one_scaled_bounded(self):
        grid = Grid(1, 512)
        one = constant_field(grid, 1.0)
        vals = [t**0.25 * schatten_heat_norm(one, t) for t in np.geomspace(1e-3, 1e-1, 9)]
        assert max(vals) / min(vals) < 2.0

    def test_heat_witness_exponent(self):
        grid = Grid(1, 512)
        ts = np.geomspace(1e-4, 1e-2, 9)
        vals = []
        for t in ts:
            kern = heat_kernel_field(grid, float(t))
            gt = forward_transform(grid, np.sqrt(np.maximum(kern.values(), 0.0)))
            vals.append(schatten_heat_norm(gt, float(t)))
        slope, _ = linfit(np.log(ts), np.log(vals))
        assert slope == pytest.approx(-0.25, abs=0.05)

    def test_t_positive(self):
        grid = Grid(1, 64)
        with pytest.raises(ValueError):
            schatten_heat_norm(constant_field(grid, 1.0), 0.0)
