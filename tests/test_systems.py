import itertools
import math

import numpy as np
import pytest

from gammanoise.fit import linfit
from gammanoise.grid import Grid, forward_transform
from gammanoise.systems import (Coloring, FourierSystem, HaarSystem, IndexRangeError,
                                NonEvaluableError, ShiftedBumpSystem,
                                SyntheticGrowthSystem, _lattice_bessel_sum, frequency_block,
                                haar_lattice_sums, rank_one_mu_norm, weighted_sequence_norm)


class TestColorings:
    def test_power_law(self):
        c = Coloring.power_law(0.7)
        assert c.weights([None] * 3)[2] == pytest.approx(3.0**-0.7)

    def test_matern(self):
        c = Coloring.matern(0.5)
        assert c.weights([(2,)])[0] == pytest.approx((1 + 16 * np.pi**2) ** -0.25)
        assert c.weights([(1, 2)])[0] == pytest.approx((1 + 20 * np.pi**2) ** -0.25)

    def test_block_indicator(self):
        c = Coloring.block_indicator(3)
        assert c.weights([(8,), (12,), (13,), (7,)]).tolist() == [1.0, 1.0, 0.0, 0.0]
        assert c.weights([(8, 12), (8, 13)]).tolist() == [1.0, 0.0]

    def test_haar(self):
        c = Coloring.haar(0.5, 1.0, 1)
        assert c.weights([((1,), 2, (3,))])[0] == pytest.approx(10.0**-0.5 * 2.0**-1.0)
        with pytest.raises(ValueError):
            Coloring.haar(0.5, 0.4, 1)  # beta must exceed d/2

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("coloring", [Coloring.matern(0.7), Coloring.power_law(0.7)],
                             ids=["matern", "power_law"])
    def test_weights_take_the_scalar_power_bit_for_bit(self, dim, coloring):
        # numpy's array ** misses the scalar ** in the last bit for some of these bases
        idxs = FourierSystem(dim).indices(3000)
        alpha = coloring.params["alpha"]
        if coloring.kind == "power_law":
            want = [float(i) ** -alpha for i in range(1, len(idxs) + 1)]
        else:
            want = [(1.0 + 4.0 * np.pi**2 * float(sum(k * k for k in idx))) ** (-alpha / 2.0)
                    for idx in idxs]
        assert coloring.weights(idxs).tolist() == want

    def test_haar_weights_by_level(self):
        c = Coloring.haar(0.5, 1.5, 2)
        idxs = HaarSystem(2, 0, 3).indices(60)
        want = [(1.0 + k[0] ** 2 + k[1] ** 2) ** -0.75 * 2.0 ** (-0.5 * j) for _, j, k in idxs]
        assert c.weights(idxs).tolist() == want
        assert c.weights([]).shape == (0,)

    def test_explicit(self):
        c = Coloring.explicit([1.0, 0.5])
        assert c.weights([None, None]).tolist() == [1.0, 0.5]
        with pytest.raises(IndexRangeError):
            c.weights([None] * 3)
        with pytest.raises(ValueError):
            Coloring.explicit([-1.0])


class TestFourierSystem:
    def test_order_fills_balls(self):
        sys = FourierSystem(1)
        assert sys.indices(5) == [(0,), (-1,), (1,), (-2,), (2,)]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_ball_matches_sorted_enumeration(self, dim):
        sys = FourierSystem(dim)
        for radius in range(1, 17):
            box = itertools.product(range(-radius, radius + 1), repeat=dim)
            ref = sorted((k for k in box if sum(x * x for x in k) <= radius * radius),
                         key=lambda k: (sum(x * x for x in k), k))
            got = sys.ball_indices(radius)
            assert got == ref
            assert all(type(x) is int for k in got for x in k)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_lattice_positions_match_index_of_freq(self, dim):
        grid = Grid(dim, 16)
        idxs = FourierSystem(dim).ball_indices(7)
        ref = [np.ravel_multi_index(grid.index_of_freq(k), grid.shape) for k in idxs]
        assert FourierSystem(dim).lattice_positions(idxs, grid).tolist() == ref

    def test_lattice_positions_reject_bad_frequencies(self):
        sys, grid = FourierSystem(2), Grid(2, 8)
        with pytest.raises(ValueError, match=r"^frequency -4 outside \(-n/2, n/2\] for n=8$"):
            sys.lattice_positions([(0, 0), (1, -4)], grid)
        with pytest.raises(ValueError, match=r"^frequency 5 outside \(-n/2, n/2\] for n=8$"):
            sys.lattice_positions([(5, 0)], grid)
        with pytest.raises(ValueError, match="^frequency index has 3 axes, grid has 2$"):
            sys.lattice_positions([(0, 0), (1, 1, 1)], grid)
        with pytest.raises(ValueError, match="^frequency index has 1 axes, grid has 2$"):
            sys.lattice_positions([(1,), (2,)], grid)

    def test_sup_norm_one(self):
        sys = FourierSystem(2)
        assert all(sys.sup_norm(i) == 1.0 for i in sys.indices(9))

    def test_render_single_mode(self):
        g = Grid(1, 64)
        f = FourierSystem(1).render((3,), g)
        assert f.coeff_at(3) == pytest.approx(1.0)

    def test_gram_identity(self):
        g = Grid(1, 256)
        sys = FourierSystem(1)
        fields = [sys.render(i, g).values() for i in sys.indices(9)]
        gram = np.array([[np.mean(a * np.conj(b)) for b in fields] for a in fields])
        assert np.max(np.abs(gram - np.eye(9))) < 1e-8


class TestHaarSystem:
    def test_mother_wavelet_values(self):
        g = Grid(1, 1024)
        v = HaarSystem(1, 0, 2).render(((1,), 0, (0,)), g).values()
        assert v[0] == pytest.approx(1.0)
        assert v[700] == pytest.approx(-1.0)
        assert np.sqrt(np.mean(v**2)) == pytest.approx(1.0)

    def test_sup_norms(self):
        sys = HaarSystem(2, 0, 3)
        assert sys.sup_norm(((1, 0), 2, (0, 1))) == pytest.approx(2.0**2)

    def test_gram_first_16(self):
        g = Grid(1, 1024)
        sys = HaarSystem(1, 0, 4)
        fields = [sys.render(i, g).values() for i in sys.indices(16)]
        gram = np.array([[np.mean(a * b) for b in fields] for a in fields])
        assert np.max(np.abs(gram - np.eye(16))) < 1e-10

    def test_level_truncation(self):
        sys = HaarSystem(1, 0, 2)
        assert len(sys.indices(7)) == 7
        with pytest.raises(IndexRangeError):
            sys.indices(8)

    @pytest.mark.parametrize("grid", [Grid(1, 64, 3.0), Grid(2, 16, 2.5), Grid(3, 8, 0.7)],
                             ids=["1d", "2d", "3d"])
    def test_render_matches_the_wrapped_formula(self, grid):
        # the positions t were once wrapped by two float np.mod calls
        def reference(idx):
            sigma, j, k = idx
            vals = np.ones(grid.shape)
            for x, s, ki in zip(grid.coords(), sigma, k):
                t = np.mod(2.0**j * np.mod(x / grid.length, 1.0) - ki, 2.0**j)
                inside = np.where(t < 0.5, 1.0, -1.0) if s else 1.0
                vals = vals * np.where(t < 1.0, inside, 0.0)
            return forward_transform(grid, vals * 2.0 ** (j * grid.dim / 2.0)
                                     / grid.length ** (grid.dim / 2.0)).coeffs
        sys = HaarSystem(grid.dim, 0, 2)
        for idx in sys.indices((2**grid.dim - 1) * sum(2 ** (j * grid.dim) for j in range(3))):
            assert np.array_equal(sys.render(idx, grid).coeffs, reference(idx)), idx

    def test_two_dimensional_gram(self):
        g = Grid(2, 128)
        sys = HaarSystem(2, 0, 1)
        fields = [sys.render(i, g).values() for i in sys.indices(9)]
        gram = np.array([[np.mean(a * b) for b in fields] for a in fields])
        assert np.max(np.abs(gram - np.eye(9))) < 1e-10


class TestShiftedBump:
    def test_gram_orthonormal(self):
        # 128 points per unit cell is fine enough for the 1e-8 identity
        g = Grid(1, 2048, 16.0)
        sys = ShiftedBumpSystem(1, 4)
        fields = [sys.render(i, g).values() for i in sys.indices(8)]
        gram = np.array([[np.sum(a * b) * g.cell_measure for b in fields] for a in fields])
        assert np.max(np.abs(gram - np.eye(8))) < 1e-8

    def test_box_too_small(self):
        sys = ShiftedBumpSystem(1, 8)
        with pytest.raises(ValueError):
            sys.render((1,), Grid(1, 64, 4.0))


class TestSyntheticGrowth:
    def test_growth_model(self):
        sys = SyntheticGrowthSystem(3)
        assert sys.sup_norm(8) == pytest.approx(8.0 ** (2.0 / 6.0))

    def test_not_evaluable(self):
        with pytest.raises(NonEvaluableError):
            SyntheticGrowthSystem(2).render(1, Grid(2, 16))


class TestEllZetaNorm:
    def test_sequence_norm_matches_term_loop(self):
        # Haar-like sup norms, summed term by term as the scaling diagnostic once did
        weights = [0.3, -1.2, 0.7, 2.0]
        sups = [1.0, 2**0.5, 2**0.5, 2.0]
        loop = sum(abs(w) ** 3.0 * s**2 for w, s in zip(weights, sups)) ** (1 / 3.0)
        assert weighted_sequence_norm(weights, sups, 3.0) == pytest.approx(loop, rel=1e-15)
        assert weighted_sequence_norm(weights, sups, math.inf) == 2.0

    def test_zero_coloring(self):
        assert weighted_sequence_norm(np.zeros(8), np.ones(8), 2.0) == 0.0

    def test_monotone_in_truncation(self):
        sys = HaarSystem(1, 0, 5)
        idxs = sys.indices(32)
        weights = Coloring.haar(0.5, 1.0, 1).weights(idxs)
        sups = [sys.sup_norm(idx) for idx in idxs]
        vals = [weighted_sequence_norm(weights[:N], sups[:N], 2.0) for N in (4, 8, 16, 32)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_homogeneous_in_mu(self):
        a = weighted_sequence_norm(np.full(8, 2.0), np.ones(8), 2.5)
        b = weighted_sequence_norm(np.full(8, 1.0), np.ones(8), 2.5)
        assert a == pytest.approx(2.0 * b, rel=1e-12)

    def test_block_indicator_exact(self):
        # indicator coloring: the norm is the squared-sup-norm mass of the block
        idxs = FourierSystem(1).indices(32)
        count = len(set(idxs) & set(frequency_block(2, 1)))
        weights = Coloring.block_indicator(2).weights(idxs)
        got = weighted_sequence_norm(weights, np.ones(len(idxs)), 4.0)
        assert got == pytest.approx(count ** (1 / 4.0), rel=1e-12)


class TestHaarCriticality:
    def test_critical_sums_affine(self):
        js = list(range(2, 13))
        sums = haar_lattice_sums(0.5, 1.0, 2.0, 1, js)
        _, r2 = linfit(np.array(js, float), sums)
        assert r2 > 0.99
        inc = np.diff(sums)
        assert inc.max() / inc.min() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("zeta", [1.8, 2.5])
    def test_off_critical_exponential(self, zeta):
        js = list(range(2, 13))
        sums = haar_lattice_sums(0.5, 1.0, zeta, 1, js)
        inc = np.diff(sums)
        ratios = inc[1:] / inc[:-1]
        assert ratios[-1] > 1.03  # geometrically growing increments

    @pytest.mark.parametrize("exponent,dim", [(1.8, 1), (2.0, 1), (2.5, 1), (3.3, 1), (2.5, 2),
                                              (3.3, 2), (3.5, 3)])
    def test_lattice_bessel_sum_is_the_broadcast_sum(self, exponent, dim):
        # the in-place sum keeps the bits of the box summed as one broadcast expression
        R = {1: 200_000, 2: 1_024, 3: 96}[dim]
        k = np.arange(-R, R + 1, dtype=float)
        if dim == 1:
            core = float(np.sum((1.0 + k**2) ** (-exponent / 2.0)))
        elif dim == 2:
            k2 = k[:, None] ** 2 + k[None, :] ** 2
            core = float(np.sum((1.0 + k2) ** (-exponent / 2.0)))
        else:
            core = 0.0
            for kz in k:
                k2 = k[:, None] ** 2 + k[None, :] ** 2 + kz**2
                core += float(np.sum((1.0 + k2) ** (-exponent / 2.0)))
        surface = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}[dim]
        tail = surface * (R + 0.5) ** (dim - exponent) / (exponent - dim)
        assert _lattice_bessel_sum(exponent, dim) == core + tail

    def test_position_sum_must_converge(self):
        with pytest.raises(ValueError):
            haar_lattice_sums(0.5, 0.4, 2.0, 1, [2, 3])


def test_frequency_block_contents():
    assert frequency_block(2, 1) == [(4,), (5,), (6,)]
    assert len(frequency_block(3, 2)) == 25
    with pytest.raises(ValueError, match="level must be >= 1"):
        frequency_block(0, 1)


def test_rank_one_mu_norm():
    assert rank_one_mu_norm(2.0, 8.0, 2.0) == pytest.approx(8.0)
    assert rank_one_mu_norm(2.0, 8.0, math.inf) == pytest.approx(2.0)
    assert rank_one_mu_norm(2.0, 8.0, 4.0) == pytest.approx(2.0**0.5 * 8.0**0.5)
