import dataclasses
import math

import numpy as np
import pytest

from gammanoise.grid import Grid, SpectralField, constant_field, forward_transform, mode_field
from gammanoise.norms import bessel_multiplier, hsq_norm
from gammanoise.rng import standard_gaussians, stream
from gammanoise.fit import classify_growth, linfit
from gammanoise.series import (MC_BLOCK, SeriesSpec, hs_gamma_norm_exact, mc_gamma_norm,
                               render_terms, series_coeffs, sq_function_gamma_norm,
                               term_values)
from gammanoise.systems import (Coloring, FourierSystem, HaarSystem, ShiftedBumpSystem,
                               SyntheticGrowthSystem, bump_values)


@pytest.fixture
def fourier_spec():
    grid = Grid(1, 256)
    return SeriesSpec(grid, FourierSystem(1), Coloring.matern(0.4), 32, 0.6, 2.0)


def sample(spec, gen):
    """Coefficients of one realization, drawn as the first row of a Monte Carlo block."""
    gam = standard_gaussians(gen, (1, spec.N), real=spec.system.real)
    return series_coeffs(spec, gam)[0]


class TestSampleSeries:
    def test_zero_coloring(self):
        grid = Grid(1, 64)
        spec = SeriesSpec(grid, FourierSystem(1), Coloring.constant(0.0, 8), 8, 0.5, 2.0)
        assert np.all(sample(spec, stream(1, 0)) == 0)

    def test_single_term_mode(self):
        grid = Grid(1, 64)
        spec = SeriesSpec(grid, FourierSystem(1), Coloring.constant(0.7, 1), 1, 0.5, 2.0)
        samples = [abs(sample(spec, stream(5, i))[0]) ** 2 for i in range(4000)]
        assert np.mean(samples) == pytest.approx(0.49, rel=0.1)

    def test_coefficient_covariance_diagonal(self):
        # complex amplitudes are independent with variance mu_k^2
        grid = Grid(1, 32)
        N = 5
        spec = SeriesSpec(grid, FourierSystem(1), Coloring.power_law(0.5), N, 0.5, 2.0)
        idxs = spec.system.indices(N)
        mus = np.array([spec.coloring.value(i, n + 1) for n, i in enumerate(idxs)])
        cells = [grid.index_of_freq(k) for k in idxs]
        draws = np.array([[c[cell] for cell in cells]
                          for c in (sample(spec, stream(6, i)) for i in range(10_000))])
        cov = draws.conj().T @ draws / draws.shape[0]
        assert np.max(np.abs(np.diag(cov) - mus**2)) < 0.05 * mus.max() ** 2
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 0.05 * mus.max() ** 2

    def test_linearity_in_coloring(self):
        grid = Grid(1, 64)
        a = SeriesSpec(grid, FourierSystem(1), Coloring.constant(1.0, 8), 8, 0.5, 2.0)
        b = SeriesSpec(grid, FourierSystem(1), Coloring.constant(2.5, 8), 8, 0.5, 2.0)
        fa = sample(a, stream(7, 0))
        fb = sample(b, stream(7, 0))
        assert np.max(np.abs(fb - 2.5 * fa)) < 1e-12

    def test_real_system_real_samples(self):
        grid = Grid(1, 256)
        spec = SeriesSpec(grid, HaarSystem(1, 0, 3), Coloring.power_law(0.5), 15, 0.5, 2.0)
        assert SpectralField(grid, sample(spec, stream(8, 0))).is_hermitian()

    def test_synthetic_growth_not_sampleable(self):
        grid = Grid(1, 64)
        spec = SeriesSpec(grid, SyntheticGrowthSystem(1), Coloring.power_law(1.0), 8, 0.5, 2.0)
        with pytest.raises(TypeError):
            sample(spec, stream(9, 0))


class TestSeriesCoeffs:
    @pytest.mark.parametrize("dim,n,N", [(1, 128, 40), (2, 32, 60)])
    @pytest.mark.parametrize("with_g", [False, True])
    def test_fourier_matches_dense_term_stack(self, dim, n, N, with_g):
        grid = Grid(dim, n)
        gen = stream(13, dim)
        g = forward_transform(grid, gen.standard_normal(grid.shape)) if with_g else None
        spec = SeriesSpec(grid, FourierSystem(dim), Coloring.matern(0.6), N, 0.5, 2.0, g=g)
        gam = gen.standard_normal((5, N)) + 1j * gen.standard_normal((5, N))
        got = series_coeffs(spec, gam)
        assert "_terms" not in vars(spec)
        ref = (gam @ term_values(spec).reshape(N, -1)).reshape((5,) + grid.shape)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_mc_keeps_fourier_term_stack_unbuilt(self, fourier_spec):
        mc_gamma_norm(fourier_spec, 20, seed=3)
        assert "_terms" not in vars(fourier_spec)

    def test_fourier_overflow_raises_like_term_values(self):
        grid = Grid(1, 64)
        mk = lambda: SeriesSpec(grid, FourierSystem(1), Coloring.matern(0.5), 100, 0.5, 2.0)
        with pytest.raises(ValueError) as dense:
            term_values(mk())
        with pytest.raises(ValueError) as mc:
            mc_gamma_norm(mk(), 4, seed=0)
        assert str(mc.value) == str(dense.value) == "frequency -32 outside (-n/2, n/2] for n=64"


class TestFrozenSpec:
    """A spec caches its terms and lattice data, so a field changed after validation
    would be read stale or against the wrong shapes; every assignment is refused."""

    def test_multiplier_cannot_be_reassigned(self):
        grid = Grid(1, 64)
        spec = SeriesSpec(grid, FourierSystem(1), Coloring.matern(0.5), 16, 0.5, 2.0)
        assert hs_gamma_norm_exact(spec) == pytest.approx(1.0371, abs=1e-4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.g = constant_field(grid, 3.0)
        fresh = dataclasses.replace(spec, g=constant_field(grid, 3.0))
        assert hs_gamma_norm_exact(fresh) == pytest.approx(3.1114, abs=1e-4)

    def test_multiplier_is_a_read_only_copy(self):
        # the Fourier sampler reads g at every draw, so a caller's in-place change
        # to the field once reached Monte Carlo but not the cached term stack
        grid = Grid(1, 64)
        g = constant_field(grid, 1.0)
        spec = SeriesSpec(grid, FourierSystem(1), Coloring.matern(0.5), 16, 0.5, 2.0, g=g)
        g.coeffs *= 3.0
        assert np.array_equal(spec.g.coeffs, constant_field(grid, 1.0).coeffs)
        fresh = dataclasses.replace(spec, g=constant_field(grid, 1.0))
        assert hs_gamma_norm_exact(spec) == hs_gamma_norm_exact(fresh)
        assert mc_gamma_norm(spec, 400, seed=1).mean == mc_gamma_norm(fresh, 400, seed=1).mean
        with pytest.raises(ValueError):
            spec.g.coeffs *= 2

    def test_truncation_cannot_be_reassigned(self):
        spec = SeriesSpec(Grid(1, 64), FourierSystem(1), Coloring.matern(0.5), 16, 0.5, 2.0)
        mc_gamma_norm(spec, 4, seed=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.N = 32
        assert mc_gamma_norm(dataclasses.replace(spec, N=32), 4, seed=0).samples == 4


class TestRenderTerms:
    @pytest.mark.parametrize("system,count,complex_g", [
        (HaarSystem(1, 0, 3), 15, False),
        (FourierSystem(2), 25, True),
        (HaarSystem(2, 0, 1), 15, True),
    ])
    def test_matches_per_index_render_loop(self, system, count, complex_g):
        grid = Grid(system.dim, 32)
        gen = stream(17, count)
        idxs = system.indices(count)
        weights = gen.uniform(0.5, 2.0, count)
        gv = gen.standard_normal(grid.shape)
        if complex_g:
            gv = gv + 1j * gen.standard_normal(grid.shape)
        got = render_terms(system, idxs, grid, weights, gv)
        ref = np.array([forward_transform(grid, (system.render(idx, grid).values() * w) * gv).coeffs
                        for idx, w in zip(idxs, weights)])
        assert got.dtype == complex
        assert np.array_equal(got, ref)
        plain = np.array([system.render(idx, grid).coeffs * w for idx, w in zip(idxs, weights)])
        assert np.array_equal(render_terms(system, idxs, grid, weights), plain)


class TestCoefficientStack:
    """Without g a Fourier stack is the weighted lattice, with no transform in between."""

    @pytest.mark.parametrize("dim,n,N", [(1, 128, 40), (2, 32, 60)])
    def test_fourier_stack_is_the_lattice(self, dim, n, N):
        spec = SeriesSpec(Grid(dim, n), FourierSystem(dim), Coloring.matern(0.6), N, 0.7, 2.0)
        assert np.array_equal(term_values(spec), series_coeffs(spec, np.eye(N)))

    @pytest.mark.parametrize("dim,n,N", [(1, 128, 40), (2, 32, 60)])
    def test_hs_exact_is_the_lattice_sum(self, dim, n, N):
        spec = SeriesSpec(Grid(dim, n), FourierSystem(dim), Coloring.matern(0.6), N, 0.7, 2.0)
        idxs = spec.system.indices(N)
        mus = spec.coloring.weights(idxs)
        direct = math.fsum(mu**2 * (1 + 4 * np.pi**2 * sum(x * x for x in k)) ** -spec.s
                           for mu, k in zip(mus, idxs))
        assert hs_gamma_norm_exact(spec) ** 2 == pytest.approx(direct, rel=1e-14)


def _scatter_reference(spec, gam):
    """The axis-1 assignment ``coeffs[:, positions] = gam * mus``, shape (rows, n^d)."""
    grid = spec.grid
    idxs = spec.system.indices(spec.N)
    rows = np.array([grid.index_of_freq(k) for k in idxs])
    positions = np.ravel_multi_index(tuple(rows.T), grid.shape)
    coeffs = np.zeros((gam.shape[0], grid.n**grid.dim), dtype=complex)
    coeffs[:, positions] = gam * spec.coloring.weights(idxs)
    return coeffs


# the largest N per grid runs up to the Nyquist bin: the next mode would be -n/2
LATTICE_CASES = [(1, 256, 100), (1, 16, 15), (2, 32, 300), (2, 8, 45), (3, 8, 120), (3, 4, 27)]


class TestLatticePath:
    """A Fourier spec without g stays on the lattice at q = 2; it must give the
    values of the grid path: scatter, multiply by the symbol, Plancherel."""

    @staticmethod
    def grid_path_values(spec, M, seed):
        out = []
        for b in range(-(-M // MC_BLOCK)):
            rows = min(MC_BLOCK, M - b * MC_BLOCK)
            gam = standard_gaussians(stream(seed, b), (rows, spec.N), real=False)
            coeffs = _scatter_reference(spec, gam) * bessel_multiplier(spec.grid, -spec.s).ravel()
            out.append(np.sum(np.abs(coeffs) ** 2, axis=1) * spec.grid.length**spec.grid.dim)
        return np.concatenate(out)

    @pytest.mark.parametrize("dim,n,N", LATTICE_CASES)
    def test_values_match_the_grid_path(self, dim, n, N):
        spec = SeriesSpec(Grid(dim, n), FourierSystem(dim), Coloring.matern(0.6), N, 0.7, 2.0)
        one = mc_gamma_norm(spec, 300, seed=5, workers=1)
        ref = self.grid_path_values(spec, 300, 5)
        assert np.max(np.abs(one.values - ref) / ref) <= 1e-13
        two = mc_gamma_norm(spec, 300, seed=5, workers=2)
        assert one.values.tobytes() == two.values.tobytes()
        assert (one.mean, one.stderr, one.mean_norm) == (two.mean, two.stderr, two.mean_norm)

    @pytest.mark.parametrize("dim,n,N", LATTICE_CASES)
    def test_hs_exact_matches_the_stack_sum(self, dim, n, N):
        spec = SeriesSpec(Grid(dim, n), FourierSystem(dim), Coloring.power_law(0.4), N, 0.3, 2.0)
        got = hs_gamma_norm_exact(spec)
        assert "_terms" not in vars(spec)
        coeffs = term_values(spec) * bessel_multiplier(spec.grid, -spec.s)
        ref = math.sqrt(np.sum(np.abs(coeffs) ** 2) * spec.grid.length**spec.grid.dim)
        assert got == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("dim,n,N", [(1, 64, 40), (2, 16, 100), (3, 8, 120)])
    @pytest.mark.parametrize("rows", [1, 31, 32, 33, 256])
    def test_scatter_is_the_axis_one_assignment(self, dim, n, N, rows):
        spec = SeriesSpec(Grid(dim, n), FourierSystem(dim), Coloring.matern(0.6), N, 0.7, 2.0)
        gam = standard_gaussians(stream(29, rows), (rows, N), real=False)
        got = series_coeffs(spec, gam)
        assert got.shape == (rows,) + spec.grid.shape
        assert np.array_equal(got.reshape(rows, -1), _scatter_reference(spec, gam))


class TestMcGammaNorm:
    def test_matches_exact_q2(self, fourier_spec):
        est = mc_gamma_norm(fourier_spec, 2000, seed=42)
        exact_sq = hs_gamma_norm_exact(fourier_spec) ** 2
        assert abs(est.mean - exact_sq) <= 3 * est.stderr

    def test_zero_coloring(self):
        grid = Grid(1, 64)
        spec = SeriesSpec(grid, FourierSystem(1), Coloring.constant(0.0, 4), 4, 0.5, 2.0)
        est = mc_gamma_norm(spec, 50, seed=1)
        assert est.mean == 0.0 and est.stderr == 0.0

    def test_white_noise_growth_rate(self):
        # truncated identity below the threshold: mean grows like K^{1 - 2s}
        grid = Grid(1, 512)
        s = 0.3
        points = []
        for j, K in enumerate((16, 32, 64, 128)):
            N = 2 * K + 1
            spec = SeriesSpec(grid, FourierSystem(1), Coloring.constant(1.0, N), N, s, 2.0)
            est = mc_gamma_norm(spec, 600, seed=100 + j)
            points.append((K, est.mean))
        slope, _ = linfit(np.log([p[0] for p in points]), np.log([p[1] for p in points]))
        assert abs(slope - (1 - 2 * s)) < 0.15

    def test_needs_two_samples(self, fourier_spec):
        with pytest.raises(ValueError):
            mc_gamma_norm(fourier_spec, 1, seed=0)

    def test_worker_count_invariance(self, fourier_spec):
        a = mc_gamma_norm(fourier_spec, 300, seed=9, workers=1)
        b = mc_gamma_norm(fourier_spec, 300, seed=9, workers=3)
        assert a.mean == b.mean and a.stderr == b.stderr

    @pytest.mark.parametrize("system", [FourierSystem(1), HaarSystem(1, 0, 3)])
    def test_block_layout_fixes_every_sample(self, system):
        # 600 samples are 3 blocks; workers split blocks, and a shorter run
        # keeps the first rows of the same block streams
        spec = SeriesSpec(Grid(1, 64), system, Coloring.power_law(0.5), 15, 0.3, 2.0)
        assert -(-600 // MC_BLOCK) == 3
        one = mc_gamma_norm(spec, 600, seed=4, workers=1).values
        two = mc_gamma_norm(spec, 600, seed=4, workers=2).values
        assert np.array_equal(one, two)
        assert np.array_equal(one[:300], mc_gamma_norm(spec, 300, seed=4).values)

    def test_truncation_monotone_exact(self):
        grid = Grid(1, 256)
        vals = []
        for N in (8, 16, 32, 64):
            spec = SeriesSpec(grid, FourierSystem(1), Coloring.matern(0.2), N, 0.4, 2.0)
            vals.append(hs_gamma_norm_exact(spec))
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


class TestMomentIdentity:
    """``E ||X||_q^q = c_q ||S||_q^q`` for the series X and its square function S.

    At every quadrature point X is a centred Gaussian of variance S^2 --
    complex for Fourier, real for Haar and shifted bumps -- so on the
    oversampled grid the identity is exact, with c_q the q-th absolute
    moment of a unit Gaussian of that kind.  The Monte Carlo mean of
    ``values^(q/2)`` must meet it.
    """

    C_Q = {False: lambda q: math.gamma(1 + q / 2),
           True: lambda q: 2 ** (q / 2) * math.gamma((q + 1) / 2) / math.sqrt(math.pi)}

    @pytest.mark.parametrize("kind,with_g,q", [
        ("fourier", True, 3.0), ("fourier", True, 4.0), ("fourier", False, 4.0),
        ("haar", True, 3.0), ("haar", True, 4.0),
        ("shifted", False, 3.0), ("shifted", False, 4.0)])
    def test_mean_qth_power_matches_square_function(self, kind, with_g, q):
        if kind == "shifted":
            # translates by 1 <= |k| <= 4 need a box of length 2 * 4 + 2
            grid, system, N = Grid(1, 128, 10.0), ShiftedBumpSystem(1, 4), 8
        else:
            grid, N = Grid(1, 64), 15
            system = FourierSystem(1) if kind == "fourier" else HaarSystem(1, 0, 3)
        g = forward_transform(grid, bump_values(grid.coords(), 0.5, 0.5)) if with_g else None
        spec = SeriesSpec(grid, system, Coloring.power_law(0.5), N, 0.3, q, g=g)
        powers = mc_gamma_norm(spec, 16_000, seed=23).values ** (q / 2)
        target = self.C_Q[system.real](q) * sq_function_gamma_norm(spec) ** q
        z = (powers.mean() - target) / (powers.std(ddof=1) / math.sqrt(powers.size))
        assert abs(z) <= 4.0

    def test_values_are_the_read_only_squared_norms(self, fourier_spec):
        est = mc_gamma_norm(fourier_spec, 50, seed=2)
        assert est.values.shape == (50,) and math.fsum(est.values) / 50 == est.mean
        with pytest.raises(ValueError):
            est.values[0] = 0.0


class TestSqFunction:
    def test_q2_equals_exact(self, fourier_spec):
        sq = sq_function_gamma_norm(fourier_spec)
        assert sq == pytest.approx(hs_gamma_norm_exact(fourier_spec), rel=1e-10)

    def test_single_term_is_field_norm(self):
        grid = Grid(1, 128)
        spec = SeriesSpec(grid, FourierSystem(1), Coloring.constant(0.8, 1), 1, 0.7, 4.0)
        got = sq_function_gamma_norm(spec)
        ref = hsq_norm(0.8 * mode_field(grid, 0), -0.7, 4.0)
        assert got == pytest.approx(ref, rel=1e-10)

    def test_q4_constant_stable_against_mc(self):
        # the q-dependent equivalence constant must be stable across N
        from gammanoise.experiments import block_field
        from gammanoise.systems import frequency_block

        class BlockModes:
            evaluable, real = True, False

            def __init__(self, ks):
                self.ks = ks

            def indices(self, count):
                return self.ks[:count]

            def sup_norm(self, idx):
                return 1.0

            def render(self, idx, grid):
                return mode_field(grid, idx)

        ratios = []
        for N in (3, 4, 5):
            grid = Grid(1, 2 ** (N + 3))
            ks = frequency_block(N, 1)
            g = block_field(grid, N)
            spec = SeriesSpec(grid, BlockModes(ks), Coloring.constant(1.0, len(ks)),
                              len(ks), 0.7, 4.0, g=g)
            sq = sq_function_gamma_norm(spec)
            est = mc_gamma_norm(spec, 400, seed=50 + N)
            ratios.append(est.mean / sq**2)
            # the estimate sits inside its own 3-sigma band of c * sq^2
            assert abs(est.mean - ratios[-1] * sq**2) <= 3 * est.stderr
        assert max(ratios) / min(ratios) < 1.3

    def test_mod_g_invariance_without_smoothing(self):
        # at s = 0 only |g| enters the square function, an exact identity on
        # the sampling grid; with smoothing the phase of g interacts with the
        # multiplier and the identity genuinely fails
        grid = Grid(1, 128)
        gen = stream(11, 0)
        gv = gen.standard_normal(128) + 1j * gen.standard_normal(128)
        g_plain = forward_transform(grid, gv)
        g_abs = forward_transform(grid, np.abs(gv))
        mk = lambda g: SeriesSpec(grid, FourierSystem(1), Coloring.power_law(0.4),
                                  16, 0.0, 4.0, g=g)
        assert sq_function_gamma_norm(mk(g_plain), oversample=1) == pytest.approx(
            sq_function_gamma_norm(mk(g_abs), oversample=1), rel=1e-10)


class TestHsExact:
    def test_pure_fourier_lattice_sum(self):
        grid = Grid(1, 256)
        N, s = 21, 0.6
        spec = SeriesSpec(grid, FourierSystem(1), Coloring.constant(1.0, N), N, s, 2.0)
        idxs = spec.system.indices(N)
        direct = sum((1 + 4 * np.pi**2 * k[0] ** 2) ** -s for k in idxs)
        assert hs_gamma_norm_exact(spec) ** 2 == pytest.approx(direct, rel=1e-12)

    def test_single_mode_g_shifts_frequencies(self):
        grid = Grid(1, 256)
        N, s, m = 9, 0.7, 3
        g = mode_field(grid, m)
        spec = SeriesSpec(grid, FourierSystem(1), Coloring.power_law(0.5), N, s, 2.0, g=g)
        idxs = spec.system.indices(N)
        direct = sum((n + 1) ** -1.0 * (1 + 4 * np.pi**2 * (k[0] + m) ** 2) ** -s
                     for n, k in enumerate(idxs))
        assert hs_gamma_norm_exact(spec) ** 2 == pytest.approx(direct, rel=1e-10)

    def test_rank_one(self):
        grid = Grid(1, 256)
        gen = stream(12, 0)
        g = forward_transform(grid, gen.standard_normal(256))
        spec = SeriesSpec(grid, FourierSystem(1), Coloring.explicit([0.6]), 1, 0.5, 2.0, g=g)
        gh = forward_transform(grid, g.values() * mode_field(grid, 0).values())
        ref = 0.6 * hsq_norm(gh, -0.5, 2.0)
        assert hs_gamma_norm_exact(spec) == pytest.approx(ref, rel=1e-10)

    def test_requires_q2(self, fourier_spec):
        spec = SeriesSpec(fourier_spec.grid, fourier_spec.system,
                          fourier_spec.coloring, 8, 0.6, 4.0)
        with pytest.raises(ValueError):
            hs_gamma_norm_exact(spec)


class TestClassifyGrowth:
    def test_constant_sequence(self):
        rep = classify_growth([(2**j, 5.0) for j in range(4, 10)])
        assert rep.label == "convergent"

    def test_power_law_slope(self):
        rep = classify_growth([(2**j, (2**j) ** 0.3) for j in range(4, 12)])
        assert rep.label == "divergent"
        assert rep.slope == pytest.approx(0.3, abs=0.02)

    def test_sqrt_log_flagged(self):
        ns = [2**j for j in range(15, 23)]
        rep = classify_growth([(n, math.sqrt(math.log(n))) for n in ns])
        assert rep.label == "log_divergent"

    def test_geometric_saturation(self):
        rep = classify_growth([(2**j, 3.0 - 2.0**-j) for j in range(2, 9)])
        assert rep.label == "convergent"

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            classify_growth([(2, 1.0), (4, 2.0), (8, 3.0)])
