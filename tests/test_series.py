import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from gammanoise import series
from gammanoise.grid import (Grid, Scratch, SpectralField, constant_field, forward_transform,
                             mode_field)
from gammanoise.norms import bessel_multiplier, hsq_norm, lq_norm
from gammanoise.rng import standard_gaussians, stream
from gammanoise.fit import classify_growth, linfit
from gammanoise.series import (MC_BLOCK, SeriesSpec, _lattice_lq_norms, hs_gamma_norm_exact,
                               mc_gamma_norm, render_terms, series_coeffs,
                               sq_function_gamma_norm, term_values)
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
        mus = spec.coloring.weights(idxs)
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
        for q in (2.0, 4.0):
            mk = lambda: SeriesSpec(grid, FourierSystem(1), Coloring.matern(0.5), 100, 0.5, q)
            with pytest.raises(ValueError) as dense:
                term_values(mk())
            with pytest.raises(ValueError) as mc:
                mc_gamma_norm(mk(), 4, seed=0)
            assert str(mc.value) == str(dense.value) \
                == "frequency -32 outside (-n/2, n/2] for n=64"


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

    def test_multiplier_is_transformed_once_per_spec(self, monkeypatch):
        # the 1,000 samples are 4 Monte Carlo blocks; each used to take g to the grid again
        grid = Grid(1, 64)
        spec = SeriesSpec(grid, FourierSystem(1), Coloring.matern(0.5), 16, 0.5, 2.0,
                          g=_random_g(grid, 3))
        calls = []
        values = SpectralField.values
        monkeypatch.setattr(SpectralField, "values", lambda f: calls.append(f) or values(f))
        mc_gamma_norm(spec, 1000, seed=2)
        assert len(calls) == 1
        with pytest.raises(ValueError):
            spec._g_values[0] = 0.0

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


# (dim, n, N, q, oversample, workers, coloring, M)
EVEN_Q_CASES = [
    (1, 64, 16, 4.0, 4, 1, "matern", 40),
    (1, 64, 16, 4.0, 1, 1, "matern", 40),
    (1, 64, 16, 4.0, 2, 2, "power_law", 40),
    (1, 64, 63, 4.0, 1, 1, "matern", 40),      # inexact base size: the rule runs on m = n
    (2, 32, 200, 6.0, 4, 1, "matern", 40),
    (2, 32, 200, 6.0, 2, 2, "power_law", 40),
    (3, 16, 100, 4.0, 4, 1, "matern", 40),
    (2, 64, 2048, 4.0, 3, 1, "matern", 40),
    # chunks of 60 rows on 540-point axes: the blocks of 256 and 44 rows are no multiple of 60
    (1, 1024, 256, 4.0, 4, 1, "matern", 300),
]


class TestEvenQLatticePath:
    """At even q a Fourier spec without g goes from the lattice into the quadrature;
    it must give the bits of the grid path: the sample's coefficients, the
    symbol, one ``lq_norm`` per sample."""

    @staticmethod
    def grid_path_values(spec, M, seed, oversample):
        mult = bessel_multiplier(spec.grid, -spec.s)
        norms = []
        for b in range(-(-M // MC_BLOCK)):
            rows = min(MC_BLOCK, M - b * MC_BLOCK)
            coeffs = series_coeffs(spec, standard_gaussians(stream(seed, b), (rows, spec.N),
                                                            real=spec.system.real))
            coeffs *= mult
            norms.extend(lq_norm(SpectralField(spec.grid, c), spec.q, oversample=oversample)
                         for c in coeffs)
        return np.array(norms) ** 2

    @pytest.mark.parametrize("dim,n,N,q,oversample,workers,coloring,M", EVEN_Q_CASES)
    def test_values_match_the_grid_path(self, dim, n, N, q, oversample, workers, coloring, M):
        col = Coloring.matern(0.6) if coloring == "matern" else Coloring.power_law(0.7)
        spec = SeriesSpec(Grid(dim, n), FourierSystem(dim), col, N, 0.4, q)
        got = mc_gamma_norm(spec, M, seed=13, workers=workers, oversample=oversample)
        assert np.array_equal(got.values, self.grid_path_values(spec, M, 13, oversample))

    def test_rows_of_different_bands(self):
        # a row whose amplitudes vanish beyond some |k| runs on its own, smaller rule
        spec = SeriesSpec(Grid(2, 32), FourierSystem(2), Coloring.matern(0.6), 200, 0.4, 4.0)
        _, kmax = spec._lattice_modes
        amps = standard_gaussians(stream(3, 0), (6, spec.N), real=False)
        amps[1, kmax > 3] = 0
        amps[2, kmax > 0] = 0
        amps[3] = 0
        amps[4, 5] = 0      # a zero inside the band changes nothing
        coeffs = np.zeros((6, spec.grid.n**2), dtype=complex)
        coeffs[:, spec._lattice[0]] = amps
        want = [lq_norm(SpectralField(spec.grid, c.reshape(spec.grid.shape)), 4.0, oversample=3)
                for c in coeffs]
        assert np.array_equal(_lattice_lq_norms(spec, amps, 3, Scratch()), want)


def _random_g(grid, seed, complex_g=False):
    """A random field on ``grid``: real samples, or a complex field when ``complex_g``."""
    gen = stream(seed, 0)
    if not complex_g:
        return forward_transform(grid, gen.standard_normal(grid.shape))
    return SpectralField(grid, gen.standard_normal(grid.shape) + 1j * gen.standard_normal(grid.shape))


class TestOffLatticePath:
    """With g, or for Haar and bump systems, a q = 2 sample's squared norm is
    ``|c|^2 @ (L^d m^2)`` over its coefficients c; it must give the values of
    multiplying by the symbol and summing by Plancherel.  A Fourier spec with g
    gets its Hilbert-Schmidt value from one lattice correlation, not a stack."""

    @staticmethod
    def plancherel_values(spec, M, seed):
        grid = spec.grid
        out = []
        for b in range(-(-M // MC_BLOCK)):
            rows = min(MC_BLOCK, M - b * MC_BLOCK)
            gam = standard_gaussians(stream(seed, b), (rows, spec.N), real=spec.system.real)
            coeffs = series_coeffs(spec, gam) * bessel_multiplier(grid, -spec.s)
            axes = tuple(range(1, grid.dim + 1))
            out.append(np.sum(np.abs(coeffs) ** 2, axis=axes) * grid.length**grid.dim)
        return np.concatenate(out)

    @pytest.mark.parametrize("kind,dim,with_g", [
        ("fourier", 1, True), ("fourier", 2, True), ("fourier", 3, True),
        ("haar", 1, False), ("haar", 1, True), ("haar", 2, True), ("shifted", 1, False)])
    def test_values_match_the_plancherel_sum(self, kind, dim, with_g):
        if kind == "shifted":
            grid, system, N = Grid(1, 128, 10.0), ShiftedBumpSystem(1, 4), 8
        elif kind == "haar":
            grid, system, N = Grid(dim, 64 if dim == 1 else 16), HaarSystem(dim, 0, 3), 15
        else:
            grid, system, N = Grid(dim, {1: 256, 2: 32, 3: 8}[dim]), FourierSystem(dim), 40
        g = _random_g(grid, 11) if with_g else None
        spec = SeriesSpec(grid, system, Coloring.power_law(0.5), N, 0.4, 2.0, g=g)
        one = mc_gamma_norm(spec, 300, seed=6, workers=1)
        ref = self.plancherel_values(spec, 300, 6)
        assert np.max(np.abs(one.values - ref) / ref) <= 1e-13
        two = mc_gamma_norm(spec, 300, seed=6, workers=2)
        assert one.values.tobytes() == two.values.tobytes()

    @pytest.mark.parametrize("complex_g", [False, True], ids=["real_g", "complex_g"])
    @pytest.mark.parametrize("dim,n,N", LATTICE_CASES)
    def test_hs_exact_with_g_matches_the_stack_sum(self, dim, n, N, complex_g):
        grid = Grid(dim, n)
        spec = SeriesSpec(grid, FourierSystem(dim), Coloring.matern(0.6), N, 0.7, 2.0,
                          g=_random_g(grid, 12, complex_g))
        got = hs_gamma_norm_exact(spec)
        assert "_terms" not in vars(spec)
        coeffs = term_values(spec) * bessel_multiplier(grid, -spec.s)
        ref = math.sqrt(np.sum(np.abs(coeffs) ** 2) * grid.length**grid.dim)
        assert got == pytest.approx(ref, rel=1e-14)


    @pytest.mark.parametrize("dim,n,N,level", [(1, 256, 255, 6), (2, 32, 600, 3)])
    def test_hs_exact_keeps_small_terms_relatively_exact(self, dim, n, N, level):
        # s = 4 and a high frequency block put every term where m^2 is below
        # 1e-20 of its peak; a transform-based correlation's absolute rounding
        # error swamps such terms, and can even make the sum negative
        grid = Grid(dim, n)
        spec = SeriesSpec(grid, FourierSystem(dim), Coloring.block_indicator(level), N, 4.0, 2.0,
                          g=constant_field(grid, 1.7))
        coeffs = term_values(spec) * bessel_multiplier(grid, -spec.s)
        ref = math.sqrt(math.fsum((np.abs(coeffs) ** 2).ravel()) * grid.length**grid.dim)
        assert hs_gamma_norm_exact(spec) == pytest.approx(ref, rel=1e-14)

    def test_hs_exact_with_a_bump_g_matches_the_definition(self):
        # c(k_n) = sum_j m_j^2 |g^_{j - k_n}|^2 summed term by term; a smooth g's
        # spectrum spans many decades, so the terms do too
        grid, s, N = Grid(1, 256), 4.0, 255
        x = grid.coords()[0]
        g = forward_transform(grid, np.exp(-((x - 0.5) / 0.1) ** 2))
        system, coloring = FourierSystem(1), Coloring.block_indicator(6)
        spec = SeriesSpec(grid, system, coloring, N, s, 2.0, g=g)
        m_sq = bessel_multiplier(grid, -s) ** 2
        g_sq = np.abs(g.coeffs) ** 2
        idxs = system.indices(N)
        total = math.fsum(coloring.weights(idxs)[i] ** 2
                          * math.fsum(m_sq * np.roll(g_sq, grid.index_of_freq(k)[0]))
                          for i, k in enumerate(idxs))
        ref = math.sqrt(grid.length * total)
        assert hs_gamma_norm_exact(spec) == pytest.approx(ref, rel=1e-14)


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

    def test_grid_path_needs_q_above_one(self):
        # the lattice paths need q = 2 or an even q; others smooth through hsq_norms
        spec = SeriesSpec(Grid(1, 64), HaarSystem(1, 0, 3), Coloring.haar(0.5, 1.0, 1), 15,
                          0.5, 1.0)
        with pytest.raises(ValueError, match="q must lie in"):
            mc_gamma_norm(spec, 4, seed=1)

    def test_needs_two_samples(self, fourier_spec):
        with pytest.raises(ValueError):
            mc_gamma_norm(fourier_spec, 1, seed=0)

    def test_workers_invariance(self, fourier_spec):
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

    @pytest.mark.parametrize("branch", ["fourier_1d", "fourier_g", "haar_q2", "haar_q4",
                                        "fourier_2d"])
    def test_first_whole_groups_of_four_samples_fixed(self, branch):
        # BLAS forms a product in 4-row groups, so a block cut short keeps the
        # bits of its first 4 floor(rows / 4) rows; the rows after may move
        grid = Grid(1, 256)
        haar = SeriesSpec(Grid(1, 64), HaarSystem(1, 0, 3), Coloring.power_law(0.5), 15, 0.3, 2.0)
        spec = {"fourier_1d": SeriesSpec(grid, FourierSystem(1), Coloring.matern(0.5), 128, 0.6,
                                         2.0),
                "fourier_g": SeriesSpec(grid, FourierSystem(1), Coloring.matern(0.5), 128, 0.6,
                                        2.0, g=_random_g(grid, 5)),
                "haar_q2": haar, "haar_q4": dataclasses.replace(haar, q=4.0),
                "fourier_2d": SeriesSpec(Grid(2, 32), FourierSystem(2), Coloring.matern(0.6), 200,
                                         0.4, 2.0)}[branch]
        whole = mc_gamma_norm(spec, 1100, seed=1).values
        for M in (2, 3, 5, 6, 7, 9, 14, 19, 257, 258, 262, 267, 513, 777, 1027):
            head = 4 * (M // 4)
            assert np.array_equal(mc_gamma_norm(spec, M, seed=1).values[:head], whole[:head]), M

    @staticmethod
    def chunked_spec(branch):
        """A spec on each path of ``mc_gamma_norm`` whose blocks go in chunks of 8-32 rows."""
        if branch == "haar":
            return SeriesSpec(Grid(2, 32), HaarSystem(2, 0, 3), Coloring.haar(0.5, 1.5, 2), 255,
                              0.3, 2.0)
        grid = Grid(2, 64)
        g = _random_g(grid, 8) if branch.startswith("g") else None
        q = {"lattice_q4": 4.0, "lattice_q2": 2.0, "g_q2": 2.0, "g_q3": 3.0}[branch]
        return SeriesSpec(grid, FourierSystem(2), Coloring.matern(0.6), 2048, 0.4, q, g=g)

    @pytest.mark.parametrize("branch", ["lattice_q4", "lattice_q2", "g_q2", "g_q3", "haar"])
    def test_chunks_keep_the_whole_block_bits(self, branch, monkeypatch):
        # BLAS forms products in 4-row groups and takes a one-row product through
        # another kernel; 37 and 33 rows leave a short and a one-row last chunk
        spec = self.chunked_spec(branch)
        ragged = [2 * MC_BLOCK + 37, MC_BLOCK + 1, MC_BLOCK + 33]
        got = {(M, w): mc_gamma_norm(spec, M, seed=6, workers=w, oversample=2).values
               for M in ragged for w in (1, 2)}
        draws = []
        monkeypatch.setattr(series, "standard_gaussians",
                            lambda gen, shape, *a, **k: draws.append(shape[0])
                            or standard_gaussians(gen, shape, *a, **k))
        monkeypatch.setattr(series, "QUADRATURE_CELLS", 2**40)     # one chunk per block
        for M in ragged:
            draws.clear()
            whole = mc_gamma_norm(spec, M, seed=6, oversample=2).values
            assert draws == [min(MC_BLOCK, M - lo) for lo in range(0, M, MC_BLOCK)]
            for w in (1, 2):
                assert np.array_equal(got[M, w], whole), (M, w)

    @pytest.mark.parametrize("branch", ["lattice_q4", "lattice_q2", "g_q2", "g_q3"])
    def test_memory_flat_in_the_grid(self, branch):
        # a block drawn and measured whole holds (256, N) draws and a (256, n^d)
        # stack at once: 9 to 32 MB here
        spec = self.chunked_spec(branch)
        mc_gamma_norm(spec, 2, seed=1)      # the spec's cached lattice and g values
        tracemalloc.start()
        try:
            mc_gamma_norm(spec, 512, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2**20, peak

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
        ref = hsq_norm(SpectralField(grid, 0.8 * mode_field(grid, 0).coeffs), -0.7, 4.0)
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

    @pytest.mark.parametrize("case", ["haar", "haar_g", "haar_2d_g", "shifted"])
    def test_non_fourier_is_the_member_sum(self, case):
        # the stack branch against each member rendered, multiplied by g on the
        # grid, transformed, weighted and smoothed on its own, then summed by Plancherel
        if case == "shifted":
            grid, system, N = Grid(1, 64, 16.0), ShiftedBumpSystem(1, 4), 8
            coloring = Coloring.power_law(0.5)
        else:
            dim = 2 if case == "haar_2d_g" else 1
            grid, system, N = Grid(dim, 64 if dim == 1 else 16), HaarSystem(dim, 0, 3), 15
            coloring = Coloring.haar(0.5, 1.5, dim)
        g = None
        if case.endswith("_g"):
            g = forward_transform(grid, bump_values(grid.coords(), grid.length / 2.0,
                                                    grid.length / 2.0))
        s = 0.5
        spec = SeriesSpec(grid, system, coloring, N, s, 2.0, g=g)
        g_values = 1.0 if g is None else g.values()
        idxs = system.indices(N)
        members = []
        for mu, idx in zip(coloring.weights(idxs), idxs):
            c = forward_transform(grid, system.render(idx, grid).values() * g_values).coeffs
            members.append(math.fsum((np.abs(c * mu * bessel_multiplier(grid, -s)) ** 2).ravel()))
        got = hs_gamma_norm_exact(spec)
        assert got == pytest.approx(math.sqrt(grid.length**grid.dim * math.fsum(members)),
                                    rel=1e-12)
        est = mc_gamma_norm(spec, 2000, seed=23)
        assert abs(est.mean - got**2) <= 4 * est.stderr
        # the square function's interpolant splits the Nyquist coefficient, which
        # moves it off this value where g is set or the members are shifted bumps
        if case == "haar":
            assert sq_function_gamma_norm(spec) == pytest.approx(got, rel=1e-12)

    def test_requires_q2(self, fourier_spec):
        spec = SeriesSpec(fourier_spec.grid, fourier_spec.system,
                          fourier_spec.coloring, 8, 0.6, 4.0)
        with pytest.raises(ValueError):
            hs_gamma_norm_exact(spec)


class TestClassifyGrowth:
    def test_constant_sequence(self):
        rep = classify_growth([(2**j, 5.0) for j in range(4, 10)])
        assert rep.label == "bounded"

    def test_power_law_slope(self):
        rep = classify_growth([(2**j, (2**j) ** 0.3) for j in range(4, 12)])
        assert rep.label == "divergent"
        assert rep.slope == pytest.approx(0.3, abs=0.02)

    def test_sqrt_log_flagged(self):
        ns = [2**j for j in range(15, 23)]
        rep = classify_growth([(n, math.sqrt(math.log(n))) for n in ns])
        assert rep.label == "log-divergent"

    def test_geometric_saturation(self):
        rep = classify_growth([(2**j, 3.0 - 2.0**-j) for j in range(2, 9)])
        assert rep.label == "bounded"

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            classify_growth([(2, 1.0), (4, 2.0), (8, 3.0)])
