from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammanoise.grid import (Grid, SpectralField, constant_field, forward_coeffs,
                             forward_transform, mode_field, spectral_band, upsampled_values)
from gammanoise.norms import (_smooth_above, bessel_kernel, bessel_multiplier, hsq_norm,
                              hsq_norms, lq_norm, lq_norms, sq_function_from_terms, weak_lp_norm)
from gammanoise import norms
from gammanoise.experiments import dirichlet_field
from gammanoise.rng import standard_gaussians, stream
from gammanoise.series import SeriesSpec, series_coeffs
from gammanoise.systems import Coloring, FourierSystem

from conftest import field_values

# independent fine-quadrature value of ||D_8||_{L^4}, from the closed form
# sin(17 pi x)/sin(pi x) on 2^20 midpoints (stable to 8e-15 under refinement)
D8_L4_ORACLE = 7.568356094058767


class TestLqNorm:
    def test_zero(self, grid1d):
        assert lq_norm(constant_field(grid1d, 0.0), 3.0) == 0.0

    def test_constant(self):
        g = Grid(1, 64, 2.0)
        assert lq_norm(constant_field(g, -1.5), 3.0) == pytest.approx(1.5 * 2.0 ** (1 / 3.0))

    def test_dirichlet_q4_oracle(self):
        f = dirichlet_field(Grid(1, 1024), 8)
        assert lq_norm(f, 4.0) == pytest.approx(D8_L4_ORACLE, rel=1e-6)

    def test_q_validation(self, grid1d):
        with pytest.raises(ValueError):
            lq_norm(constant_field(grid1d, 0.0), 0.5)

    def test_plancherel_exact_for_q2(self, grid1d, rng):
        v = rng.standard_normal(grid1d.n)
        f = forward_transform(grid1d, v)
        assert lq_norm(f, 2.0) == pytest.approx(np.sqrt(np.mean(v**2)), rel=1e-12)

    @pytest.mark.parametrize("q", [2.0, 3.0, 4.0])
    def test_batch_matches_per_field(self, rng, q):
        grid = Grid(2, 16, 2.0)
        fields = [forward_transform(grid, rng.standard_normal(grid.shape)) for _ in range(3)]
        got = lq_norms(grid, np.stack([f.coeffs for f in fields]), q, oversample=2)
        want = [lq_norm(f, q, oversample=2) for f in fields]
        assert got.shape == (3,)
        assert got == pytest.approx(want, rel=1e-14)


    @pytest.mark.parametrize("q", [3.0, 4.0, 6.0])
    @pytest.mark.parametrize("real", [False, True])
    def test_batch_of_mixed_bands_matches_per_field(self, q, real):
        # rows of one band share a rule and a chunk; 70 full-band rows take two chunks
        grid = Grid(1, 256, 1.5)
        gen = stream(17, 0)
        k = np.abs(grid.freq_axis())
        bands = gen.permutation([128] * 70 + [5] * 40 + [0] * 3 + [2] * 17)
        stack = np.where(k <= bands[:, None], gen.standard_normal((bands.size, grid.n))
                         + 1j * gen.standard_normal((bands.size, grid.n)), 0)
        stack[7] = 0
        if real:
            stack = np.stack([_hermitian_part(c) for c in stack])
        got = lq_norms(grid, stack, q, 3)
        assert np.array_equal(got, [lq_norm(SpectralField(grid, c), q, oversample=3)
                                    for c in stack])
        if real:
            # a field flagged real is measured through the real part of its values
            flagged = [lq_norm(SpectralField(grid, c, real=True), q, oversample=3) for c in stack]
            assert got == pytest.approx(flagged, rel=1e-13)

    def test_hsq_norm_reads_one_symbol_per_grid_and_order(self, monkeypatch):
        grid = Grid(1, 64, 1.25)
        f = forward_transform(grid, stream(2, 0).standard_normal(grid.shape))
        want = lq_norm(SpectralField(grid, f.coeffs * bessel_multiplier(grid, -0.3125), real=True),
                       4.0)
        calls = []
        monkeypatch.setattr(norms, "bessel_multiplier",
                            lambda *a: calls.append(a) or bessel_multiplier(*a))
        assert [hsq_norm(f, -0.3125, 4.0) for _ in range(3)] == [want] * 3
        assert len(calls) <= 1
        # the public symbol is still a fresh array of its own
        assert bessel_multiplier(grid, -0.3125).flags.writeable


def _rectangle_rule(values, grid, m, q):
    cell = (grid.length / m) ** grid.dim
    return (np.sum(values) * cell) ** (1.0 / q)


def _sq_function_at(grid, terms, s, q, m):
    """Square-function norm of ``terms`` on ``m`` points per axis, from the whole spectrum."""
    mult = bessel_multiplier(grid, -s)
    acc = sum(np.abs(upsampled_values((c * mult)[None], m, grid.n // 2)[0]) ** 2
              for c in terms)
    return _rectangle_rule(acc ** (q / 2.0), grid, m, q)


class TestQuadratureFactor:
    """At even q the rule is exact from factor q/2 + 1 on; other q keep the user's factor."""

    GRIDS = [Grid(1, 32), Grid(2, 16, 2.0)]

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("q", [4.0, 6.0])
    def test_even_q_exact_at_factor_q_half_plus_one(self, rng, grid, q):
        # random coefficients on the whole lattice, so the Nyquist bins are set
        f = SpectralField(grid, rng.standard_normal(grid.shape)
                          + 1j * rng.standard_normal(grid.shape))
        exact = int(q) // 2 + 1
        fine = _rectangle_rule(np.abs(field_values(f, 8 * grid.n)) ** q, grid, 8 * grid.n, q)
        assert lq_norm(f, q, oversample=exact) == pytest.approx(fine, rel=1e-13)
        assert lq_norm(f, q, oversample=8) == lq_norm(f, q, oversample=exact)
        # one factor less is not exact, so the rule is not looser than it needs
        m = (exact - 1) * grid.n
        coarse = _rectangle_rule(np.abs(field_values(f, m)) ** q, grid, m, q)
        assert abs(coarse / fine - 1.0) > 1e-12

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("q", [4.0, 6.0])
    def test_even_q_square_function_exact(self, rng, grid, q):
        # coefficients of real terms, with every Nyquist bin set
        terms = np.stack([forward_transform(grid, rng.standard_normal(grid.shape)).coeffs
                          for _ in range(5)])
        assert np.all(terms[(slice(None),) + (grid.n // 2,) * grid.dim] != 0)
        exact = int(q) // 2 + 1
        got = sq_function_from_terms(grid, terms, 0.4, q, oversample=exact)
        assert got == pytest.approx(_sq_function_at(grid, terms, 0.4, q, 8 * grid.n), rel=1e-13)
        assert sq_function_from_terms(grid, terms, 0.4, q, oversample=8) == got

    @pytest.mark.parametrize("q,factor", [(3.0, 4), (3.0, 2), (4.0, 2)])
    def test_user_factor_kept_below_exactness(self, rng, q, factor):
        grid = Grid(2, 16, 2.0)
        f = forward_transform(grid, rng.standard_normal(grid.shape))
        m = factor * grid.n
        v = field_values(f, m)
        # at even q the power is taken from re^2 + im^2, without a square root
        powers = np.abs(v) ** q if q == 3.0 else (v * v) ** (q / 2)
        assert lq_norm(f, q, oversample=factor) == float(_rectangle_rule(powers, grid, m, q))

    def test_q4_transforms_only_the_exact_grid(self, rng, monkeypatch):
        # |f|^4 of a full-band 64 x 64 field has degree 4 * 32 = 128 per axis: only
        # 135-point axes (3^3 * 5) are transformed, where factor 3 would take 192
        grid = Grid(2, 64)
        f = SpectralField(grid, rng.standard_normal(grid.shape) + 0j)
        seen = []
        full_ifftn = np.fft.ifftn

        def counting_ifftn(a, *args, axes=None, **kwargs):
            transformed = range(a.ndim) if axes is None else axes
            seen.append((a.shape, tuple(a.shape[ax] for ax in transformed)))
            return full_ifftn(a, *args, axes=axes, **kwargs)

        monkeypatch.setattr(np.fft, "ifftn", counting_ifftn)
        lq_norm(f, 4.0, oversample=4)
        assert seen == [((1, 64, 135), (135,)), ((1, 135, 135), (135,))]
        # the 2048-term 2-d Fourier series has band 25, so degree 100: 108-point axes
        # (2^2 * 3^3), transformed from the 51 x 51 band alone
        spec = SeriesSpec(grid, FourierSystem(2), Coloring.matern(0.5), 2048, 0.5, 4.0)
        sample = series_coeffs(spec, standard_gaussians(stream(5, 0), (1, spec.N),
                                                         spec.system.real))[0]
        seen.clear()
        lq_norm(SpectralField(grid, sample), 4.0, oversample=4)
        assert seen == [((1, 51, 108), (108,)), ((1, 108, 108), (108,))]


def _hermitian_part(c):
    """``(c_k + conj(c_{-k})) / 2``, the spectrum of the real part."""
    flipped = c
    for ax in range(c.ndim):
        flipped = np.roll(np.flip(flipped, axis=ax), 1, axis=ax)
    return (c + np.conj(flipped)) / 2.0


MAX_LOG_N = {1: 5, 2: 4, 3: 3}


class TestBandRule:
    """At even q the rule runs on the least 5-smooth size above q B, if below factor * n."""

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 3), st.sampled_from([4.0, 6.0, 8.0]), st.booleans(),
           st.integers(1, 5), st.sampled_from([0.0, 1.0]), st.integers(0, 10**6))
    def test_exact_wherever_the_factor_rule_is(self, data, dim, q, real, oversample, scale, seed):
        n = 2 ** data.draw(st.integers(1, MAX_LOG_N[dim]))
        band = data.draw(st.integers(0, n // 2))
        grid = Grid(dim, n, 1.5)
        gen = stream(seed, 0)
        inside = np.flatnonzero(np.abs(grid.freq_axis()) <= band)
        terms = np.zeros((3,) + grid.shape, dtype=np.complex128)
        cube = (slice(None),) + np.ix_(*(inside,) * dim)
        terms[cube] = scale * (gen.standard_normal(terms[cube].shape)
                               + 1j * gen.standard_normal(terms[cube].shape))
        if real:
            terms = np.stack([_hermitian_part(c) for c in terms])
        f = SpectralField(grid, terms[0], real=real)
        # every coefficient at |k| = band is set, the Nyquist bin counting as n/2
        want_band = band if scale else 0
        assert spectral_band(grid, f.coeffs) == spectral_band(grid, terms) == want_band

        base = min(oversample, int(q) // 2 + 1) * n
        dense = (int(q) // 2 + 1) * n
        for norm, reference in (
                (lambda: lq_norm(f, q, oversample=oversample),
                 lambda: _rectangle_rule(np.abs(field_values(f, dense, n // 2)) ** q,
                                         grid, dense, q)),
                (lambda: sq_function_from_terms(grid, terms, 0.4, q, oversample=oversample),
                 lambda: _sq_function_at(grid, terms, 0.4, q, dense))):
            with mock.patch("gammanoise.norms.upsampled_values",
                            side_effect=upsampled_values) as spy:
                got = norm()
            (m,) = {call.args[1] for call in spy.call_args_list}
            assert m <= base
            if base > q * want_band:
                assert m > q * want_band
                assert got == pytest.approx(reference(), rel=1e-13, abs=0.0)
            else:
                assert m == base

    def test_nyquist_mode_keeps_the_full_band(self):
        grid = Grid(2, 8)
        f = mode_field(grid, (4, 0))
        assert spectral_band(grid, f.coeffs) == 4
        # the split Nyquist bin interpolates as cos(8 pi x), and the rule runs on the
        # 5-smooth size above 4 * 4, not on 8 * 3
        with mock.patch("gammanoise.norms.upsampled_values", side_effect=upsampled_values) as spy:
            assert lq_norm(f, 4.0) == pytest.approx((3 / 8) ** 0.25, rel=1e-14)
        assert spy.call_args.args[1:] == (18, 4)

    def test_smooth_sizes(self):
        assert [_smooth_above(x) for x in (0, 1, 7, 100, 128, 243)] == [1, 2, 8, 108, 135, 250]


class TestWeakLp:
    def test_indicator(self):
        g = Grid(1, 64)
        vals = np.zeros(64)
        vals[:16] = 1.0  # measure 1/4
        f = forward_transform(g, vals)
        assert weak_lp_norm(f, 2.0) == pytest.approx(0.25**0.5, rel=1e-12)

    def test_zero(self, grid1d):
        assert weak_lp_norm(constant_field(grid1d, 0.0), 1.5) == 0.0

    def test_bessel_kernel_stability(self):
        # the kernel lies in weak-L^r at r = d/(d-s): stable under refinement
        s, r = 0.75, 4.0
        vals = [weak_lp_norm(bessel_kernel(Grid(1, n), s), r) for n in (1024, 4096)]
        assert max(vals) / min(vals) < 2.0

    def test_dominated_by_strong_norm(self, grid1d, rng):
        f = forward_transform(grid1d, rng.standard_normal(grid1d.n))
        for p in (1.0, 2.0, 3.5):
            assert weak_lp_norm(f, p) <= lq_norm(f, p, oversample=1) * (1 + 1e-12)


class TestBessel:
    """``hsq_norms`` smooths its stack in place by the symbol of ``(1 - Lap)^(sigma/2)``."""

    def test_sigma_zero_identity(self, grid1d, rng):
        f = forward_transform(grid1d, rng.standard_normal(grid1d.n))
        stack = f.coeffs[None].copy()
        hsq_norms(grid1d, stack, 0.0, 3.0, 4)
        assert np.array_equal(stack[0], f.coeffs)

    def test_single_mode_multiplier(self):
        g = Grid(1, 64)
        stack = mode_field(g, 3).coeffs[None].copy()
        hsq_norms(g, stack, -1.2, 2.0, 4)
        got = SpectralField(g, stack[0]).coeff_at(3)
        assert abs(got) == pytest.approx((1 + 4 * np.pi**2 * 9) ** -0.6)

    def test_inverse(self, grid1d, rng):
        f = forward_transform(grid1d, rng.standard_normal(grid1d.n))
        stack = f.coeffs[None].copy()
        hsq_norms(grid1d, stack, 1.7, 2.0, 4)
        hsq_norms(grid1d, stack, -1.7, 2.0, 4)
        assert np.max(np.abs(stack[0] - f.coeffs)) < 1e-12

    @pytest.mark.parametrize("q", [2.0, 3.0, 4.0])
    @pytest.mark.parametrize("real", [False, True])
    def test_rows_are_hsq_norm_bit_for_bit(self, q, real):
        grid = Grid(1, 64, 1.5)
        vals = stream(3, 0).standard_normal((5,) + grid.shape)
        if not real:
            vals = vals + 1j * stream(3, 1).standard_normal((5,) + grid.shape)
        stack = forward_coeffs(grid, vals)
        want = [hsq_norm(SpectralField(grid, c, real=real), -0.4, q, oversample=3) for c in stack]
        assert hsq_norms(grid, stack, -0.4, q, 3, real=real).tolist() == want

    def test_hsq_norm_leaves_its_field(self, grid1d, rng):
        f = forward_transform(grid1d, rng.standard_normal(grid1d.n))
        before = f.coeffs.copy()
        hsq_norm(f, -0.5, 3.0)
        assert np.array_equal(f.coeffs, before)


class TestHsqNorm:
    def test_single_mode(self):
        g = Grid(1, 64)
        got = hsq_norm(mode_field(g, 5), -0.8, 2.0)
        assert got == pytest.approx((1 + 4 * np.pi**2 * 25) ** -0.4, rel=1e-12)

    def test_zero(self, grid1d):
        assert hsq_norm(constant_field(grid1d, 0.0), -0.5, 3.0) == 0.0

    def test_truncated_white_noise_lattice_sum(self):
        # sum_{|k|<=K} gamma_k e_k in smoothness -s: squared norm is the
        # deterministic lattice sum when all amplitudes are one
        from gammanoise.grid import SpectralField
        g = Grid(1, 256)
        K, s = 20, 0.6
        coeffs = np.zeros(256, dtype=complex)
        k = g.freq_axis()
        coeffs[np.abs(k) <= K] = 1.0
        f = SpectralField(g, coeffs)
        direct = sum((1 + 4 * np.pi**2 * kk**2) ** -s for kk in range(-K, K + 1))
        assert hsq_norm(f, -s, 2.0) ** 2 == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("q", [1.0, np.inf])
    def test_q_range(self, grid1d, q):
        with pytest.raises(ValueError, match="q must lie in"):
            hsq_norm(constant_field(grid1d, 0.0), -0.5, q)

    def test_s_zero_equals_lq(self, grid1d, rng):
        f = forward_transform(grid1d, rng.standard_normal(grid1d.n))
        for q in (2.0, 3.0):
            assert hsq_norm(f, 0.0, q) == pytest.approx(lq_norm(f, q), rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_smoothness_monotone(self, off, s0, s1):
        s0, s1 = sorted((s0, s1))
        g = Grid(1, 64)
        f = forward_transform(g, stream(17, off).standard_normal(64))
        low = hsq_norm(f, -s1, 3.0)
        high = hsq_norm(f, -s0, 3.0)
        assert low <= high * (1 + 1e-9)


class TestLittlewoodPaley:
    def test_block_product_construction_collapses(self):
        # g e_n with g and n drawn from the dyadic block C_N lives on
        # frequencies [2^{N+1}, 3 * 2^N]: inside the one annulus [2^{N+1}, 2^{N+2})
        from gammanoise.experiments import block_field
        N = 3
        g = Grid(1, 256)
        n = 3 * 2 ** (N - 1)
        shifted = forward_transform(g, block_field(g, N).values() * mode_field(g, n).values())
        active = g.freq_axis()[np.abs(shifted.coeffs) > 1e-12]
        assert active.tolist() == list(range(2**N + n, 3 * 2 ** (N - 1) + n + 1))
        assert 2 ** (N + 1) <= active.min() and active.max() < 2 ** (N + 2)


class TestBesselKernel:
    def test_unit_integral(self):
        g = Grid(1, 512)
        k = bessel_kernel(g, 0.6)
        assert np.sum(k.values()) * g.cell_measure == pytest.approx(1.0, rel=1e-12)

    def test_symmetric(self):
        g = Grid(1, 512)
        v = bessel_kernel(g, 0.75).values()
        mirrored = np.roll(v[::-1], 1)
        assert np.max(np.abs(v - mirrored)) < 1e-10 * np.max(np.abs(v))

    def test_local_power_law(self):
        # near the origin the kernel tracks |x|^{s-d} within a bounded ratio
        n, s = 4096, 0.75
        g = Grid(1, n)
        v = bessel_kernel(g, s).values()
        x = np.arange(n) / n
        mask = (x >= 4 / n) & (x <= 0.1)
        ratio = v[mask] / x[mask] ** (s - 1)
        assert ratio.max() / ratio.min() < 4.0

    def test_s_range(self):
        g = Grid(1, 64)
        for bad in (0.0, 1.0, 2.0, -0.3):
            with pytest.raises(ValueError):
                bessel_kernel(g, bad)
