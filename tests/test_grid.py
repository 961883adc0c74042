import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammanoise.grid import (Grid, Scratch, SpectralField, constant_field, forward_transform,
                             mode_field, spectral_band, upsampled_values)
from gammanoise.rng import stream

from conftest import field_values


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(4, 64)
        with pytest.raises(ValueError):
            Grid(1, 100)  # not a power of two
        with pytest.raises(ValueError):
            Grid(1, 64, -1.0)

    def test_cell_measure(self):
        g = Grid(2, 8, 2.0)
        assert g.cell_measure == pytest.approx((2.0 / 8) ** 2)

    def test_freq_axis_nyquist_positive(self):
        g = Grid(1, 8)
        k = g.freq_axis()
        assert k[4] == 4  # Nyquist bin holds +n/2
        assert set(k) == {-3, -2, -1, 0, 1, 2, 3, 4}

    def test_coords_are_full_shape_read_only(self):
        g = Grid(2, 8, 2.0)
        x, y = g.coords()
        assert x.shape == y.shape == g.shape
        assert x[3, 5] == 0.75 and y[3, 5] == 1.25
        with pytest.raises(ValueError):
            x[0, 0] = 1.0

    def test_index_of_freq_range(self):
        g = Grid(1, 8)
        with pytest.raises(ValueError):
            g.index_of_freq(-4)  # outside (-n/2, n/2]
        assert g.index_of_freq(4) == (4,)


class TestTransforms:
    def test_constant_mode(self, grid1d):
        f = forward_transform(grid1d, np.ones(grid1d.n))
        assert f.coeff_at(0) == pytest.approx(1.0)
        others = np.abs(f.coeffs).sum() - abs(f.coeff_at(0))
        assert others < 1e-12

    def test_single_mode(self, grid1d):
        x = np.arange(grid1d.n) / grid1d.n
        f = forward_transform(grid1d, np.exp(2j * np.pi * 5 * x))
        assert f.coeff_at(5) == pytest.approx(1.0, abs=1e-12)

    def test_roundtrip(self, grid1d, rng):
        v = rng.standard_normal(grid1d.n) + 1j * rng.standard_normal(grid1d.n)
        f = forward_transform(grid1d, v)
        assert np.max(np.abs(f.values() - v)) < 1e-12 * np.max(np.abs(v))

    def test_roundtrip_2d(self, rng):
        g = Grid(2, 32)
        v = rng.standard_normal(g.shape)
        f = forward_transform(g, v)
        assert np.max(np.abs(f.values() - v)) < 1e-12

    def test_shape_mismatch(self, grid1d):
        with pytest.raises(ValueError):
            forward_transform(grid1d, np.ones(grid1d.n + 1))
        with pytest.raises(ValueError):
            SpectralField(grid1d, np.zeros(grid1d.n // 2, dtype=complex))

    def test_real_flag_requires_hermitian(self, grid1d):
        coeffs = np.zeros(grid1d.n, dtype=complex)
        coeffs[1] = 1.0  # no conjugate partner
        with pytest.raises(ValueError):
            SpectralField(grid1d, coeffs, real=True)

    def test_real_field_from_values(self, grid1d, rng):
        f = forward_transform(grid1d, rng.standard_normal(grid1d.n))
        assert f.real and f.is_hermitian()

    @pytest.mark.parametrize("dim,n", [(1, 64), (1, 2), (2, 16), (3, 8)])
    def test_real_samples_give_hermitian_fields_without_a_check(self, dim, n, rng,
                                                               monkeypatch):
        grid = Grid(dim, n)
        values = rng.standard_normal(grid.shape)
        with monkeypatch.context() as mp:
            mp.setattr(SpectralField, "is_hermitian", lambda self: pytest.fail("checked"))
            f = forward_transform(grid, values)
        assert f.real and f.is_hermitian()
        assert np.array_equal(f.coeffs, np.fft.fftn(values) / n**dim)
        assert not forward_transform(grid, values + 0j).real

    def test_values_follow_in_place_coeff_change(self, grid1d, rng):
        vals = rng.standard_normal(grid1d.n)
        f = forward_transform(grid1d, vals)
        assert np.allclose(f.values(), vals)
        f.coeffs *= 2
        assert np.allclose(f.values(), 2 * vals)


class TestUpsampling:
    def test_nodes_preserved(self, grid1d, rng):
        v = rng.standard_normal(grid1d.n)
        f = forward_transform(grid1d, v)
        fine = upsampled_values(f.coeffs[None], 4 * grid1d.n, grid1d.n // 2)
        assert fine.shape == (1, 4 * grid1d.n)
        assert np.max(np.abs(fine[0, ::4] - v)) < 1e-12

    def test_real_stays_real(self, grid1d, rng):
        v = rng.standard_normal(grid1d.n)
        fine = upsampled_values(forward_transform(grid1d, v).coeffs[None], 2 * grid1d.n,
                                grid1d.n // 2)
        # the split Nyquist bin keeps the interpolant real: its imaginary part is rounding
        assert np.max(np.abs(fine.imag)) < 1e-14 * np.max(np.abs(fine.real))

    def test_band_limited_exact(self):
        g = Grid(1, 64)
        f = mode_field(g, 3)
        fine = field_values(f, 256)
        x = np.arange(256) / 256
        assert np.max(np.abs(fine - np.exp(2j * np.pi * 3 * x))) < 1e-12

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (3, 8)])
    @pytest.mark.parametrize("factor", [1, 2, 3, 4])
    @pytest.mark.parametrize("real", [True, False])
    def test_pruned_transform_equals_full_ifftn(self, rng, dim, n, factor, real):
        # padding each axis just before its own transform skips only zero rows
        grid = Grid(dim, n)
        vals = rng.standard_normal(grid.shape)
        if not real:
            vals = vals + 1j * rng.standard_normal(grid.shape)
        f = forward_transform(grid, vals)
        m = n * factor
        want = np.fft.ifftn(_zero_padded(f.coeffs, n, m)) * m**dim
        got = upsampled_values(f.coeffs[None], m, n // 2)
        assert got.shape == (1,) + (m,) * dim
        assert np.array_equal(got[0], want)

    @pytest.mark.parametrize("dim,n,band", [(1, 16, 3), (2, 16, 3), (3, 8, 2)])
    def test_reused_scratch_keeps_the_bits(self, rng, dim, n, band):
        # full and band-cropped spectra, m = 2 band + 1 included, and stacks of
        # several sizes through one scratch give the values of fresh calls
        scratch = Scratch()
        for size in (n, 2 * band + 1):
            for m in (2 * band + 1, n, n + 3, 2 * n):
                for rows in (3, 1, 3):
                    c = rng.standard_normal((rows,) + (size,) * dim) + 1j
                    want = upsampled_values(c, m, band)
                    assert np.array_equal(upsampled_values(c, m, band, scratch=scratch), want)

    @pytest.mark.parametrize("dim,n,band", [(1, 64, 5), (2, 16, 3), (3, 8, 1)])
    def test_band_copy_evaluates_the_polynomial(self, rng, dim, n, band):
        # below n/2 only the band is copied, so any m > 2 band works, m < n and odd m too
        grid = Grid(dim, n)
        coeffs = np.zeros(grid.shape, dtype=np.complex128)
        inside = np.ix_(*(np.flatnonzero(np.abs(grid.freq_axis()) <= band),) * dim)
        coeffs[inside] = rng.standard_normal(coeffs[inside].shape) + 0.5j
        f = SpectralField(grid, coeffs)
        assert spectral_band(grid, coeffs) == band
        k = grid.freq_axis()
        for m in (2 * band + 1, n - 1, n + 3, 2 * n):
            phase = np.exp(2j * np.pi * np.outer(np.arange(m) / m, k))   # (m, n)
            want = coeffs
            for ax in range(dim):
                want = np.moveaxis(np.tensordot(phase, want, axes=([1], [ax])), 0, ax)
            assert np.max(np.abs(field_values(f, m) - want)) < 1e-12 * np.max(np.abs(want))
        with pytest.raises(ValueError, match="cannot hold"):
            field_values(f, 2 * band)

    def test_full_band_needs_n_points(self, rng):
        f = forward_transform(Grid(1, 16), rng.standard_normal(16))
        assert spectral_band(f.grid, f.coeffs) == 8
        with pytest.raises(ValueError, match="cannot hold"):
            field_values(f, 15)


def _zero_padded(coeffs, n, m):
    """The spectrum on m points per axis, the Nyquist bin split over +-n/2."""
    if m == n:
        return coeffs
    out = coeffs
    for ax in range(coeffs.ndim):
        low, nyquist, high = np.split(out, [n // 2, n // 2 + 1], axis=ax)
        zeros = np.zeros(low.shape[:ax] + (m - n - 1,) + low.shape[ax + 1:])
        out = np.concatenate([low, nyquist / 2.0, zeros, nyquist / 2.0, high], axis=ax)
    return out


class TestProduct:
    def test_two_modes(self):
        g = Grid(1, 64)
        pr = forward_transform(g, mode_field(g, 5).values() * mode_field(g, 7).values())
        assert pr.coeff_at(12) == pytest.approx(1.0, abs=1e-12)
        assert np.sum(np.abs(pr.coeffs)) == pytest.approx(1.0, abs=1e-10)

    def test_real_times_real(self, grid1d, rng):
        a = forward_transform(grid1d, rng.standard_normal(grid1d.n))
        b = forward_transform(grid1d, rng.standard_normal(grid1d.n))
        assert forward_transform(grid1d, a.values() * b.values()).real


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=1_000_000))
def test_plancherel_random_fields(seed_offset):
    g = Grid(1, 64)
    gen = stream(99, seed_offset)
    v = gen.standard_normal(64) + 1j * gen.standard_normal(64)
    f = forward_transform(g, v)
    lhs = np.sum(np.abs(f.coeffs) ** 2) * g.length**g.dim
    rhs = np.mean(np.abs(v) ** 2) * g.length**g.dim
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_constant_field_helper():
    g = Grid(2, 16)
    f = constant_field(g, 3.5)
    assert np.max(np.abs(f.values() - 3.5)) < 1e-12
