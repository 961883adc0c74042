import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from gammanoise.conditions import ParamTuple
from gammanoise.grid import Grid, SpectralField, forward_transform
from gammanoise.norms import heat_eigenvalues, hsq_norm, lq_norm
from gammanoise.rng import complex_standard_normal, standard_gaussians, stream
from gammanoise.series import SeriesSpec, series_coeffs
from gammanoise.fit import linfit
from gammanoise import spde
from gammanoise.spde import (DiagonalNoise, SpdeConfig, SystemNoise, Trajectory,
                             _ou_step_variance, ensemble_norms, scaling_diagnostic,
                             second_moment_closed_form, second_moment_exp_euler, simulate,
                             term_values_for_system, time_norms, trajectory_norms)
from gammanoise.systems import Coloring, FourierSystem, HaarSystem


@pytest.fixture
def small_grid():
    return Grid(1, 64)


class TestConfigValidation:
    def test_dt_bounds(self, small_grid):
        noise = DiagonalNoise.white(small_grid)
        with pytest.raises(ValueError):
            SpdeConfig(small_grid, noise, T=0.1, dt=0.2)
        with pytest.raises(ValueError):
            SpdeConfig(small_grid, noise, T=0.1, dt=0.03)  # does not divide

    def test_exact_ou_needs_diagonal_and_unit_g(self, small_grid):
        system = SystemNoise(HaarSystem(1, 0, 2), Coloring.power_law(0.5), 7)
        with pytest.raises(ValueError):
            SpdeConfig(small_grid, system, T=0.1, dt=0.01, integrator="exact_ou")
        from gammanoise.grid import constant_field
        with pytest.raises(ValueError):
            SpdeConfig(small_grid, DiagonalNoise.white(small_grid), T=0.1, dt=0.01,
                       g=constant_field(small_grid, 1.0))

    @pytest.mark.parametrize("g_kind", ["list", "other_grid"])
    def test_g_is_one_field_on_the_grid(self, small_grid, g_kind):
        from gammanoise.grid import constant_field
        g = {"list": [constant_field(small_grid, 1.0)] * 10,
             "other_grid": constant_field(Grid(1, 32), 1.0)}[g_kind]
        with pytest.raises(ValueError, match="^g must be"):
            SpdeConfig(small_grid, DiagonalNoise.white(small_grid), T=0.1, dt=0.01,
                       integrator="exp_euler", g=g)

    def test_step_cannot_be_reassigned(self, small_grid):
        # a dt changed after validation no longer divides T, and simulate stopped short
        cfg = SpdeConfig(small_grid, DiagonalNoise.white(small_grid), T=0.1, dt=0.01)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.dt = 0.03
        assert simulate(cfg, seed=1).times[-1] == pytest.approx(0.1)

    def test_noise_coloring_cannot_be_reassigned(self, small_grid):
        # the per-grid series spec is cached on the noise, so a new coloring was ignored
        noise = SystemNoise(FourierSystem(1), Coloring.matern(0.5), 8)
        cfg = SpdeConfig(small_grid, noise, T=0.02, dt=0.01, integrator="exp_euler")
        simulate(cfg, seed=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            noise.coloring = Coloring.matern(3.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            DiagonalNoise.white(small_grid).mu = np.zeros(small_grid.shape)

    def test_unknown_integrator(self, small_grid):
        with pytest.raises(ValueError):
            SpdeConfig(small_grid, DiagonalNoise.white(small_grid), T=0.1,
                       dt=0.01, integrator="euler")


class TestSimulate:
    def test_zero_coloring_zero_trajectory(self, small_grid):
        cfg = SpdeConfig(small_grid, DiagonalNoise(np.zeros(small_grid.shape)), T=0.1, dt=0.01)
        traj = simulate(cfg, seed=5)
        assert np.all(traj.coeffs == 0)
        assert traj.times[0] == 0.0 and len(traj.coeffs) == 11

    @pytest.mark.parametrize("integrator", ["exact_ou", "exp_euler"])
    def test_final_only_run_matches_full_run(self, small_grid, integrator):
        if integrator == "exact_ou":
            noise = DiagonalNoise.matern(small_grid, 0.5)
        else:
            noise = SystemNoise(FourierSystem(1), Coloring.matern(0.5), 16)
        cfg = SpdeConfig(small_grid, noise, T=0.05, dt=0.01, integrator=integrator)
        full = simulate(cfg, seed=13, traj_index=2)
        last = simulate(cfg, seed=13, traj_index=2, keep_states=False)
        assert full.times.tolist() == [m * 0.01 for m in range(6)]
        assert last.times.tolist() == [0.0, 0.05]
        assert last.coeffs.shape == (2,) + small_grid.shape
        assert np.all(last.coeffs[0] == 0) and np.any(last.coeffs[1] != 0)
        assert np.array_equal(last.coeffs[-1], full.coeffs[-1])
        assert np.array_equal(last.final().coeffs, full.coeffs[-1])

    def test_states_are_read_only(self, small_grid):
        cfg = SpdeConfig(small_grid, DiagonalNoise.matern(small_grid, 0.5), T=0.05, dt=0.01)
        for keep in (True, False):
            traj = simulate(cfg, seed=3, keep_states=keep)
            assert not traj.coeffs.flags.writeable
            with pytest.raises(ValueError):
                traj.coeffs[-1] *= 2.0
            with pytest.raises(ValueError):
                traj.final().coeffs *= 2.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                traj.coeffs = np.zeros_like(traj.coeffs)

    def test_constants_computed_once_per_config(self, small_grid, monkeypatch):
        calls = []
        monkeypatch.setattr(spde, "heat_eigenvalues",
                            lambda grid: calls.append(grid) or heat_eigenvalues(grid))
        cfg = SpdeConfig(small_grid, DiagonalNoise.matern(small_grid, 0.5), T=0.05, dt=0.01)
        for i in range(3):
            simulate(cfg, seed=3, traj_index=i)
        assert calls == [small_grid]

    @pytest.mark.parametrize("integrator", ["exact_ou", "exp_euler"])
    def test_cached_constants_are_read_only(self, small_grid, integrator):
        g = None if integrator == "exact_ou" else forward_transform(
            small_grid, stream(8, 0).standard_normal(small_grid.shape))
        cfg = SpdeConfig(small_grid, DiagonalNoise.matern(small_grid, 0.5), T=0.05, dt=0.01,
                         integrator=integrator, g=g)
        first = simulate(cfg, seed=3).coeffs
        names = ["_lam", "_decay"] + (["_ou_sigma"] if g is None else ["_g_values"])
        for name in names:
            with pytest.raises(ValueError):
                getattr(cfg, name)[0] = 0.0
        assert np.array_equal(simulate(cfg, seed=3).coeffs, first)

    def test_exact_ou_draws_its_steps_in_order_from_one_stream(self, small_grid):
        # two steps by hand from one (seed, traj) stream drawn at once
        noise = DiagonalNoise.matern(small_grid, 0.5)
        T = 0.02
        cfg = SpdeConfig(small_grid, noise, T=T, dt=T / 2)
        got = simulate(cfg, seed=57, traj_index=4, keep_states=True).coeffs
        gam = complex_standard_normal(stream(57, 4), (2, *small_grid.shape))
        lam = 4 * np.pi**2 * small_grid.k2_physical()
        decay = np.exp(-lam * T / 2)
        var = np.where(lam == 0, T / 2, (1 - decay**2) / (2 * np.where(lam == 0, 1.0, lam)))
        sigma = noise.mu * np.sqrt(var)
        u1 = sigma * gam[0]
        u2 = decay * u1 + sigma * gam[1]
        assert got.shape == (3,) + small_grid.shape and np.all(got[0] == 0)
        for m, ref in ((1, u1), (2, u2)):
            assert np.max(np.abs(got[m] - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_single_mode_ou_variance(self):
        # exact transition law: Var = mu^2 (1 - e^{-2 lam T}) / (2 lam)
        grid = Grid(1, 8)
        k0, amp, T = 3, 2.0, 0.1
        cfg = SpdeConfig(grid, DiagonalNoise.single_mode(grid, k0, amp), T=T, dt=0.01)
        lam = 4 * np.pi**2 * k0**2
        exact = amp**2 * (1 - np.exp(-2 * lam * T)) / (2 * lam)
        draws = [abs(simulate(cfg, seed=11, traj_index=i, keep_states=False)
                     .final().coeff_at(k0)) ** 2 for i in range(10_000)]
        assert np.mean(draws) == pytest.approx(exact, rel=0.05)

    def test_deterministic_per_seed(self, small_grid):
        cfg = SpdeConfig(small_grid, DiagonalNoise.matern(small_grid, 0.5), T=0.05, dt=0.01)
        a = simulate(cfg, seed=21, traj_index=3)
        b = simulate(cfg, seed=21, traj_index=3)
        assert np.array_equal(a.coeffs, b.coeffs)
        c = simulate(cfg, seed=22, traj_index=3)
        assert not np.array_equal(a.final().coeffs, c.final().coeffs)

    def test_mode_independence(self):
        grid = Grid(1, 16)
        cfg = SpdeConfig(grid, DiagonalNoise.white(grid), T=0.05, dt=0.01)
        finals = np.array([simulate(cfg, seed=31, traj_index=i, keep_states=False)
                           .final().coeffs for i in range(3000)])
        u1, u2 = finals[:, 2], finals[:, 5]
        cross = np.mean(u1 * np.conj(u2))
        scale = np.sqrt(np.mean(np.abs(u1) ** 2) * np.mean(np.abs(u2) ** 2))
        stderr = scale / math.sqrt(len(finals))
        assert abs(cross) <= 5 * stderr

    def test_semigroup_contraction_after_noise_off(self, small_grid):
        # noise switched off at T: a run under g = 0 steps u -> exp(-lam dt) (u + 0),
        # so from a noisy state the L2 norm can only decay
        from gammanoise.grid import constant_field
        noisy = SpdeConfig(small_grid, DiagonalNoise.white(small_grid), T=0.05, dt=0.01,
                           integrator="exp_euler")
        quiet = dataclasses.replace(noisy, g=constant_field(small_grid, 0.0))
        assert not simulate(quiet, seed=45).coeffs.any()
        u = simulate(noisy, seed=45).final().coeffs
        norms = []
        for _ in range(5):
            norms.append(lq_norm(SpectralField(small_grid, u), 2.0))
            u = quiet._decay * u
        assert norms[0] > 0
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_exp_euler_with_series_noise_runs(self, small_grid):
        system = SystemNoise(HaarSystem(1, 0, 2), Coloring.power_law(0.5), 7)
        cfg = SpdeConfig(small_grid, system, T=0.05, dt=0.01, integrator="exp_euler")
        traj = simulate(cfg, seed=51)
        assert len(traj.coeffs) == 6
        assert np.any(np.abs(traj.final().coeffs) > 0)
        # simulate left the spec and its term stack on the config; a second
        # trajectory reuses both instead of building them again
        spec = vars(cfg)["_series"]
        stack = vars(spec)["_terms"]
        simulate(cfg, seed=51, traj_index=1)
        assert vars(cfg)["_series"] is spec
        assert vars(spec)["_terms"] is stack

    @pytest.mark.parametrize("with_g", [False, True])
    def test_exp_euler_fourier_series_noise_matches_term_stack(self, small_grid, with_g):
        # one Euler step: the lattice scatter equals the dense stack's increment
        noise = SystemNoise(FourierSystem(1), Coloring.matern(0.5), 20)
        g = forward_transform(small_grid, stream(7).standard_normal(small_grid.shape))
        dt = 0.01
        cfg = SpdeConfig(small_grid, noise, T=dt, dt=dt, integrator="exp_euler",
                         g=g if with_g else None)
        got = simulate(cfg, seed=53).final().coeffs
        assert "_terms" not in vars(vars(cfg)["_series"])
        gam = complex_standard_normal(stream(53, 0), (noise.N,))
        incr = (gam @ term_values_for_system(noise, small_grid)) * math.sqrt(dt)
        if with_g:
            incr = forward_transform(small_grid, SpectralField(small_grid, incr).values()
                                     * g.values()).coeffs
        decay = np.exp(-4 * np.pi**2 * small_grid.k2_physical() * dt)
        ref = decay * incr
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_exp_euler_unit_g_matches_transform_round_trip(self, small_grid):
        # g = 1 forms the increment on the lattice; a constant field 1 sends
        # the same draws through the inverse/forward transform pair
        from gammanoise.grid import constant_field
        noise = DiagonalNoise.matern(small_grid, 0.5)
        plain = SpdeConfig(small_grid, noise, T=0.05, dt=0.01, integrator="exp_euler")
        unit = SpdeConfig(small_grid, noise, T=0.05, dt=0.01, integrator="exp_euler",
                          g=constant_field(small_grid, 1.0))
        a = simulate(plain, seed=52).final().coeffs
        b = simulate(unit, seed=52).final().coeffs
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))


def _per_step_reference(config, seed, traj_index):
    """States of the step-at-a-time loop: each step draws its own row and builds its increment."""
    grid, dt = config.grid, config.dt
    lam = heat_eigenvalues(grid)
    decay = np.exp(-lam * dt)
    noise = config.noise
    if isinstance(noise, SystemNoise):
        spec = SeriesSpec(grid, noise.system, noise.coloring, noise.N, s=0.0, q=2.0)
    gen = stream(seed, traj_index)
    u = np.zeros(grid.shape, dtype=np.complex128)
    states = [u]
    for m in range(config.steps):
        if config.integrator == "exact_ou":
            gam = complex_standard_normal(gen, grid.shape)
            u = decay * u + np.sqrt(_ou_step_variance(noise.mu, lam, dt)) * gam
        else:
            if isinstance(noise, DiagonalNoise):
                gam = complex_standard_normal(gen, grid.shape)
                incr = noise.mu * gam * math.sqrt(dt)
            else:
                gam = standard_gaussians(gen, (1, spec.N), real=spec.system.real)
                incr = series_coeffs(spec, gam)[0] * math.sqrt(dt)
            if config.g is not None:
                incr = np.fft.fftn(np.fft.ifftn(incr) * config.g.values())
            u = decay * (u + incr)
        states.append(u)
    return np.array(states)


def _noise_config(grid, noise_kind, g_kind, steps):
    g = {"none": None,
         "field": forward_transform(grid, stream(8, 0).standard_normal(grid.shape))}[g_kind]
    if noise_kind in ("exact_ou", "diagonal"):
        noise = DiagonalNoise.matern(grid, 0.5)
    elif noise_kind == "fourier":
        noise = SystemNoise(FourierSystem(grid.dim), Coloring.matern(0.5), 20)
    else:
        noise = SystemNoise(HaarSystem(grid.dim, 0, 2), Coloring.power_law(0.5), 7)
    integrator = "exact_ou" if noise_kind == "exact_ou" else "exp_euler"
    return SpdeConfig(grid, noise, T=0.1, dt=0.1 / steps, integrator=integrator, g=g)


class TestBatchedNoiseMatchesPerStepLoop:
    """``simulate`` draws a trajectory's noise in one call and builds every increment at once.

    Diagonal and Fourier series noise give the per-step loop's bits.  A Haar
    increment is a BLAS product whose summation order depends on the batch
    size, so each increment agrees to 1e-15 relative and state m to m times that.
    """

    STEPS = 10

    def _config(self, grid, noise_kind, g_kind):
        return _noise_config(grid, noise_kind, g_kind, self.STEPS)

    @pytest.mark.parametrize("grid", [Grid(1, 64), Grid(2, 16)], ids=["1d", "2d"])
    @pytest.mark.parametrize("noise_kind,g_kind", [
        ("exact_ou", "none"),
        ("diagonal", "none"), ("diagonal", "field"),
        ("fourier", "none"), ("fourier", "field"),
        ("haar", "none"), ("haar", "field"),
    ])
    def test_states_match(self, grid, noise_kind, g_kind):
        cfg = self._config(grid, noise_kind, g_kind)
        ref = _per_step_reference(cfg, seed=5, traj_index=3)
        full = simulate(cfg, seed=5, traj_index=3).coeffs
        last = simulate(cfg, seed=5, traj_index=3, keep_states=False).coeffs
        assert full.shape == ref.shape and last.shape == (2,) + grid.shape
        assert np.array_equal(full[-1], last[-1]) and np.all(last[0] == 0)
        if noise_kind != "haar":
            assert np.array_equal(full, ref)
            return
        err = np.max(np.abs(full - ref), axis=tuple(range(1, grid.dim + 1)))
        assert np.all(err <= 1e-15 * np.arange(self.STEPS + 1) * np.max(np.abs(ref)))


class TestNoiseChunks:
    """The increments come in chunks of at most NOISE_CHUNK_BYTES, with or without stored states."""

    @pytest.mark.parametrize("noise_kind,g_kind", [
        ("exact_ou", "none"), ("diagonal", "field"), ("fourier", "none"), ("fourier", "field"),
        ("haar", "field")])
    def test_chunks_keep_the_bits(self, noise_kind, g_kind, monkeypatch):
        grid = Grid(2, 16)
        cfg = _noise_config(grid, noise_kind, g_kind, steps=10)
        one = simulate(cfg, seed=5, traj_index=3).coeffs     # 10 steps are one chunk
        # 3 steps of increments per chunk: the 10 steps are 4 chunks
        monkeypatch.setattr(spde, "NOISE_CHUNK_BYTES", 3 * 16 * grid.n**grid.dim + 5)
        chunks = []
        increments = spde._increments
        monkeypatch.setattr(spde, "_increments",
                            lambda *a: chunks.append(a[-2:]) or increments(*a))
        full = simulate(cfg, seed=5, traj_index=3).coeffs
        last = simulate(cfg, seed=5, traj_index=3, keep_states=False).coeffs
        assert chunks == [(0, 3), (3, 6), (6, 9), (9, 10)] * 2
        assert np.array_equal(last[-1], full[-1])
        if noise_kind == "haar":
            # a Haar increment is a BLAS product, whose last bits may follow the chunk's rows
            np.testing.assert_allclose(full, one, rtol=0, atol=1e-14 * np.abs(one).max())
        else:
            assert np.array_equal(full, one)

    def test_memory_flat_in_step_count(self):
        grid = Grid(2, 64)
        noise = DiagonalNoise.matern(grid, 0.5)
        peaks = []
        for steps in (100, 400):
            cfg = SpdeConfig(grid, noise, T=steps * 1e-3, dt=1e-3)
            tracemalloc.start()
            try:
                simulate(cfg, seed=1, keep_states=False)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks


class TestEnsembleNorms:
    """``ensemble_norms`` gives each trajectory the bits of ``trajectory_norms(simulate(...))``."""

    STEPS, COUNT = 5, 7

    @pytest.mark.parametrize("q", [2.0, 3.0])
    @pytest.mark.parametrize("grid", [Grid(1, 32), Grid(2, 8)], ids=["1d", "2d"])
    @pytest.mark.parametrize("noise_kind,g_kind", [
        ("exact_ou", "none"), ("diagonal", "field"), ("fourier", "none"), ("fourier", "field"),
        ("haar", "none"), ("haar", "field")])
    @pytest.mark.parametrize("layout,batches", [
        ("one_batch", [7]), ("batches_of_3", [3, 3, 1]), ("chunked_steps", [1] * 7)])
    def test_matches_trajectory_norms(self, grid, noise_kind, g_kind, q, layout, batches,
                                      monkeypatch):
        cfg = _noise_config(grid, noise_kind, g_kind, self.STEPS)
        step_bytes = 16 * grid.n**grid.dim
        if layout == "batches_of_3":    # states and one chunk of increments, 3 times
            monkeypatch.setattr(spde, "NOISE_CHUNK_BYTES",
                                3 * step_bytes * (2 * self.STEPS + 1))
        elif layout == "chunked_steps":     # 2 steps of increments per chunk: 3 chunks
            monkeypatch.setattr(spde, "NOISE_CHUNK_BYTES", 2 * step_bytes)
        sizes, chunks = [], []
        integrate, increments = spde._integrate, spde._increments
        monkeypatch.setattr(spde, "_integrate",
                            lambda c, gens, *a: sizes.append(len(gens)) or integrate(c, gens, *a))
        monkeypatch.setattr(spde, "_increments",
                            lambda *a: chunks.append(a[-2:]) or increments(*a))
        times, norms = ensemble_norms(cfg, 9, self.COUNT, 0.7, q)
        assert sizes == batches
        per_trajectory = [(0, 2), (2, 4), (4, 5)] if layout == "chunked_steps" else [(0, 5)]
        assert chunks == per_trajectory * self.COUNT
        assert norms.shape == (self.COUNT, self.STEPS + 1)
        for i in range(self.COUNT):
            traj = simulate(cfg, seed=9, traj_index=i)
            assert norms[i].tolist() == trajectory_norms(traj, 0.7, q).tolist()
            assert times.tolist() == traj.times.tolist()

    def test_memory_flat_in_trajectory_count(self):
        # one states buffer and one increment buffer serve every batch of 5
        grid = Grid(1, 256)
        cfg = SpdeConfig(grid, DiagonalNoise.matern(grid, 0.3), T=0.1, dt=1e-3)
        peaks = []
        for count in (5, 40):
            tracemalloc.start()
            try:
                ensemble_norms(cfg, 1, count, 0.9, 2.0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2**16, peaks

    @pytest.mark.parametrize("q", [1.0, math.inf])
    def test_spatial_exponent_outside_range_rejected(self, small_grid, q):
        cfg = SpdeConfig(small_grid, DiagonalNoise.matern(small_grid, 0.5), T=0.05, dt=0.01)
        with pytest.raises(ValueError, match="q must lie"):
            ensemble_norms(cfg, 1, 2, 0.9, q)


class TestClosedForm:
    def test_zero_horizon_limit(self, small_grid):
        noise = DiagonalNoise.matern(small_grid, 0.3)
        cfg = SpdeConfig(small_grid, noise, T=1e-9, dt=1e-9)
        assert second_moment_closed_form(cfg, 0.9) == pytest.approx(0.0, abs=1e-7)

    def test_matern_against_independent_lattice_sum(self):
        # independent reimplementation of the mode-wise variance sum
        grid = Grid(1, 128)
        alpha, s, T = 0.3, 0.9, 0.1
        cfg = SpdeConfig(grid, DiagonalNoise.matern(grid, alpha), T=T, dt=0.01)
        got = second_moment_closed_form(cfg, s)
        k = grid.freq_axis().astype(float)
        total = 0.0
        for kk in k:
            lam = 4 * math.pi**2 * kk**2
            mu2 = (1 + 4 * math.pi**2 * kk**2) ** -alpha
            var = mu2 * T if lam == 0 else mu2 * (1 - math.exp(-2 * lam * T)) / (2 * lam)
            total += (1 + 4 * math.pi**2 * kk**2) ** (1 - s) * var
        assert got == pytest.approx(total, rel=1e-12)

    def test_single_mode_formula(self):
        grid = Grid(1, 32)
        k0, amp, T, s = 2, 1.5, 0.2, 0.7
        cfg = SpdeConfig(grid, DiagonalNoise.single_mode(grid, k0, amp), T=T, dt=0.01)
        lam = 4 * np.pi**2 * k0**2
        var = amp**2 * (1 - np.exp(-2 * lam * T)) / (2 * lam)
        ref = (1 + 4 * np.pi**2 * k0**2) ** (1 - s) * var
        assert second_moment_closed_form(cfg, s) == pytest.approx(ref, rel=1e-12)

    def test_requires_diagonal(self, small_grid):
        system = SystemNoise(HaarSystem(1, 0, 2), Coloring.power_law(0.5), 7)
        cfg = SpdeConfig(small_grid, system, T=0.1, dt=0.01, integrator="exp_euler")
        with pytest.raises(ValueError):
            second_moment_closed_form(cfg, 0.9)

    def test_mc_matches_closed_form(self):
        grid = Grid(1, 128)
        cfg = SpdeConfig(grid, DiagonalNoise.matern(grid, 0.3), T=0.1, dt=1e-3)
        s = 0.9
        closed = second_moment_closed_form(cfg, s)
        vals = [hsq_norm(simulate(cfg, seed=61, traj_index=i, keep_states=False).final(),
                         1 - s, 2.0) ** 2 for i in range(400)]
        mean = np.mean(vals)
        stderr = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(mean - closed) <= 3 * stderr

    def test_euler_scheme_moment_and_order(self):
        grid = Grid(1, 256)
        noise = DiagonalNoise.matern(grid, 1.0)
        closed = second_moment_closed_form(
            SpdeConfig(grid, noise, T=0.1, dt=0.01), 0.9)
        dts = [0.1 / 2**j for j in range(4, 9)]
        errs = []
        for dt in dts:
            cfg = SpdeConfig(grid, noise, T=0.1, dt=dt, integrator="exp_euler")
            errs.append(abs(second_moment_exp_euler(cfg, 0.9) - closed))
        order, r2 = linfit(np.log(dts), np.log(errs))
        assert order >= 0.8 and r2 > 0.95

    def test_euler_moment_matches_euler_mc(self):
        # the geometric-sum formula is the scheme's exact second moment
        grid = Grid(1, 64)
        noise = DiagonalNoise.matern(grid, 0.5)
        cfg = SpdeConfig(grid, noise, T=0.1, dt=0.02, integrator="exp_euler")
        s = 0.9
        predicted = second_moment_exp_euler(cfg, s)
        vals = [hsq_norm(simulate(cfg, seed=71, traj_index=i, keep_states=False).final(),
                         1 - s, 2.0) ** 2 for i in range(800)]
        mean = np.mean(vals)
        stderr = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(mean - predicted) <= 3 * stderr


class TestSpacetimeNorm:
    @pytest.mark.parametrize("dim,q", [(1, 2.0), (1, 4.0), (2, 2.0), (2, 3.0)])
    def test_trajectory_norms_match_per_state_loop(self, dim, q):
        grid = Grid(dim, 16)
        cfg = SpdeConfig(grid, DiagonalNoise.matern(grid, 0.4), T=0.05, dt=0.01)
        traj = simulate(cfg, seed=17)
        ref = [hsq_norm(SpectralField(grid, c), 1.0 - 0.7, q, oversample=1) for c in traj.coeffs]
        assert trajectory_norms(traj, 0.7, q).tolist() == ref

    def test_zero_trajectory(self, small_grid):
        cfg = SpdeConfig(small_grid, DiagonalNoise(np.zeros(small_grid.shape)), T=0.1, dt=0.01)
        traj = simulate(cfg, seed=0)
        assert time_norms(trajectory_norms(traj, 0.9, 2.0), np.diff(traj.times), 2.0) == (0.0, 0.0)

    def test_constant_in_time_closed_form(self, small_grid):
        # a frozen single-mode state integrates to T^{1/p} times its norm
        from gammanoise.grid import mode_field
        f = SpectralField(small_grid, 0.7 * mode_field(small_grid, 2).coeffs)
        times = np.linspace(0.0, 0.5, 6)
        traj = Trajectory(small_grid, times, np.stack([f.coeffs] * 6))
        p, s, q = 2.0, 0.6, 2.0
        lp, max_h = time_norms(trajectory_norms(traj, s, q), np.diff(times), p)
        ref = 0.5 ** (1 / p) * hsq_norm(f, 1 - s, q)
        assert lp == pytest.approx(ref, rel=1e-12)
        assert max_h == pytest.approx(hsq_norm(f, 1 - s, q), rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 2.5])
    def test_time_norms_of_a_stack_match_each_row(self, p):
        # a (count, steps + 1) stack reduces over its last axis to each row's own values;
        # numpy's vectorised root would move about one row in a thousand
        gen = stream(5, 0)
        for count, steps in ((4000, 1), (4000, 7), (40, 100)):
            norms = gen.uniform(0.0, 3.0, (count, steps + 1))
            dts = gen.uniform(0.0, 1e-2, steps)
            lp, max_h = time_norms(norms, dts, p)
            rows = [time_norms(row, dts, p) for row in norms]
            assert lp.tolist() == [float(r[0]) for r in rows]
            assert max_h.tolist() == [float(r[1]) for r in rows]
            assert lp.tolist() == [float(np.sum(row[:-1] ** p * dts) ** (1.0 / p))
                                   for row in norms]

    @pytest.mark.parametrize("p", [0.5, math.inf])
    def test_time_exponent_outside_range_rejected(self, p):
        with pytest.raises(ValueError, match="p must lie"):
            time_norms(np.ones(3), np.ones(2), p)

    def test_mc_matches_time_integrated_closed_form(self):
        # E of the left-endpoint quadrature equals the summed closed form
        grid = Grid(1, 64)
        cfg = SpdeConfig(grid, DiagonalNoise.matern(grid, 0.3), T=0.1, dt=0.01)
        s = 0.9
        ref = sum(second_moment_closed_form(cfg, s, t=m * cfg.dt) * cfg.dt
                  for m in range(cfg.steps))
        times, norms = ensemble_norms(cfg, 81, 500, s, 2.0)
        vals = [time_norms(h, np.diff(times), 2.0)[0] ** 2 for h in norms]
        mean = np.mean(vals)
        stderr = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(mean - ref) <= 3 * stderr

    def test_energy_identity_s1(self):
        # s = 1 turns the spatial norm into plain L2 energy
        grid = Grid(1, 64)
        cfg = SpdeConfig(grid, DiagonalNoise.matern(grid, 0.5), T=0.1, dt=0.01)
        closed = second_moment_closed_form(cfg, 1.0)
        vals = [lq_norm(simulate(cfg, seed=91, traj_index=i, keep_states=False).final(), 2.0) ** 2
                for i in range(500)]
        mean = np.mean(vals)
        stderr = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(mean - closed) <= 3 * stderr


class TestScalingDiagnostic:
    def test_equality_tuple_flat(self):
        params = ParamTuple(1, 0.25, 4.0, 2.0, 2.0)
        _, fit = scaling_diagnostic(0.5, params, range(0, 6))
        assert abs(fit.exponent - fit.predicted) <= 0.2
        assert fit.predicted == pytest.approx(0.0, abs=1e-12)

    def test_off_equality_tuple(self):
        params = ParamTuple(1, 0.55, 4.0, 2.0, 2.0)
        _, fit = scaling_diagnostic(0.5, params, range(0, 6))
        assert fit.predicted == pytest.approx(-0.3)
        assert abs(fit.exponent - fit.predicted) <= 0.2

    def test_alpha_equal_d_rejected(self):
        params = ParamTuple(1, 0.25, 4.0, 2.0, 2.0)
        with pytest.raises(ValueError):
            scaling_diagnostic(1.0, params, range(0, 4))

    def test_zeta_must_match(self):
        # zeta = 3 is not d/alpha = 2; the tuple fails before the too-coarse grid is checked
        params = ParamTuple(1, 0.25, 4.0, 2.0, 3.0)
        with pytest.raises(ValueError, match="d/alpha"):
            scaling_diagnostic(0.5, params, range(0, 4), grid=Grid(1, 8))

    def test_negative_compression_rejected(self):
        # m = -1 would color HaarSystem level -1, which renders as a constant, not a wavelet
        params = ParamTuple(1, 0.25, 4.0, 2.0, 2.0)
        with pytest.raises(ValueError, match="m = -1"):
            scaling_diagnostic(0.5, params, range(-1, 3), grid=Grid(1, 2**10))
