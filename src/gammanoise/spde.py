"""Spectral simulation of the additive stochastic heat equation on the torus.

``du = Lap u dt + g R dW`` with zero initial data.  Diagonal noise evolves
every Fourier mode as an independent Ornstein-Uhlenbeck process with the
exact transition law; the exponential Euler scheme handles a multiplier field
g and series noise.  A trajectory's increments are drawn and built in
batched chunks of steps, so the step loop holds only the recursion, and an
ensemble steps a batch of trajectories side by side through one reused
buffer, each drawing from its own stream.
Closed-form second moments are available for g = 1 and diagonal noise, both
for the continuous-time law and for the Euler scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Grid, SpectralField, forward_transform
from .norms import (STREAM_CELLS, bessel_multiplier, chunk_rows, heat_eigenvalues, hsq_norms,
                    lq_norm, sq_function_from_terms)
from .rng import complex_standard_normal, standard_gaussians, stream
from .fit import SweepRecord, fit_ratio_exponent
from .series import SeriesSpec, multiply_on_grid, render_terms, series_coeffs, term_values
from .systems import Coloring, HaarSystem, bump_values, weighted_sequence_norm
from .conditions import ParamTuple, predicted_exponent


@dataclass(frozen=True)
class DiagonalNoise:
    """Per-mode coloring on the full frequency lattice of a grid."""

    mu: np.ndarray

    @staticmethod
    def matern(grid: Grid, alpha: float) -> "DiagonalNoise":
        if alpha <= 0:
            raise ValueError("Matern exponent must be positive")
        return DiagonalNoise(bessel_multiplier(grid, -alpha))

    @staticmethod
    def white(grid: Grid, cutoff: float = None) -> "DiagonalNoise":
        mu = np.ones(grid.shape)
        if cutoff is not None:
            mu = np.where(grid.freq_abs() <= cutoff, 1.0, 0.0)
        return DiagonalNoise(mu)

    @staticmethod
    def single_mode(grid: Grid, k, amplitude: float = 1.0) -> "DiagonalNoise":
        mu = np.zeros(grid.shape)
        mu[grid.index_of_freq(k)] = amplitude
        return DiagonalNoise(mu)


@dataclass(frozen=True)
class SystemNoise:
    """Truncated series noise ``sum_{n<=N} mu_n f_n dw_n``."""

    system: object
    coloring: Coloring
    N: int


@dataclass(frozen=True)
class SpdeConfig:
    grid: Grid
    noise: object                    # DiagonalNoise | SystemNoise
    T: float
    dt: float
    integrator: str = "exact_ou"     # exact_ou | exp_euler
    g: SpectralField = None          # None (g = 1) or one field on grid

    def __post_init__(self) -> None:
        if self.T <= 0 or self.dt <= 0 or self.dt > self.T:
            raise ValueError("need 0 < dt <= T")
        steps = round(self.T / self.dt)
        if steps < 1 or abs(steps * self.dt - self.T) > 1e-9 * max(1.0, self.T):
            raise ValueError("dt must divide the horizon T")
        if self.integrator not in ("exact_ou", "exp_euler"):
            raise ValueError(f"unknown integrator {self.integrator!r}; "
                             "expected one of exact_ou, exp_euler")
        if self.integrator == "exact_ou":
            if self.g is not None:
                raise ValueError("exact_ou requires g = 1")
            if not isinstance(self.noise, DiagonalNoise):
                raise ValueError("exact_ou requires diagonal noise")
        if isinstance(self.noise, DiagonalNoise) and self.noise.mu.shape != self.grid.shape:
            raise ValueError("diagonal coloring shape does not match grid")
        if self.g is not None and not (isinstance(self.g, SpectralField)
                                       and self.g.grid == self.grid):
            raise ValueError(f"g must be None or one SpectralField on {self.grid}")

    @property
    def steps(self) -> int:
        return round(self.T / self.dt)

    @cached_property
    def _lam(self) -> np.ndarray:
        """Heat eigenvalues of the grid; read-only, like every per-config constant."""
        return _read_only(heat_eigenvalues(self.grid))

    @cached_property
    def _decay(self) -> np.ndarray:
        """One step of the semigroup, ``exp(-lam dt)``.

        Held as complex (zero imaginary part) like the states it multiplies:
        numpy casts a real factor to complex for that product anyway, so the
        bits are the same and a step skips the cast.
        """
        return _read_only(np.exp(-self._lam * self.dt).astype(np.complex128))

    @cached_property
    def _ou_sigma(self) -> np.ndarray:
        """Standard deviation of one exact Ornstein-Uhlenbeck step per mode; complex, as above."""
        sigma = np.sqrt(_ou_step_variance(self.noise.mu, self._lam, self.dt))
        return _read_only(sigma.astype(np.complex128))

    @cached_property
    def _series(self) -> SeriesSpec:
        """The series of series noise on the grid, so its terms are built once per config."""
        return _system_spec(self.noise, self.grid)

    @cached_property
    def _g_values(self) -> np.ndarray:
        """Grid values of g."""
        return _read_only(self.g.values())


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Trajectory:
    """Stored states of one run: ``coeffs[i]`` holds the coefficients at ``times[i]``.

    ``coeffs`` has shape ``(len(times), *grid.shape)``, row 0 is the zero
    initial state, and ``simulate`` returns it read-only.
    """

    grid: Grid
    times: np.ndarray
    coeffs: np.ndarray

    def final(self) -> SpectralField:
        return SpectralField(self.grid, self.coeffs[-1])


def simulate(config: SpdeConfig, seed: int, traj_index: int = 0,
             keep_states: bool = True) -> Trajectory:
    """Integrate one trajectory; its draws come in order from one (seed, traj) stream.

    The trajectory is ``_integrate``'s batch of one.  With ``keep_states``
    every step's state is stored, else only the final one; both give the
    same bits.
    """
    grid = config.grid
    times = np.arange(config.steps + 1) * config.dt if keep_states else np.array([0.0, config.T])
    coeffs = np.zeros((len(times), grid.n**grid.dim), dtype=np.complex128)
    _integrate(config, [stream(seed, traj_index)], coeffs, keep_states)
    coeffs.flags.writeable = False
    return Trajectory(grid, times, coeffs.reshape((len(times),) + grid.shape))


def ensemble_norms(config: SpdeConfig, seed: int, count: int, s: float,
                   q: float) -> tuple[np.ndarray, np.ndarray]:
    """``(times, norms)``: ``norms[i]`` is ``trajectory_norms(simulate(config, seed, i), s, q)``.

    Trajectories are integrated side by side in batches of as many as
    ``STREAM_CELLS`` cells hold of their states and increments; the states
    and increment buffers are made once and reused by every batch.  A
    batch's states are smoothed in place and measured in one ``hsq_norms``
    pass, whose rows are measured one by one, so the norms are those of one
    trajectory at a time.
    """
    grid, steps = config.grid, config.steps
    size = grid.n**grid.dim
    chunk = min(chunk_rows(size, STREAM_CELLS), steps)
    batch = chunk_rows(size * (steps + 1 + chunk), STREAM_CELLS)
    states = np.empty((steps + 1, batch * size), dtype=np.complex128)
    incs = np.empty((chunk, batch * size), dtype=np.complex128)
    norms = np.empty((count, steps + 1))
    for lo in range(0, count, batch):
        ids = range(lo, min(lo + batch, count))
        width = len(ids) * size
        block = states[:, :width]
        block[0] = 0
        _integrate(config, [stream(seed, i) for i in ids], block, True, incs[:, :width])
        vals = hsq_norms(grid, block.reshape((-1,) + grid.shape), 1.0 - s, q, 1)
        norms[lo:lo + len(ids)] = vals.reshape(steps + 1, len(ids)).T
    return np.arange(steps + 1) * config.dt, norms


def _integrate(config: SpdeConfig, gens: list, states: np.ndarray, keep_states: bool,
               incs: np.ndarray = None) -> None:
    """Step ``len(gens)`` trajectories side by side from the zero state in ``states[0]``.

    ``states`` has rows of ``B * n^d`` modes, trajectory b in the b-th run of
    ``n^d``, and one row per stored time (two without ``keep_states``: the
    zero start and the state, updated in place); row 0 must be zero.  Each
    trajectory's increments come in chunks of as many steps as
    ``STREAM_CELLS`` holds (``chunk_rows``) from ``_increments`` on its own
    generator, so the noise's memory stays flat in the step count and row m
    of the draws is step m's, as drawing step by step would give.  The
    chunking depends on neither ``keep_states`` nor the batch, so all give
    the same bits.  A batch of more than one copies its increments into
    ``incs``, a ``(chunk, B * n^d)`` buffer.

    exact_ou updates each mode with the exact Ornstein-Uhlenbeck transition;
    exp_euler damps the previous state and the increment by the semigroup.
    The decay is computed once per config and tiled over the batch, and a
    step is one multiply and one add over a contiguous row, written in place
    into the next stored row (or the one final row), so a step allocates
    nothing.
    """
    grid, steps = config.grid, config.steps
    size = grid.n**grid.dim
    decay = config._decay.reshape(-1)
    if len(gens) > 1:   # a batch of one steps with the cached decay itself, allocating nothing
        decay = np.tile(decay, len(gens))
    exact_ou = config.integrator == "exact_ou"
    chunk = chunk_rows(size, STREAM_CELLS)
    final = states[-1]
    mul, add = np.multiply, np.add      # a step is two short ufunc calls; keep their overhead low
    for lo in range(0, steps, chunk):
        hi = min(lo + chunk, steps)
        if len(gens) == 1:
            dw = _increments(config, gens[0], lo, hi).reshape(hi - lo, size)
        else:
            dw = incs[:hi - lo]
            for b, gen in enumerate(gens):
                dw[:, b * size:(b + 1) * size] = _increments(config, gen, lo, hi).reshape(
                    hi - lo, size)
        for m, inc in enumerate(dw, start=lo):
            u, out = (states[m], states[m + 1]) if keep_states else (final, final)
            if exact_ou:        # decay * u + inc
                mul(decay, u, out)
                add(out, inc, out)
            else:               # decay * (u + inc)
                add(u, inc, out)
                mul(decay, out, out)
        del dw, inc     # free this chunk before the next one is built


def _increments(config: SpdeConfig, gen: np.random.Generator, lo: int, hi: int) -> np.ndarray:
    """Noise increments of steps ``lo <= m < hi``, shape (hi - lo, *grid), from gen's next draws.

    Built in place, so that one (hi - lo, *grid) array is held at a time.
    """
    grid, dt = config.grid, config.dt
    if isinstance(config.noise, DiagonalNoise):
        dw = complex_standard_normal(gen, (hi - lo,) + grid.shape)
        if config.integrator == "exact_ou":
            dw *= config._ou_sigma
        else:
            dw *= config.noise.mu
            dw *= math.sqrt(dt)
    else:
        spec = config._series
        dw = series_coeffs(spec, standard_gaussians(gen, (hi - lo, spec.N), spec.system.real))
        dw *= math.sqrt(dt)
    if config.g is not None:
        dw = multiply_on_grid(dw, config._g_values, grid.dim)
    return dw


def _system_spec(noise: SystemNoise, grid: Grid) -> SeriesSpec:
    """The series ``sum_n mu_n f_n`` of ``noise`` on ``grid``.

    Only its sampling is used, so s and q are placeholders.
    """
    return SeriesSpec(grid, noise.system, noise.coloring, noise.N, s=0.0, q=2.0)


def term_values_for_system(noise: SystemNoise, grid: Grid) -> np.ndarray:
    """Stacked coefficients of ``mu_n f_n`` on ``grid``, shape (N, *grid), of a fresh spec."""
    return term_values(_system_spec(noise, grid))


def _ou_step_variance(mu: np.ndarray, lam: np.ndarray, dt: float) -> np.ndarray:
    """``mu^2 (1 - exp(-2 lam dt)) / (2 lam)`` with the lam = 0 limit ``mu^2 dt``."""
    out = np.empty_like(mu, dtype=float)
    zero = lam == 0
    nz = ~zero
    out[nz] = mu[nz] ** 2 * (-np.expm1(-2.0 * lam[nz] * dt)) / (2.0 * lam[nz])
    out[zero] = mu[zero] ** 2 * dt
    return out


def second_moment_closed_form(config: SpdeConfig, s: float, t: float = None) -> float:
    """``E ||u(t)||^2`` in smoothness 1 - s at q = 2, for g = 1 diagonal noise.

    ``sum_k (1 + 4 pi^2 |k/L|^2)^(1-s) mu_k^2 (1 - exp(-2 lam_k t)) / (2 lam_k)``
    with the zero mode contributing ``mu_0^2 t``.
    """
    if not isinstance(config.noise, DiagonalNoise) or config.g is not None:
        raise ValueError("closed form needs g = 1 and diagonal noise")
    if t is None:
        t = config.T
    lam = heat_eigenvalues(config.grid)
    var = _ou_step_variance(config.noise.mu, lam, t)
    weights = bessel_multiplier(config.grid, 1.0 - s) ** 2
    return float(np.sum(weights * var) * config.grid.length**config.grid.dim)


def second_moment_exp_euler(config: SpdeConfig, s: float) -> float:
    """Exact ``E ||u(T)||^2`` of the exponential Euler scheme, g = 1 diagonal.

    Each mode accumulates variance ``mu^2 dt sum_{j=1}^M exp(-2 lam j dt)``,
    a geometric sum evaluated in closed form.
    """
    if not isinstance(config.noise, DiagonalNoise) or config.g is not None:
        raise ValueError("scheme moment needs g = 1 and diagonal noise")
    lam = heat_eigenvalues(config.grid)
    dt, M = config.dt, config.steps
    r = np.exp(-2.0 * lam * dt)
    geo = np.where(lam == 0, float(M), r * (1.0 - r**M) / np.maximum(1.0 - r, 1e-300))
    var = config.noise.mu**2 * dt * geo
    weights = bessel_multiplier(config.grid, 1.0 - s) ** 2
    return float(np.sum(weights * var) * config.grid.length**config.grid.dim)


def trajectory_norms(traj: Trajectory, s: float, q: float) -> np.ndarray:
    """Smoothness 1 - s spatial norm at every stored time, in one batched pass."""
    return hsq_norms(traj.grid, traj.coeffs.copy(), 1.0 - s, q, 1)


def time_norms(norms: np.ndarray, dts: np.ndarray, p: float) -> tuple:
    """``(lp, max)`` of spatial norms at stored times, reduced over the last axis.

    A ``(count, steps + 1)`` stack gives each row's values bit for bit.  ``lp``
    is the left-endpoint ``L^p(0, T)`` quadrature with step lengths ``dts``;
    ``max`` is the max-in-time norm, a crude substitute for the sup norm in
    time that is not equivalent to the endpoint Besov bound.
    """
    if not (1 <= p < math.inf):
        raise ValueError(f"p must lie in [1, inf), got {p}")
    # libm's scalar pow: numpy's vector pow (sqrt at p = 2) rounds some last bits otherwise
    root = np.vectorize(math.pow, otypes=[float])
    return root(np.sum(norms[..., :-1] ** p * dts, axis=-1), 1.0 / p), np.max(norms, axis=-1)


# ---------------------------------------------------------------------------
# parabolic scaling diagnostic

SCALING_G_WIDTH = 0.5       # width of the multiplier bump g at m = 0


def scaling_diagnostic(alpha: float, params: ParamTuple, m_range, grid: Grid,
                       levels: int = 3, beta: float = 1.0, oversample: int = 2):
    """Parabolic-scaling necessity sweep of the driving Haar series.

    For each m the composite ``g * noise`` is compressed by ``2^m`` (levels
    shift up, the coloring picks up the self-similarity factor), and the
    square-function norm is measured against the product of the multiplier
    norm and the weighted sequence norm in ``params.zeta``, which must equal
    d/alpha.  Returns the records and the fitted exponent of the log2 ratio
    per dyadic compression, next to the parabolic scaling prediction.
    """
    predicted = predicted_exponent(params, "spde_scaling", alpha=alpha)
    d = params.d
    m_range = sorted(int(m) for m in m_range)
    if min(m_range) < 0:
        raise ValueError(f"compressions m must be >= 0, got m = {min(m_range)}")
    j_hi = levels - 1
    need = 2 ** (j_hi + max(m_range) + 3)
    if grid.n < need:
        raise ValueError(f"grid too coarse: need n >= {need} for these levels")

    base = HaarSystem(d, 0, j_hi)
    base_idxs = [idx for j in range(levels) for idx in base.level_indices(j)]
    base_weights = Coloring.haar(alpha, beta, d).weights(base_idxs)
    coords = grid.coords()
    records = []
    for m in m_range:
        haar = HaarSystem(d, 0, j_hi + m)
        idxs = [(sigma, j + m, k) for sigma, j, k in base_idxs]
        weights = 2.0 ** (m * (alpha - d / 2.0)) * base_weights
        mu_norm = weighted_sequence_norm(weights, [haar.sup_norm(idx) for idx in idxs],
                                         params.zeta)

        gm = bump_values(coords, SCALING_G_WIDTH * 2.0 ** (-m - 1),
                         SCALING_G_WIDTH * 2.0 ** (-m))
        terms = render_terms(haar, idxs, grid, weights, gm)
        lhs = sq_function_from_terms(grid, terms, params.s, params.q, oversample=oversample)
        g_field = forward_transform(grid, gm)
        rhs = lq_norm(g_field, params.eta, oversample=oversample) * mu_norm
        records.append(SweepRecord("spde_scaling", m, lhs, rhs))
    return records, fit_ratio_exponent(records, predicted)
