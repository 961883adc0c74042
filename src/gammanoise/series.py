"""Sampling of truncated Gaussian series and estimators of their mean-square norm.

A series spec bundles an orthonormal system, a coloring, an optional
multiplier field g, a truncation N and the target smoothness/integrability
(s, q).  Three estimators are provided: Monte Carlo averaging of squared
norms, the deterministic square-function surrogate, and the exact
Hilbert-Schmidt value at q = 2.

Everything is built in coefficient space.  ``render_terms`` stacks the
coefficients of ``g w_i f_i``, shape (N, *grid); the square-function and
Hilbert-Schmidt estimators read that stack (``term_values``) as it is.
Samples come from ``series_coeffs``: a Fourier term ``mu_n f_n`` is a single
lattice coefficient, so a batch of draws is scattered onto the lattice and
g, if set, is applied by one batched inverse/forward transform pair, with no
(N, *grid) stack built; other systems multiply the draws into the stack.

A Fourier series without g never leaves the lattice at q = 2: its
``H^{-s,2}`` norm is ``||X||^2 = sum_n |gamma_n|^2 w_n`` with
``w_n = L^d (mu_n m_n)^2`` and ``m_n`` the Bessel symbol at mode n, so the
Monte Carlo estimator and the Hilbert-Schmidt value read the N weights and
build no grid array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import Grid, SpectralField
from .norms import DEFAULT_OVERSAMPLE, bessel_multiplier, lq_norms, sq_function_from_terms
from .rng import standard_gaussians, stream
from .systems import Coloring, FourierSystem

from concurrent.futures import ThreadPoolExecutor

MC_BLOCK = 256      # Monte Carlo samples per random stream; part of the stream layout
SCATTER_ROWS = 32   # rows per flat lattice scatter; bounds its index array at 32 * N


@dataclass(frozen=True)
class SeriesSpec:
    """Truncated Gaussian series ``g * sum_{n<=N} gamma_n mu_n f_n``.

    Immutable, so its cached terms never go stale; vary it with ``dataclasses.replace``.
    ``g`` is held as a read-only copy of the field passed in.
    """

    grid: Grid
    system: object
    coloring: Coloring
    N: int
    s: float
    q: float
    g: SpectralField = None

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError("truncation N must be >= 1")
        if self.g is not None:
            if self.g.grid != self.grid:
                raise ValueError("multiplier field lives on a different grid")
            g = SpectralField(self.grid, self.g.coeffs.copy(), real=self.g.real)
            g.coeffs.flags.writeable = False
            object.__setattr__(self, "g", g)

    @cached_property
    def _terms(self) -> np.ndarray:
        """Stacked coefficients of ``g mu_n f_n``, shape (N, *grid)."""
        idxs = self.system.indices(self.N)
        return render_terms(self.system, idxs, self.grid, self.coloring.weights(idxs),
                            None if self.g is None else self.g.values())

    @cached_property
    def _lattice(self) -> tuple:
        """Fourier lattice positions of the N modes and their weights ``mu_n``."""
        idxs = self.system.indices(self.N)
        return self.system.lattice_positions(idxs, self.grid), self.coloring.weights(idxs)

    @cached_property
    def _lattice_weights(self) -> np.ndarray:
        """``w_n = L^d (mu_n m_n)^2`` of a Fourier spec without g, m the symbol of order -s.

        The squared ``H^{-s,2}`` norm of ``sum_n gamma_n mu_n f_n`` is
        ``sum_n |gamma_n|^2 w_n`` and its mean is ``sum_n w_n``.
        """
        positions, mus = self._lattice
        symbol = bessel_multiplier(self.grid, -self.s).reshape(-1)[positions]
        return self.grid.length**self.grid.dim * (mus * symbol) ** 2

    @property
    def _on_lattice(self) -> bool:
        """Whether each term is one lattice coefficient: a Fourier system without g."""
        return self.g is None and isinstance(self.system, FourierSystem)


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo estimate of the mean squared norm.

    ``mean`` averages the squared norms (the quantity the mean-square
    estimate controls); ``mean_norm`` averages the norms themselves and is
    reported alongside.  ``values`` holds the per-sample squared norms.
    """

    mean: float
    stderr: float
    samples: int
    seed: int
    mean_norm: float = 0.0
    values: np.ndarray = field(default=None, compare=False, repr=False)

    @classmethod
    def from_squared_norms(cls, norms_sq, seed: int) -> "MCEstimate":
        """Mean, standard error and mean norm of the samples, each by exact summation."""
        values = np.array(norms_sq, dtype=float)
        values.flags.writeable = False
        M = values.size
        mean = math.fsum(values) / M
        var = math.fsum((x - mean) ** 2 for x in values) / (M - 1)
        return cls(mean=mean, stderr=math.sqrt(var / M), samples=M, seed=seed,
                   mean_norm=math.fsum(np.sqrt(values)) / M, values=values)


def render_terms(system, idxs, grid: Grid, weights, g_values=None) -> np.ndarray:
    """Stacked coefficients of ``g w_i f_i`` over ``idxs``, shape (len(idxs), *grid).

    Rows are the members' rendered coefficients times their weights.  With
    ``g_values`` the stack goes to the grid once, real part taken for a real
    system, and the weights and then g are applied there before the way back.
    """
    terms = np.empty((len(idxs),) + grid.shape, dtype=complex)
    for i, idx in enumerate(idxs):
        terms[i] = system.render(idx, grid).coeffs
    weights = np.reshape(weights, (-1,) + (1,) * grid.dim)
    if g_values is None:
        terms *= weights
        return terms
    axes = tuple(range(1, grid.dim + 1))
    vals = np.fft.ifftn(terms, axes=axes, out=terms)
    if system.real:     # a complex g would not fit back into the real part
        vals = vals.real * weights * g_values
    else:
        vals *= weights
        vals *= g_values
    return np.fft.fftn(vals, axes=axes)


def term_values(spec: SeriesSpec) -> np.ndarray:
    """Stacked coefficients of ``g mu_n f_n``, shape (N, *grid); cached."""
    return spec._terms


def series_coeffs(spec: SeriesSpec, gam: np.ndarray) -> np.ndarray:
    """Coefficients of ``g sum_n gam[b, n] mu_n f_n`` for a batch of draws.

    ``gam`` has shape (batch, N); the result has shape (batch, *grid).  A
    Fourier term is one lattice coefficient, so the draws are scattered
    straight onto the lattice and g, if set, is applied by one batched
    transform pair; other systems multiply the draws into their coefficient
    stack.
    """
    grid = spec.grid
    if isinstance(spec.system, FourierSystem):
        positions, mus = spec._lattice
        coeffs = np.zeros((gam.shape[0], grid.n**grid.dim), dtype=np.complex128)
        _scatter_rows(coeffs, positions, gam, mus)
        coeffs = coeffs.reshape((-1,) + grid.shape)
        if spec.g is None:
            return coeffs
        return multiply_on_grid(coeffs, spec.g.values(), grid.dim)
    return (gam @ term_values(spec).reshape(spec.N, -1)).reshape((-1,) + grid.shape)


def _scatter_rows(out: np.ndarray, positions: np.ndarray, gam: np.ndarray,
                  mus: np.ndarray) -> None:
    """``out[:, positions] = gam * mus`` for a C-contiguous 2-d ``out``, as flat puts.

    numpy's fancy assignment along axis 1 is slow; a put through the flat
    array, ``SCATTER_ROWS`` rows at a time, writes the same entries with one
    ``(SCATTER_ROWS, len(positions))`` index array and a product of that size.
    """
    offsets = np.arange(min(SCATTER_ROWS, out.shape[0]))[:, None] * out.shape[1] + positions
    for lo in range(0, out.shape[0], SCATTER_ROWS):
        hi = min(lo + SCATTER_ROWS, out.shape[0])
        out[lo:hi].reshape(-1)[offsets[:hi - lo].reshape(-1)] = (gam[lo:hi] * mus).reshape(-1)


def multiply_on_grid(coeffs: np.ndarray, g_values: np.ndarray, dim: int) -> np.ndarray:
    """Coefficients of ``g f`` for each field of a stack (..., *grid), computed in place."""
    axes = tuple(range(-dim, 0))
    vals = np.fft.ifftn(coeffs, axes=axes, out=coeffs)
    vals *= g_values
    return np.fft.fftn(vals, axes=axes, out=vals)


def mc_gamma_norm(spec: SeriesSpec, M: int, seed: int, workers: int = 1,
                  oversample: int = DEFAULT_OVERSAMPLE) -> MCEstimate:
    """Estimate ``E ||.||^2`` in the (-s, q) norm over M independent samples.

    Block b of ``MC_BLOCK`` samples draws its (rows, N) Gaussians in one call
    from the stream derived from (seed, b), and sample i is row
    ``i % MC_BLOCK`` of block ``i // MC_BLOCK``.  Pool tasks are blocks, so
    the estimate is independent of worker count, and the first samples are
    the same whatever M is; the reduction uses exact summation.

    At q = 2 a Fourier spec without g stays on the lattice: a block's squared
    norms are ``|gam|^2 @ w`` with the weights ``w_n`` of ``_lattice_weights``,
    and no grid array is built.  Otherwise each sample is assembled on the
    grid, smoothed by the Bessel symbol and measured by ``lq_norms``.
    """
    if M < 2:
        raise ValueError("need at least M = 2 samples")
    if spec.q == 2 and spec._on_lattice:
        weights = spec._lattice_weights

        def squared_norms(gam: np.ndarray) -> np.ndarray:
            # squared in place: a block then allocates only one (rows, N) array
            pairs = gam.view(np.float64).reshape(gam.shape + (2,))
            np.square(pairs, out=pairs)
            return (pairs[..., 0] + pairs[..., 1]) @ weights
    else:
        mult = bessel_multiplier(spec.grid, -spec.s)

        def squared_norms(gam: np.ndarray) -> np.ndarray:
            coeffs = series_coeffs(spec, gam)
            coeffs *= mult
            return lq_norms(spec.grid, coeffs, spec.q, oversample) ** 2

    norms_sq = np.empty(M)

    def run_block(b: int) -> None:
        lo, hi = b * MC_BLOCK, min((b + 1) * MC_BLOCK, M)
        gam = standard_gaussians(stream(seed, b), (hi - lo, spec.N), spec.system.real)
        norms_sq[lo:hi] = squared_norms(gam)

    blocks = range(-(-M // MC_BLOCK))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_block, blocks))
    else:
        for b in blocks:
            run_block(b)

    return MCEstimate.from_squared_norms(norms_sq, seed)


def hs_gamma_norm_exact(spec: SeriesSpec) -> float:
    """Exact mean-square norm at q = 2 through the Hilbert-Schmidt identity.

    ``(sum_n mu_n^2 ||(1-Lap)^{-s/2}(g f_n)||_2^2)^{1/2}``, evaluated
    spectrally term by term.  A Fourier spec without g sums its lattice
    weights ``w_n`` and renders no term stack.
    """
    if spec.q != 2:
        raise ValueError("the Hilbert-Schmidt identity requires q = 2")
    if spec._on_lattice:
        return math.sqrt(math.fsum(spec._lattice_weights))
    coeffs = term_values(spec) * bessel_multiplier(spec.grid, -spec.s)
    total = np.sum(np.abs(coeffs) ** 2) * spec.grid.length**spec.grid.dim
    return float(np.sqrt(total))


def sq_function_gamma_norm(spec: SeriesSpec, oversample: int = DEFAULT_OVERSAMPLE) -> float:
    """Deterministic square-function surrogate of the mean-square norm.

    ``||S||_{L^q}`` with ``S = (sum_n |(1-Lap)^{-s/2}(g mu_n f_n)|^2)^{1/2}``.
    At each quadrature point the series X is a centred Gaussian of variance
    ``S^2``, so ``E ||X||_q^q = c_q ||S||_q^q`` exactly, with ``c_q`` the q-th
    absolute moment of a unit Gaussian: ``Gamma(1 + q/2)`` for a complex
    system, ``2^{q/2} Gamma((q+1)/2) / sqrt(pi)`` for a real one.  At q = 2
    this is the Hilbert-Schmidt value.
    """
    terms = term_values(spec)
    return sq_function_from_terms(spec.grid, terms, spec.s, spec.q, oversample=oversample)
