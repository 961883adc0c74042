"""Sampling of truncated Gaussian series and estimators of their mean-square norm.

A series spec bundles an orthonormal system, a coloring, an optional
multiplier field g, a truncation N and the target smoothness/integrability
(s, q).  Three estimators are provided: Monte Carlo averaging of squared
norms, the deterministic square-function surrogate, and the exact
Hilbert-Schmidt value at q = 2.

Everything is built in coefficient space.  ``render_terms`` stacks the
coefficients of ``g w_i f_i``, shape (N, *grid); the square-function
estimator, and the Hilbert-Schmidt value of a non-Fourier system, read that
stack (``term_values``) as it is.
Samples come from ``series_coeffs``: a Fourier term ``mu_n f_n`` is a single
lattice coefficient, so a batch of draws is scattered onto the lattice and
g, if set, is applied by one batched inverse/forward transform pair, with no
(N, *grid) stack built; other systems multiply the draws into the stack.

At q = 2 every squared norm is a weighted sum of squared moduli.  A
Fourier series without g never leaves the lattice: ``||X||^2 =
sum_n |gamma_n|^2 w_n`` with ``w_n = L^d (mu_n m_n)^2`` and ``m_n`` the
Bessel symbol at mode n, so the Monte Carlo estimator reads the N weights
and, like the Hilbert-Schmidt value, builds no grid array.  Other
samples are ``sum_j |c_j|^2 L^d m_j^2`` over their coefficients c, with no
symbol pass and no square root.  With g, each Fourier term is
``L^d mu_n^2 sum_j m_j^2 |g^_{j-k_n}|^2``, so the Hilbert-Schmidt value is
the periodic correlation of ``m^2`` with ``|g^|^2``, summed directly at the
N modes; only non-Fourier systems sum a term stack for it.

At even q != 2 a Fourier series without g goes from the lattice into the
``L^q`` rule chunk by chunk: the scaled draws ``gamma_n mu_n m_n`` of a few
samples at a time are put into zeroed spectra cropped to the samples' band,
``(2 B + 1)^d`` coefficients each, with no (batch, *grid) array.

The Monte Carlo estimator streams each block of ``MC_BLOCK`` samples: it
draws the block's Gaussians from the block's one stream a chunk of rows at
a time and measures each chunk before drawing the next, so its largest
array is ``chunk rows x max(N, n^d)``, not ``MC_BLOCK x n^d``.  A chunk's
coefficients, spectra, padded axes and powers live in a ``Scratch`` made
once per block, and every chunk of the block reuses that memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import Grid, Scratch, SpectralField
from .norms import (DEFAULT_OVERSAMPLE, QUADRATURE_CELLS, abs_power, bessel_multiplier, hsq_norms,
                    lq_rule, sq_function_from_terms)
from .rng import standard_gaussians, stream
from .systems import Coloring, FourierSystem

from concurrent.futures import ThreadPoolExecutor

MC_BLOCK = 256      # Monte Carlo samples per random stream; part of the stream layout
SCATTER_ROWS = 32   # rows per flat lattice scatter; bounds its index array at 32 * N
CORRELATION_CELLS = 2**18   # window cells gathered at once by _periodic_correlation


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
                            None if self.g is None else self._g_values)

    @cached_property
    def _g_values(self) -> np.ndarray:
        """Read-only grid values of g, transformed once per spec."""
        values = self.g.values()
        values.flags.writeable = False
        return values

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

    @cached_property
    def _lattice_modes(self) -> tuple:
        """Signed frequencies of the N modes, shape (N, d), and each one's largest ``|k_i|``."""
        ks = np.stack(np.unravel_index(self._lattice[0], self.grid.shape), axis=-1)
        ks = np.where(ks > self.grid.n // 2, ks - self.grid.n, ks)
        return ks, np.abs(ks).max(axis=1)

    @cached_property
    def _band_puts(self) -> dict:
        """Per band, the modes inside it and their put indices; filled by ``_band_scatter``."""
        return {}

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


def series_coeffs(spec: SeriesSpec, gam: np.ndarray, *, scratch: Scratch = None) -> np.ndarray:
    """Coefficients of ``g sum_n gam[b, n] mu_n f_n`` for a batch of draws.

    ``gam`` has shape (batch, N); the result has shape (batch, *grid).  A
    Fourier term is one lattice coefficient, so the draws are scattered
    straight onto the lattice and g, if set, is applied by one batched
    transform pair; other systems multiply the draws into their coefficient
    stack.  The result is an array of ``scratch`` when one is given.
    """
    grid = spec.grid
    scratch = Scratch() if scratch is None else scratch
    coeffs = scratch.array("coeffs", (gam.shape[0], grid.n**grid.dim))
    if isinstance(spec.system, FourierSystem):
        positions, mus = spec._lattice
        coeffs.fill(0)
        _scatter_rows(coeffs, positions, gam, mus)
        coeffs = coeffs.reshape((-1,) + grid.shape)
        if spec.g is None:
            return coeffs
        return multiply_on_grid(coeffs, spec._g_values, grid.dim)
    return np.matmul(gam, term_values(spec).reshape(spec.N, -1), out=coeffs).reshape(
        (-1,) + grid.shape)


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

    Block b of ``MC_BLOCK`` samples draws its (rows, N) Gaussians from the
    stream derived from (seed, b), and sample i is row ``i % MC_BLOCK`` of
    block ``i // MC_BLOCK``.  A block is drawn and measured a chunk of rows
    at a time, through buffers made once per block; the generator fills
    draws in order, so the chunks' draws are the rows of one block draw.
    Pool tasks are blocks, so the estimate is independent of worker count,
    and the first ``4 floor(M/4)`` samples (whole 4-row groups of BLAS) are
    the same whatever M is; the reduction uses exact summation.

    A chunk holds the largest power of two of rows, from 8 to ``MC_BLOCK``,
    whose cells fit in ``QUADRATURE_CELLS``: a row is N draws on the lattice
    paths and ``n^d`` coefficients on the grid paths.  Every chunk but a
    block's last is then a whole number of the 4-row groups in which BLAS
    forms a matrix product, and a last chunk of one row, which BLAS would
    take through another kernel, joins the one before; so every squared norm
    has the bits of the whole-block product.

    At q = 2 a chunk's squared norms are one weighted squared-modulus sum.  A
    Fourier spec without g stays on the lattice: ``|gam|^2 @ w`` with the
    weights ``w_n`` of ``_lattice_weights``, and no grid array is built.
    Otherwise the samples' coefficients c give ``|c|^2 @ (L^d m^2)``, with the
    squared symbol m^2 computed once per call.  At other even q a Fourier
    spec without g scales its draws by ``mu_n m_n`` in place and hands them
    to ``lq_rule`` through band-cropped spectra (``_lattice_lq_norms``).
    Otherwise each sample is assembled on the grid and measured by
    ``hsq_norms``, which smooths it by the Bessel symbol and asks
    ``lq_norms`` for its norm, so q must lie in (1, inf).
    """
    if M < 2:
        raise ValueError("need at least M = 2 samples")
    grid = spec.grid
    if spec.q == 2 and spec._on_lattice:
        weights = spec._lattice_weights

        def squared_norms(gam: np.ndarray, scratch: Scratch) -> np.ndarray:
            return abs_power(gam, 2, out=scratch.array("sq", gam.shape, np.float64)) @ weights
    elif spec.q == 2:
        weights = grid.length**grid.dim * bessel_multiplier(grid, -spec.s).reshape(-1) ** 2

        def squared_norms(gam: np.ndarray, scratch: Scratch) -> np.ndarray:
            coeffs = series_coeffs(spec, gam, scratch=scratch).reshape(gam.shape[0], -1)
            return abs_power(coeffs, 2, out=scratch.array("sq", coeffs.shape, np.float64)) @ weights
    elif spec._on_lattice and spec.q % 2 == 0:
        positions, mus = spec._lattice
        symbol = bessel_multiplier(grid, -spec.s).reshape(-1)[positions]

        def squared_norms(gam: np.ndarray, scratch: Scratch) -> np.ndarray:
            gam *= mus
            gam *= symbol
            return _lattice_lq_norms(spec, gam, oversample, scratch) ** 2
    else:
        def squared_norms(gam: np.ndarray, scratch: Scratch) -> np.ndarray:
            coeffs = series_coeffs(spec, gam, scratch=scratch)
            return hsq_norms(grid, coeffs, -spec.s, spec.q, oversample, scratch=scratch) ** 2

    cells = spec.N if spec._on_lattice and spec.q % 2 == 0 else grid.n**grid.dim
    step = min(MC_BLOCK, max(8, 1 << (max(1, QUADRATURE_CELLS // cells).bit_length() - 1)))
    norms_sq = np.empty(M)

    def run_block(b: int) -> None:
        lo, hi = b * MC_BLOCK, min((b + 1) * MC_BLOCK, M)
        gen, scratch = stream(seed, b), Scratch()
        starts = list(range(lo, hi, step))
        if len(starts) > 1 and hi - starts[-1] == 1:
            starts.pop()
        for a, z in zip(starts, starts[1:] + [hi]):
            gam = standard_gaussians(gen, (z - a, spec.N), spec.system.real)
            norms_sq[a:z] = squared_norms(gam, scratch)

    blocks = range(-(-M // MC_BLOCK))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_block, blocks))
    else:
        for b in blocks:
            run_block(b)

    return MCEstimate.from_squared_norms(norms_sq, seed)


def _lattice_lq_norms(spec: SeriesSpec, amps: np.ndarray, oversample: int,
                      scratch: Scratch) -> np.ndarray:
    """``L^q`` norms of the fields ``sum_n amps[b, n] f_n`` of a Fourier spec at even q.

    A row's band is the largest ``|k_i|`` at an exactly nonzero amplitude,
    below ``n/2``.  ``lq_rule`` asks for a chunk of rows at a time, and their
    amplitudes are put into ``(rows, (2 band + 1)^d)`` spectra of
    ``scratch``, zeroed first, so no ``(rows, n^d)`` array is built.
    """
    kmax = spec._lattice_modes[1]
    if amps.all():
        bands = np.full(amps.shape[0], kmax.max())
    else:
        bands = np.where(amps != 0, kmax, 0).max(axis=1)
    dim = spec.grid.dim

    def spectra(rows: np.ndarray, band: int) -> np.ndarray:
        keep, puts = _band_scatter(spec, band, rows.size)
        vals = amps[rows] if keep is None else amps[np.ix_(rows, keep)]
        out = scratch.array("spectra", (rows.size,) + (2 * band + 1,) * dim)
        out.fill(0)
        out.reshape(-1)[puts.reshape(-1)] = vals.reshape(-1)
        return out

    return lq_rule(spec.grid, spec.q, oversample, bands, spectra, scratch=scratch)


def _band_scatter(spec: SeriesSpec, band: int, rows: int) -> tuple:
    """The modes of ``spec`` inside ``band`` and where ``rows`` rows of them go in cropped spectra.

    Returns ``keep``, a mask of the modes with every ``|k_i| <= band`` (None
    when that is all of them), and the ``(rows, kept modes)`` flat indices
    of their coefficients in a stack of ``(2 band + 1)^d`` spectra.  Cached
    per band on the spec, for the most rows asked so far.
    """
    keep, puts = spec._band_puts.get(band, (None, None))
    if puts is None or puts.shape[0] < rows:
        ks, kmax = spec._lattice_modes
        size = 2 * band + 1
        keep = kmax <= band     # the modes beyond a row's band are zero in it
        flat = np.ravel_multi_index(tuple((ks[keep] % size).T), (size,) * spec.grid.dim)
        keep = None if keep.all() else keep
        puts = np.arange(rows)[:, None] * size**spec.grid.dim + flat
        spec._band_puts[band] = keep, puts
    return keep, puts[:rows]


def hs_gamma_norm_exact(spec: SeriesSpec) -> float:
    """Exact mean-square norm at q = 2 through the Hilbert-Schmidt identity.

    ``(sum_n mu_n^2 ||(1-Lap)^{-s/2}(g f_n)||_2^2)^{1/2}``, evaluated
    spectrally.  A Fourier term of mode ``k_n`` is ``L^d mu_n^2 c(k_n)`` with
    ``c(k) = sum_j m_j^2 |g^_{j-k}|^2``, the periodic correlation of the
    squared symbol with ``|g^|^2`` (``c = m^2`` without g), summed directly
    so that every term is nonnegative and each ``c(k_n)`` keeps full relative
    accuracy; so no Fourier spec renders a term stack.  Other systems sum
    their stack.
    """
    if spec.q != 2:
        raise ValueError("the Hilbert-Schmidt identity requires q = 2")
    grid = spec.grid
    mult = bessel_multiplier(grid, -spec.s)
    if isinstance(spec.system, FourierSystem):
        positions, mus = spec._lattice
        m_sq = mult**2
        if spec.g is None:
            c = m_sq.reshape(-1)[positions]
        else:
            c = _periodic_correlation(m_sq, np.abs(spec.g.coeffs) ** 2, positions)
        return math.sqrt(grid.length**grid.dim * math.fsum(mus**2 * c))
    coeffs = term_values(spec) * mult
    total = np.sum(np.abs(coeffs) ** 2) * grid.length**grid.dim
    return float(np.sqrt(total))


def _periodic_correlation(a: np.ndarray, b: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """``c(k) = sum_j a_j b_{j-k}`` on the periodic lattice, at the flat ``positions`` of k.

    Entry k reads b through the window of b tiled twice per axis that starts
    at ``-k mod n``, ``CORRELATION_CELLS`` cells of windows at a time, and
    dots it with a.  Unlike a transform-based correlation, whose rounding
    error is absolute, a sum of nonnegative a and b is relatively exact
    wherever c is small.
    """
    windows = sliding_window_view(np.tile(b, (2,) * b.ndim), b.shape)
    starts = tuple(-k % b.shape[0] for k in np.unravel_index(positions, b.shape))
    flat_a = a.reshape(-1)
    out = np.empty(len(positions))
    rows = max(1, CORRELATION_CELLS // a.size)
    for lo in range(0, len(positions), rows):
        block = windows[tuple(k[lo:lo + rows] for k in starts)]
        out[lo:lo + rows] = block.reshape(-1, a.size) @ flat_a
    return out


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
