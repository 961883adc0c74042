"""Discrete function-space norms on the torus.

Lebesgue norms use rectangle-rule quadrature on the trigonometric
interpolant, sampled on ``m`` points per axis.  The rule integrates a
trigonometric polynomial exactly when its degree per axis is below ``m``.
At even q, ``|f|^q`` has degree ``q B``, where the band ``B`` is the largest
``|k|`` on any axis at an exactly nonzero coefficient (at most ``n/2``).
The base size is ``factor * n`` with factor ``min(oversample, q/2 + 1)``;
when it is exact (``factor * n > q B``), ``m`` is the smaller of it and the
least ``2^a 3^b 5^c`` above ``q B``, else it is kept, so no inexact value
moves.  At other q, ``m`` is ``oversample * n`` (default 4) and the rule is an
approximation.  The L2 case is evaluated through Plancherel and is exact.
``lq_rule`` is the one rule: it takes a stack of rows a cache-sized chunk at
a time, rows of one band together, and asks its caller for each chunk's
spectra, so samples of a Fourier series at even q go from the lattice into
the rule chunk by chunk, cropped to their band, with no full grid per sample;
every chunk's padded axes and ``|v|^q`` go into the same arrays of one
``Scratch``.
A single field enters it as a stack of one, and the square function sends
its terms through the same interpolation in chunks of the same size.
Negative-order smoothing is coefficient multiplication by
``(1 + 4 pi^2 |k/L|^2)^(sigma/2)``; ``hsq_norms`` is the one place a stack
is smoothed before ``lq_norms`` measures it.
Every memory budget of the lab is declared here, in cells, and every chunked
loop sizes its chunks with ``chunk_rows`` against one of them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import Grid, Scratch, SpectralField, spectral_band, upsampled_values

DEFAULT_OVERSAMPLE = 4
QUADRATURE_CELLS = 2**15   # cells per chunk of the L^q rule and of Monte Carlo: 512 KiB complex
STREAM_CELLS = 2**18       # cells per chunk of heat increments and of correlation windows: 4 MiB
CELLS_MAX = 2**25          # cells of the largest array the lab builds: 512 MiB of complex values


def _check_norm_q(q: float) -> None:
    if not (1 < q < np.inf):
        raise ValueError(f"q must lie in (1, inf), got {q}")


def _is_even(q: float) -> bool:
    return q % 2 == 0


def _factor(q: float, oversample: int) -> int:
    """Factor of the base size ``factor * n``: ``min(oversample, q/2 + 1)`` at even q.

    From ``q/2 + 1`` on the base size is exact at any band; ``_points`` then
    shrinks it to fit the field's band ``B`` wherever it is exact
    (``factor * n > q B``).  At other q the factor is ``oversample``.
    """
    return min(oversample, int(q) // 2 + 1) if _is_even(q) else oversample


def _smooth_above(x: int) -> int:
    """Least ``2^a 3^b 5^c`` above ``x``, a size the FFT transforms fast."""
    m = x + 1
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


@lru_cache(maxsize=256)
def _points(q: float, oversample: int, n: int, band: int) -> int:
    """Points per axis of the ``L^q`` rule for a field of band ``band`` on ``n`` points.

    Where ``factor * n <= q B`` the 5-smooth size is the larger, so an inexact
    base size is kept.  Cached, as the 5-smooth search is a Python loop and the
    rule runs per field.
    """
    m = _factor(q, oversample) * n
    return min(m, _smooth_above(int(q) * band)) if _is_even(q) else m


def chunk_rows(row_cells: int, budget: int) -> int:
    """Rows of ``row_cells`` cells per chunk: as many as ``budget`` cells hold, at least one.

    The one sizing rule of every chunked loop; ``budget`` is one of the
    budgets above, passed by the caller, so a test can lower the name that
    caller reads.
    """
    return max(1, budget // row_cells)


def _band(grid: Grid, coeffs: np.ndarray, q: float) -> int:
    """The band of ``coeffs`` at even q; ``n/2`` elsewhere, where the rule ignores it."""
    return spectral_band(grid, coeffs) if _is_even(q) else grid.n // 2


def abs_power(v: np.ndarray, q: float, out: np.ndarray = None) -> np.ndarray:
    """``|v|^q``; at even q the integer power ``(re^2 + im^2)^(q/2)``, with no square root.

    At even q the float view of a C-contiguous complex ``v`` is squared in
    place, overwriting ``v``, and its halves added; at q = 2 that sum is the
    result, with no power pass.  The result goes into ``out`` when given.
    """
    if not _is_even(q):
        p = np.abs(v, out=out)
        p **= q
        return p
    if np.iscomplexobj(v):
        pairs = v.view(np.float64).reshape(v.shape + (2,))
        np.square(pairs, out=pairs)
        sq = np.add(pairs[..., 0], pairs[..., 1], out=out)
    else:
        sq = np.multiply(v, v, out=out)
    if q != 2:
        sq **= q / 2
    return sq


def _check_q(q: float) -> None:
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if not np.isfinite(q):
        raise ValueError("q must be finite")


def lq_norm(f: SpectralField, q: float, oversample: int = DEFAULT_OVERSAMPLE) -> float:
    """``L^q`` norm by rectangle rule; exact at q = 2 and at even q from oversample q/2 + 1."""
    return float(lq_norms(f.grid, f.coeffs[None], q, oversample, real=f.real)[0])


def lq_norms(grid: Grid, coeffs: np.ndarray, q: float, oversample: int,
             real: bool = False, *, scratch: Scratch = None) -> np.ndarray:
    """``L^q`` norms of a stack of coefficient arrays (leading batch axis), row by row.

    At q = 2 the norms are Plancherel sums; otherwise each row's band
    (``n/2`` where q is not even) sizes its rule in ``lq_rule``, which takes
    its buffers from ``scratch``, and rows flagged ``real`` are measured
    through the real part of their values.
    """
    _check_q(q)
    if q == 2:
        axes = tuple(range(1, coeffs.ndim))
        return np.sqrt(np.sum(np.abs(coeffs) ** 2, axis=axes) * grid.length**grid.dim)
    bands = [_band(grid, c, q) for c in coeffs]
    return lq_rule(grid, q, oversample, bands, lambda rows, band: coeffs[rows], real=real,
                   scratch=scratch)


def lq_rule(grid: Grid, q: float, oversample: int, bands, spectra,
            real: bool = False, *, scratch: Scratch = None) -> np.ndarray:
    """``L^q`` norms by the rectangle rule of rows whose spectra are made a chunk at a time.

    The one ``L^q`` quadrature.  ``bands[i]`` is row i's band, ``n/2`` where
    q is not even.  ``spectra(rows, band)`` returns the stack of spectra that
    ``upsampled_values`` takes for the rows ``rows`` (an index array, all of
    band ``band``), full or cropped to ``2 band + 1`` points per axis; a
    single field is a stack of one.  Rows of one band share the rule's ``m``
    points per axis, found from the grid's own n, and go through it
    ``chunk_rows`` at a time, a chunk's input spectra and its fine-grid
    values each of at most ``QUADRATURE_CELLS`` cells, so a chunk stays in
    cache; each row's ``|v|^q`` is then summed on its own, with ``v`` the
    real part of the values when the rows are flagged ``real``.  A chunk's
    padded axes and its ``|v|^q`` are arrays of ``scratch`` (a new one when
    none is given), so every chunk reuses the memory of the first.
    """
    scratch = Scratch() if scratch is None else scratch
    bands = np.asarray(bands, dtype=int)
    out = np.empty(bands.size)
    for band in sorted(set(bands.tolist())):     # np.unique would import numpy.ma
        rows = np.flatnonzero(bands == band)
        m = _points(q, oversample, grid.n, band)
        cell = (grid.length / m) ** grid.dim
        step = chunk_rows(max(m, grid.n)**grid.dim, QUADRATURE_CELLS)
        for lo in range(0, rows.size, step):
            chunk = rows[lo:lo + step]
            v = upsampled_values(spectra(chunk, band), m, band, scratch=scratch)
            v = v.reshape(chunk.size, -1)
            powers = abs_power(v.real if real else v, q,
                               out=scratch.array("powers", v.shape, np.float64))
            for i, row in enumerate(chunk.tolist()):
                out[row] = (np.sum(powers[i]) * cell) ** (1.0 / q)
    return out


def sq_function_from_terms(grid: Grid, terms: np.ndarray, s: float, q: float,
                           oversample: int = DEFAULT_OVERSAMPLE) -> float:
    """Square-function norm of a stack of term coefficients, shape (N, *grid).

    The terms go through ``upsampled_values`` ``chunk_rows`` at a time,
    as rows go through ``lq_rule``, and each term's ``|v|^2`` is added in
    term order.
    """
    _check_norm_q(q)
    mult = bessel_multiplier(grid, -s)
    band = _band(grid, terms, q)
    m = _points(q, oversample, grid.n, band)
    acc = np.zeros((m,) * grid.dim)
    step = chunk_rows(max(m, grid.n)**grid.dim, QUADRATURE_CELLS)
    for lo in range(0, len(terms), step):
        for power in abs_power(upsampled_values(terms[lo:lo + step] * mult, m, band), 2):
            acc += power
    cell = (grid.length / m) ** grid.dim
    return float((np.sum(acc ** (q / 2.0)) * cell) ** (1.0 / q))


def weak_lp_norm(f: SpectralField, p: float) -> float:
    """Weak ``L^p`` quasi-norm via the decreasing rearrangement of samples.

    With samples sorted as a_1 >= a_2 >= ... this is
    ``max_j a_j (j * cell)^{1/p}``, the discrete distribution-function norm.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    a = np.sort(np.abs(f.values()).ravel())[::-1]
    j = np.arange(1, a.size + 1, dtype=float)
    return float(np.max(a * (j * f.grid.cell_measure) ** (1.0 / p)))


def heat_eigenvalues(grid: Grid) -> np.ndarray:
    """``lambda_k = 4 pi^2 |k/L|^2``, the symbol of ``-Lap`` on the frequency lattice."""
    return 4.0 * np.pi**2 * grid.k2_physical()


def bessel_multiplier(grid: Grid, sigma: float) -> np.ndarray:
    """``(1 + lambda_k)^(sigma/2)``, the symbol of ``(1 - Lap)^(sigma/2)``."""
    return (1.0 + heat_eigenvalues(grid)) ** (sigma / 2.0)


@lru_cache(maxsize=8)
def _bessel_symbol(grid: Grid, sigma: float) -> np.ndarray:
    """``bessel_multiplier(grid, sigma)``, built once per (grid, sigma) and read-only."""
    mult = bessel_multiplier(grid, sigma)
    mult.flags.writeable = False
    return mult


def hsq_norms(grid: Grid, coeffs: np.ndarray, sigma: float, q: float, oversample: int,
              real: bool = False, *, scratch: Scratch = None) -> np.ndarray:
    """Bessel-potential norms of smoothness ``sigma`` of a stack of coefficient arrays.

    The stack (leading batch axis) is multiplied in place by the cached
    symbol of ``(1 - Lap)^(sigma/2)``, so pass a copy to keep it, and its
    rows are measured by ``lq_norms`` with the buffers of ``scratch``.
    """
    _check_norm_q(q)
    coeffs *= _bessel_symbol(grid, sigma)
    return lq_norms(grid, coeffs, q, oversample, real=real, scratch=scratch)


def hsq_norm(f: SpectralField, sigma: float, q: float,
             oversample: int = DEFAULT_OVERSAMPLE) -> float:
    """Bessel-potential norm of smoothness ``sigma`` (negative for distributions)."""
    return float(hsq_norms(f.grid, f.coeffs[None].copy(), sigma, q, oversample, real=f.real)[0])


def bessel_kernel(grid: Grid, s: float) -> SpectralField:
    """Periodized Bessel-potential kernel, synthesized from its multiplier.

    Coefficients are ``(1 + 4 pi^2 |k/L|^2)^(-s/2) / L^d``; on the unit torus
    the kernel integrates to one and behaves like ``|x|^(s-d)`` near the
    origin, up to constants and the lattice truncation.
    """
    if not (0 < s < grid.dim):
        raise ValueError(f"s must lie in (0, d) = (0, {grid.dim}), got {s}")
    coeffs = bessel_multiplier(grid, -s) / grid.length**grid.dim
    return SpectralField(grid, coeffs.astype(np.complex128), real=True)
