"""Discrete function-space norms on the torus.

Lebesgue norms use rectangle-rule quadrature on the trigonometric
interpolant, sampled on a grid ``factor`` times finer than the field's.  At
even q, ``|f|^q`` is a trigonometric polynomial of degree ``q n / 2`` per
axis, so the rule is exact from factor ``q/2 + 1`` on, and the factor used is
``min(oversample, q/2 + 1)``; at other q it is ``oversample`` as given
(default 4) and the rule is an approximation.  The L2 case is evaluated
through Plancherel and is exact.  Negative-order smoothing is coefficient
multiplication by ``(1 + 4 pi^2 |k/L|^2)^(sigma/2)``.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, SpectralField, upsampled_values

DEFAULT_OVERSAMPLE = 4


def _is_even(q: float) -> bool:
    return q % 2 == 0


def _factor(q: float, oversample: int) -> int:
    """Oversampling factor of the ``L^q`` rule: no finer than exactness needs at even q."""
    return min(oversample, int(q) // 2 + 1) if _is_even(q) else oversample


def _abs_power(v: np.ndarray, q: float) -> np.ndarray:
    """``|v|^q``; at even q the integer power ``(re^2 + im^2)^(q/2)``, with no square root."""
    if not _is_even(q):
        return np.abs(v) ** q
    sq = v.real**2 + v.imag**2 if np.iscomplexobj(v) else v * v
    return sq ** (q / 2)


def lq_norm(f: SpectralField, q: float, oversample: int = DEFAULT_OVERSAMPLE) -> float:
    """``L^q`` norm by rectangle rule; exact at q = 2 and at even q from oversample q/2 + 1."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if not np.isfinite(q):
        raise ValueError("q must be finite")
    if q == 2:
        return float(np.sqrt(np.sum(np.abs(f.coeffs) ** 2) * f.grid.length ** f.grid.dim))
    factor = _factor(q, oversample)
    v = upsampled_values(f, factor)
    cell = (f.grid.length / (f.grid.n * factor)) ** f.grid.dim
    return float((np.sum(_abs_power(v, q)) * cell) ** (1.0 / q))


def lq_norms(grid: Grid, coeffs: np.ndarray, q: float, oversample: int) -> np.ndarray:
    """``L^q`` norms of a stack of coefficient arrays (leading batch axis), row by row."""
    if q == 2:
        axes = tuple(range(1, coeffs.ndim))
        return np.sqrt(np.sum(np.abs(coeffs) ** 2, axis=axes) * grid.length**grid.dim)
    out = np.empty(coeffs.shape[0])
    for b in range(coeffs.shape[0]):
        out[b] = lq_norm(SpectralField(grid, coeffs[b]), q, oversample=oversample)
    return out


def sq_function_from_terms(grid: Grid, terms: np.ndarray, s: float, q: float,
                           oversample: int = DEFAULT_OVERSAMPLE) -> float:
    """Square-function norm of a stack of term coefficients, shape (N, *grid)."""
    if not (1 < q < np.inf):
        raise ValueError(f"q must lie in (1, inf), got {q}")
    mult = bessel_multiplier(grid, -s)
    factor = _factor(q, oversample)
    acc = np.zeros(tuple(n * factor for n in grid.shape))
    for c in terms:
        acc += _abs_power(upsampled_values(SpectralField(grid, c * mult), factor), 2)
    cell = (grid.length / (grid.n * factor)) ** grid.dim
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


def bessel_apply(f: SpectralField, sigma: float) -> SpectralField:
    """Multiply coefficients by ``(1 + 4 pi^2 |k/L|^2)^(sigma/2)``."""
    if sigma == 0:
        return f
    return SpectralField(f.grid, f.coeffs * bessel_multiplier(f.grid, sigma), real=f.real)


def hsq_norm(f: SpectralField, sigma: float, q: float,
             oversample: int = DEFAULT_OVERSAMPLE) -> float:
    """Bessel-potential norm of smoothness ``sigma`` (negative for distributions)."""
    if not (1 < q < np.inf):
        raise ValueError(f"q must lie in (1, inf), got {q}")
    return lq_norm(bessel_apply(f, sigma), q, oversample=oversample)


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
