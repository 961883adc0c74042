"""Convolution-type operators and their mean-square norms.

The operator ``h -> int f(x-y) g(y) h(y) dy`` has squared gamma(L2, Lq) norm
comparable to ``|| |f|^2 * |g|^2 ||_{L^{q/2}}`` (exactly equal at q = 2), so
everything reduces to one convolution computed spectrally.  A dense-matrix
Hilbert-Schmidt oracle guards the quadrature.  Convolution bounds of this
kind fail outright for eta > q or eta < 2; the checks here stay inside the
valid exponent range and do not probe the failure cases.

``gamma_young_check`` and ``mg_sobolev_gamma_norm`` take a stack of
multipliers, coefficient arrays along a leading row axis, and return one
value per row, as ``lq_norms`` does; a single field is a stack of one
(``g.coeffs[None]``), which is how ``afg_gamma_norm`` measures its pair.  A
stack costs one transform pair for ``|g|^2`` and one ``lq_norms`` pass per
exponent, and the kernel's side is computed once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, SpectralField, forward_coeffs, forward_transform, inverse_values
from .norms import (CELLS_MAX, DEFAULT_OVERSAMPLE, bessel_kernel, heat_eigenvalues, lq_norm,
                    lq_norms, weak_lp_norm)


@dataclass(frozen=True)
class ConvPair:
    """Kernel f, multiplier g, and target integrability q >= 2."""

    f: SpectralField
    g: SpectralField
    q: float

    def __post_init__(self) -> None:
        if self.f.grid != self.g.grid:
            raise ValueError("kernel and multiplier live on different grids")
        if self.q < 2:
            raise ValueError(f"q must be >= 2, got {self.q}")


def afg_gamma_norm(pair: ConvPair, oversample: int = DEFAULT_OVERSAMPLE) -> float:
    """``|| |f|^2 * |g|^2 ||_{L^{q/2}}^{1/2}``; the exact norm at q = 2."""
    g = pair.g
    return float(_afg_gamma_norms(pair.f, g.coeffs[None], pair.q, oversample, g.real)[0])


def _afg_gamma_norms(f: SpectralField, g: np.ndarray, q: float, oversample: int,
                     real: bool) -> np.ndarray:
    """``afg_gamma_norm`` of the kernel ``f`` with each row of the multiplier stack ``g``.

    The periodic convolution is the coefficient product times ``L^d``.  At
    q = 2 it is nonnegative and its L1 norm is its integral, read off the
    zero coefficient with no quadrature at all.
    """
    grid = f.grid
    if g.shape[1:] != grid.shape:
        raise ValueError(f"multiplier stack {g.shape} does not hold rows of grid {grid.shape}")
    F = forward_coeffs(grid, np.abs(f.values()) ** 2)
    G = forward_coeffs(grid, np.abs(inverse_values(grid, g, real)) ** 2)
    conv = F * G * grid.length**grid.dim
    if q == 2:
        return np.sqrt(np.abs(conv[(slice(None),) + (0,) * grid.dim]) * grid.length**grid.dim)
    return np.sqrt(lq_norms(grid, conv, q / 2.0, oversample, real=True))


def afg_bruteforce_hs(pair: ConvPair) -> float:
    """Frobenius norm of the dense discretized operator, continuum-normalized.

    Assembles ``K(x, y) = f(x - y) g(y)`` over all grid pairs, ``(n^d)^2``
    cells, so it takes grids of at most ``sqrt(CELLS_MAX)`` cells.
    """
    grid = pair.f.grid
    cells = grid.n**grid.dim
    if cells**2 > CELLS_MAX:
        raise ValueError(f"the dense operator on {grid.shape} has {cells**2} cells, "
                         f"above the budget of {CELLS_MAX}")
    fv = pair.f.values().ravel()
    gv = pair.g.values().ravel()
    unravel = np.unravel_index(np.arange(cells), grid.shape)
    diff_axes = [(unravel[a][:, None] - unravel[a][None, :]) % grid.n for a in range(grid.dim)]
    K = fv[np.ravel_multi_index(diff_axes, grid.shape)] * gv[None, :]
    return float(np.linalg.norm(K) * grid.cell_measure)


def gamma_young_check(kernel: SpectralField, g: np.ndarray, q: float, r: float,
                      eta: float, oversample: int = DEFAULT_OVERSAMPLE, real: bool = False):
    """Both sides of the weak-kernel Young inequality and their ratio, per row of ``g``.

    ``g`` is a stack of multiplier coefficients on the kernel's grid, flagged
    ``real`` as ``lq_norms`` takes it.  Requires ``1/q + 1/2 = 1/r + 1/eta``
    with all three exponents in (2, inf); returns the arrays (lhs, rhs,
    lhs / rhs), with ``x / 0`` read as inf and ``0 / 0`` as 0.
    """
    for name, val in (("q", q), ("r", r), ("eta", eta)):
        if not (2 < val < math.inf):
            raise ValueError(f"{name} must lie in (2, inf), got {val}")
    if abs(1.0 / q + 0.5 - 1.0 / r - 1.0 / eta) > 1e-9:
        raise ValueError("exponents must satisfy 1/q + 1/2 = 1/r + 1/eta")
    lhs = _afg_gamma_norms(kernel, g, q, oversample, real)
    rhs = weak_lp_norm(kernel, r) * lq_norms(kernel.grid, g, eta, oversample, real=real)
    ratio = np.where(lhs > 0, math.inf, 0.0)
    np.divide(lhs, rhs, out=ratio, where=rhs > 0)
    return lhs, rhs, ratio


def mg_sobolev_gamma_norm(grid: Grid, g: np.ndarray, s: float, q: float,
                          oversample: int = DEFAULT_OVERSAMPLE, real: bool = False) -> np.ndarray:
    """Mean-square norm of multiplication by g into smoothness -s, per row of ``g``.

    ``g`` is a stack of multiplier coefficients on ``grid``, flagged ``real``
    as ``lq_norms`` takes it.  Smoothing by the Bessel potential turns the
    multiplication operator into a convolution pair with the periodized
    kernel, so this is the afg norm with that kernel.
    """
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    return _afg_gamma_norms(bessel_kernel(grid, s), g, q, oversample, real)


def schatten_heat_norm(g: SpectralField, t: float) -> float:
    """Hilbert-Schmidt norm of the heat semigroup composed with M_g.

    ``(sum_k exp(-2 lambda_k t) ||g e_k||_2^2)^{1/2}`` over the frequency
    lattice with ``lambda_k = 4 pi^2 |k/L|^2``; since ``|e_k| = 1`` this is
    ``||g||_2`` times the square root of the lattice theta sum.
    """
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    lam = heat_eigenvalues(g.grid)
    theta = float(np.sum(np.exp(-2.0 * lam * t)))
    return lq_norm(g, 2) * math.sqrt(theta)


def heat_kernel_field(grid: Grid, t: float) -> SpectralField:
    """Periodic heat kernel at time t (unit mass, coefficients exp(-lambda_k t))."""
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    lam = heat_eigenvalues(grid)
    coeffs = np.exp(-lam * t) / grid.length**grid.dim
    return SpectralField(grid, coeffs.astype(np.complex128), real=True)


def heat_witness(grid: Grid, t: float) -> SpectralField:
    """Square root of the heat kernel at time t, the witness that the Schatten bound is sharp."""
    return forward_transform(grid, np.sqrt(np.maximum(heat_kernel_field(grid, t).values(), 0.0)))
