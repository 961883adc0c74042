"""Convolution-type operators and their mean-square norms.

The operator ``h -> int f(x-y) g(y) h(y) dy`` has squared gamma(L2, Lq) norm
comparable to ``|| |f|^2 * |g|^2 ||_{L^{q/2}}`` (exactly equal at q = 2), so
everything reduces to one convolution computed spectrally.  A dense-matrix
Hilbert-Schmidt oracle guards the quadrature.  Convolution bounds of this
kind fail outright for eta > q or eta < 2; the checks here stay inside the
valid exponent range and do not probe the failure cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, SpectralField, forward_transform
from .norms import DEFAULT_OVERSAMPLE, bessel_kernel, heat_eigenvalues, lq_norm, weak_lp_norm

BRUTEFORCE_MAX_CELLS = 4096


class ResourceError(RuntimeError):
    """Raised when an oracle would exceed its declared memory budget."""


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


def convolve(a: SpectralField, b: SpectralField) -> SpectralField:
    """Periodic convolution ``int a(x-y) b(y) dy`` via coefficient products."""
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    coeffs = a.coeffs * b.coeffs * a.grid.length**a.grid.dim
    return SpectralField(a.grid, coeffs, real=a.real and b.real)


def afg_gamma_norm(pair: ConvPair, oversample: int = DEFAULT_OVERSAMPLE) -> float:
    """``|| |f|^2 * |g|^2 ||_{L^{q/2}}^{1/2}``; the exact norm at q = 2.

    At q = 2 the convolution is nonnegative and its L1 norm is its integral,
    read off the zero coefficient with no quadrature at all.
    """
    F = forward_transform(pair.f.grid, np.abs(pair.f.values()) ** 2)
    G = forward_transform(pair.g.grid, np.abs(pair.g.values()) ** 2)
    conv = convolve(F, G)
    if pair.q == 2:
        mass = abs(conv.coeff_at((0,) * pair.f.grid.dim)) * pair.f.grid.length ** pair.f.grid.dim
        return float(math.sqrt(mass))
    return float(math.sqrt(lq_norm(conv, pair.q / 2.0, oversample=oversample)))


def afg_bruteforce_hs(pair: ConvPair) -> float:
    """Frobenius norm of the dense discretized operator, continuum-normalized.

    Assembles ``K(x, y) = f(x - y) g(y)`` over all grid pairs; limited to
    small grids by the quadratic memory footprint.
    """
    grid = pair.f.grid
    cells = grid.n**grid.dim
    if cells > BRUTEFORCE_MAX_CELLS:
        raise ResourceError(
            f"grid has {cells} cells, brute-force oracle allows {BRUTEFORCE_MAX_CELLS}"
        )
    fv = pair.f.values().ravel()
    gv = pair.g.values().ravel()
    unravel = np.unravel_index(np.arange(cells), grid.shape)
    diff_axes = [(unravel[a][:, None] - unravel[a][None, :]) % grid.n for a in range(grid.dim)]
    K = fv[np.ravel_multi_index(diff_axes, grid.shape)] * gv[None, :]
    return float(np.linalg.norm(K) * grid.cell_measure)


def gamma_young_check(kernel: SpectralField, g: SpectralField, q: float, r: float,
                      eta: float, oversample: int = DEFAULT_OVERSAMPLE):
    """Both sides of the weak-kernel Young inequality and their ratio.

    Requires ``1/q + 1/2 = 1/r + 1/eta`` with all three exponents in
    (2, inf); returns (lhs, rhs, lhs / rhs).
    """
    for name, val in (("q", q), ("r", r), ("eta", eta)):
        if not (2 < val < math.inf):
            raise ValueError(f"{name} must lie in (2, inf), got {val}")
    if abs(1.0 / q + 0.5 - 1.0 / r - 1.0 / eta) > 1e-9:
        raise ValueError("exponents must satisfy 1/q + 1/2 = 1/r + 1/eta")
    lhs = afg_gamma_norm(ConvPair(kernel, g, q), oversample=oversample)
    rhs = weak_lp_norm(kernel, r) * lq_norm(g, eta, oversample=oversample)
    ratio = lhs / rhs if rhs > 0 else math.inf if lhs > 0 else 0.0
    return lhs, rhs, ratio


def mg_sobolev_gamma_norm(g: SpectralField, s: float, q: float,
                          oversample: int = DEFAULT_OVERSAMPLE) -> float:
    """Mean-square norm of multiplication by g into smoothness -s.

    Smoothing by the Bessel potential turns the multiplication operator into
    a convolution pair with the periodized kernel, so this is the afg norm
    with that kernel.
    """
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    kernel = bessel_kernel(g.grid, s)
    return afg_gamma_norm(ConvPair(kernel, g, q), oversample=oversample)


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
