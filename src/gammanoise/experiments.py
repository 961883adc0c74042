"""Necessity constructions and parameter-boundary sweeps.

Each construction measures both sides of the mean-square bound along a
dyadic scale sweep and fits the growth exponent of their ratio; quadrature
constants land in the regression intercept, the exponents are what the
theory pins down.  Fits carry R^2, and anything with R^2 < 0.9 is reported
inconclusive rather than classified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditions import ParamTuple, predicted_exponent, sharp_condition
from .fit import FitReport, SweepRecord, fit_ratio_exponent, growth_label, linfit
from .grid import Grid, SpectralField, forward_transform
from .norms import CELLS_MAX, hsq_norm, lq_norm, sq_function_from_terms
from .series import render_terms
from .systems import (FourierSystem, ShiftedBumpSystem, bump_values, frequency_block,
                      periodic_offset, plateau_values, rank_one_mu_norm, weighted_sequence_norm)

BLOCK_RESOLUTION_MARGIN = 3     # grid octaves above the top frequency block


# ---------------------------------------------------------------------------
# frequency-block construction


def block_field(grid: Grid, N: int) -> SpectralField:
    """``g = sum_{n in C_N} e_n`` for the dyadic block C_N."""
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    for k in frequency_block(N, grid.dim):
        coeffs[grid.index_of_freq(k)] = 1.0
    return SpectralField(grid, coeffs)


def frequency_block_test(params: ParamTuple, N_range, oversample: int = 2):
    """Diagonal-operator necessity sweep over dyadic frequency blocks.

    lhs is the square-function norm of ``sum_{n in C_N} g e_n`` (the exact
    Hilbert-Schmidt value is recorded alongside when q = 2), rhs is
    ``||g||_eta |C_N|^{1/zeta}``.  Returns the records and the fitted
    exponent of the log2 ratio per block level.
    """
    if params.d > 2:
        raise ValueError("frequency blocks are resource-bounded to d <= 2")
    N_range = sorted(int(N) for N in N_range)
    n = 2 ** (max(N_range) + BLOCK_RESOLUTION_MARGIN)
    cells = (2 ** (max(N_range) - 1) + 1) ** params.d * n**params.d
    if cells > CELLS_MAX:
        raise ValueError(f"the N = {max(N_range)} block's term stack has {cells} cells, "
                         f"above the budget of {CELLS_MAX}")
    grid = Grid(params.d, n)
    system = FourierSystem(params.d)
    records = []
    for N in N_range:
        block = frequency_block(N, params.d)
        g = block_field(grid, N)
        weights = np.ones(len(block))
        terms = render_terms(system, block, grid, weights, g.values())
        # the square function at q = 2 is the exact Hilbert-Schmidt value
        lhs = sq_function_from_terms(grid, terms, params.s, params.q,
                                     oversample=oversample)
        mu_norm = weighted_sequence_norm(weights, [system.sup_norm(k) for k in block],
                                         params.zeta)
        rhs = lq_norm(g, params.eta, oversample=oversample) * mu_norm
        records.append(SweepRecord("freq_block", N, lhs, rhs))
    fit = fit_ratio_exponent(records, predicted_exponent(params, "freq_block"))
    return records, fit


# ---------------------------------------------------------------------------
# rescaled-bump construction


def rescaled_bump_test(params: ParamTuple, m_range, n: int = 2**14,
                       width: float = 0.25, oversample: int = 4):
    """Rank-one necessity sweep under dyadic shrinking of smooth bumps.

    lhs is ``||g_m h_m||`` in smoothness -s (the exact mean-square norm of
    the rank-one operator), rhs is ``||g_m||_eta`` times the weighted norm
    of the one-entry coloring; the ratio exponent per dyadic shrink is
    fitted against the scaling prediction.
    """
    if params.d != 1:
        raise ValueError("rescaled bumps are implemented for d = 1")
    m_range = sorted(int(m) for m in m_range)
    grid = Grid(params.d, n)
    if n < 2 ** (max(m_range) + 7):
        raise ValueError("grid too coarse to resolve the smallest bump")
    coords = grid.coords()
    records = []
    for m in m_range:
        w = width * 2.0**-m
        bump = bump_values(coords, w / 2.0, w)      # g_m and h_m are the same bump
        gh = forward_transform(grid, bump * bump)
        lhs = hsq_norm(gh, -params.s, params.q, oversample=oversample)
        field = forward_transform(grid, bump)
        mu_norm = rank_one_mu_norm(lq_norm(field, 2), float(np.max(np.abs(bump))), params.zeta)
        rhs = lq_norm(field, params.eta, oversample=oversample) * mu_norm
        records.append(SweepRecord("rescaled_bump", m, lhs, rhs))
    fit = fit_ratio_exponent(records, predicted_exponent(params, "rescaled_bump"))
    return records, fit


# ---------------------------------------------------------------------------
# shifted-bump construction (large periodic box)


def shifted_bump_test(params: ParamTuple, N_range, resolution: int = 64,
                      width: float = 0.5, oversample: int = 2):
    """Translate-lattice necessity sweep in the unweighted regime.

    On a periodic box that grows with the lattice extent N, the system is
    the translates of one bump, g is a plateau sum equal to one on every
    translate, and the ratio exponent against ``log N`` is compared with
    the unweighted prediction.
    """
    if params.d != 1:
        raise ValueError("shifted bumps are implemented for d = 1")
    N_range = sorted(int(N) for N in N_range)
    records = []
    for N in N_range:
        length = 2.0 ** math.ceil(math.log2(2 * N + 2))
        n = int(length) * resolution
        grid = Grid(params.d, n, length)
        system = ShiftedBumpSystem(params.d, N, width=width)
        idxs = system.all_indices()
        coords = grid.coords()
        gv = np.zeros(grid.shape)
        for k in idxs:
            centered = periodic_offset(coords[0] - k[0], 0.5, length)   # from the centre k + 1/2
            gv += plateau_values([centered], 0.0, width + 0.1, width + 0.3)
        g = forward_transform(grid, gv)
        weights = np.ones(len(idxs))
        terms = render_terms(system, idxs, grid, weights, gv)
        lhs = sq_function_from_terms(grid, terms, params.s, params.q,
                                     oversample=oversample)
        # unweighted regime: unit sup norms, whatever the bump's normalization
        mu_norm = weighted_sequence_norm(weights, weights, params.zeta)
        rhs = lq_norm(g, params.eta, oversample=oversample) * mu_norm
        records.append(SweepRecord("shifted_bump", math.log2(N), lhs, rhs))
    fit = fit_ratio_exponent(records, predicted_exponent(params, "shifted_bump"))
    return records, fit


# ---------------------------------------------------------------------------
# Dirichlet kernel growth


def dirichlet_field(grid: Grid, N: int) -> SpectralField:
    """``D_N = sum_{|m| <= N} e_m`` on the one-dimensional torus."""
    if grid.dim != 1:
        raise ValueError("Dirichlet kernels live on the circle")
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    k = grid.freq_axis()
    coeffs[np.abs(k) <= N] = 1.0
    return SpectralField(grid, coeffs, real=True)


def dirichlet_norm_test(eta: float, N_range, oversample: int = 4):
    """Fitted growth exponent of ``||D_N||_eta`` against ``2N + 1``.

    Returns the table of ``N``, ``terms`` (``2N + 1``) and ``norm`` per N,
    and the fit.  The classical rate is ``1 - 1/eta`` for eta in (1, inf);
    eta = 1 grows only logarithmically and is rejected here (the growth
    classifier flags it instead).
    """
    if not (1 < eta < math.inf):
        raise ValueError(f"eta must lie in (1, inf), got {eta}")
    N_range = sorted(int(N) for N in N_range)
    terms = [2 * N + 1 for N in N_range]
    norms = []
    for N, n_terms in zip(N_range, terms):
        grid = Grid(1, max(1024, 2 ** math.ceil(math.log2(8 * n_terms))))
        norms.append(lq_norm(dirichlet_field(grid, N), eta, oversample=oversample))
    fit = FitReport(*linfit(np.log2(terms), np.log2(norms)), 1.0 - 1.0 / eta)
    return {"N": N_range, "terms": terms, "norm": norms}, fit


# ---------------------------------------------------------------------------
# boundary sweep


@dataclass(frozen=True)
class SweepCell:
    params: ParamTuple
    construction: str
    label: str
    exponent: float
    r2: float
    slack: float
    classification: str
    status: str   # ok | failed
    error: str = ""   # exception type and message of a failed cell


# each construction a sweep can run: its runner, and the regime of conditions it probes
SWEEP_CONSTRUCTIONS = {"freq_block": (frequency_block_test, "weighted"),
                       "rescaled_bump": (rescaled_bump_test, "weighted"),
                       "shifted_bump": (shifted_bump_test, "unweighted")}


def boundary_sweep(tuples, construction: str, scale_range) -> list:
    """Run one construction over a grid of parameter tuples and label each cell.

    Cells that raise are recorded as failed, with the exception's type and
    message, and the sweep continues; the label tracks the fitted ratio
    exponent (bounded / divergent / log-divergent / inconclusive).
    """
    if construction not in SWEEP_CONSTRUCTIONS:
        raise ValueError(f"unknown construction {construction!r}; "
                         f"expected one of {', '.join(SWEEP_CONSTRUCTIONS)}")
    runner, regime = SWEEP_CONSTRUCTIONS[construction]
    cells = []
    for params in tuples:
        cond = sharp_condition(params, regime)
        try:
            _, fit = runner(params, scale_range)
            cells.append(SweepCell(params, construction, growth_label(fit),
                                   fit.exponent, fit.r2, cond.slack,
                                   cond.classification, "ok"))
        except Exception as exc:
            cells.append(SweepCell(params, construction, "error", math.nan,
                                   math.nan, cond.slack, cond.classification,
                                   "failed", f"{type(exc).__name__}: {exc}"))
    return cells
