"""The acceptance suite: twelve verdicts, each a deterministic record.

Every criterion function takes a master seed and a worker count and returns
``(passed, metrics)`` where the metrics are reproducible to the bit for a
fixed seed regardless of worker count (Monte Carlo streams are per sample
block, reductions use exact summation).  Wall times are tracked separately
so CSV output stays byte-identical across runs.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .conditions import ParamTuple, sharp_condition
from .experiments import (dirichlet_norm_test, frequency_block_test,
                          rescaled_bump_test)
from .fit import classify_growth, linfit
from .grid import Grid, SpectralField, constant_field, forward_transform
from .norms import bessel_kernel, hsq_norm, lq_norm, weak_lp_norm
from .operators import (ConvPair, afg_bruteforce_hs, afg_gamma_norm,
                        heat_witness, schatten_heat_norm)
from .output import csv_bytes, format_value
from .rng import stream
from .series import MCEstimate, SeriesSpec, hs_gamma_norm_exact, mc_gamma_norm
from .spde import (DiagonalNoise, SpdeConfig, second_moment_closed_form,
                   second_moment_exp_euler, simulate)
from .systems import Coloring, FourierSystem, haar_lattice_sums


def _random_real_field(grid: Grid, gen) -> SpectralField:
    """Smooth random real field, band-limited to |k| <= 16."""
    k = grid.freq_abs()
    mask = k <= 16
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    vals = gen.standard_normal(int(mask.sum())) + 1j * gen.standard_normal(int(mask.sum()))
    coeffs[mask] = vals / math.sqrt(2.0)
    f = SpectralField(grid, coeffs)
    return forward_transform(grid, f.values().real)


def criterion_1(seed: int, workers: int = 1):
    """Hilbert-Schmidt exactness of the Monte Carlo estimator at q = 2."""
    grid = Grid(1, 1024)
    fourier = FourierSystem(1)
    failures = 0
    worst_z = 0.0
    for i in range(20):
        gen = stream(seed, 1000 + i)
        s = 0.2 + 0.7 * gen.uniform()
        alpha = 0.3 + 0.7 * gen.uniform()
        coloring = Coloring.matern(alpha) if i % 2 == 0 else Coloring.power_law(alpha)
        g = _random_real_field(grid, gen) if i % 3 != 0 else None
        spec = SeriesSpec(grid, fourier, coloring, 256, s, 2.0, g=g)
        est = mc_gamma_norm(spec, 2000, seed=(seed ^ 0xC1) + i, workers=workers)
        exact_sq = hs_gamma_norm_exact(spec) ** 2
        z = abs(est.mean - exact_sq) / est.stderr
        worst_z = max(worst_z, z)
        if z > 3.0:
            failures += 1
    passed = failures <= 1
    return passed, {"failures": failures, "worst_z": worst_z}


def criterion_2(seed: int, workers: int = 1):
    """Convolution identity against the dense Hilbert-Schmidt oracle."""
    grid = Grid(1, 64)
    worst = 0.0
    for i in range(50):
        gen = stream(seed, 2000 + i)
        f = forward_transform(grid, gen.standard_normal(64))
        g = forward_transform(grid, gen.standard_normal(64))
        pair = ConvPair(f, g, 2.0)
        a = afg_gamma_norm(pair)
        b = afg_bruteforce_hs(pair)
        worst = max(worst, abs(a - b) / b)
    return worst <= 1e-8, {"worst_rel_err": worst}


def criterion_3(seed: int, workers: int = 1):
    """Exact product formula of the q = 2 operator norm."""
    grid = Grid(1, 64)
    worst = 0.0
    for i in range(50):
        gen = stream(seed, 3000 + i)
        f = forward_transform(grid, gen.standard_normal(64))
        g = forward_transform(grid, gen.standard_normal(64))
        a = afg_gamma_norm(ConvPair(f, g, 2.0))
        ref = lq_norm(f, 2) * lq_norm(g, 2)
        worst = max(worst, abs(a - ref) / ref)
    return worst <= 1e-8, {"worst_rel_err": worst}


def criterion_4(seed: int, workers: int = 1):
    """White-noise convergence threshold of the truncated identity.

    The squared norm is evaluated exactly through the q = 2 identity (the
    Monte Carlo estimator's agreement with it is criterion 1), so the
    classification is noise-free.
    """
    grid = Grid(1, 1024)
    fourier = FourierSystem(1)
    cutoffs = [16, 32, 64, 128, 256]
    results = {}
    for s in (0.3, 0.7):
        points = []
        for K in cutoffs:
            N = 2 * K + 1
            spec = SeriesSpec(grid, fourier, Coloring.constant(1.0, N), N, s, 2.0)
            points.append((K, hs_gamma_norm_exact(spec) ** 2))
        results[s] = classify_growth(points)
    slope = results[0.3].slope
    ok_slope = abs(slope - 0.4) <= 0.1
    ok_labels = (results[0.3].label == "divergent"
                 and results[0.7].label == "bounded")
    return ok_slope and ok_labels, {
        "slope_s03": slope,
        "label_s03": results[0.3].label,
        "label_s07": results[0.7].label,
    }


def criterion_5(seed: int, workers: int = 1):
    """Dirichlet-kernel Lebesgue growth exponents."""
    worst = 0.0
    metrics = {}
    for eta in (2.0, 3.0, 4.0):
        _, fit = dirichlet_norm_test(eta, [8, 16, 32, 64, 128, 256])
        err = abs(fit.exponent - (1.0 - 1.0 / eta))
        metrics[f"exp_eta{int(eta)}"] = fit.exponent
        worst = max(worst, err)
    return worst <= 0.05, {**metrics, "worst_err": worst}


FREQ_BLOCK_TUPLES = (
    ("strict", ParamTuple(1, 0.9, 4.0, 2.0, 4.0)),
    ("equality", ParamTuple(1, 0.5, 4.0, 2.0, 4.0)),
    ("violated", ParamTuple(1, 0.2, 4.0, 2.0, 4.0)),
)


def criterion_6(seed: int, workers: int = 1):
    """Frequency-block necessity: exponent value and sign per classification."""
    passed = True
    metrics = {}
    for name, params in FREQ_BLOCK_TUPLES:
        _, fit = frequency_block_test(params, range(3, 8))
        cond = sharp_condition(params, "weighted")
        err = abs(fit.exponent - fit.predicted)
        sign_ok = (
            (cond.classification == "strict" and fit.exponent < 0)
            or (cond.classification == "violated" and fit.exponent > 0)
            or (cond.classification == "equality" and abs(fit.exponent) <= 0.15)
        )
        metrics[f"exp_{name}"] = fit.exponent
        passed = passed and err <= 0.15 and sign_ok and cond.classification == name
    return passed, metrics


RESCALED_TUPLES = (
    ("equality", ParamTuple(1, 0.5, 4.0, 2.0, 4.0)),
    ("slack_neg", ParamTuple(1, 0.2, 4.0, 2.0, 4.0)),
    ("slack_pos", ParamTuple(1, 0.65, 4.0, 2.5, 10.0 / 3.0)),
)


def criterion_7(seed: int, workers: int = 1):
    """Rescaled-bump necessity under dyadic shrinking."""
    passed = True
    metrics = {}
    for name, params in RESCALED_TUPLES:
        _, fit = rescaled_bump_test(params, range(0, 6), n=2**14)
        err = abs(fit.exponent - fit.predicted)
        metrics[f"exp_{name}"] = fit.exponent
        if name == "equality":
            passed = passed and abs(fit.exponent) <= 0.15
        else:
            same_sign = fit.exponent * fit.predicted > 0
            passed = passed and err <= 0.15 and same_sign
    return passed, metrics


def criterion_8(seed: int, workers: int = 1):
    """Weak-norm finiteness and grid stability of the potential kernel."""
    passed = True
    metrics = {}
    for s in (0.6, 0.75, 0.9):
        r = 1.0 / (1.0 - s)
        vals = [weak_lp_norm(bessel_kernel(Grid(1, n), s), r) for n in (1024, 4096)]
        ratio = max(vals) / min(vals)
        metrics[f"ratio_s{int(100 * s)}"] = ratio
        passed = passed and ratio <= 2.0 and all(math.isfinite(v) for v in vals)
    return passed, metrics


def criterion_9(seed: int, workers: int = 1):
    """Heat-semigroup Hilbert-Schmidt bound and its sharpness witness."""
    passed = True
    metrics = {}
    for d, n in ((1, 512), (2, 128)):
        grid = Grid(d, n)
        one = constant_field(grid, 1.0)
        ts = np.geomspace(1e-3, 1e-1, 9)
        vals = np.array([t ** (d / 4.0) * schatten_heat_norm(one, t) for t in ts])
        spread = float(vals.max() / vals.min())
        ts_w = np.geomspace(1e-4, 1e-2, 9)
        wit = [schatten_heat_norm(heat_witness(grid, t), t) for t in ts_w]
        slope, _ = linfit(np.log(ts_w), np.log(wit))
        metrics[f"spread_d{d}"] = spread
        metrics[f"witness_exp_d{d}"] = slope
        passed = passed and spread <= 2.0 and abs(slope + d / 4.0) <= 0.05
    return passed, metrics


def criterion_10(seed: int, workers: int = 1):
    """Stochastic heat equation: oracle match and scheme convergence order.

    The Monte Carlo match runs at the Matern coloring alpha = 0.3, s = 0.9.
    The Euler order fit needs a coloring whose observable has a
    first-order-dominated error range -- the spectral tail caps the true
    order at (2(s + alpha) - 1)/2, which is 0.7 at alpha = 0.3 -- so it
    runs at alpha = 1.
    """
    grid = Grid(1, 256)
    s = 0.9
    noise = DiagonalNoise.matern(grid, 0.3)
    cfg = SpdeConfig(grid, noise, T=0.1, dt=1e-3)
    closed = second_moment_closed_form(cfg, s)
    finals = (simulate(cfg, seed=seed ^ 0xC10, traj_index=i, keep_states=False).final()
              for i in range(500))
    est = MCEstimate.from_squared_norms([hsq_norm(u, 1.0 - s, 2.0) ** 2 for u in finals],
                                        seed ^ 0xC10)
    z = abs(est.mean - closed) / est.stderr

    noise1 = DiagonalNoise.matern(grid, 1.0)
    cfg1 = SpdeConfig(grid, noise1, T=0.1, dt=1e-3)
    closed1 = second_moment_closed_form(cfg1, s)
    dts = [0.1 / 2**j for j in range(4, 9)]
    errs = []
    for dt in dts:
        c = SpdeConfig(grid, noise1, T=0.1, dt=dt, integrator="exp_euler")
        errs.append(abs(second_moment_exp_euler(c, s) - closed1))
    order, r2 = linfit(np.log(dts), np.log(errs))
    passed = z <= 3.0 and order >= 0.8
    return passed, {"mc_mean": est.mean, "closed_form": closed, "z": z,
                    "euler_order": order, "euler_r2": r2}


def criterion_11(seed: int, workers: int = 1):
    """Logarithmic divergence of the Haar coloring exactly at criticality."""
    js = list(range(2, 13))
    crit = haar_lattice_sums(0.5, 1.0, 2.0, 1, js)
    _, affine_r2 = linfit(np.array(js, dtype=float), crit)
    inc = np.diff(crit)
    inc_spread = float(inc.max() / inc.min())

    exponential_ok = True
    tail_ratios = {}
    for zeta in (1.8, 2.5):
        vals = haar_lattice_sums(0.5, 1.0, zeta, 1, js)
        ratios = np.diff(vals)[1:] / np.diff(vals)[:-1]
        tail = float(ratios[-1])
        tail_ratios[f"tail_ratio_z{zeta}"] = tail
        exponential_ok = exponential_ok and tail > 1.03
    passed = affine_r2 > 0.99 and inc_spread < 1.0 + 1e-9 and exponential_ok
    return passed, {"affine_r2": affine_r2, "increment_spread": inc_spread,
                    **tail_ratios}


CRITERIA = {
    1: ("hilbert_schmidt_exactness", criterion_1),
    2: ("convolution_identity_oracle", criterion_2),
    3: ("q2_product_formula", criterion_3),
    4: ("white_noise_threshold", criterion_4),
    5: ("dirichlet_kernel_exponent", criterion_5),
    6: ("frequency_block_necessity", criterion_6),
    7: ("rescaled_bump_necessity", criterion_7),
    8: ("bessel_kernel_weak_norm", criterion_8),
    9: ("schatten_heat_bound", criterion_9),
    10: ("spde_oracle_match", criterion_10),
    11: ("haar_log_divergence", criterion_11),
}


def run_criteria(seed: int, workers: int = 1, timings: dict = None):
    """Run criteria 1-11, returning CSV-ready records (no wall times inside)."""
    records = []
    for cid in sorted(CRITERIA):
        name, fn = CRITERIA[cid]
        t0 = time.monotonic()
        passed, metrics = fn(seed, workers=workers)
        if timings is not None:
            timings[name] = time.monotonic() - t0
        records.append(_record(cid, name, passed, metrics))
    return records


def _record(cid: int, name: str, passed: bool, metrics: dict) -> dict:
    detail = "|".join(f"{k}={format_value(v)}" for k, v in metrics.items())
    return {"criterion": cid, "name": name, "passed": passed, "metrics": detail}


def _table(records) -> dict:
    """The ``selftest`` CSV table of ``records``: one column per record key."""
    return {name: [r[name] for r in records] for name in records[0]}


def criterion_12(seed: int, base_records, workers: int = 1, timings: dict = None):
    """Reproducibility: rerun criteria 1-11 under a different worker count, compare bytes.

    ``base_records`` are the records of the first pass, at ``workers``.  The
    twin pass must produce byte-identical records and, in particular,
    identical norm metrics (the 1e-12 gate is implied by equality).
    """
    t0 = time.monotonic()
    twin_workers = 2 if workers == 1 else 1
    twin_records = run_criteria(seed, workers=twin_workers)
    identical = csv_bytes(_table(base_records)) == csv_bytes(_table(twin_records))
    if timings is not None:
        timings["reproducibility"] = time.monotonic() - t0
    # worker counts stay out of the record so the selftest CSV itself is
    # byte-identical no matter which pair of counts was compared
    rec = _record(12, "reproducibility", identical,
                  {"byte_identical": identical, "criteria_compared": 11})
    return identical, rec


def selftest(seed: int, workers: int = 1):
    """Full acceptance run: criteria 1-11 plus the reproducibility twin pass.

    Returns (table, timings); the table is byte-stable for a fixed seed.
    """
    timings = {}
    base = run_criteria(seed, workers=workers, timings=timings)
    _, rec12 = criterion_12(seed, base, workers=workers, timings=timings)
    return _table(base + [rec12]), timings
