"""Command-line orchestration.

Every subcommand resolves its configuration (defaults, optional INI file,
``--override section.key=value``), runs, writes one CSV artifact plus one
JSON manifest named after the configuration hash, and exits 0 on success,
2 on configuration errors (with a machine-readable JSON error on stderr),
3 when a sweep finished with failed cells, 1 on hard failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import struct
import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from .acceptance import selftest
from .conditions import ParamTuple
from .config import COMMANDS, ConfigError, load_config
from .experiments import (CONSTRUCTION_REGIMES, boundary_sweep, dirichlet_norm_test,
                          frequency_block_test, rescaled_bump_test, shifted_bump_test)
from .fit import linfit
from .grid import Grid, constant_field, forward_transform
from .norms import bessel_kernel, lq_norm
from .operators import (gamma_young_check, heat_witness, mg_sobolev_gamma_norm,
                        schatten_heat_norm)
from .output import OpTimer, RunManifest, config_hash, write_csv
from .rng import stream
from .series import SeriesSpec, hs_gamma_norm_exact, mc_gamma_norm, sq_function_gamma_norm
from .spde import DiagonalNoise, SpdeConfig, simulate, spacetime_norm
from .systems import (Coloring, FourierSystem, HaarSystem, IndexRangeError,
                      ShiftedBumpSystem, bump_values, haar_lattice_sums)

EXIT_OK = 0
EXIT_HARD = 1
EXIT_CONFIG = 2
EXIT_PARTIAL = 3


def build_grid(block: dict) -> Grid:
    with _named("grid.n", block["n"]):     # grid.dim and grid.length have declared rules
        return Grid(block["dim"], block["n"], block["length"])


def build_system(block: dict, dim: int):
    makers = {
        "fourier": lambda: FourierSystem(dim),
        "haar": lambda: HaarSystem(dim, block.get("j_min", 0), block.get("j_max", 6)),
        "shifted_bump": lambda: ShiftedBumpSystem(dim, block.get("extent", 4),
                                                  block.get("width", 0.5)),
    }
    return _pick(makers, "system.kind", block["kind"])()


def build_coloring(block: dict, dim: int, n_terms: int) -> Coloring:
    makers = {
        "matern": lambda: Coloring.matern(block["alpha"]),
        "power_law": lambda: Coloring.power_law(block["alpha"]),
        "block": lambda: Coloring.block_indicator(block.get("level", 3)),
        "haar": lambda: Coloring.haar(block["alpha"], block.get("beta", 1.0), dim),
        "constant": lambda: Coloring.constant(block.get("value", 1.0), n_terms),
        "explicit": lambda: Coloring.explicit(block.get("values", [])),
    }
    make = _pick(makers, "coloring.kind", block["kind"])
    if block["kind"] not in ("matern", "power_law"):    # haar's messages name alpha or beta
        return make()
    with _named("coloring.alpha", block["alpha"]):
        return make()


def build_g(block: dict, grid: Grid):
    makers = {
        "one": lambda: None,
        "constant": lambda: constant_field(grid, block.get("value", 1.0)),
        "bump": lambda: forward_transform(grid, bump_values(
            grid.coords(), grid.length / 2.0, block.get("width", 0.5) * grid.length)),
    }
    return _pick(makers, "g.kind", block.get("kind", "one"))()


def _pick(choices: dict, key: str, value):
    """``choices[value]``; a ``ConfigError`` naming ``key`` and the choices if it is missing."""
    if value not in choices:
        raise ConfigError(f"unknown {key} {value!r}; expected one of {', '.join(choices)}")
    return choices[value]


@contextmanager
def _named(key: str, value):
    """Re-raise a library ``ValueError`` as a ``ConfigError`` that names ``key=value``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{key}={value}: {exc}") from None


def _worker_count(cfg: dict, flag) -> int:
    """``--workers``, else ``GAMMANOISE_WORKERS`` (each >= 1 if given), else ``run.workers``."""
    given = [("--workers", flag), ("GAMMANOISE_WORKERS", os.environ.get("GAMMANOISE_WORKERS"))]
    counts = []
    for name, raw in given:
        if raw is None:
            continue
        try:
            counts.append(int(raw))
        except ValueError:
            raise ConfigError(f"{name} must be an integer, got {raw!r}") from None
        if counts[-1] < 1:
            raise ConfigError(f"{name} must be >= 1, got {counts[-1]}")
    return counts[0] if counts else cfg["run"]["workers"]


def _params_from(block: dict) -> ParamTuple:
    zeta = block["zeta"]
    if zeta <= 0:
        zeta = math.inf
    return ParamTuple(block["d"], block["s"], block["q"], block["eta"], zeta)


# ---------------------------------------------------------------------------
# subcommand runners: each returns (records, verdicts, exit_code); the CSV
# columns are declared in config.COMMANDS


def run_series_norm(cfg, seed, workers, timer):
    grid = build_grid(cfg["grid"])
    system = build_system(cfg["system"], grid.dim)
    blk = cfg["series"]
    coloring = build_coloring(cfg["coloring"], grid.dim, blk["n_terms"])
    _check_series_members(cfg, system, coloring)
    g = build_g(cfg.get("g", {}), grid)
    spec = SeriesSpec(grid, system, coloring, blk["n_terms"], blk["s"], blk["q"], g=g)
    est = mc_gamma_norm(spec, blk["samples"], seed=seed, workers=workers,
                        oversample=cfg["run"]["oversample"])
    row = {"n_terms": blk["n_terms"], "s": blk["s"], "q": blk["q"],
           "samples": est.samples, "seed": est.seed, "mean_sq": est.mean,
           "stderr": est.stderr, "mean_norm": est.mean_norm,
           "sq_function": sq_function_gamma_norm(spec, oversample=cfg["run"]["oversample"]),
           "hs_exact": hs_gamma_norm_exact(spec) if blk["q"] == 2 else math.nan}
    return [row], {}, EXIT_OK


def _check_series_members(cfg, system, coloring: Coloring) -> None:
    """Raise ``ConfigError`` unless the system has ``series.n_terms`` members to color.

    Shifted bumps also need ``grid.length >= 2 * system.extent + 2``.
    """
    n, system_kind, kind = cfg["series"]["n_terms"], cfg["system"]["kind"], cfg["coloring"]["kind"]
    try:
        system.indices(n)
    except IndexRangeError as exc:
        raise ConfigError(f"series.n_terms={n} is more than system.kind={system_kind} holds: "
                          f"{exc}") from None
    # matern and block weigh frequency tuples, haar weighs Haar (sigma, j, k) triples
    if kind in ("matern", "block", "haar") and (kind == "haar") != (system_kind == "haar"):
        raise ConfigError(f"coloring.kind={kind} cannot weigh the members of "
                          f"system.kind={system_kind}")
    if system_kind == "shifted_bump" and cfg["grid"]["length"] < 2 * system.extent + 2:
        raise ConfigError(f"system.kind=shifted_bump with system.extent={system.extent} needs "
                          f"grid.length >= {2 * system.extent + 2}, got grid.length="
                          f"{cfg['grid']['length']:g}")
    if kind == "explicit" and len(coloring.params["values"]) < n:
        raise ConfigError(f"coloring.kind=explicit has {len(coloring.params['values'])} "
                          f"coloring.values, fewer than series.n_terms={n}")


def _check_sweep_regime(blk: dict) -> None:
    """Raise ``ConfigError`` naming the keys that take a sweep out of its construction's regime."""
    construction = blk["construction"]
    regime = CONSTRUCTION_REGIMES.get(construction)
    if regime == "weighted" and blk["eta"] > blk["q"]:
        raise ConfigError(f"sweep.eta={blk['eta']:g} exceeds sweep.q={blk['q']:g}; "
                          f"sweep.construction={construction} probes the weighted regime, "
                          "which requires eta <= q")
    if regime == "unweighted" and blk["zeta"] <= 0:
        raise ConfigError(f"sweep.zeta={blk['zeta']:g} stands for zeta = inf; "
                          f"sweep.construction={construction} probes the unweighted regime, "
                          "which requires a finite zeta")


def run_sweep(cfg, seed, workers, timer):
    blk = cfg["sweep"]
    _check_sweep_regime(blk)
    tuples = [_params_from({**blk, "s": s}) for s in blk["s_values"]]
    with _named("sweep.construction", blk["construction"]):
        cells = boundary_sweep(tuples, blk["construction"], blk["scales"])
    rows = [{"d": c.params.d, "s": c.params.s, "q": c.params.q,
             "eta": c.params.eta, "zeta": c.params.zeta,
             "construction": c.construction, "slack": c.slack,
             "classification": c.classification, "label": c.label,
             "exponent": c.exponent, "r2": c.r2, "status": c.status}
            for c in cells]
    reasons = [{"s": c.params.s, "error": c.error} for c in cells if c.status == "failed"]
    code = EXIT_PARTIAL if reasons else EXIT_OK
    return rows, {"failed_cells": len(reasons), "failed_reasons": reasons}, code


def _two_sided_rows(records, fit):
    rows = []
    for r in records:
        rows.append({"construction": r.construction, "scale_index": r.scale_index,
                     "lhs": r.lhs, "rhs": r.rhs, "ratio": r.ratio,
                     "fitted_exponent": fit.exponent, "predicted_exponent": fit.predicted,
                     "r2": fit.r2})
    return rows


def run_freq_block(cfg, seed, workers, timer):
    params = _params_from(cfg["params"])
    blk = cfg["freq_block"]
    records, fit = frequency_block_test(params, range(blk["n_min"], blk["n_max"] + 1),
                                        oversample=cfg["run"]["oversample"])
    return _two_sided_rows(records, fit), {"fitted_exponent": fit.exponent}, EXIT_OK


def run_rescaled_bump(cfg, seed, workers, timer):
    params = _params_from(cfg["params"])
    blk = cfg["rescaled_bump"]
    records, fit = rescaled_bump_test(params, range(blk["m_min"], blk["m_max"] + 1),
                                      n=blk["n"], width=blk["width"],
                                      oversample=cfg["run"]["oversample"])
    return _two_sided_rows(records, fit), {"fitted_exponent": fit.exponent}, EXIT_OK


def run_shifted_bump(cfg, seed, workers, timer):
    params = _params_from(cfg["params"])
    blk = cfg["shifted_bump"]
    records, fit, _ = shifted_bump_test(params, blk["extents"],
                                        resolution=blk["resolution"],
                                        width=blk["width"],
                                        oversample=cfg["run"]["oversample"])
    return _two_sided_rows(records, fit), {"fitted_exponent": fit.exponent}, EXIT_OK


def run_dirichlet(cfg, seed, workers, timer):
    blk = cfg["dirichlet"]
    rows_raw, fit = dirichlet_norm_test(blk["eta"], blk["n_values"],
                                        oversample=cfg["run"]["oversample"])
    rows = [{"N": N, "terms": terms, "norm": val, "eta": blk["eta"],
             "fitted_exponent": fit.exponent, "predicted_exponent": fit.predicted,
             "r2": fit.r2}
            for N, terms, val in rows_raw]
    return rows, {"fitted_exponent": fit.exponent}, EXIT_OK


def run_gamma_young(cfg, seed, workers, timer):
    grid = build_grid(cfg["grid"])
    blk = cfg["gamma_young"]
    s, q = blk["s"], blk["q"]
    r = grid.dim / (grid.dim - s) if s < grid.dim else math.inf
    inv_eta = 1.0 / q + 0.5 - 1.0 / r
    if not (s < grid.dim and inv_eta > 0):
        raise ConfigError(f"gamma_young.s={s:g}, gamma_young.q={q:g} and grid.dim={grid.dim} "
                          "must give s < d and 1/eta = 1/q + 1/2 - 1/r > 0, r = d / (d - s)")
    eta = 1.0 / inv_eta
    kernel = bessel_kernel(grid, s)
    rows = []
    for i in range(blk["trials"]):
        gen = stream(seed, i)
        g = forward_transform(grid, gen.standard_normal(grid.shape))
        lhs, rhs, ratio = gamma_young_check(kernel, g, q, r, eta,
                                            oversample=cfg["run"]["oversample"])
        rows.append({"trial": i, "s": s, "q": q, "r": r, "eta": eta,
                     "lhs": lhs, "rhs": rhs, "ratio": ratio})
    ratios = [row["ratio"] for row in rows]
    return rows, {"ratio_spread": max(ratios) / min(ratios)}, EXIT_OK


def run_mg_sobolev(cfg, seed, workers, timer):
    grid = build_grid(cfg["grid"])
    blk = cfg["mg_sobolev"]
    coords = grid.coords()
    rows = []
    for m in range(blk["levels"]):
        w = blk["width"] * 2.0**-m
        g = forward_transform(grid, bump_values(coords, w / 2.0, w))
        g_eta = lq_norm(g, blk["eta"], oversample=cfg["run"]["oversample"])
        if not (g_eta > 0 and math.isfinite(g_eta)):
            raise ConfigError(f"mg_sobolev.levels={blk['levels']} and mg_sobolev.width="
                              f"{blk['width']:g} give a level-{m} bump of width {w:g} whose "
                              f"L^eta norm on grid.n={grid.n} is {g_eta:g}")
        val = mg_sobolev_gamma_norm(g, blk["s"], blk["q"],
                                    oversample=cfg["run"]["oversample"])
        rows.append({"level": m, "s": blk["s"], "q": blk["q"], "eta": blk["eta"],
                     "gamma_norm": val, "g_eta_norm": g_eta,
                     "constant": val / g_eta})
    consts = [r["constant"] for r in rows]
    return rows, {"constant_spread": max(consts) / min(consts)}, EXIT_OK


def run_schatten_heat(cfg, seed, workers, timer):
    blk = cfg["schatten"]
    grid = Grid(blk["d"], blk["n"])
    one = constant_field(grid, 1.0)
    ts = np.geomspace(blk["t_min"], blk["t_max"], blk["points"])
    rows = []
    for t in ts:
        val = schatten_heat_norm(one, float(t))
        rows.append({"d": blk["d"], "t": float(t), "norm_g1": val,
                     "scaled_g1": float(t) ** (blk["d"] / 4.0) * val,
                     "norm_witness": schatten_heat_norm(heat_witness(grid, float(t)), float(t))})
    slope, _ = linfit(np.log(ts), np.log([r["norm_witness"] for r in rows]))
    return rows, {"witness_exponent": slope}, EXIT_OK


def run_heat_sim(cfg, seed, workers, timer):
    grid = build_grid(cfg["grid"])
    blk = cfg["heat"]
    makers = {
        "matern": lambda: DiagonalNoise.matern(grid, blk["alpha"]),
        "white": lambda: DiagonalNoise.white(grid, blk.get("cutoff")),
        "single_mode": lambda: DiagonalNoise.single_mode(grid, blk.get("mode", 1),
                                                         blk.get("amplitude", 1.0)),
    }
    make_noise = _pick(makers, "heat.noise", blk["noise"])
    with _named("heat.mode", blk.get("mode", 1)):   # matern: heat.alpha > 0 is declared
        noise = make_noise()
    # built in two steps, so that a rejected value is named by its own key
    with _named("heat.dt", blk["dt"]):
        config = SpdeConfig(grid, noise, T=blk["t_horizon"], dt=blk["dt"])
    with _named("heat.integrator", blk["integrator"]):
        config = replace(config, integrator=blk["integrator"])
    rows = []
    dump = blk.get("dump_states")
    for i in range(blk["trajectories"]):
        traj = simulate(config, seed=seed, traj_index=i)
        st = spacetime_norm(traj, blk["p"], blk["s"], blk["q"])
        for t, h in zip(traj.times, st.norms):
            rows.append({"trajectory": i, "time": float(t), "h_norm": float(h),
                         "lp_spacetime": st.lp, "max_in_time": st.max_h})
        if dump and i == 0:
            dump_states(traj, dump)
    return rows, {"trajectories": blk["trajectories"]}, EXIT_OK


def run_scaling(cfg, seed, workers, timer):
    from .spde import scaling_diagnostic
    grid = build_grid(cfg["grid"])
    blk = cfg["scaling"]
    zeta = 1.0 / blk["alpha"] * grid.dim
    params = ParamTuple(grid.dim, blk["s"], blk["q"], blk["eta"], zeta)
    rep = scaling_diagnostic(blk["alpha"], zeta, params,
                             range(blk["m_min"], blk["m_max"] + 1), grid=grid,
                             levels=blk["levels"], beta=blk["beta"],
                             oversample=cfg["run"]["oversample"])
    rows = [{"m": m, "lhs": lhs, "rhs": rhs, "ratio": lhs / rhs,
             "fitted_exponent": rep.exponent, "predicted_exponent": rep.predicted,
             "r2": rep.r2}
            for m, lhs, rhs in rep.points]
    return rows, {"fitted_exponent": rep.exponent}, EXIT_OK


def run_haar_divergence(cfg, seed, workers, timer):
    blk = cfg["haar"]
    js = list(range(2, blk["j_max"] + 1))
    rows = []
    for zeta in blk["zeta_values"]:
        sums = haar_lattice_sums(blk["alpha"], blk["beta"], zeta, blk["d"], js)
        crit = abs(zeta - blk["d"] / blk["alpha"]) <= 1e-9
        for J, val in zip(js, sums):
            rows.append({"zeta": zeta, "J": J, "partial_sum": float(val),
                         "critical": crit})
    return rows, {}, EXIT_OK


def run_selftest(cfg, seed, workers, timer):
    records, timings = selftest(seed, workers=workers)
    timer.timings.update(timings)
    verdicts = {r["name"]: bool(r["passed"]) for r in records}
    code = EXIT_OK if all(verdicts.values()) else EXIT_HARD
    return records, verdicts, code


RUNNERS = {
    "series-norm": run_series_norm,
    "sweep": run_sweep,
    "freq-block": run_freq_block,
    "rescaled-bump": run_rescaled_bump,
    "shifted-bump": run_shifted_bump,
    "dirichlet": run_dirichlet,
    "gamma-young": run_gamma_young,
    "mg-sobolev": run_mg_sobolev,
    "schatten-heat": run_schatten_heat,
    "heat-sim": run_heat_sim,
    "scaling": run_scaling,
    "haar-divergence": run_haar_divergence,
    "selftest": run_selftest,
}


def dump_states(traj, path: str) -> None:
    """Binary state dump: little-endian header (dims u32, n u32, count u64),
    then count * n^dims complex doubles, interleaved re/im."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<IIQ", traj.grid.dim, traj.grid.n, len(traj.coeffs)))
        fh.write(np.ascontiguousarray(traj.coeffs, dtype="<c16").tobytes())


def load_states(path: str):
    """Inverse of dump_states; returns (dims, n, coefficients of shape (count, *grid))."""
    with open(path, "rb") as fh:
        dims, n, count = struct.unpack("<IIQ", fh.read(16))
        coeffs = np.frombuffer(fh.read(16 * count * n**dims), dtype="<c16")
    return dims, n, coeffs.reshape((count,) + (n,) * dims)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gammanoise",
        description="Spectral laboratory for colored Gaussian noise on the torus")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="INI configuration file")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--out", help="output CSV path (overrides config)")
    parser.add_argument("--workers", type=int,
                        help="worker count (overrides config and GAMMANOISE_WORKERS)")
    parser.add_argument("--override", action="append", default=[],
                        metavar="SECTION.KEY=VALUE", help="config override")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.command, args.config, args.override)
        workers = _worker_count(cfg, args.workers)
    except ConfigError as exc:
        json.dump({"error": "config", "detail": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return EXIT_CONFIG

    seed = args.seed if args.seed is not None else cfg["run"]["seed"]
    out = args.out if args.out is not None else cfg["run"]["out"]

    timer = OpTimer()
    try:
        records, verdicts, code = RUNNERS[args.command](cfg, seed, workers, timer)
    except (ConfigError, ValueError) as exc:
        # domain validation failures are configuration problems
        json.dump({"error": "config", "detail": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return EXIT_CONFIG
    except Exception as exc:  # hard failure: report and signal
        json.dump({"error": type(exc).__name__, "detail": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return EXIT_HARD

    chash = config_hash(args.command, cfg, seed)
    rows = [{**r, "manifest": chash} for r in records]
    write_csv(rows, out, columns=[*COMMANDS[args.command].columns, "manifest"])

    manifest = RunManifest(command=args.command, config_hash=chash, seed=seed,
                           wall_time_s=timer.total(), op_timings=timer.timings,
                           artifacts=[os.path.basename(out)], verdicts=verdicts)
    manifest.write(_manifest_path(out, chash))
    if args.command == "selftest":
        for r in records:
            status = "PASS" if r["passed"] else "FAIL"
            print(f"criterion {r['criterion']:>2} [{status}] {r['name']}")
    print(f"{args.command}: wrote {out} (manifest {chash})")
    return code


def _manifest_path(out: str, chash: str) -> str:
    base = os.path.dirname(out) or "."
    return os.path.join(base, f"manifest-{chash}.json")


if __name__ == "__main__":
    sys.exit(main())
