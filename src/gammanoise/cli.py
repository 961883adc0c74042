"""Command-line orchestration.

Every subcommand resolves its configuration (defaults, optional INI file,
``--override section.key=value``, then ``--out`` and ``--workers`` as the
last overrides of ``run.out`` and ``run.workers``), runs, writes one CSV
artifact plus one JSON manifest named after the configuration hash, and
exits 0 on success, 2 on configuration errors (with a machine-readable JSON
error on stderr), 3 when a sweep finished with failed cells, 1 on hard
failures.
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
from .experiments import (SWEEP_CONSTRUCTIONS, boundary_sweep, dirichlet_norm_test,
                          frequency_block_test, rescaled_bump_test, shifted_bump_test)
from .fit import linfit
from .grid import Grid, constant_field, forward_coeffs, forward_transform
from .norms import CELLS_MAX, bessel_kernel, chunk_rows, lq_norms
from .operators import (gamma_young_check, heat_witness, mg_sobolev_gamma_norm,
                        schatten_heat_norm)
from .output import OpTimer, RunManifest, config_hash, write_csv
from .rng import stream
from .series import SeriesSpec, hs_gamma_norm_exact, mc_gamma_norm, sq_function_gamma_norm
from .spde import (DiagonalNoise, SpdeConfig, ensemble_norms, scaling_diagnostic, simulate,
                   time_norms)
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


def _params_from(section: str, block: dict, **keys) -> ParamTuple:
    """``block``'s ``ParamTuple``, zeta <= 0 read as inf; a rejected field names its key."""
    zeta = block["zeta"] if block["zeta"] > 0 else math.inf
    try:
        return ParamTuple(block["d"], block["s"], block["q"], block["eta"], zeta)
    except ValueError as exc:
        field = str(exc).split()[0]     # each of ParamTuple's messages opens with its field
        key = keys.get(field, field)
        raise ConfigError(f"{section}.{key}={block[key]}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommand runners: each takes (cfg, seed, timer) and returns (table, verdicts,
# exit_code); a table maps each column declared in config.COMMANDS, in order, to an
# equal-length list of cells


def run_series_norm(cfg, seed, timer):
    grid = build_grid(cfg["grid"])
    system = build_system(cfg["system"], grid.dim)
    blk = cfg["series"]
    coloring = build_coloring(cfg["coloring"], grid.dim, blk["n_terms"])
    _check_series_members(cfg, system, coloring)
    g = build_g(cfg.get("g", {}), grid)
    spec = SeriesSpec(grid, system, coloring, blk["n_terms"], blk["s"], blk["q"], g=g)
    est = mc_gamma_norm(spec, blk["samples"], seed=seed, workers=cfg["run"]["workers"],
                        oversample=cfg["run"]["oversample"])
    table = {"n_terms": [blk["n_terms"]], "s": [blk["s"]], "q": [blk["q"]],
             "samples": [est.samples], "seed": [est.seed], "mean_sq": [est.mean],
             "stderr": [est.stderr], "mean_norm": [est.mean_norm],
             "sq_function": [sq_function_gamma_norm(spec, oversample=cfg["run"]["oversample"])],
             "hs_exact": [hs_gamma_norm_exact(spec) if blk["q"] == 2 else math.nan]}
    return table, {}, EXIT_OK


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


def _check_sweep_regime(blk: dict, regime: str) -> None:
    """Raise ``ConfigError`` naming the keys that take a sweep out of its construction's regime."""
    construction = blk["construction"]
    if regime == "weighted" and blk["eta"] > blk["q"]:
        raise ConfigError(f"sweep.eta={blk['eta']:g} exceeds sweep.q={blk['q']:g}; "
                          f"sweep.construction={construction} probes the weighted regime, "
                          "which requires eta <= q")
    if regime == "unweighted" and blk["zeta"] <= 0:
        raise ConfigError(f"sweep.zeta={blk['zeta']:g} stands for zeta = inf; "
                          f"sweep.construction={construction} probes the unweighted regime, "
                          "which requires a finite zeta")


def run_sweep(cfg, seed, timer):
    blk = cfg["sweep"]
    _, regime = _pick(SWEEP_CONSTRUCTIONS, "sweep.construction", blk["construction"])
    _check_sweep_regime(blk, regime)
    tuples = [_params_from("sweep", {**blk, "s": s}, s="s_values") for s in blk["s_values"]]
    cells = boundary_sweep(tuples, blk["construction"], blk["scales"])
    table = {**_attributes([c.params for c in cells], ("d", "s", "q", "eta", "zeta")),
             **_attributes(cells, ("construction", "slack", "classification", "label",
                                   "exponent", "r2", "status"))}
    reasons = [{"s": c.params.s, "error": c.error} for c in cells if c.status == "failed"]
    code = EXIT_PARTIAL if reasons else EXIT_OK
    return table, {"failed_cells": len(reasons), "failed_reasons": reasons}, code


def _attributes(items, names) -> dict:
    """A table of the attributes ``names`` of each of ``items``, one column per name."""
    return {name: [getattr(item, name) for item in items] for name in names}


def _repeated(rows: int, **cells) -> dict:
    """A table of one column per keyword, its value repeated ``rows`` times."""
    return {name: [value] * rows for name, value in cells.items()}


def _two_sided_table(records, fit) -> dict:
    return {**_attributes(records, ("construction", "scale_index", "lhs", "rhs", "ratio")),
            **_repeated(len(records), fitted_exponent=fit.exponent,
                        predicted_exponent=fit.predicted, r2=fit.r2)}


def run_freq_block(cfg, seed, timer):
    params = _params_from("params", cfg["params"])
    blk = cfg["freq_block"]
    with _named("freq_block.n_max", blk["n_max"]):     # a valid tuple meets only the budget
        records, fit = frequency_block_test(params, range(blk["n_min"], blk["n_max"] + 1),
                                            oversample=cfg["run"]["oversample"])
    return _two_sided_table(records, fit), {"fitted_exponent": fit.exponent}, EXIT_OK


def run_rescaled_bump(cfg, seed, timer):
    params = _params_from("params", cfg["params"])
    blk = cfg["rescaled_bump"]
    records, fit = rescaled_bump_test(params, range(blk["m_min"], blk["m_max"] + 1),
                                      n=blk["n"], width=blk["width"],
                                      oversample=cfg["run"]["oversample"])
    return _two_sided_table(records, fit), {"fitted_exponent": fit.exponent}, EXIT_OK


def run_shifted_bump(cfg, seed, timer):
    params = _params_from("params", cfg["params"])
    blk = cfg["shifted_bump"]
    records, fit = shifted_bump_test(params, blk["extents"],
                                     resolution=blk["resolution"],
                                     width=blk["width"],
                                     oversample=cfg["run"]["oversample"])
    return _two_sided_table(records, fit), {"fitted_exponent": fit.exponent}, EXIT_OK


def run_dirichlet(cfg, seed, timer):
    blk = cfg["dirichlet"]
    table, fit = dirichlet_norm_test(blk["eta"], blk["n_values"],
                                     oversample=cfg["run"]["oversample"])
    table.update(_repeated(len(table["N"]), eta=blk["eta"], fitted_exponent=fit.exponent,
                           predicted_exponent=fit.predicted, r2=fit.r2))
    return table, {"fitted_exponent": fit.exponent}, EXIT_OK


def run_gamma_young(cfg, seed, timer):
    grid = build_grid(cfg["grid"])
    blk = cfg["gamma_young"]
    s, q = blk["s"], blk["q"]
    r = grid.dim / (grid.dim - s) if s < grid.dim else math.inf
    inv_eta = 1.0 / q + 0.5 - 1.0 / r
    if not (2 < r < math.inf and 0 < inv_eta < 0.5):
        raise ConfigError(f"gamma_young.s={s:g}, gamma_young.q={q:g} and grid.dim={grid.dim} "
                          "must give r and eta in (2, inf), for r = d / (d - s) and "
                          "1/eta = 1/q + 1/2 - 1/r")
    eta = 1.0 / inv_eta
    kernel = bessel_kernel(grid, s)
    count = blk["trials"]
    table = {"trial": list(range(count)), **_repeated(count, s=s, q=q, r=r, eta=eta),
             "lhs": [], "rhs": [], "ratio": []}
    for trials in _stacks(count, grid):
        samples = np.stack([stream(seed, i).standard_normal(grid.shape) for i in trials])
        checks = gamma_young_check(kernel, forward_coeffs(grid, samples), q, r, eta,
                                   oversample=cfg["run"]["oversample"], real=True)
        for name, values in zip(("lhs", "rhs", "ratio"), checks):
            table[name] += values.tolist()
    return table, {"ratio_spread": max(table["ratio"]) / min(table["ratio"])}, EXIT_OK


def run_mg_sobolev(cfg, seed, timer):
    grid = build_grid(cfg["grid"])
    blk = cfg["mg_sobolev"]
    oversample = cfg["run"]["oversample"]
    cells = (oversample * grid.n) ** grid.dim
    if cells > CELLS_MAX:
        raise ConfigError(f"grid.dim={grid.dim} and grid.n={grid.n} give {cells} cells per "
                          f"bump on the L^q rule's grid at run.oversample={oversample}, "
                          f"above the budget of {CELLS_MAX}")
    coords = grid.coords()
    gamma, g_eta = [], []
    for levels in _stacks(blk["levels"], grid):
        widths = [blk["width"] * 2.0**-m for m in levels]
        g = forward_coeffs(grid, np.stack([bump_values(coords, w / 2.0, w) for w in widths]))
        norms = lq_norms(grid, g, blk["eta"], oversample, real=True).tolist()
        for m, w, norm in zip(levels, widths, norms):
            if not (norm > 0 and math.isfinite(norm)):
                raise ConfigError(f"mg_sobolev.levels={blk['levels']} and mg_sobolev.width="
                                  f"{blk['width']:g} give a level-{m} bump of width {w:g} "
                                  f"whose L^eta norm on grid.n={grid.n} is {norm:g}")
        g_eta += norms
        with _named("mg_sobolev.s", blk["s"]):     # mg_sobolev.q has a declared rule
            gamma += mg_sobolev_gamma_norm(grid, g, blk["s"], blk["q"], oversample=oversample,
                                           real=True).tolist()
    consts = [val / norm for val, norm in zip(gamma, g_eta)]
    table = {"level": list(range(blk["levels"])),
             **_repeated(blk["levels"], s=blk["s"], q=blk["q"], eta=blk["eta"]),
             "gamma_norm": gamma, "g_eta_norm": g_eta, "constant": consts}
    return table, {"constant_spread": max(consts) / min(consts)}, EXIT_OK


def _stacks(count: int, grid: Grid):
    """``range(count)`` in consecutive ranges of as many rows as one chunk of the ``L^q`` rule."""
    step = chunk_rows(grid.n, grid.n, grid.dim)
    return [range(lo, min(lo + step, count)) for lo in range(0, count, step)]


def run_schatten_heat(cfg, seed, timer):
    blk = cfg["schatten"]
    with _named("schatten.n", blk["n"]):     # schatten.d has a declared rule
        grid = Grid(blk["d"], blk["n"])
    one = constant_field(grid, 1.0)
    ts = np.geomspace(blk["t_min"], blk["t_max"], blk["points"])
    times = ts.tolist()
    norms = [schatten_heat_norm(one, t) for t in times]
    witness = [schatten_heat_norm(heat_witness(grid, t), t) for t in times]
    table = {"d": [blk["d"]] * len(times), "t": times, "norm_g1": norms,
             "scaled_g1": [t ** (blk["d"] / 4.0) * val for t, val in zip(times, norms)],
             "norm_witness": witness}
    slope, _ = linfit(np.log(ts), np.log(witness))
    return table, {"witness_exponent": slope}, EXIT_OK


def run_heat_sim(cfg, seed, timer):
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
    count = blk["trajectories"]
    with timer.op("ensemble"):
        times, norms = ensemble_norms(config, seed, count, blk["s"], blk["q"])
    with timer.op("rows"):
        lp, max_h = time_norms(norms, np.diff(times), blk["p"])
        table = {"trajectory": np.repeat(np.arange(count), len(times)).tolist(),
                 "time": times.tolist() * count, "h_norm": norms.ravel().tolist(),
                 "lp_spacetime": np.repeat(lp, len(times)).tolist(),
                 "max_in_time": np.repeat(max_h, len(times)).tolist()}
    if blk.get("dump_states"):
        dump_states(simulate(config, seed=seed, traj_index=0), blk["dump_states"])
    return table, {"trajectories": count}, EXIT_OK


def run_scaling(cfg, seed, timer):
    grid = build_grid(cfg["grid"])
    blk = cfg["scaling"]
    zeta = 1.0 / blk["alpha"] * grid.dim
    params = _params_from("scaling", {**blk, "d": grid.dim, "zeta": zeta}, zeta="alpha")
    with _named("scaling.beta", blk["beta"]):     # scaling.alpha > 0 is declared
        Coloring.haar(blk["alpha"], blk["beta"], grid.dim)
    records, fit = scaling_diagnostic(blk["alpha"], params,
                                      range(blk["m_min"], blk["m_max"] + 1), grid=grid,
                                      levels=blk["levels"], beta=blk["beta"],
                                      oversample=cfg["run"]["oversample"])
    return _two_sided_table(records, fit), {"fitted_exponent": fit.exponent}, EXIT_OK


def run_haar_divergence(cfg, seed, timer):
    blk = cfg["haar"]
    js = list(range(2, blk["j_max"] + 1))
    zetas = blk["zeta_values"]
    with _named(f"haar.beta={blk['beta']}, haar.d={blk['d']} and haar.zeta_values", zetas):
        sums = [haar_lattice_sums(blk["alpha"], blk["beta"], z, blk["d"], js).tolist()
                for z in zetas]
    table = {"zeta": [z for z in zetas for _ in js], "J": js * len(zetas),
             "partial_sum": [val for row in sums for val in row],
             "critical": [abs(z - blk["d"] / blk["alpha"]) <= 1e-9 for z in zetas for _ in js]}
    return table, {}, EXIT_OK


def run_selftest(cfg, seed, timer):
    table, timings = selftest(seed, workers=cfg["run"]["workers"])
    timer.timings.update(timings)
    verdicts = {name: bool(passed) for name, passed in zip(table["name"], table["passed"])}
    code = EXIT_OK if all(verdicts.values()) else EXIT_HARD
    return table, verdicts, code


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
    parser.add_argument("--seed", help="master seed (overrides run.seed)")
    parser.add_argument("--out", help="output CSV path (last override of run.out)")
    parser.add_argument("--workers", help="worker count (last override of run.workers)")
    parser.add_argument("--override", action="append", default=[],
                        metavar="SECTION.KEY=VALUE", help="config override")
    args = parser.parse_args(argv)
    flags = [f"run.{key}={getattr(args, key)}" for key in ("out", "workers")
             if getattr(args, key) is not None]

    try:
        cfg = load_config(args.command, args.config, args.override + flags)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, "config", str(exc))

    try:    # not an override of run.seed: the manifest hash takes the two apart
        seed = cfg["run"]["seed"] if args.seed is None else int(args.seed)
    except ValueError as exc:
        return _fail(EXIT_CONFIG, "config", f"bad value for --seed: {args.seed!r} ({exc})")
    out = cfg["run"]["out"]

    timer = OpTimer()
    try:
        table, verdicts, code = RUNNERS[args.command](cfg, seed, timer)
    except (ConfigError, ValueError) as exc:
        # domain validation failures are configuration problems
        return _fail(EXIT_CONFIG, "config", str(exc))
    except Exception as exc:  # hard failure: report and signal
        return _fail(EXIT_HARD, type(exc).__name__, str(exc))

    chash = config_hash(args.command, cfg, seed)
    columns = COMMANDS[args.command].columns
    try:    # a ValueError here is a table not as declared: the runner is at fault
        if tuple(table) != columns:
            raise ValueError(f"table columns {list(table)} are not the declared {list(columns)}")
        table["manifest"] = [chash] * len(table[columns[0]])
        write_csv(table, out)
        RunManifest(command=args.command, config_hash=chash, seed=seed,
                    wall_time_s=timer.total(), op_timings=timer.timings,
                    artifacts=[os.path.basename(out)],
                    verdicts=verdicts).write(_manifest_path(out, chash))
    except (OSError, ValueError) as exc:
        return _fail(EXIT_HARD, type(exc).__name__, f"{args.command}: {exc}")
    if args.command == "selftest":
        for cid, name, passed in zip(table["criterion"], table["name"], table["passed"]):
            print(f"criterion {cid:>2} [{'PASS' if passed else 'FAIL'}] {name}")
    print(f"{args.command}: wrote {out} (manifest {chash})")
    return code


def _fail(code: int, error: str, detail: str) -> int:
    """Write ``{"error": error, "detail": detail}`` to stderr as one JSON line; return ``code``."""
    json.dump({"error": error, "detail": detail}, sys.stderr)
    sys.stderr.write("\n")
    return code


def _manifest_path(out: str, chash: str) -> str:
    base = os.path.dirname(out) or "."
    return os.path.join(base, f"manifest-{chash}.json")


if __name__ == "__main__":
    sys.exit(main())
