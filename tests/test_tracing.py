"""The benchmark's outside-in tracer still finds every layer it names.

``perfbench/tracing.py`` rebinds public gammanoise names by module and
attribute; this test imports it unchanged, so a traced name that moves or
disappears, or a quadrature layer that stops being called where the
benchmark's per-layer split expects it, fails the unit suite first.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import gammanoise.cli  # noqa: F401  (the tracer rebinds cli.RUNNERS)
from gammanoise import (Coloring, DiagonalNoise, FourierSystem, Grid, SeriesSpec, SpdeConfig,
                        SystemNoise, forward_transform, series, spde)
from gammanoise.rng import stream

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = REPO_ROOT / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH_DIR))
        mp.setattr(sys, "dont_write_bytecode", True)
        return importlib.import_module("tracing")


def _bindings(tracing):
    """Every name the tracer rebinds, mapped to the object bound there now."""
    mods = {n: m for n, m in sys.modules.items()
            if n == "gammanoise" or n.startswith("gammanoise.")}
    out = {}
    for _, attr, _, _ in tracing.FUNCTIONS:
        for name, mod in mods.items():
            if hasattr(mod, attr):
                out[(name, attr)] = getattr(mod, attr)
    for modname, clsname, attr, _, _ in tracing.METHODS:
        out[(modname, clsname, attr)] = getattr(mods[modname], clsname).__dict__[attr]
    out.update({("cli.RUNNERS", c): r for c, r in mods["gammanoise.cli"].RUNNERS.items()})
    out.update({("numpy.fft", a): getattr(np.fft, a) for a in ("fftn", "ifftn")})
    return out


def test_traced_layers_of_the_quadrature(tracing):
    spec = SeriesSpec(Grid(1, 64), FourierSystem(1), Coloring.matern(0.5), 16, 0.5, 4.0)
    before = _bindings(tracing)
    tracer = tracing.Tracer()
    with tracer:
        series.mc_gamma_norm(spec, 8, seed=1)
        top_level = tracer.close_round()
        mc_spans, stats = tracer.spans, tracer.stats
        # the 8 samples go from the lattice into the quadrature as one chunk on
        # 36-point axes (the 5-smooth size above q B = 4 * 8), with no lq_norm call
        assert stats["norms.lq_norm"].calls == 0
        assert stats["grid.upsampled_values"].calls == 1
        assert stats["grid.upsampled_values"].sizes["cells"] == 8 * 36
        assert sum(st.self_s for st in stats.values()) == pytest.approx(top_level, rel=1e-9)
        series.sq_function_gamma_norm(spec)
        tracer.close_round()
        sq_spans = tracer.spans

    assert [s[0] for s in mc_spans if s[3] == -1] == ["series.mc_gamma_norm"]
    assert {mc_spans[s[3]][0] for s in mc_spans if s[0] == "grid.upsampled_values"} \
        == {"series.mc_gamma_norm"}
    # the square function is reached through the name the tracer looks up in series
    assert stats["series.sq_function_from_terms"].calls == 1
    # its 16 terms on 36 points per axis go through the interpolation as one chunk
    assert stats["grid.upsampled_values"].calls == 1 + 1
    assert {sq_spans[s[3]][0] for s in sq_spans if s[0] == "grid.upsampled_values"} \
        == {"series.sq_function_from_terms"}
    # the term stack is read in coefficient space: the only transforms are the quadrature's
    assert {sq_spans[s[3]][0] for s in sq_spans if s[0] == "fft"} == {"grid.upsampled_values"}

    assert _bindings(tracing) == before
    assert not hasattr(series.mc_gamma_norm, "__wrapped__")


@pytest.mark.parametrize("integrator", ["exact_ou", "exp_euler"])
def test_simulate_draws_its_trajectory_in_one_call(tracing, integrator):
    # 10 steps: one stream and one draw call, not one draw call per step
    grid = Grid(1, 64)
    if integrator == "exact_ou":
        noise = DiagonalNoise.matern(grid, 0.5)
    else:
        noise = SystemNoise(FourierSystem(1), Coloring.matern(0.5), 16)
    cfg = SpdeConfig(grid, noise, T=0.1, dt=0.01, integrator=integrator)
    tracer = tracing.Tracer()
    with tracer:
        spde.simulate(cfg, seed=1)
        tracer.close_round()
    assert cfg.steps == 10
    assert tracer.stats["spde.simulate"].calls == 1
    assert tracer.stats["rng.stream"].calls == 1
    assert tracer.stats["rng.draw"].calls == 1


def test_q2_fourier_without_g_stays_on_the_lattice(tracing):
    # the Monte Carlo norms and the Hilbert-Schmidt value read the N lattice
    # weights: no transform, no rendered member, no term stack
    spec = SeriesSpec(Grid(2, 32), FourierSystem(2), Coloring.matern(0.5), 300, 0.4, 2.0)
    tracer = tracing.Tracer()
    with tracer:
        series.mc_gamma_norm(spec, 300, seed=1)
        series.hs_gamma_norm_exact(spec)
        tracer.close_round()
    assert tracer.stats["series.mc_gamma_norm"].calls == 1
    assert tracer.stats["series.hs_gamma_norm_exact"].calls == 1
    assert tracer.stats["fft"].calls == 0
    assert tracer.stats["systems.render"].calls == 0
    assert "_terms" not in vars(spec)


def test_q2_fourier_hs_exact_with_g_renders_no_member(tracing):
    # the Hilbert-Schmidt value with g is one lattice correlation, summed
    # directly: no transform, no rendered member and no term stack
    grid = Grid(2, 32)
    g = forward_transform(grid, stream(3, 0).standard_normal(grid.shape))
    spec = SeriesSpec(grid, FourierSystem(2), Coloring.matern(0.5), 300, 0.4, 2.0, g=g)
    tracer = tracing.Tracer()
    with tracer:
        series.hs_gamma_norm_exact(spec)
        tracer.close_round()
    assert tracer.stats["series.hs_gamma_norm_exact"].calls == 1
    assert tracer.stats["systems.render"].calls == 0
    assert tracer.stats["fft"].calls == 0
    assert "_terms" not in vars(spec)


def test_gamma_young_measures_its_trials_as_stacks(tracing, tmp_path):
    # 100 trials on n = 1024 go as stacks of 32, 32, 32 and 4 rows.  A stack of
    # 32 takes 13 transforms: its samples' forward transform, the kernel's
    # |f|^2 pair, the multipliers' |g|^2 pair, the kernel's values for its weak
    # norm, 3 quadrature chunks at q/2 = 4 and 4 at eta = 8/3; the stack of 4
    # takes one chunk at each exponent, 8 transforms in all.  Field by field
    # the same run took 8 transforms per trial, 800 in all.
    tracer = tracing.Tracer()
    with tracer:
        code = gammanoise.cli.main(["gamma-young", "--out", str(tmp_path / "g.csv"),
                                    "--override", "gamma_young.trials=100"])
        tracer.close_round()
    assert code == 0
    stats = tracer.stats
    assert stats["operators.gamma_young_check"].calls == 4
    assert stats["norms.lq_norm"].calls == 0
    assert stats["rng.stream"].calls == 100
    assert stats["fft"].calls == 3 * 13 + 8
