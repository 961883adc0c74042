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
                        SystemNoise, series, spde)

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
        assert stats["norms.lq_norm"].calls == 8
        assert sum(st.self_s for st in stats.values()) == pytest.approx(top_level, rel=1e-9)
        series.sq_function_gamma_norm(spec)
        tracer.close_round()
        sq_spans = tracer.spans

    assert [s[0] for s in mc_spans if s[3] == -1] == ["series.mc_gamma_norm"]
    assert {mc_spans[s[3]][0] for s in mc_spans if s[0] == "grid.upsampled_values"} \
        == {"norms.lq_norm"}
    # the square function is reached through the name the tracer looks up in series
    assert stats["series.sq_function_from_terms"].calls == 1
    assert stats["grid.upsampled_values"].calls == 8 + 16
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
