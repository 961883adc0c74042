"""The benchmark's own tests: oracles against gammanoise's closed forms, the
failure tally, and the tracer's bookkeeping.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

gn = workloads.load_gammanoise(os.path.dirname(BENCH_DIR))

from gammanoise.spde import second_moment_exp_euler  # noqa: E402


@pytest.mark.parametrize("coloring", ["matern", "power_law"])
@pytest.mark.parametrize("with_g", [False, True])
def test_series_oracle_matches_hilbert_schmidt(coloring, with_g):
    n, N, s, alpha = 64, 24, 0.4, 0.7
    rng = np.random.default_rng(5)
    grid = gn.Grid(1, n)
    g_values = workloads.band_limited_real(rng, n, 6) if with_g else None
    make = gn.Coloring.matern if coloring == "matern" else gn.Coloring.power_law
    g = None if g_values is None else gn.forward_transform(grid, g_values)
    spec = gn.SeriesSpec(grid, gn.FourierSystem(1), make(alpha), N, s, 2.0, g=g)
    ks = oracles.fourier_indices(N, 1)
    mu = oracles.coloring_weights(coloring, alpha, ks)
    exact = oracles.series_mean_square(n, ks, mu, s, g_values)
    assert gn.hs_gamma_norm_exact(spec) ** 2 == pytest.approx(exact, rel=1e-12)


def test_aliased_shift_wraps_like_the_grid_product():
    # g at the top of the band times e_k with k near n/2 wraps around the lattice
    n, s = 16, 0.3
    grid = gn.Grid(1, n)
    g_values = np.cos(2 * np.pi * 6 * np.arange(n) / n) + 0.5
    spec = gn.SeriesSpec(grid, gn.FourierSystem(1), gn.Coloring.constant(1.0, 15), 15, s,
                         2.0, g=gn.forward_transform(grid, g_values))
    ks = oracles.fourier_indices(15, 1)
    exact = oracles.series_mean_square(n, ks, np.ones(15), s, g_values)
    assert gn.hs_gamma_norm_exact(spec) ** 2 == pytest.approx(exact, rel=1e-12)


def test_stationary_variance_2d_matches_hilbert_schmidt():
    grid = gn.Grid(2, 32)
    spec = gn.SeriesSpec(grid, gn.FourierSystem(2), gn.Coloring.matern(0.5), 100, 0.6, 2.0)
    ks = oracles.fourier_indices(100, 2)
    sigma2 = oracles.stationary_variance(ks, oracles.coloring_weights("matern", 0.5, ks), 0.6)
    assert gn.hs_gamma_norm_exact(spec) ** 2 == pytest.approx(sigma2, rel=1e-12)


def test_fourier_indices_follow_the_system_order():
    for dim, N in ((1, 33), (2, 200)):
        assert oracles.fourier_indices(N, dim) == [tuple(k) for k in gn.FourierSystem(dim).indices(N)]


def test_ou_law_matches_closed_form():
    grid = gn.Grid(1, 64)
    cfg = gn.SpdeConfig(grid, gn.DiagonalNoise.matern(grid, 0.4), T=0.05, dt=0.01)
    assert oracles.ou_mean_square(64, 0.4, 0.8, 0.05) == pytest.approx(
        gn.second_moment_closed_form(cfg, 0.8), rel=1e-12)


def test_euler_series_law_matches_scheme_moment():
    # series noise on the first N Fourier modes is diagonal noise supported on them
    n, N, alpha, s, dt, T = 64, 21, 0.6, 0.8, 0.01, 0.05
    grid = gn.Grid(1, n)
    ks = oracles.fourier_indices(N, 1)
    mu = oracles.coloring_weights("matern", alpha, ks)
    lattice = np.zeros(n)
    for (k,), m in zip(ks, mu):
        lattice[k % n] = m
    cfg = gn.SpdeConfig(grid, gn.DiagonalNoise(lattice), T=T, dt=dt, integrator="exp_euler")
    assert oracles.euler_series_mean_square(ks, mu, s, dt, 5) == pytest.approx(
        second_moment_exp_euler(cfg, s), rel=1e-12)


def test_heat_theta_norm_matches_schatten_norm():
    for dim, n in ((1, 64), (2, 16)):
        one = gn.constant_field(gn.Grid(dim, n), 1.0)
        from gammanoise.operators import schatten_heat_norm
        assert oracles.heat_theta_norm(n, dim, 0.01) == pytest.approx(
            schatten_heat_norm(one, 0.01), rel=1e-12)


PARAMS = [(1, 0.9, 4.0, 2.0, 4.0), (1, 0.5, 4.0, 2.0, 4.0), (1, 0.2, 4.0, 2.0, math.inf),
          (2, 0.65, 4.0, 2.5, 10.0 / 3.0), (1, 0.6, 2.0, 8.0, 8.0)]


@pytest.mark.parametrize("params", PARAMS)
@pytest.mark.parametrize("construction", ["freq_block", "rescaled_bump", "shifted_bump"])
def test_predicted_exponents_match_program(params, construction):
    expected = gn.predicted_exponent(gn.ParamTuple(*params), construction)
    assert oracles.predicted_exponent(construction, *params) == pytest.approx(expected, abs=1e-14)


def test_spde_scaling_exponent_and_dirichlet_rate_match_program():
    d, alpha = 1, 0.5
    params = gn.ParamTuple(d, 0.25, 4.0, 2.0, d / alpha)
    assert oracles.predicted_exponent("spde_scaling", d, 0.25, 4.0, 2.0, d / alpha) == \
        pytest.approx(gn.predicted_exponent(params, "spde_scaling", alpha=alpha), abs=1e-14)
    from gammanoise.experiments import dirichlet_norm_test
    _, fit = dirichlet_norm_test(3.0, [8, 16, 32])
    assert oracles.dirichlet_exponent(3.0) == pytest.approx(fit.predicted, abs=1e-14)


@pytest.mark.parametrize("params", PARAMS[:3])
def test_weighted_slack_matches_sharp_condition(params):
    report = gn.sharp_condition(gn.ParamTuple(*params), "weighted")
    slack = oracles.weighted_slack(*params)
    assert slack == pytest.approx(report.slack, abs=1e-14)
    assert oracles.classify(slack) == report.classification


def _tally(workload, outcomes, inputs):
    tally = run.Tally()
    tally.add(workload, inputs, outcomes)
    return tally


def test_perturbed_series_estimate_is_a_failed_operation():
    wl = workloads.Series1D()
    wl.N, wl.M = 32, 50
    inputs = wl.make_inputs(seed=3, workdir="")
    inputs["specs"] = inputs["specs"][:2]
    outcomes = wl.run(gn, inputs)
    assert _tally(wl, outcomes, inputs).failed == 0

    est, hs = outcomes[1].value
    far = est.mean + 10 * est.stderr
    outcomes[1].value = (type(est)(far, est.stderr, est.samples, est.seed), hs)
    tally = _tally(wl, outcomes, inputs)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.wrong and tally.wrong[0].startswith("spec1")


def test_perturbed_heat_ensemble_is_a_failed_operation():
    wl = workloads.Heat()
    wl.ou_trajectories, wl.euler_trajectories, wl.T, wl.dt = 40, 20, 0.02, 0.005
    inputs = wl.make_inputs(seed=4, workdir="")
    outcomes = wl.run(gn, inputs)
    assert _tally(wl, outcomes, inputs).failed == 0
    outcomes[0].value = [2.0 * v for v in outcomes[0].value]
    tally = _tally(wl, outcomes, inputs)
    assert (tally.attempted, tally.failed, len(tally.wrong)) == (2, 1, 1)


def test_program_error_is_failed_but_not_wrong():
    out = workloads.attempt("boom", {}, lambda: 1 / 0)
    tally = _tally(workloads.Series1D(), [out], {})
    assert (tally.failed, tally.wrong) == (1, [])
    assert tally.errors == ["boom: ZeroDivisionError: division by zero"]


def test_traced_self_times_add_up():
    from tracing import Tracer
    tracer = Tracer()
    grid = gn.Grid(1, 64)
    spec = gn.SeriesSpec(grid, gn.FourierSystem(1), gn.Coloring.matern(0.5), 16, 0.5, 4.0)
    with tracer:
        gn.mc_gamma_norm(spec, 8, seed=1)
    top_level = tracer.close_round()
    assert gn.mc_gamma_norm.__name__ == "mc_gamma_norm" and not hasattr(gn.mc_gamma_norm, "__wrapped__")
    stats = tracer.stats
    assert stats["rng.stream"].calls == 8
    assert stats["norms.lq_norm"].calls == 8
    assert stats["grid.upsampled_values"].sizes["cells"] == 8 * 256
    assert stats["series.term_values"].sizes["bytes"] == 16 * 64 * 16
    total_self = sum(st.self_s for st in stats.values())
    assert total_self == pytest.approx(top_level, rel=1e-9)
    top = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in top] == ["series.mc_gamma_norm"]
    parents = {tracer.spans[s[3]][0] for s in tracer.spans if s[0] == "rng.stream"}
    assert parents == {"series.mc_gamma_norm"}
    assert {tracer.spans[s[3]][0] for s in tracer.spans if s[0] == "grid.upsampled_values"} \
        == {"norms.lq_norm"}


def test_perturbed_cli_exponent_is_a_failed_operation(tmp_path):
    wl = workloads.CliDefaults()
    inputs = wl.make_inputs(seed=5, workdir=str(tmp_path))
    inputs["commands"] = {"dirichlet": {"command": "dirichlet"}}
    outcomes = wl.run(gn, inputs)
    assert _tally(wl, outcomes, inputs).failed == 0

    # shift the fitted exponent in both the CSV and its 2-worker twin
    for path in (outcomes[0].value, inputs["commands"]["dirichlet"]["twin"]):
        with open(path, "rb") as fh:
            rows = workloads.read_csv(fh.read())
        for r in rows:
            r["fitted_exponent"] = repr(float(r["fitted_exponent"]) + 0.1)
        lines = [",".join(rows[0])] + [",".join(r.values()) for r in rows]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    tally = _tally(wl, outcomes, inputs)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "fitted exponent" in tally.wrong[0]
