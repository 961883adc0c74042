import hashlib
import json
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from gammanoise.cli import RUNNERS, dump_states, load_states, main
from gammanoise.config import COMMANDS, ConfigError, command_sections, load_config
from gammanoise.conditions import ParamTuple, sharp_condition
from gammanoise.experiments import SWEEP_CONSTRUCTIONS
from gammanoise.grid import Grid
from gammanoise.norms import CELLS_MAX
from gammanoise.output import (RunManifest, canonical_config, config_hash, csv_bytes,
                               format_value, write_csv)
from gammanoise.rng import complex_standard_normal, derive_state, splitmix64, stream
from gammanoise.spde import DiagonalNoise, SpdeConfig, simulate

from conftest import read_csv


class TestCsv:
    def test_roundtrip_bit_exact(self, tmp_path):
        table = {"a": [1, 2], "b": [0.1 + 0.2, float(np.pi)],
                 "c": [-1.2345678901234567e-300, math.inf], "d": ["x", "y"]}
        path = tmp_path / "t.csv"
        write_csv(table, path)
        back = read_csv(path)
        for k, column in table.items():
            assert [row[k] for row in back] == column

    def test_empty_table_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv({"x": [], "y": []}, path)
        assert path.read_bytes() == b"x,y\n"

    def test_lf_and_decimal_point(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv({"v": [0.5]}, path)
        data = path.read_bytes()
        assert b"\r" not in data
        assert b"0.5" in data and b"0,5" not in data

    @staticmethod
    def reference_cell(v) -> str:
        # the cell rules spelled out case by case
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, int):
            return str(v)
        if isinstance(v, float):
            if math.isnan(v):
                return "nan"
            if math.isinf(v):
                return "inf" if v > 0 else "-inf"
            return f"{v:.17g}"
        return str(v)

    def reference_bytes(self, rows, columns) -> bytes:
        # each row joined cell by cell, the way the CSV reads
        lines = [",".join(columns)] + [",".join(map(self.reference_cell, row)) for row in rows]
        return ("\n".join(lines) + "\n").encode("utf-8")

    def test_rows_match_the_per_cell_format(self):
        cells = [math.nan, -math.nan, math.inf, -math.inf, -0.0, 1e-300, 0.1 + 0.2, True, False,
                 0, -7, 2**70, np.float64(np.pi), np.float64(math.nan), np.float64(-math.inf),
                 np.int64(-3), np.float32(0.1), np.bool_(True), "x", ""]
        assert [format_value(v) for v in cells] == [self.reference_cell(v) for v in cells]
        rows = [(a, b, c) for a in cells for b in cells[::4] for c in cells[::5]]
        rows += [(1.5, 2, "s")] * 3
        table = dict(zip("abc", map(list, zip(*rows))))
        assert csv_bytes(table) == self.reference_bytes(rows, "abc")

    @pytest.mark.parametrize("column", [
        [0.0, -0.0, 0.0, -0.0, 2.5, -0.0, 2.5],
        [np.float64(-0.0), np.float64(0.0), np.float64(-0.0), np.float64(1.5)] * 2,
        [True, 1, 1.0, True, 1, 1.0, False, 0, 0.0, False, np.bool_(True), np.int64(1)],
        [math.nan, -math.nan, math.inf, -math.inf, math.nan, math.inf, 0.1 + 0.2, 0.1 + 0.2],
        [np.float64(math.nan), np.float64(-math.inf), np.float64(np.pi), np.float64(np.pi),
         float(np.pi), math.nan, "nan"],
    ], ids=["signed_zeros", "signed_float64_zeros", "bool_int_float", "nan_inf",
            "nan_inf_float64"])
    def test_repeated_values_match_the_per_row_format(self, column):
        # a column's cells are formatted once per distinct value: equal values of other
        # types, and zeros of either sign, keep their own text
        a = column * 2
        b = [[0.5, -0.0, 0.0][i % 3] for i in range(len(a))]
        assert csv_bytes({"a": a, "b": b}) == self.reference_bytes(zip(a, b), "ab")

    def test_manifest_column_on_every_row(self, tmp_path):
        # main adds the manifest hash as one more column, one cell per row
        out = tmp_path / "d.csv"
        assert main(["dirichlet", "--out", str(out)]) == 0
        header, *lines = out.read_text(encoding="utf-8").strip("\n").split("\n")
        assert header.split(",") == [*COMMANDS["dirichlet"].columns, "manifest"]
        cfg = load_config("dirichlet")
        assert len(lines) == len(cfg["dirichlet"]["n_values"])
        chash = config_hash("dirichlet", cfg, cfg["run"]["seed"])
        assert [line.rsplit(",", 1)[1] for line in lines] == [chash] * len(lines)

    @pytest.mark.parametrize("table", [{"a": [1, 2], "b": [3]}, {"a": [], "b": [0.5]}],
                             ids=["short_last", "empty_first"])
    def test_ragged_columns_rejected(self, table, tmp_path):
        with pytest.raises(ValueError, match="differ in length"):
            csv_bytes(table)
        with pytest.raises(ValueError):
            write_csv(table, tmp_path / "r.csv")
        assert not (tmp_path / "r.csv").exists()


class TestConfigHash:
    def test_stable_under_key_reordering(self):
        a = {"grid": {"n": 64, "dim": 1}, "run": {"seed": 1, "workers": 2}}
        b = {"run": {"workers": 2, "seed": 1}, "grid": {"dim": 1, "n": 64}}
        assert config_hash("x", a, 7) == config_hash("x", b, 7)

    def test_workers_not_hashed(self):
        a = {"run": {"seed": 1, "workers": 1, "out": "a.csv"}}
        b = {"run": {"seed": 1, "workers": 8, "out": "b.csv"}}
        assert config_hash("x", a, 7) == config_hash("x", b, 7)

    def test_science_keys_hashed(self):
        a = {"grid": {"n": 64}}
        b = {"grid": {"n": 128}}
        assert config_hash("x", a, 7) != config_hash("x", b, 7)

    def test_canonical_json_sorted(self):
        doc = canonical_config("x", {"b": {"z": 1, "a": 2}}, 0)
        assert doc.index('"a"') < doc.index('"z"')


class TestManifest:
    def test_fixed_manifest_bytes(self, tmp_path):
        manifest = RunManifest(command="sweep", config_hash="0123456789abcdef", seed=7,
                               wall_time_s=1.25, op_timings={"b": 0.5, "a": 0.25},
                               artifacts=["sweep.csv"],
                               verdicts={"failed_cells": 1,
                                         "failed_reasons": [{"s": 0.5, "error": "e"}]})
        path = tmp_path / "m.json"
        manifest.write(path)
        assert path.read_text(encoding="utf-8") == (
            '{\n  "artifacts": [\n    "sweep.csv"\n  ],\n  "command": "sweep",\n'
            '  "config_hash": "0123456789abcdef",\n'
            '  "op_timings": {\n    "a": 0.25,\n    "b": 0.5\n  },\n  "seed": 7,\n'
            '  "verdicts": {\n    "failed_cells": 1,\n    "failed_reasons": [\n'
            '      {\n        "error": "e",\n        "s": 0.5\n      }\n    ]\n  },\n'
            '  "version": "0.1.0",\n  "wall_time_s": 1.25\n}\n')


class TestConfigLoading:
    def test_defaults_valid(self):
        cfg = load_config("dirichlet")
        assert cfg["dirichlet"]["eta"] == 4.0

    def test_ini_file(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[dirichlet]\neta = 3.0\nn_values = 8, 16, 32\n")
        cfg = load_config("dirichlet", p)
        assert cfg["dirichlet"]["eta"] == 3.0
        assert cfg["dirichlet"]["n_values"] == [8, 16, 32]

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[dirichlet]\nbogus = 3\n")
        with pytest.raises(ConfigError):
            load_config("dirichlet", p)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            load_config("dirichlet", None, ["nope.eta=3"])

    def test_override_syntax(self):
        cfg = load_config("dirichlet", None, ["dirichlet.eta=2.5", "run.seed=99"])
        assert cfg["dirichlet"]["eta"] == 2.5 and cfg["run"]["seed"] == 99
        with pytest.raises(ConfigError):
            load_config("dirichlet", None, ["noequals"])

    def test_bad_value_type(self):
        with pytest.raises(ConfigError):
            load_config("dirichlet", None, ["run.seed=abc"])


class TestRngDerivation:
    def test_splitmix64_frozen_vector(self):
        # fixed outputs of the documented mix; guards cross-version drift
        assert splitmix64(0) == 16294208416658607535
        assert splitmix64(1) == 10451216379200822465

    def test_stream_layout_frozen(self):
        # the bit generator and the (re, im) pair layout; moving either changes every output
        assert isinstance(stream(1, 0).bit_generator, np.random.SFC64)
        assert stream(7, 0).standard_normal(4).tolist() == [
            -0.6252993511750435, -1.178540079040472, 1.1868018092623822, 0.2511079190885848]
        assert complex_standard_normal(stream(5, 2, 3), 2).tolist() == [
            0.46305599814148385 + 0.5179227894161628j, 0.7159561650804199 - 0.3273035721089629j]
        pairs = stream(5, 2, 3).standard_normal(4) * math.sqrt(0.5)
        assert complex_standard_normal(stream(5, 2, 3), 2).tolist() == [
            complex(pairs[0], pairs[1]), complex(pairs[2], pairs[3])]

    def test_stream_independence_of_order(self):
        a = [stream(5, i).standard_normal(4) for i in (3, 1, 2)]
        b = {i: stream(5, i).standard_normal(4) for i in (1, 2, 3)}
        assert np.array_equal(a[0], b[3])
        assert np.array_equal(a[1], b[1])

    def test_complex_standard_normal_moments(self):
        # E|z|^2 = 1, E z^2 = 0 and Var Re z = Var Im z = 1/2, each within 4 standard errors
        z = complex_standard_normal(stream(61, 0), 200_000)
        assert z.shape == (200_000,) and z.dtype == np.complex128
        checks = [(np.abs(z) ** 2, 1.0), ((z**2).real, 0.0), ((z**2).imag, 0.0),
                  (z.real**2, 0.5), (z.imag**2, 0.5)]
        for x, expected in checks:
            assert abs(x.mean() - expected) <= 4 * x.std(ddof=1) / math.sqrt(x.size)

    def test_chained_ids_distinct(self):
        assert derive_state(1, 2, 3) != derive_state(1, 3, 2)
        assert derive_state(1, 2) != derive_state(2, 1)


class TestBinaryDump:
    def test_state_roundtrip(self, tmp_path):
        grid = Grid(1, 32)
        cfg = SpdeConfig(grid, DiagonalNoise.matern(grid, 0.5), T=0.05, dt=0.01)
        traj = simulate(cfg, seed=4)
        path = tmp_path / "states.bin"
        dump_states(traj, str(path))
        dims, n, states = load_states(str(path))
        assert (dims, n, len(states)) == (1, 32, len(traj.coeffs))
        assert np.array_equal(traj.coeffs, states)
        # documented little-endian header
        raw = path.read_bytes()
        assert int.from_bytes(raw[0:4], "little") == 1
        assert int.from_bytes(raw[4:8], "little") == 32


# sha256 of each command's CSV at its default config (selftest, at about 20 s,
# is left to the acceptance tests)
DEFAULT_CSV_SHA256 = {
    "dirichlet": "e6823e65462edbdd0406820574ea149604fa7a947359a1ab8c30206ddd684f7c",
    "freq-block": "0859d0137358615f049fca926fcb7b92cfda9cc20bcc47e3a7069fc1fa08da4c",
    "gamma-young": "0abf9ce91c1997359ec94219b21376282d20f84266b46c17c273895d0494c10d",
    "haar-divergence": "b4ad4132285f6fee286cf88262ebf72cc078b171cc70251426097e20e62d32a9",
    "heat-sim": "113de8df1dd647a20a7905c932ac1e573d4892edfb794b4801d798a4c001bd72",
    "mg-sobolev": "a454fb20dc1b2a273e62a24e43a90572e17cc270c23072b617bc19a34f2d5c30",
    "rescaled-bump": "efdc750a686c78b00a2a5f5981a00903ff7778e9834eeefffbb36b83ba814c44",
    "scaling": "c15f02f34e2714402b3fa76171947353c449b080f2027bb959b4e138638b3a26",
    "schatten-heat": "c020fdc5d12ff660ca1645fc6a9742954a4eff6858c8847145e623851ab01c26",
    "series-norm": "fd516b8a113feec346c761de054aa3abb16e11d2de3db7b8d6b7bdead6e900bc",
    "shifted-bump": "17423097a3a9ae4cc6aed5dff328f134c6803c353d5cc44b9125540265176143",
    "sweep": "22a93c3d268bd0ef9212082e1f733516b4ff931c7361f102eb6a698747608aad",
}

# sha256 of the state dump of `heat-sim --override grid.n=32 --override heat.trajectories=2`
HEAT_SIM_DUMP_SHA256 = "beff938629eab4af4f53f60e3d32f870d14cb36f13846024bab178e859f20e4d"


class TestCliCommands:
    def test_default_csvs_pinned(self, tmp_path):
        """Every default CSV keeps its bytes, at 1 worker and, for series-norm, at 2.

        A change that moves an output on purpose updates this table and
        records the new values in CHANGES.md.
        """
        runs = [(command, 1) for command in DEFAULT_CSV_SHA256] + [("series-norm", 2)]
        for command, workers in runs:
            out = tmp_path / f"{command}-{workers}.csv"
            assert main([command, "--out", str(out), "--workers", str(workers)]) == 0
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            assert digest == DEFAULT_CSV_SHA256[command], (command, workers)

    def test_series_norm_zero_coloring(self, tmp_path):
        out = tmp_path / "z.csv"
        code = main(["series-norm", "--out", str(out), "--seed", "3",
                     "--override", "coloring.kind=constant",
                     "--override", "coloring.value=0",
                     "--override", "series.n_terms=4",
                     "--override", "series.samples=16"])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 1 and rows[0]["mean_sq"] == 0

    def test_series_norm_bump_g(self, tmp_path):
        # at q = 2 the square function is the Hilbert-Schmidt value, whose square the
        # Monte Carlo mean estimates
        out = tmp_path / "bump.csv"
        assert main(["series-norm", "--out", str(out), "--override", "g.kind=bump"]) == 0
        row = read_csv(out)[0]
        assert row["sq_function"] == pytest.approx(row["hs_exact"], rel=1e-12)
        assert abs(row["mean_sq"] - row["hs_exact"] ** 2) <= 4 * row["stderr"]

    def test_series_norm_constant_g_scales(self, tmp_path):
        # g = 2 doubles every term and every sample on the same draws
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        assert main(["series-norm", "--out", str(one)]) == 0
        assert main(["series-norm", "--out", str(two), "--override", "g.kind=constant",
                     "--override", "g.value=2"]) == 0
        one, two = read_csv(one)[0], read_csv(two)[0]
        for key, factor in (("hs_exact", 2), ("sq_function", 2), ("mean_sq", 4)):
            assert two[key] == pytest.approx(factor * one[key], rel=1e-12), key

    def test_dirichlet_fitted_exponent_column(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["dirichlet", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert all(abs(r["fitted_exponent"] - 0.75) < 0.05 for r in rows)

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        code = main(["dirichlet", "--override", "bogus.k=1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "config"

    @pytest.mark.parametrize("command,override", [
        ("series-norm", "series.s=nan"),
        ("haar-divergence", "haar.zeta_values=2.0,nan"),
        ("sweep", "sweep.s_values=0.5,inf"),
        ("heat-sim", "heat.trajectories=0"),
        ("schatten-heat", "schatten.witness=false"),
        ("schatten-heat", "schatten.points=1"),
        ("schatten-heat", "schatten.t_max=0.001"),
        ("dirichlet", "dirichlet.n_values=8"),
        ("mg-sobolev", "mg_sobolev.levels=12"),
        ("mg-sobolev", "mg_sobolev.width=0.25013 mg_sobolev.levels=12"),
        ("mg-sobolev", "mg_sobolev.levels=0"),
        ("gamma-young", "gamma_young.trials=0"),
        ("freq-block", "freq_block.n_max=3"),
        ("freq-block", "freq_block.n_min=0"),
        ("freq-block", "freq_block.n_min=8 freq_block.n_max=3"),
        ("rescaled-bump", "rescaled_bump.m_max=0"),
        ("rescaled-bump", "rescaled_bump.width=0"),
        ("series-norm", "grid.dim=4"),
        ("rescaled-bump", "rescaled_bump.m_min=4 rescaled_bump.m_max=2"),
        ("scaling", "scaling.m_max=0"),
        ("scaling", "scaling.m_min=3 scaling.m_max=1"),
        ("shifted-bump", "shifted_bump.extents=4"),
        ("shifted-bump", "shifted_bump.extents=4,4"),
        ("shifted-bump", "shifted_bump.extents="),
        ("sweep", "sweep.scales=3"),
        ("sweep", "run.oversample=4"),
        ("series-norm", "run.workers=0"),
        ("series-norm", "run.workers=-3"),
        ("schatten-heat", "schatten.t_min=0.5"),
        ("gamma-young", "gamma_young.s=1.0"),
        ("gamma-young", "gamma_young.q=0.0"),
        ("gamma-young", "grid.dim=2"),
        ("gamma-young", "gamma_young.q=2.5"),
        ("gamma-young", "gamma_young.s=0.45"),
        ("haar-divergence", "haar.d=0"),
        ("haar-divergence", "haar.d=-1"),
        ("haar-divergence", "haar.alpha=0.0"),
        ("haar-divergence", "haar.alpha=-0.5"),
        ("haar-divergence", "haar.zeta_values="),
        ("haar-divergence", "haar.j_max=1"),
        ("scaling", "scaling.alpha=0.0"),
        ("series-norm", "system.kind=haar"),
        ("series-norm", "system.kind=shifted_bump"),
        ("series-norm", "system.kind=shifted_bump series.n_terms=8"),
        ("series-norm", "coloring.kind=explicit"),
        ("series-norm", "system.kind=haar series.n_terms=127"),
        ("series-norm", "system.kind=foo"),
        ("series-norm", "coloring.kind=foo"),
        ("series-norm", "g.kind=foo"),
        ("heat-sim", "heat.noise=foo"),
        ("heat-sim", "heat.integrator=foo"),
        ("sweep", "sweep.construction=foo"),
        ("heat-sim", "heat.alpha=0"),
        ("heat-sim", "heat.mode=1000 heat.noise=single_mode"),
        ("heat-sim", "heat.dt=0.03"),
        ("series-norm", "grid.n=3"),
        ("series-norm", "coloring.alpha=0"),
        ("freq-block", "params.d=3"),
        ("freq-block", "params.d=0"),
        ("shifted-bump", "params.d=2"),
        ("scaling", "scaling.alpha=0.75"),
        ("scaling", "scaling.m_min=-1"),
        ("scaling", "scaling.levels=0"),
        ("schatten-heat", "schatten.d=0"),
        ("schatten-heat", "schatten.n=3"),
        # ParamTuple's rejections, named by the section's key
        ("freq-block", "params.s=0"),
        ("freq-block", "params.q=-1"),
        ("freq-block", "params.eta=0"),
        ("freq-block", "params.zeta=1"),
        ("rescaled-bump", "params.s=-1"),
        ("rescaled-bump", "params.q=0"),
        ("rescaled-bump", "params.eta=-1"),
        ("shifted-bump", "params.s=0"),
        ("shifted-bump", "params.q=0"),
        ("shifted-bump", "params.eta=-1"),
        ("sweep", "sweep.s_values=0"),
        ("sweep", "sweep.s_values=0.5,1.5"),
        ("sweep", "sweep.eta=0"),
        ("sweep", "sweep.d=0"),
        ("scaling", "scaling.s=0"),
        ("scaling", "scaling.q=-1"),
        ("scaling", "scaling.eta=0"),
        # the library's rejections
        ("mg-sobolev", "mg_sobolev.s=0"),
        ("mg-sobolev", "mg_sobolev.q=0"),
        ("shifted-bump", "shifted_bump.width=0"),
        ("shifted-bump", "shifted_bump.width=1"),
        ("scaling", "scaling.beta=0"),
        ("haar-divergence", "haar.beta=-1"),
        ("haar-divergence", "haar.zeta_values=0"),
        ("haar-divergence", "haar.zeta_values=2.0,-1"),
        ("haar-divergence", "haar.d=2"),
        ("freq-block", "freq_block.n_max=12"),
    ])
    def test_rejected_value_exit_code(self, tmp_path, capsys, command, override):
        # several space-separated overrides are passed in order; the first key is named
        out = tmp_path / "x.csv"
        args = [arg for o in override.split() for arg in ("--override", o)]
        assert main([command, *args, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert override.split("=")[0] in err["detail"]
        assert not out.exists()

    def test_mg_sobolev_grid_above_the_cell_budget_rejected(self, tmp_path, capsys):
        # 2-d at the default n = 8192 would need (4 * 8192)^2 cells per bump
        out = tmp_path / "x.csv"
        tracemalloc.start()
        try:
            code = main(["mg-sobolev", "--override", "grid.dim=2", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert json.loads(capsys.readouterr().err)["detail"] == (
            f"grid.dim=2 and grid.n=8192 give {2**30} cells per bump on the L^q rule's grid "
            f"at run.oversample=4, above the budget of {CELLS_MAX}")
        assert peak < 2**20 and not out.exists()

    def test_mg_sobolev_names_the_first_flat_level(self, tmp_path, capsys):
        # on 4096 points levels 10 and 11 have all-zero bumps; both are in the
        # last stack of levels (8 to 11), and the message names level 10
        out = tmp_path / "x.csv"
        assert main(["mg-sobolev", "--override", "mg_sobolev.levels=12",
                     "--override", "grid.n=4096", "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["detail"] == (
            "mg_sobolev.levels=12 and mg_sobolev.width=0.25 give a level-10 bump of width "
            "0.000244141 whose L^eta norm on grid.n=4096 is 0")
        assert not out.exists()

    @pytest.mark.parametrize("command,key,allowed", [
        ("series-norm", "system.kind", "fourier, haar, shifted_bump"),
        ("series-norm", "coloring.kind", "matern, power_law, block, haar, constant, explicit"),
        ("series-norm", "g.kind", "one, constant, bump"),
        ("heat-sim", "heat.noise", "matern, white, single_mode"),
        ("heat-sim", "heat.integrator", "exact_ou, exp_euler"),
        ("sweep", "sweep.construction", "freq_block, rescaled_bump, shifted_bump"),
    ])
    def test_unknown_kind_lists_the_allowed_values(self, tmp_path, capsys, command, key,
                                                   allowed):
        assert main([command, "--override", f"{key}=foo", "--out", str(tmp_path / "x.csv")]) == 2
        detail = json.loads(capsys.readouterr().err)["detail"]
        assert key in detail and "'foo'" in detail and f"expected one of {allowed}" in detail

    @pytest.mark.parametrize("overrides,named", [
        (["sweep.eta=5"], ["sweep.eta=5", "sweep.q=4"]),
        (["sweep.construction=shifted_bump", "sweep.zeta=0"], ["sweep.zeta=0"]),
    ])
    def test_sweep_regime_names_its_keys(self, tmp_path, capsys, overrides, named):
        args = [arg for o in overrides for arg in ("--override", o)]
        out = tmp_path / "x.csv"
        assert main(["sweep", *args, "--out", str(out)]) == 2
        detail = json.loads(capsys.readouterr().err)["detail"]
        assert all(key in detail for key in named), detail
        assert not out.exists()

    def test_every_declared_rule_rejects_its_violation(self, tmp_path, capsys,
                                                       monkeypatch):
        """Each rule in the command table, broken once, exits 2 before any runner starts.

        A bound is broken by a value just past it, a distinct count by one
        entry too few, an order by the other key's default.
        """
        for command in COMMANDS:
            load_config(command)
            monkeypatch.setitem(RUNNERS, command, _runner_must_not_start)
            for override in _rule_violations(command):
                out = tmp_path / "x.csv"
                assert main([command, "--override", override, "--out", str(out)]) == 2, override
                err = json.loads(capsys.readouterr().err)
                assert err["error"] == "config"
                assert f'{override.split("=")[0]}=' in err["detail"], (override, err)
                assert " must " in err["detail"], (override, err)
                assert not out.exists()

    def test_command_table_matches_runners_and_choices(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        choices = re.search(r"\{([a-z,-]+)\}", capsys.readouterr().out).group(1)
        assert set(COMMANDS) == set(RUNNERS) == set(choices.split(","))

    @pytest.mark.parametrize("table", [
        {"trial": [0], "s": [0.5]},
        {"zeta": [2.0, 2.0], "J": [2, 3], "partial_sum": [1.0], "critical": [True, True]},
    ], ids=["undeclared_columns", "ragged_columns"])
    def test_runner_table_fault_is_a_hard_failure(self, tmp_path, capsys, monkeypatch, table):
        # a table that is not the declared one is the program's fault, never a config error
        monkeypatch.setitem(RUNNERS, "haar-divergence", lambda *args: (table, {}, 0))
        out = tmp_path / "x.csv"
        assert main(["haar-divergence", "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and err["detail"].startswith("haar-divergence: ")
        assert list(tmp_path.iterdir()) == []

    def test_runner_exception_is_a_hard_failure(self, tmp_path, capsys, monkeypatch):
        # an exception other than a ConfigError or ValueError is no config problem
        def overflow(*args):
            raise FloatingPointError("overflow encountered in multiply")
        monkeypatch.setitem(RUNNERS, "haar-divergence", overflow)
        assert main(["haar-divergence", "--out", str(tmp_path / "x.csv")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "FloatingPointError", "detail": "overflow encountered in multiply"}
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_output_is_a_hard_failure(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert main(["dirichlet", "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError" and err["detail"].startswith("dirichlet: ")
        assert str(out) in err["detail"]
        assert list(tmp_path.rglob("*")) == []

    def test_manifest_written_and_referenced(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["dirichlet", "--out", str(out), "--seed", "5"]) == 0
        rows = read_csv(out)
        chash = rows[0]["manifest"]
        mpath = tmp_path / f"manifest-{chash}.json"
        assert mpath.exists()
        doc = json.loads(mpath.read_text())
        assert doc["config_hash"] == chash and doc["seed"] == 5
        # the hash takes the flag's integer and the default run.seed apart
        assert chash == config_hash("dirichlet", load_config("dirichlet"), 5)
        assert doc["artifacts"] == ["d.csv"]

    def test_byte_identical_across_runs_and_workers(self, tmp_path):
        outs = []
        for i, workers in enumerate((1, 3)):
            out = tmp_path / f"s{i}.csv"
            code = main(["series-norm", "--out", str(out), "--seed", "11",
                         "--workers", str(workers),
                         "--override", "series.samples=64"])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("flag", [["--workers", "0"], ["--workers", "-3"],
                                      ["--workers", "two"], ["--workers", "1.5"]])
    def test_bad_workers_flag_rejected(self, tmp_path, capsys, flag):
        out = tmp_path / "s.csv"
        assert main(["series-norm", "--out", str(out), *flag]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "run.workers" in err["detail"]
        assert not out.exists()

    @pytest.mark.parametrize("value", ["two", "1.5", ""])
    def test_bad_seed_flag_rejected(self, tmp_path, capsys, value):
        out = tmp_path / "d.csv"
        assert main(["dirichlet", "--out", str(out), "--seed", value]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and f"bad value for --seed: {value!r}" in err["detail"]
        assert not out.exists()

    @pytest.mark.parametrize("source", ["override", "ini"])
    def test_out_and_workers_flags_beat_the_run_section(self, tmp_path, source):
        # the flags are the last overrides: run.out and run.workers set before them
        # lose, and the CSV bytes do not depend on where the worker count came from
        args = ["series-norm", "--seed", "11", "--override", "series.samples=32"]
        plain = tmp_path / "plain.csv"
        assert main([*args, "--out", str(plain)]) == 0
        lost = tmp_path / "lost.csv"
        if source == "override":
            args += ["--override", f"run.out={lost}", "--override", "run.workers=0"]
        else:
            ini = tmp_path / "run.ini"
            ini.write_text(f"[run]\nout = {lost}\nworkers = 0\n")
            args += ["--config", str(ini)]
        out = tmp_path / "flag.csv"
        assert main([*args, "--out", str(out), "--workers", "2"]) == 0
        assert out.read_bytes() == plain.read_bytes() and not lost.exists()

    def test_haar_divergence_command(self, tmp_path):
        out = tmp_path / "h.csv"
        assert main(["haar-divergence", "--out", str(out)]) == 0
        rows = read_csv(out)
        crit = [r for r in rows if r["critical"]]
        assert crit and all(r["zeta"] == 2.0 for r in crit)

    def test_sweep_partial_failure_exit_code(self, tmp_path):
        # each failed cell's exception is named in the manifest
        for override, reason in [
                ("sweep.d=3", "ValueError: frequency blocks are resource-bounded to d <= 2"),
                ("sweep.scales=0,1", "ValueError: frequency block level must be >= 1, got 0")]:
            out = tmp_path / "sw.csv"
            code = main(["sweep", "--out", str(out),
                         "--override", override,
                         "--override", "sweep.s_values=0.5,0.9"])
            assert code == 3
            rows = read_csv(out)
            assert all(r["status"] == "failed" for r in rows)
            manifest = tmp_path / f"manifest-{rows[0]['manifest']}.json"
            verdicts = json.loads(manifest.read_text())["verdicts"]
            assert verdicts["failed_cells"] == 2
            assert verdicts["failed_reasons"] == [{"s": 0.5, "error": reason},
                                                  {"s": 0.9, "error": reason}]

    def test_console_entrypoint(self, tmp_path):
        out = tmp_path / "d.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "gammanoise.cli", "dirichlet", "--out", str(out),
             "--override", "dirichlet.n_values=8,16,32,64"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert out.exists()

    @pytest.mark.parametrize("command,overrides", [
        ("freq-block", ["freq_block.n_min=3", "freq_block.n_max=5"]),
        ("rescaled-bump", ["rescaled_bump.m_min=0", "rescaled_bump.m_max=3",
                           "rescaled_bump.n=4096"]),
        ("shifted-bump", ["shifted_bump.extents=2,4,8"]),
        ("gamma-young", ["gamma_young.trials=10", "grid.n=256"]),
        ("mg-sobolev", ["mg_sobolev.levels=3", "grid.n=2048"]),
        ("schatten-heat", ["schatten.points=5", "schatten.n=128"]),
        ("heat-sim", ["heat.trajectories=5", "grid.n=64", "heat.dt=0.01"]),
        ("heat-sim", ["heat.trajectories=3", "grid.n=64", "heat.dt=0.01",
                      "heat.integrator=exp_euler", "heat.noise=white",
                      "heat.cutoff=8"]),
        ("heat-sim", ["heat.trajectories=3", "grid.n=32", "heat.dt=0.02",
                      "heat.noise=single_mode", "heat.mode=2",
                      "heat.amplitude=1.5"]),
        ("scaling", ["scaling.m_max=2", "grid.n=1024"]),
        ("series-norm", ["series.n_terms=16", "series.samples=16", "grid.n=128"]),
        ("sweep", ["sweep.scales=3,4,5", "sweep.s_values=0.9"]),
        ("dirichlet", ["dirichlet.n_values=8,16,32"]),
        ("haar-divergence", ["haar.j_max=6"]),
    ])
    def test_subcommand_smoke(self, tmp_path, command, overrides):
        out = tmp_path / "out.csv"
        args = [command, "--out", str(out), "--seed", "2"]
        for ov in overrides:
            args += ["--override", ov]
        assert main(args) == 0
        assert read_csv(out)
        header = out.read_text().split("\n", 1)[0].split(",")
        assert header == [*COMMANDS[command].columns, "manifest"]

    def test_heat_sim_state_dump(self, tmp_path):
        out = tmp_path / "h.csv"
        dump = tmp_path / "states.bin"
        code = main(["heat-sim", "--out", str(out), "--seed", "2",
                     "--override", "heat.trajectories=2",
                     "--override", "grid.n=32",
                     "--override", "heat.dt=0.02",
                     "--override", f"heat.dump_states={dump}"])
        assert code == 0
        dims, n, states = load_states(str(dump))
        assert dims == 1 and n == 32 and len(states) == 6

    def test_heat_sim_manifest_times_its_operations(self, tmp_path):
        out = tmp_path / "h.csv"
        assert main(["heat-sim", "--out", str(out), "--override", "grid.n=32",
                     "--override", "heat.trajectories=3"]) == 0
        doc = json.loads((tmp_path / f"manifest-{read_csv(out)[0]['manifest']}.json").read_text())
        timings = doc["op_timings"]
        assert sorted(timings) == ["ensemble", "rows"]
        assert all(0 <= t <= doc["wall_time_s"] for t in timings.values())

    def test_heat_sim_state_dump_pinned(self, tmp_path):
        # header plus every state of trajectory 0; the dump path is not part of the bytes
        dump = tmp_path / "states.bin"
        assert main(["heat-sim", "--out", str(tmp_path / "h.csv"),
                     "--override", "grid.n=32",
                     "--override", "heat.trajectories=2",
                     "--override", f"heat.dump_states={dump}"]) == 0
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == HEAT_SIM_DUMP_SHA256

    def test_heat_sim_csv_does_not_depend_on_the_dump_path(self, tmp_path):
        # like run.out, heat.dump_states names a destination and stays out of the hash
        args = ["heat-sim", "--override", "grid.n=32", "--override", "heat.trajectories=2"]
        assert main([*args, "--out", str(tmp_path / "plain.csv")]) == 0
        assert main([*args, "--out", str(tmp_path / "dumped.csv"),
                     "--override", f"heat.dump_states={tmp_path / 'states.bin'}"]) == 0
        assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "dumped.csv").read_bytes()

    def test_sweep_empty_grid_succeeds(self, tmp_path):
        out = tmp_path / "empty.csv"
        code = main(["sweep", "--out", str(out),
                     "--override", "sweep.s_values="])
        assert code == 0
        assert out.read_text().count("\n") == 1  # header only

    def test_sweep_byte_determinism(self, tmp_path):
        outs = []
        for i in range(2):
            out = tmp_path / f"sw{i}.csv"
            code = main(["sweep", "--out", str(out), "--seed", "4",
                         "--override", "sweep.scales=3,4,5",
                         "--override", "sweep.s_values=0.3,0.8"])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("zeta", ["0", "-1.5"])
    def test_sweep_zeta_at_most_zero_means_infinity(self, tmp_path, zeta):
        out = tmp_path / "sw.csv"
        assert main(["sweep", "--out", str(out), "--override", f"sweep.zeta={zeta}",
                     "--override", "sweep.scales=3,4",
                     "--override", "sweep.s_values=0.3,0.8"]) == 0
        rows = read_csv(out)
        assert [r["zeta"] for r in rows] == [math.inf, math.inf]
        _, regime = SWEEP_CONSTRUCTIONS[rows[0]["construction"]]
        for r in rows:
            params = ParamTuple(r["d"], r["s"], r["q"], r["eta"], math.inf)
            assert r["slack"] == sharp_condition(params, regime).slack


def _runner_must_not_start(*args):
    raise AssertionError("runner started on a config that breaks a declared rule")


def _rule_violations(command):
    """One ``section.key=value`` override per clause of every rule ``command`` declares."""
    sections = command_sections(command)
    out = []
    for section, keys in sections.items():
        defaults = {k: spec[1] for k, spec in keys.items() if isinstance(spec, tuple)}
        for key, spec in keys.items():
            if not (isinstance(spec, tuple) and len(spec) == 3):
                continue
            for clause in spec[2].split(" and "):
                op, bound = clause.split()
                if bound == "distinct":
                    value = ",".join(map(str, list(dict.fromkeys(spec[1]))[:int(op) - 1]))
                else:
                    limit = defaults[bound] if bound in defaults else float(bound)
                    value = {">": limit, ">=": limit - 1, "<": limit, "<=": limit + 1}[op]
                    value = int(value) if spec[0] == "int" else float(value)
                out.append(f"{section}.{key}={value}")
    return out
