"""The benchmark's workloads: inputs from a seed, one round of calls, checks.

A round is the same fixed set of operations every time, so every run
attempts whole rounds.  ``run`` is the timed body and calls only gammanoise;
``check`` runs after the clock stops and compares each outcome with a closed
form from ``oracles`` or with a property the method must have.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

import oracles


def load_gammanoise(repo_root: str):
    """Import gammanoise from the checkout's ``src``, never from elsewhere."""
    src = os.path.join(repo_root, "src")
    if not os.path.isdir(os.path.join(src, "gammanoise")):
        raise RuntimeError(f"no gammanoise sources under {src}")
    sys.path.insert(0, src)
    gn = importlib.import_module("gammanoise")
    importlib.import_module("gammanoise.cli")
    if os.path.dirname(os.path.abspath(gn.__file__)) != os.path.join(src, "gammanoise"):
        raise RuntimeError(f"gammanoise was imported from {gn.__file__}, not {src}")
    return gn


@dataclass
class Outcome:
    """One operation: its input record, its result, or the error it raised."""

    op: str
    ref: dict
    value: object = None
    error: str = None


def attempt(op: str, ref: dict, fn) -> Outcome:
    try:
        return Outcome(op, ref, value=fn())
    except Exception as exc:  # an operation that raises is a failed operation
        return Outcome(op, ref, error=f"{type(exc).__name__}: {exc}")


def band_limited_real(rng: np.random.Generator, n: int, band: int) -> np.ndarray:
    """Samples of a smooth random real function with ``|k| <= band``."""
    k = oracles.signed_freqs(n)
    mask = np.abs(k) <= band
    coeffs = np.zeros(n, dtype=complex)
    coeffs[mask] = rng.standard_normal(mask.sum()) + 1j * rng.standard_normal(mask.sum())
    return np.fft.ifft(coeffs).real * n / math.sqrt(2.0 * band + 1.0)


def _within(mean: float, stderr: float, lo: float, hi: float, z: float = 4.0):
    if lo - z * stderr <= mean <= hi + z * stderr:
        return None
    return f"mean {mean!r} outside [{lo!r}, {hi!r}] +- {z} stderr ({stderr!r})"


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _memo(ref: dict, key: str, compute):
    if key not in ref:
        ref[key] = compute()
    return ref[key]


# ---------------------------------------------------------------------------
# series_1d_q2


class Series1D:
    """1-d Fourier series at q = 2, shaped like acceptance criterion 1."""

    name = "series_1d_q2"
    n, N, M, specs, band = 1024, 256, 2000, 4, 16

    def make_inputs(self, seed: int, workdir: str) -> dict:
        rng = np.random.default_rng([seed, 1])
        specs = []
        for i in range(self.specs):
            specs.append({
                "s": 0.2 + 0.7 * rng.uniform(),
                "alpha": 0.3 + 0.7 * rng.uniform(),
                "coloring": "matern" if i % 2 == 0 else "power_law",
                "g": band_limited_real(rng, self.n, self.band) if i % 3 else None,
                "mc_seed": int(rng.integers(2**31)),
            })
        return {"specs": specs}

    def run(self, gn, inputs: dict) -> list:
        grid = gn.Grid(1, self.n)

        def estimate(sp):
            make = gn.Coloring.matern if sp["coloring"] == "matern" else gn.Coloring.power_law
            g = None if sp["g"] is None else gn.forward_transform(grid, sp["g"])
            spec = gn.SeriesSpec(grid, gn.FourierSystem(1), make(sp["alpha"]),
                                 self.N, sp["s"], 2.0, g=g)
            est = gn.mc_gamma_norm(spec, self.M, seed=sp["mc_seed"])
            return est, gn.hs_gamma_norm_exact(spec)

        return [attempt(f"spec{i}", sp, lambda sp=sp: estimate(sp))
                for i, sp in enumerate(inputs["specs"])]

    def oracle(self, sp: dict) -> float:
        ks = oracles.fourier_indices(self.N, 1)
        mu = oracles.coloring_weights(sp["coloring"], sp["alpha"], ks)
        return oracles.series_mean_square(self.n, ks, mu, sp["s"], sp["g"])

    def check(self, inputs: dict, out: Outcome):
        est, hs = out.value
        exact = _memo(out.ref, "oracle", lambda: self.oracle(out.ref))
        if not _rel_close(hs * hs, exact, 1e-10):
            return f"hs_gamma_norm_exact^2 {hs * hs!r} != oracle {exact!r}"
        return _within(est.mean, est.stderr, exact, exact)


# ---------------------------------------------------------------------------
# series_2d_q4


class Series2D:
    """2-d Fourier series at q = 4, g = 1: the L^q quadrature carries the time."""

    name = "series_2d_q4"
    n, N, M, q = 64, 2048, 250, 4.0

    def make_inputs(self, seed: int, workdir: str) -> dict:
        rng = np.random.default_rng([seed, 2])
        return {"s": 0.3 + 0.6 * rng.uniform(), "alpha": 0.3 + 0.7 * rng.uniform(),
                "mc_seed": int(rng.integers(2**31))}

    def run(self, gn, inputs: dict) -> list:
        def estimate():
            grid = gn.Grid(2, self.n)
            spec = gn.SeriesSpec(grid, gn.FourierSystem(2), gn.Coloring.matern(inputs["alpha"]),
                                 self.N, inputs["s"], self.q)
            return gn.mc_gamma_norm(spec, self.M, seed=inputs["mc_seed"])

        return [attempt("estimate", inputs, estimate)]

    def oracle(self, inputs: dict) -> float:
        ks = oracles.fourier_indices(self.N, 2)
        mu = oracles.coloring_weights("matern", inputs["alpha"], ks)
        return oracles.stationary_variance(ks, mu, inputs["s"])

    def check(self, inputs: dict, out: Outcome):
        sigma2 = _memo(out.ref, "oracle", lambda: self.oracle(out.ref))
        lo, hi = oracles.lq4_mean_square_bounds(sigma2)
        return _within(out.value.mean, out.value.stderr, lo, hi)


# ---------------------------------------------------------------------------
# heat


class Heat:
    """Stochastic heat equation: exact OU with diagonal noise, Euler with series noise."""

    name = "heat"
    n, T, dt = 256, 0.1, 1e-3
    ou_trajectories, euler_trajectories, euler_terms = 100, 40, 128

    def make_inputs(self, seed: int, workdir: str) -> dict:
        rng = np.random.default_rng([seed, 3])
        return {"s": 0.7 + 0.3 * rng.uniform(), "ou_alpha": 0.2 + 0.4 * rng.uniform(),
                "euler_alpha": 0.3 + 0.5 * rng.uniform(),
                "sim_seed": int(rng.integers(2**31))}

    def run(self, gn, inputs: dict) -> list:
        grid = gn.Grid(1, self.n)
        s, seed = inputs["s"], inputs["sim_seed"]

        def ensemble(config, count):
            return [gn.hsq_norm(gn.simulate(config, seed=seed, traj_index=i,
                                            keep_states=False).final(), 1.0 - s, 2.0) ** 2
                    for i in range(count)]

        def exact_ou():
            noise = gn.DiagonalNoise.matern(grid, inputs["ou_alpha"])
            return ensemble(gn.SpdeConfig(grid, noise, T=self.T, dt=self.dt),
                            self.ou_trajectories)

        def exp_euler():
            noise = gn.SystemNoise(gn.FourierSystem(1), gn.Coloring.matern(inputs["euler_alpha"]),
                                   self.euler_terms)
            config = gn.SpdeConfig(grid, noise, T=self.T, dt=self.dt, integrator="exp_euler")
            return ensemble(config, self.euler_trajectories)

        return [attempt("exact_ou", inputs, exact_ou),
                attempt("exp_euler", inputs, exp_euler)]

    def law(self, op: str, inputs: dict) -> float:
        if op == "exact_ou":
            return oracles.ou_mean_square(self.n, inputs["ou_alpha"], inputs["s"], self.T)
        ks = oracles.fourier_indices(self.euler_terms, 1)
        mu = oracles.coloring_weights("matern", inputs["euler_alpha"], ks)
        return oracles.euler_series_mean_square(ks, mu, inputs["s"], self.dt,
                                                round(self.T / self.dt))

    def check(self, inputs: dict, out: Outcome):
        law = _memo(out.ref, f"law_{out.op}", lambda: self.law(out.op, out.ref))
        mean, stderr = oracles.mean_stderr(out.value)
        return _within(mean, stderr, law, law)


# ---------------------------------------------------------------------------
# cli_defaults


COMMANDS = ("series-norm", "sweep", "freq-block", "rescaled-bump", "shifted-bump",
            "dirichlet", "gamma-young", "mg-sobolev", "schatten-heat", "heat-sim",
            "scaling", "haar-divergence")

# fitted-exponent tolerances of the acceptance suite and the unit tests
EXPONENT_TOL = {"freq-block": 0.15, "rescaled-bump": 0.15, "shifted-bump": 0.15,
                "scaling": 0.2, "dirichlet": 0.05}


def read_csv(data: bytes) -> list:
    lines = data.decode("utf-8").rstrip("\n").split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _floats(rows: list, col: str) -> np.ndarray:
    return np.array([float(r[col]) for r in rows])


def _params(block: dict) -> tuple:
    zeta = block["zeta"] if block["zeta"] > 0 else math.inf
    return block["d"], block["s"], block["q"], block["eta"], zeta


class CliDefaults:
    """Every command but selftest at its default config through ``cli.main``."""

    name = "cli_defaults"

    def make_inputs(self, seed: int, workdir: str) -> dict:
        return {"seed": seed, "dirs": {w: os.path.join(workdir, f"workers{w}") for w in (1, 2)},
                "commands": {c: {"command": c} for c in COMMANDS}}

    @staticmethod
    def invoke(inputs: dict, command: str, workers: int) -> str:
        """Run one command; returns its CSV path, raises if it exits non-zero."""
        out = os.path.join(inputs["dirs"][workers], command + ".csv")
        os.makedirs(inputs["dirs"][workers], exist_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = sys.modules["gammanoise.cli"].main(
                [command, "--seed", str(inputs["seed"]), "--out", out,
                 "--workers", str(workers)])
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
        return out

    def run(self, gn, inputs: dict) -> list:
        return [attempt(c, ref, lambda c=c: self.invoke(inputs, c, 1))
                for c, ref in inputs["commands"].items()]

    def check(self, inputs: dict, out: Outcome):
        with open(out.value, "rb") as fh:
            data = fh.read()
        try:
            twin = _memo(out.ref, "twin", lambda: self.invoke(inputs, out.op, 2))
        except RuntimeError as exc:
            return f"rerun with 2 workers failed: {exc}"
        with open(twin, "rb") as fh:
            if fh.read() != data:
                return "CSV differs from the rerun with 2 workers"
        rows = read_csv(data)
        if not rows:
            return "CSV has no rows"
        if any(v.lower() == "nan" for r in rows for v in r.values()):
            return "NaN in CSV"
        problem = self._check_manifest(out.op, out.value, rows)
        if problem:
            return problem
        cfg = sys.modules["gammanoise.config"].load_config(out.op)
        return getattr(self, "_check_" + out.op.replace("-", "_"))(cfg, rows)

    @staticmethod
    def _check_manifest(command: str, path: str, rows: list):
        hashes = {r["manifest"] for r in rows}
        if len(hashes) != 1:
            return f"CSV names {len(hashes)} manifests"
        (chash,) = hashes
        mpath = os.path.join(os.path.dirname(path), f"manifest-{chash}.json")
        if not os.path.exists(mpath):
            return f"manifest {mpath} missing"
        with open(mpath, encoding="utf-8") as fh:
            doc = json.load(fh)
        if (doc.get("config_hash"), doc.get("command"), doc.get("artifacts")) != \
                (chash, command, [os.path.basename(path)]):
            return "manifest does not match the CSV"
        return None

    @staticmethod
    def _fit(rows: list, predicted: float, tol: float):
        got = float(rows[0]["predicted_exponent"])
        if abs(got - predicted) > 1e-12:
            return f"predicted exponent {got!r} != paper's {predicted!r}"
        fitted = float(rows[0]["fitted_exponent"])
        if abs(fitted - predicted) > tol:
            return f"fitted exponent {fitted!r} not within {tol} of {predicted!r}"
        return None

    def _check_series_norm(self, cfg, rows):
        (row,) = rows
        blk, col = cfg["series"], cfg["coloring"]
        ks = oracles.fourier_indices(blk["n_terms"], 1)
        mu = oracles.coloring_weights(col["kind"], col["alpha"], ks)
        exact = oracles.series_mean_square(cfg["grid"]["n"], ks, mu, blk["s"])
        hs, sq = float(row["hs_exact"]), float(row["sq_function"])
        if not (_rel_close(hs * hs, exact, 1e-10) and _rel_close(sq, hs, 1e-10)):
            return f"hs_exact {hs!r} / sq_function {sq!r} disagree with oracle {exact!r}"
        return _within(float(row["mean_sq"]), float(row["stderr"]), exact, exact)

    def _check_sweep(self, cfg, rows):
        for r in rows:
            d, s, q, eta, zeta = (float(r[k]) for k in ("d", "s", "q", "eta", "zeta"))
            slack = oracles.weighted_slack(d, s, q, eta, zeta)
            cls = oracles.classify(slack)
            if abs(float(r["slack"]) - slack) > 1e-12 or r["classification"] != cls:
                return f"s={s}: slack {r['slack']} / {r['classification']}, expected {slack} / {cls}"
            if r["status"] != "ok" or r["label"] != oracles.LABEL_OF_CLASS[cls]:
                return f"s={s}: label {r['label']} ({r['status']}) for a {cls} tuple"
        return None

    def _check_freq_block(self, cfg, rows):
        pred = oracles.predicted_exponent("freq_block", *_params(cfg["params"]))
        return self._fit(rows, pred, EXPONENT_TOL["freq-block"])

    def _check_rescaled_bump(self, cfg, rows):
        pred = oracles.predicted_exponent("rescaled_bump", *_params(cfg["params"]))
        return self._fit(rows, pred, EXPONENT_TOL["rescaled-bump"])

    def _check_shifted_bump(self, cfg, rows):
        pred = oracles.predicted_exponent("shifted_bump", *_params(cfg["params"]))
        return self._fit(rows, pred, EXPONENT_TOL["shifted-bump"])

    def _check_scaling(self, cfg, rows):
        blk, d = cfg["scaling"], cfg["grid"]["dim"]
        pred = oracles.predicted_exponent("spde_scaling", d, blk["s"], blk["q"], blk["eta"],
                                          d / blk["alpha"])
        return self._fit(rows, pred, EXPONENT_TOL["scaling"])

    def _check_dirichlet(self, cfg, rows):
        return self._fit(rows, oracles.dirichlet_exponent(cfg["dirichlet"]["eta"]),
                         EXPONENT_TOL["dirichlet"])

    def _check_gamma_young(self, cfg, rows):
        lhs, rhs, ratio = (_floats(rows, c) for c in ("lhs", "rhs", "ratio"))
        if not np.all((lhs > 0) & (rhs > 0)) or not np.allclose(ratio, lhs / rhs, rtol=1e-12):
            return "Young check: sides not positive or ratio != lhs / rhs"
        if ratio.max() > 2.0 * ratio.min():
            return f"Young ratio spread {ratio.max() / ratio.min()!r} above 2"
        return None

    def _check_mg_sobolev(self, cfg, rows):
        val, g_eta, const = (_floats(rows, c) for c in ("gamma_norm", "g_eta_norm", "constant"))
        if not np.allclose(const, val / g_eta, rtol=1e-12) or not np.all(const > 0):
            return "constant != gamma_norm / g_eta_norm"
        if const.max() > 2.0 * const.min():
            return f"multiplier constant spread {const.max() / const.min()!r} above 2"
        return None

    def _check_schatten_heat(self, cfg, rows):
        blk = cfg["schatten"]
        d = blk["d"]
        t, norm = _floats(rows, "t"), _floats(rows, "norm_g1")
        exact = np.array([oracles.heat_theta_norm(blk["n"], d, ti) for ti in t])
        if not np.allclose(norm, exact, rtol=1e-10, atol=0):
            return "norm_g1 differs from the lattice theta sum"
        scaled = t ** (d / 4.0) * norm
        if scaled.max() > 2.0 * scaled.min():
            return "t^{d/4} ||S(t)|| not bounded within a factor 2"
        slope = oracles.loglog_slope(t, _floats(rows, "norm_witness"))
        if abs(slope + d / 4.0) > 0.05:
            return f"witness exponent {slope!r} not within 0.05 of {-d / 4.0}"
        return None

    def _check_heat_sim(self, cfg, rows):
        blk = cfg["heat"]
        if blk["noise"] != "matern" or blk["q"] != 2.0:
            return "no oracle for this heat-sim config"
        p = blk["p"]
        final = []
        by_traj = {}
        for r in rows:
            by_traj.setdefault(r["trajectory"], []).append(r)
        for traj in by_traj.values():
            t, h = _floats(traj, "time"), _floats(traj, "h_norm")
            if h[0] != 0.0:
                return "nonzero norm at time 0"
            lp = float(np.sum(h[:-1] ** p * np.diff(t)) ** (1.0 / p))
            if not (_rel_close(lp, float(traj[0]["lp_spacetime"]), 1e-9)
                    and float(traj[0]["max_in_time"]) == h.max()):
                return "space-time summaries disagree with the h_norm rows"
            final.append(h[-1] ** 2)
        if len(final) != blk["trajectories"]:
            return f"{len(final)} trajectories, expected {blk['trajectories']}"
        law = oracles.ou_mean_square(cfg["grid"]["n"], blk["alpha"], blk["s"], blk["t_horizon"])
        mean, stderr = oracles.mean_stderr(final)
        return _within(mean, stderr, law, law)

    def _check_haar_divergence(self, cfg, rows):
        blk = cfg["haar"]
        crit_zeta = blk["d"] / blk["alpha"]
        for zeta in sorted({r["zeta"] for r in rows}):
            sub = [r for r in rows if r["zeta"] == zeta]
            critical = abs(float(zeta) - crit_zeta) <= 1e-9
            if any(r["critical"] != ("true" if critical else "false") for r in sub):
                return f"zeta={zeta}: critical flag wrong"
            inc = np.diff(_floats(sub, "partial_sum"))
            if critical and inc.max() > inc.min() * (1.0 + 1e-9):
                return f"zeta={zeta}: partial sums not affine at criticality"
            if not critical and inc[-1] / inc[-2] <= 1.03:
                return f"zeta={zeta}: partial sums not growing geometrically"
        return None


WORKLOADS = {w.name: w for w in (Series1D(), Series2D(), Heat(), CliDefaults())}
