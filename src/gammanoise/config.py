"""Experiment configuration: one command table, INI files, overrides.

Configs are INI files read by ``configparser``: one section per parameter
block, scalar values, comma-separated lists.  ``COMMANDS`` declares every
subcommand once: its sections, each key's type and default, and the columns
of its CSV.  A key written as a bare type name is accepted but has no
default, so it stays out of the loaded config (and out of its hash) unless
a file or override sets it; a section left with no keys is dropped.  The
``run`` section is shared: ``seed``, ``workers`` and ``out`` (default: the
command name with ``_`` for ``-``, plus ``.csv``), plus ``oversample`` for
the commands that read it, with the command's own default.  Unknown sections
or keys, NaN and infinite floats, and values that break the rule declared
beside their key are rejected before any computation runs.
"""

from __future__ import annotations

import configparser
import copy
import math
from dataclasses import dataclass


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


def _float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _floats(text):
    return [_float(x) for x in str(text).split(",") if str(x).strip() != ""]


def _ints(text):
    return [int(x) for x in str(text).split(",") if str(x).strip() != ""]


TYPES = {"int": int, "float": _float, "str": str, "floats": _floats, "ints": _ints}


@dataclass(frozen=True)
class Command:
    """One subcommand: its ``run.oversample`` default, sections and CSV columns.

    ``oversample`` is None for a command that does not read it, which then
    has no ``run.oversample`` key.  Each section maps a key to
    ``(type, default)`` or ``(type, default, rule)``, or to a bare type name
    for a key without a default.  A rule joins clauses with ``" and "``, each
    ``"<op> <bound>"`` (op ``>``, ``>=``, ``<`` or ``<=``; bound a number or a
    key of the same section) or ``"<k> distinct"`` (at least k distinct entries).
    """

    oversample: int | None
    sections: dict
    columns: tuple


def _grid(n):
    return {"dim": ("int", 1, ">= 1 and <= 3"), "n": ("int", n),
            "length": ("float", 1.0, "> 0")}


def _params(s, q, eta, d_max):
    return {"d": ("int", 1, f">= 1 and <= {d_max}"), "s": ("float", s), "q": ("float", q),
            "eta": ("float", eta), "zeta": ("float", 4.0)}


TWO_SIDED_COLUMNS = ("construction", "scale_index", "lhs", "rhs", "ratio",
                     "fitted_exponent", "predicted_exponent", "r2")

COMMANDS = {
    "series-norm": Command(4, {
        "grid": _grid(1024),
        "system": {"kind": ("str", "fourier"), "j_min": "int", "j_max": "int",
                   "extent": "int", "width": "float"},
        "coloring": {"kind": ("str", "matern"), "alpha": ("float", 0.5),
                     "beta": "float", "level": "int", "value": "float",
                     "values": "floats"},
        "series": {"n_terms": ("int", 128, ">= 1"), "s": ("float", 0.6),
                   "q": ("float", 2.0, "> 1"), "samples": ("int", 400, ">= 2")},
        "g": {"kind": "str", "width": "float", "value": "float"},
    }, ("n_terms", "s", "q", "samples", "seed", "mean_sq", "stderr", "mean_norm",
        "sq_function", "hs_exact")),
    "sweep": Command(None, {
        "sweep": {"construction": ("str", "freq_block"),
                  "scales": ("ints", [3, 4, 5, 6], "2 distinct"),
                  "s_values": ("floats", [0.2, 0.5, 0.9]), "q": ("float", 4.0),
                  "eta": ("float", 2.0), "zeta": ("float", 4.0), "d": ("int", 1)},
    }, ("d", "s", "q", "eta", "zeta", "construction", "slack", "classification",
        "label", "exponent", "r2", "status")),
    "freq-block": Command(2, {
        "params": _params(0.9, 4.0, 2.0, 2),
        "freq_block": {"n_min": ("int", 3, ">= 1"), "n_max": ("int", 7, "> n_min")},
    }, TWO_SIDED_COLUMNS),
    "rescaled-bump": Command(4, {
        "params": _params(0.5, 4.0, 2.0, 1),
        "rescaled_bump": {"m_min": ("int", 0), "m_max": ("int", 5, "> m_min"), "n": ("int", 2**14),
                          "width": ("float", 0.25, "> 0")},
    }, TWO_SIDED_COLUMNS),
    "shifted-bump": Command(2, {
        "params": _params(0.6, 2.0, 4.0, 1),
        "shifted_bump": {"extents": ("ints", [2, 4, 8, 16], "2 distinct"),
                         "resolution": ("int", 64), "width": ("float", 0.5, "> 0 and < 1")},
    }, TWO_SIDED_COLUMNS),
    "dirichlet": Command(4, {
        "dirichlet": {"eta": ("float", 4.0, "> 1"),
                      "n_values": ("ints", [8, 16, 32, 64, 128, 256], "2 distinct")},
    }, ("N", "terms", "norm", "eta", "fitted_exponent", "predicted_exponent", "r2")),
    "gamma-young": Command(4, {
        "grid": _grid(1024),
        "gamma_young": {"s": ("float", 0.75, "> 0"), "q": ("float", 8.0, "> 2"),
                        "trials": ("int", 100, ">= 1")},
    }, ("trial", "s", "q", "r", "eta", "lhs", "rhs", "ratio")),
    "mg-sobolev": Command(4, {
        "grid": _grid(8192),
        "mg_sobolev": {"s": ("float", 0.75), "q": ("float", 4.0, ">= 2"),
                       "eta": ("float", 8.0 / 3.0, ">= 1"),
                       "levels": ("int", 6, ">= 1"), "width": ("float", 0.25, "> 0")},
    }, ("level", "s", "q", "eta", "gamma_norm", "g_eta_norm", "constant")),
    "schatten-heat": Command(None, {
        "schatten": {"d": ("int", 1, ">= 1 and <= 3"), "n": ("int", 512), "t_min": ("float", 1e-3, "> 0"),
                     "t_max": ("float", 1e-1, "> t_min"), "points": ("int", 9, ">= 2")},
    }, ("d", "t", "norm_g1", "scaled_g1", "norm_witness")),
    "heat-sim": Command(None, {
        "grid": _grid(256),
        "heat": {"noise": ("str", "matern"), "alpha": ("float", 0.3, "> 0"), "cutoff": "float",
                 "mode": "int", "amplitude": "float", "t_horizon": ("float", 0.1, "> 0"),
                 "dt": ("float", 1e-3, "> 0 and <= t_horizon"),
                 "integrator": ("str", "exact_ou"), "trajectories": ("int", 100, ">= 1"),
                 "s": ("float", 0.9), "q": ("float", 2.0, "> 1"), "p": ("float", 2.0, ">= 1"),
                 "dump_states": "str"},
    }, ("trajectory", "time", "h_norm", "lp_spacetime", "max_in_time")),
    "scaling": Command(2, {
        "grid": _grid(8192),
        "scaling": {"alpha": ("float", 0.5, "> 0"), "beta": ("float", 1.0),
                    "levels": ("int", 3, ">= 1"), "m_min": ("int", 0, ">= 0"),
                    "m_max": ("int", 5, "> m_min"), "s": ("float", 0.25),
                    "q": ("float", 4.0), "eta": ("float", 2.0)},
    }, TWO_SIDED_COLUMNS),
    "haar-divergence": Command(None, {
        "haar": {"d": ("int", 1, ">= 1 and <= 3"), "alpha": ("float", 0.5, "> 0"),
                 "beta": ("float", 1.0), "zeta_values": ("floats", [1.8, 2.0, 2.5], "1 distinct"),
                 "j_max": ("int", 12, ">= 2")},
    }, ("zeta", "J", "partial_sum", "critical")),
    "selftest": Command(None, {}, ("criterion", "name", "passed", "metrics")),
}


def command_sections(command: str) -> dict:
    """Every section ``command`` accepts, the shared ``run`` section first."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    run = {"seed": ("int", 7), "workers": ("int", 1, ">= 1"),
           "out": ("str", command.replace("-", "_") + ".csv")}
    if COMMANDS[command].oversample is not None:
        run["oversample"] = ("int", COMMANDS[command].oversample, ">= 1")
    return {"run": run, **COMMANDS[command].sections}


def load_config(command: str, path=None, overrides=None) -> dict:
    """Defaults, overlaid with an INI file and key=value overrides, validated."""
    sections = command_sections(command)
    config = {}
    for section, keys in sections.items():
        block = {key: copy.deepcopy(spec[1]) for key, spec in keys.items()
                 if isinstance(spec, tuple)}
        if block:
            config[section] = block

    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        for section in parser.sections():
            for key, raw in parser.items(section):
                _apply(config, sections, command, section, key, raw)

    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        if "." not in dotted:
            raise ConfigError(f"override key must be section.key, got {dotted!r}")
        section, key = dotted.split(".", 1)
        _apply(config, sections, command, section, key, raw)

    for section, keys in sections.items():
        for key, spec in keys.items():
            if isinstance(spec, tuple) and len(spec) == 3:
                _check_rule(config[section], section, key, spec[2])
    return config


def _apply(config: dict, sections: dict, command: str, section: str, key: str, raw) -> None:
    if section not in sections:
        raise ConfigError(f"unknown section [{section}] for command {command!r}")
    if key not in sections[section]:
        raise ConfigError(f"unknown key {section}.{key} for command {command!r}")
    spec = sections[section][key]
    caster = TYPES[spec[0] if isinstance(spec, tuple) else spec]
    try:
        value = caster(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r} ({exc})") from None
    config.setdefault(section, {})[key] = value


def _check_rule(block: dict, section: str, key: str, rule: str) -> None:
    """Raise ``ConfigError`` naming ``section.key`` unless its value keeps ``rule``."""
    value = block[key]
    for op, bound in (clause.split() for clause in rule.split(" and ")):
        if bound == "distinct":
            ok, need = len(set(value)) >= int(op), f"have {op} or more distinct values"
        else:
            limit = block[bound] if bound in block else float(bound)
            ok = {">": value > limit, ">=": value >= limit, "<": value < limit,
                  "<=": value <= limit}[op]
            need = f"be {op} {section}.{bound}={limit}" if bound in block else f"be {op} {bound}"
        if not ok:
            raise ConfigError(f"{section}.{key}={value} must {need}")
