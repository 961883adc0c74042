"""CSV persistence and run manifests.

CSV files carry a header row, a fixed column order, floats rendered with 17
significant digits (so reading them back is bit-exact), LF newlines and
UTF-8.  Every run emits exactly one manifest; artifacts reference it through
a hash computed from the canonicalized scientific configuration, never from
wall time or worker count, so reruns stay byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field

TOOL_VERSION = "0.1.0"

# keys that alter scheduling or destinations but not results
NON_SCIENTIFIC_KEYS = {"workers", "out", "dump_states"}


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int,)):
        return str(v)
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{v:.17g}"
    return str(v)


def csv_bytes(records, columns=None) -> bytes:
    """Render records (dicts sharing one key set) as CSV bytes."""
    records = list(records)
    if columns is None:
        if not records:
            raise ValueError("need explicit columns for an empty record set")
        columns = list(records[0].keys())
    for r in records:
        if list(r.keys()) != list(columns):
            raise ValueError("records are not homogeneous")
    lines = [",".join(columns)]
    for r in records:
        lines.append(",".join(format_value(r[c]) for c in columns))
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_csv(records, path, columns=None) -> None:
    data = csv_bytes(records, columns=columns)
    with open(path, "wb") as fh:
        fh.write(data)


def read_csv(path) -> list:
    """Read back a CSV written by write_csv, parsing numeric fields."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    lines = text.strip("\n").split("\n")
    columns = lines[0].split(",")
    out = []
    for line in lines[1:]:
        row = {}
        for c, cell in zip(columns, line.split(",")):
            row[c] = _parse_cell(cell)
        out.append(row)
    return out


def _parse_cell(cell: str):
    if cell == "true":
        return True
    if cell == "false":
        return False
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def canonical_config(command: str, config: dict, seed: int) -> str:
    """Canonical JSON of the scientific configuration (sorted, scheduling-free)."""
    def strip(d):
        return {k: (strip(v) if isinstance(v, dict) else v)
                for k, v in sorted(d.items()) if k not in NON_SCIENTIFIC_KEYS}
    doc = {"command": command, "config": strip(config), "seed": seed,
           "version": TOOL_VERSION}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_hash(command: str, config: dict, seed: int) -> str:
    return hashlib.sha256(canonical_config(command, config, seed).encode()).hexdigest()[:16]


@dataclass
class RunManifest:
    command: str
    config_hash: str
    seed: int
    version: str = TOOL_VERSION
    wall_time_s: float = 0.0
    op_timings: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


class OpTimer:
    """Run wall time, and the per-operation timings a runner reports, for the manifest."""

    def __init__(self):
        self.timings = {}
        self._start = time.monotonic()

    def total(self) -> float:
        return time.monotonic() - self._start
