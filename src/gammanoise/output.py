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
import time
from dataclasses import asdict, dataclass, field

TOOL_VERSION = "0.1.0"

# keys that alter scheduling or destinations but not results
NON_SCIENTIFIC_KEYS = {"workers", "out", "dump_states"}


def format_value(v) -> str:
    """CSV text of one cell: ``true``/``false`` for a bool, else ``_cell_format``'s."""
    if isinstance(v, bool):
        return "true" if v else "false"
    return _cell_format(type(v)) % (v,)


def _cell_format(t: type) -> str:
    """The %-format of a non-bool cell of type ``t``.

    A float, numpy's included, takes 17 significant digits, which also gives
    ``nan`` (whatever its sign), ``inf`` and ``-inf``; anything else is ``str``.
    """
    return "%.17g" if issubclass(t, float) else "%s"


def csv_bytes(records, columns=None, constants=None) -> bytes:
    """Render records (dicts sharing one key set) as CSV bytes.

    ``constants`` maps further columns to one value each, written after the
    records' own cells on every row.  A row is rendered by one %-format, made
    once per tuple of cell types from ``_cell_format``; a row holding a bool
    goes cell by cell through ``format_value``.
    """
    records = list(records)
    if columns is None:
        if not records:
            raise ValueError("need explicit columns for an empty record set")
        columns = records[0].keys()
    columns = list(columns)
    for r in records:
        if list(r.keys()) != columns:
            raise ValueError("records are not homogeneous")
    constants = constants or {}
    tail = [format_value(v) for v in constants.values()]
    # each line is encoded as it is made: bytes are allocated at their size,
    # where a %-formatted str can keep its over-allocated buffer
    lines = [(",".join([*columns, *constants]) + "\n").encode("utf-8")]
    row_formats = {}
    for r in records:
        row = tuple(r.values())
        types = tuple(map(type, row))
        if types not in row_formats:     # a bool cell is a word, not a %-format
            row_formats[types] = None if bool in types else ",".join(
                [*map(_cell_format, types), *(t.replace("%", "%%") for t in tail)]) + "\n"
        fmt = row_formats[types]
        text = fmt % row if fmt else ",".join([*map(format_value, row), *tail]) + "\n"
        lines.append(text.encode("utf-8"))
    return b"".join(lines)


def write_csv(records, path, columns=None, constants=None) -> None:
    data = csv_bytes(records, columns=columns, constants=constants)
    with open(path, "wb") as fh:
        fh.write(data)


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
