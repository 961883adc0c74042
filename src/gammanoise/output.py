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
from contextlib import contextmanager
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


def csv_bytes(table: dict) -> bytes:
    """CSV bytes of a table: a dict from each column name, in order, to a list of cells.

    Columns of unequal length raise ``ValueError``.  Cells are formatted a
    column at a time by ``_column_cells``; the rows are joined from the columns.
    """
    lengths = {name: len(cells) for name, cells in table.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"table columns differ in length: {lengths}")
    cells = [_column_cells(column) for column in table.values()]
    lines = [",".join(table), *map(",".join, zip(*cells))]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _column_cells(values: list) -> list:
    """``format_value`` of each cell of one column.

    A column of one type other than ``bool`` formats each distinct value
    once: within one type, keying by value is keying by (type, value).  A
    column of several types, where ``True``, ``1`` and ``1.0`` are equal
    keys, or of bools goes cell by cell.  As ``0.0 == -0.0``, zeros share a
    key, so each zero is formatted on its own.
    """
    types = set(map(type, values))
    if len(types) != 1 or bool in types:
        return list(map(format_value, values))
    fmt = _cell_format(types.pop())
    distinct = list(dict.fromkeys(values))
    texts = dict(zip(distinct, map(fmt.__mod__, zip(distinct))))
    cells = list(map(texts.__getitem__, values))
    if 0 in texts:      # found by C-level scans, each zero gets its own text
        i = -1
        for _ in range(values.count(0)):
            i = values.index(0, i + 1)
            cells[i] = fmt % (values[i],)
    return cells


def write_csv(table: dict, path) -> None:
    data = csv_bytes(table)
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

    @contextmanager
    def op(self, name: str):
        """Time the enclosed block as operation ``name``."""
        start = time.monotonic()
        yield
        self.timings[name] = time.monotonic() - start
