"""Per-iteration run records and their on-disk formats.

The canonical trace file is a CSV with a fixed six-column schema: `k`, then
the `SERIES`. The series needed only by the small-gain audit,
`AUDIT_SERIES`, do not fit that schema and travel in a JSON sidecar written
next to the CSV. Every reader and writer loops over these two name lists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ConfigBlock, ConfigError, decode_json, read_input

# the CSV series after `k`, in column order
SERIES = ("residual", "cons_viol_x", "cons_viol_y", "conservation_err", "v_min")
# the sidecar series of an audited run
AUDIT_SERIES = ("q_norm", "z_norm", "grad_norm")
CSV_COLUMNS = ("k",) + SERIES
# a CSV row, whose last series, v_min, is an empty cell when NaN (no
# push-sum weight): "%.0s" reads the value and prints nothing
_ROW_FULL = "%d" + ",%.17g" * len(SERIES) + "\n"
_ROW_BLANK = _ROW_FULL.replace("%.17g\n", "%.0s\n")
# a CSV row as numpy's parser reads it
_ROW = [(name, int if name == "k" else float) for name in CSV_COLUMNS]

AUDIT_SUFFIX = ".audit.json"


@dataclass
class RunTrace:
    """One simulation run: per-iteration metrics plus run metadata.

    residual is the Frobenius distance to the reference solution normalized
    by its initial value; cons_viol_* are distances of the iterate blocks to
    the consensus subspace; conservation_err measures drift of the tracker
    column sums from the current gradient column sums; v_min is the smallest
    push-sum weight (NaN for runs without one).
    """

    k: np.ndarray
    residual: np.ndarray
    cons_viol_x: np.ndarray
    cons_viol_y: np.ndarray
    conservation_err: np.ndarray
    v_min: np.ndarray
    metadata: dict = field(default_factory=dict)
    # audit series (not part of the CSV schema)
    q_norm: np.ndarray | None = None          # ||x(k) - x*||_F, unnormalized
    z_norm: np.ndarray | None = None          # ||grad(k) - grad(k-1)||_F, z(0)=0
    grad_norm: np.ndarray | None = None       # ||grad f(x(k))||_F
    xbar0_error: float | None = None          # ||mean row of x(0) - x*||
    r0: float | None = None                   # ||x(0) - x*||_F
    # full state history (in memory only, for algebraic replay checks)
    history: dict | None = None

    def __post_init__(self):
        rows = len(self.k)
        for name in SERIES:
            if len(getattr(self, name)) != rows:
                raise ValueError(f"column {name} has mismatched length")
        if rows and not np.all(np.diff(self.k) > 0):
            raise ValueError("iteration indices must be strictly increasing")

    def __len__(self) -> int:
        return len(self.k)

    def to_csv(self) -> str:
        return "".join(self._lines())

    def _lines(self):
        """The CSV lines, one `%` of a row format per row: 17 significant
        digits, which read back to the same double, and an empty `v_min`
        cell for NaN."""
        columns = [np.asarray(getattr(self, name)).tolist() for name in CSV_COLUMNS]
        yield ",".join(CSV_COLUMNS) + "\n"
        for row in zip(*columns, strict=True):
            yield (_ROW_BLANK if row[-1] != row[-1] else _ROW_FULL) % row

    def write(self, path: str | Path) -> None:
        path = Path(path)
        with path.open("w") as f:
            f.writelines(self._lines())
        sidecar = path.with_name(path.name + AUDIT_SUFFIX)
        if self.q_norm is None:
            # an earlier run's sidecar would be read as this trace's
            sidecar.unlink(missing_ok=True)
            return
        payload = {"metadata": self.metadata,
                   **{name: list(map(float, getattr(self, name)))
                      for name in AUDIT_SERIES},
                   "xbar0_error": self.xbar0_error, "r0": self.r0}
        sidecar.write_text(_sidecar_json(payload))

    @classmethod
    def from_csv(cls, text: str, metadata: dict | None = None) -> "RunTrace":
        """Parse a trace CSV through numpy's C parser, or row by row where it
        refuses the rows, so that the first bad row raises."""
        lines = [ln for ln in text.strip().splitlines() if ln]
        if not lines or lines[0].split(",") != list(CSV_COLUMNS):
            raise ValueError("trace CSV must start with the canonical header "
                             + ",".join(CSV_COLUMNS))
        rows = lines[1:]
        try:
            if not rows:
                raise ValueError("no rows")
            # the blank cell of a NaN ends a row: v_min is the last column
            table = np.loadtxt([ln + "nan" if ln.endswith(",") else ln for ln in rows],
                               dtype=_ROW, delimiter=",", comments=None, ndmin=1)
            if len(table) != len(rows):
                raise ValueError("rows skipped")
            cols = [np.ascontiguousarray(table[name]) for name in CSV_COLUMNS]
        except ValueError:
            cols = _parse_rows(rows)
        return cls(k=cols[0], **dict(zip(SERIES, cols[1:])), metadata=metadata or {})

    @classmethod
    def read(cls, path: str | Path) -> "RunTrace":
        """The trace at `path` and its sidecar, if any: an unreadable path is a
        ConfigError, a malformed sidecar a ValueError naming file and key."""
        path = Path(path)
        trace = cls.from_csv(read_input(path, "trace"))
        sidecar = path.with_name(path.name + AUDIT_SUFFIX)
        if not sidecar.exists():
            return trace
        try:
            get = ConfigBlock(decode_json(read_input(sidecar, sidecar.name),
                                          sidecar.name), sidecar.name)
            series = {name: get(name, "a list of numbers, NaN or infinities")
                      for name in AUDIT_SERIES}
            trace.metadata = get("metadata", "an object", {})
            trace.xbar0_error = get("xbar0_error", "a number")
            trace.r0 = get("r0", "a number")
            get.done()
        except ConfigError as exc:  # a sidecar is a run's output, not its input
            raise ValueError(str(exc)) from None
        for name, values in series.items():
            if len(values) != len(trace):
                raise ValueError(f"{sidecar.name} holds {len(values)} "
                                 f"{name} values but {path.name} has {len(trace)} rows")
            setattr(trace, name, np.array(values))
        return trace

    def same_rows(self, other: "RunTrace") -> bool:
        """Exact equality of the six canonical columns (NaN-aware)."""
        return (len(self) == len(other) and np.array_equal(self.k, other.k)
                and all(np.array_equal(getattr(self, name), getattr(other, name),
                                       equal_nan=True) for name in SERIES))


def _sidecar_json(payload: dict) -> str:
    """`json.dumps(payload, indent=1)` plus a newline, byte for byte, with
    numpy arrays and scalars in the metadata written as plain values. The
    float series go through json's C encoder, which `indent` would turn off,
    and are laid out one value a line as `indent` does."""
    entries = []
    for key, value in payload.items():
        if key in AUDIT_SERIES:
            text = "[]" if not value else (
                "[\n  " + json.dumps(value)[1:-1].replace(", ", ",\n  ") + "\n ]")
        else:
            # one level deeper than its own top level
            text = json.dumps(value, indent=1,
                              default=lambda v: v.tolist()).replace("\n", "\n ")
        entries.append(f" {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(entries) + "\n}\n"


def _parse_rows(rows: list[str]) -> list[np.ndarray]:
    """The columns of the rows, parsed cell by cell; the first bad row
    raises."""
    cols: list[list] = [[] for _ in CSV_COLUMNS]
    parsers = [int] + [float] * (len(SERIES) - 1) + [_float_or_blank]
    for ln in rows:
        cells = ln.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ValueError(f"malformed trace row: {ln!r}")
        for col, parse, cell in zip(cols, parsers, cells):
            col.append(parse(cell))
    return [np.array(cols[0], dtype=int)] + [np.array(col, dtype=float)
                                             for col in cols[1:]]


def _float_or_blank(cell: str) -> float:
    return float("nan") if cell == "" else float(cell)

