"""Stage-level timing capture across the application, host, and control layers.

The stage-name set is closed and the parent/child nesting is fixed: the
application layer owns the root ("Total") with pre-compilation, the dedup
pass, and the host handoff below it; the host layer times compilation,
assembly, and the run; the control layer times circuit/parameter loading and
the shot loop.  "Client/Server" and "Stitch" are computed after the fact from
channel counters rather than scoped, and "Active" exists in the taxonomy but
always records zero here.

Only the monotonic clock is used; wall-clock time never enters a duration.
The load-bearing outputs are the iteration counts: under parameterized
execution Compile, Assemble, and Load circuit run once per unique structure,
under the naive mode once per circuit.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .errors import ComparisonError, IncompleteRecordError, InstrumentationError

ROOT_STAGE = "Total"

# child -> parent; every known stage except the root appears exactly once,
# in canonical serialization order: parents before children, fixed tie order
STAGE_PARENT = {
    "Pre-compile": "Total",
    "Get circuit": "Pre-compile",
    "Transpile": "Pre-compile",
    "RIP": "Total",
    "Active": "Total",
    "Build Run": "Total",
    "Compile": "Build Run",
    "Assemble": "Build Run",
    "RunAll on Host": "Build Run",
    "Run on Host": "RunAll on Host",
    "Load Batch": "Run on Host",
    "Load circuit": "Load Batch",
    "Load definition": "Load Batch",
    "Load env.": "Load definition",
    "Load freq.": "Load definition",
    "Load zero": "Load definition",
    "Load para": "Run on Host",
    "Run Batch": "Run on Host",
    "Start Run": "Run Batch",
    "Get data": "Run Batch",
    "Stitch": "Run on Host",
    "Data Sort": "RunAll on Host",
    "Client/Server": "Build Run",
}

STAGE_NAMES = frozenset(STAGE_PARENT) | {ROOT_STAGE}
STAGE_ORDER = (ROOT_STAGE, *STAGE_PARENT)

_ORDER_INDEX = {name: i for i, name in enumerate(STAGE_ORDER)}


class StageStats:
    __slots__ = ("ns", "iters", "children")

    def __init__(self, ns: int = 0, iters: int = 0):
        self.ns = ns
        self.iters = iters
        self.children: dict[str, StageStats] = {}

    def __eq__(self, other) -> bool:
        if not isinstance(other, StageStats):
            return NotImplemented
        return self.ns == other.ns and self.iters == other.iters and self.children == other.children

    def __repr__(self) -> str:
        return f"StageStats(ns={self.ns}, iters={self.iters}, children={sorted(self.children)})"


class _Scope:
    """``with record.scope(name)``: push on entry, pop on exit."""

    __slots__ = ("record", "name")

    def __init__(self, record: ProfileRecord, name: str):
        self.record, self.name = record, name

    def __enter__(self) -> ProfileRecord:
        self.record.push(self.name)
        return self.record

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.record.pop(self.name)
        return False


class ProfileRecord:
    """One session's stage tree: accumulated duration and iteration count per stage."""

    def __init__(self, clock=time.perf_counter_ns):
        self.root = StageStats()
        self._clock = clock
        self._stack: list[tuple[str, int, StageStats]] = []

    def _check_name(self, name: str) -> None:
        if name not in STAGE_NAMES:
            raise InstrumentationError(f"unknown stage {name!r}")

    def push(self, name: str) -> None:
        self._check_name(name)
        if not self._stack:
            if name != ROOT_STAGE:
                raise InstrumentationError(f"stage {name!r} opened outside {ROOT_STAGE!r}")
            node = self.root
        else:
            top_name, _, top_node = self._stack[-1]
            if STAGE_PARENT.get(name) != top_name:
                raise InstrumentationError(
                    f"stage {name!r} opened under {top_name!r}, "
                    f"expected parent {STAGE_PARENT.get(name)!r}"
                )
            node = top_node.children.setdefault(name, StageStats())
        self._stack.append((name, self._clock(), node))

    def pop(self, name: str) -> None:
        if not self._stack or self._stack[-1][0] != name:
            open_name = self._stack[-1][0] if self._stack else None
            raise InstrumentationError(f"closing {name!r} but {open_name!r} is open")
        _, start, node = self._stack.pop()
        node.ns += self._clock() - start
        node.iters += 1

    def scope(self, name: str) -> _Scope:
        return _Scope(self, name)

    def _path_of(self, name: str) -> list[str]:
        path = [name]
        while path[0] != ROOT_STAGE:
            path.insert(0, STAGE_PARENT[path[0]])
        return path

    def add_computed(self, name: str, ns: int, iters: int = 1) -> None:
        """Attach a post-processing stage outside the live scope stack."""
        self._check_name(name)
        node = self.root
        for step in self._path_of(name)[1:]:
            node = node.children.setdefault(step, StageStats())
        node.ns += int(ns)
        node.iters += int(iters)

    def mark_zero(self, name: str) -> None:
        """Record a stage as entered once with zero duration."""
        self.add_computed(name, 0, 1)

    def find(self, name: str) -> StageStats | None:
        self._check_name(name)
        if name == ROOT_STAGE:
            return self.root if (self.root.iters or self.root.children) else None

        def walk(node: StageStats) -> StageStats | None:
            for child_name, child in node.children.items():
                if child_name == name:
                    return child
                hit = walk(child)
                if hit is not None:
                    return hit
            return None

        return walk(self.root)

    def duration_ns(self, name: str) -> int:
        node = self.find(name)
        return node.ns if node else 0

    def iterations(self, name: str) -> int:
        node = self.find(name)
        return node.iters if node else 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProfileRecord):
            return NotImplemented
        return self.root == other.root


def _stats_to_dict(name: str, node: StageStats) -> dict:
    children = sorted(node.children.items(), key=lambda kv: _ORDER_INDEX[kv[0]])
    return {
        "name": name,
        "ns": node.ns,
        "iterations": node.iters,
        "children": [_stats_to_dict(n, c) for n, c in children],
    }


def report(record: ProfileRecord, meta: dict | None = None) -> str:
    """Deterministic JSON document for a record (stable stage order and keys)."""
    doc = {
        "meta": dict(sorted((meta or {}).items())),
        "stages": _stats_to_dict(ROOT_STAGE, record.root),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _stats_from_dict(d: dict, name: str) -> StageStats:
    """Rebuild a stage subtree, rejecting an unknown, misplaced or repeated child."""
    node = StageStats(int(d["ns"]), int(d["iterations"]))
    for child in d["children"]:
        child_name = child["name"]
        if child_name not in STAGE_NAMES:
            raise IncompleteRecordError(f"unknown stage {child_name!r} under {name!r}")
        if STAGE_PARENT.get(child_name) != name:
            raise IncompleteRecordError(
                f"stage {child_name!r} under {name!r}, "
                f"expected under {STAGE_PARENT.get(child_name)!r}"
            )
        if child_name in node.children:
            raise IncompleteRecordError(f"stage {child_name!r} listed twice under {name!r}")
        node.children[child_name] = _stats_from_dict(child, child_name)
    return node


def parse_report(text: str) -> tuple[ProfileRecord, dict]:
    try:
        doc = json.loads(text)
        name = doc["stages"]["name"]
        if name != ROOT_STAGE:
            raise IncompleteRecordError(f"report root is {name!r}, expected {ROOT_STAGE!r}")
        root = _stats_from_dict(doc["stages"], name)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise IncompleteRecordError(f"unparseable profile report: {exc}") from None
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise IncompleteRecordError(f"report meta is {type(meta).__name__}, not an object")
    record = ProfileRecord()
    record.root = root
    return record, meta


@dataclass(frozen=True)
class StageRow:
    name: str
    baseline_ns: int
    pce_ns: int
    baseline_iters: int
    pce_iters: int

    @property
    def ratio(self) -> float | None:
        if self.pce_ns <= 0:
            return None
        return self.baseline_ns / self.pce_ns


@dataclass(frozen=True)
class SpeedupTable:
    rows: tuple[StageRow, ...]
    baseline_total_ns: int
    pce_total_ns: int
    baseline_classical_ns: int
    pce_classical_ns: int

    @property
    def baseline_classical_pct(self) -> float:
        return 100.0 * self.baseline_classical_ns / self.baseline_total_ns

    @property
    def pce_classical_pct(self) -> float:
        return 100.0 * self.pce_classical_ns / self.pce_total_ns

    @property
    def classical_reduction_pct(self) -> float:
        if self.baseline_classical_ns <= 0:
            return 0.0
        return 100.0 * (self.baseline_classical_ns - self.pce_classical_ns) / self.baseline_classical_ns

    @property
    def classical_speedup(self) -> float | None:
        if self.pce_classical_ns <= 0:
            return None
        return self.baseline_classical_ns / self.pce_classical_ns

    @property
    def overall_speedup(self) -> float | None:
        if self.pce_total_ns <= 0:
            return None
        return self.baseline_total_ns / self.pce_total_ns

    def row(self, name: str) -> StageRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)

    def to_text(self) -> str:
        def fmt_ratio(v: float | None) -> str:
            return f"{v:10.2f}" if v is not None else " " * 9 + "-"

        lines = [
            f"{'stage':<16} {'baseline ns':>14} {'pce ns':>14} {'ratio':>10} "
            f"{'iters b':>8} {'iters p':>8}"
        ]
        for r in self.rows:
            lines.append(
                f"{r.name:<16} {r.baseline_ns:>14} {r.pce_ns:>14} {fmt_ratio(r.ratio)} "
                f"{r.baseline_iters:>8} {r.pce_iters:>8}"
            )
        lines.append("")
        lines.append(f"classical time    baseline {self.baseline_classical_pct:.2f}% of total")
        lines.append(f"classical time    pce      {self.pce_classical_pct:.2f}% of total")
        lines.append(f"classical reduction        {self.classical_reduction_pct:.2f}%")
        if self.classical_speedup is not None:
            lines.append(f"classical speedup          {self.classical_speedup:.2f}x")
        if self.overall_speedup is not None:
            lines.append(f"overall speedup            {self.overall_speedup:.2f}x")
        return "\n".join(lines) + "\n"


def _collect(node: StageStats, name: str, out: dict[str, tuple[int, int]]) -> None:
    prev_ns, prev_iters = out.get(name, (0, 0))
    out[name] = (prev_ns + node.ns, prev_iters + node.iters)
    for child_name, child in node.children.items():
        _collect(child, child_name, out)


def compare(baseline: ProfileRecord, pce: ProfileRecord) -> SpeedupTable:
    """Per-stage ratios plus the classical-time summary (classical = Total - Start Run)."""
    for label, rec in (("baseline", baseline), ("pce", pce)):
        if rec.root.iters == 0:
            raise IncompleteRecordError(f"{label} record has no completed {ROOT_STAGE!r} stage")
    flat_b: dict[str, tuple[int, int]] = {}
    flat_p: dict[str, tuple[int, int]] = {}
    _collect(baseline.root, ROOT_STAGE, flat_b)
    _collect(pce.root, ROOT_STAGE, flat_p)
    names = sorted(set(flat_b) | set(flat_p), key=lambda n: _ORDER_INDEX[n])
    rows = tuple(
        StageRow(
            n,
            flat_b.get(n, (0, 0))[0],
            flat_p.get(n, (0, 0))[0],
            flat_b.get(n, (0, 0))[1],
            flat_p.get(n, (0, 0))[1],
        )
        for n in names
    )
    tb, tp = flat_b[ROOT_STAGE][0], flat_p[ROOT_STAGE][0]
    sb = flat_b.get("Start Run", (0, 0))[0]
    sp = flat_p.get("Start Run", (0, 0))[0]
    return SpeedupTable(rows, tb, tp, tb - sb, tp - sp)


def check_same_batch(meta_a: dict, meta_b: dict) -> None:
    ha, hb = meta_a.get("batch_hash"), meta_b.get("batch_hash")
    if ha != hb:
        raise ComparisonError(f"reports describe different batches ({ha!r} vs {hb!r})")
