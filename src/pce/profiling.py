"""Stage-level timing capture across the application, host, and control layers.

The stage-name set is closed and the parent/child nesting is fixed: the
application layer owns the root ("Total") with pre-compilation, the dedup
pass, and the host handoff below it; the host layer times compilation,
assembly, and the run; the control layer times circuit/parameter loading and
the shot loop.  "Client/Server" and "Stitch" are computed after the fact from
channel counters rather than scoped.  "Active" and "Get circuit" exist in
the taxonomy but always record zero here: the run is handed its batch, and
"Transpile" times reading it.

Only the monotonic clock is used; wall-clock time never enters a duration.
The load-bearing outputs are the iteration counts: under parameterized
execution Compile, Assemble, and Load circuit run once per unique structure,
under the naive mode once per circuit.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .asm import MODELED_ASSEMBLE_NS
from .errors import ComparisonError, IncompleteRecordError, InstrumentationError

ROOT_STAGE = "Total"

# child -> parent, the one statement of the stage nesting; every known stage
# except the root appears exactly once, in canonical serialization order:
# parents before children, fixed tie order
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

# parent -> children in STAGE_ORDER, derived once from STAGE_PARENT
_CHILDREN: dict[str, tuple[str, ...]] = {
    name: tuple(c for c, p in STAGE_PARENT.items() if p == name) for name in STAGE_ORDER
}


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
    """One session's stages: accumulated ``[ns, iterations]`` per stage name.

    A stage has an entry once it is opened or computed, and then so does each
    of its ancestors; the root's entry exists from construction.  The nesting
    is ``STAGE_PARENT``'s, so the record is a flat table.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.stages: dict[str, list[int]] = {ROOT_STAGE: [0, 0]}
        self._clock = clock
        self._stack: list[tuple[str, int, list[int]]] = []

    def _check_name(self, name: str) -> None:
        if name not in STAGE_NAMES:
            raise InstrumentationError(f"unknown stage {name!r}")

    def push(self, name: str) -> None:
        self._check_name(name)
        if not self._stack:
            if name != ROOT_STAGE:
                raise InstrumentationError(f"stage {name!r} opened outside {ROOT_STAGE!r}")
        elif STAGE_PARENT.get(name) != self._stack[-1][0]:
            raise InstrumentationError(
                f"stage {name!r} opened under {self._stack[-1][0]!r}, "
                f"expected parent {STAGE_PARENT.get(name)!r}"
            )
        self._stack.append((name, self._clock(), self.stages.setdefault(name, [0, 0])))

    def pop(self, name: str) -> None:
        if not self._stack or self._stack[-1][0] != name:
            open_name = self._stack[-1][0] if self._stack else None
            raise InstrumentationError(f"closing {name!r} but {open_name!r} is open")
        _, start, entry = self._stack.pop()
        entry[0] += self._clock() - start
        entry[1] += 1

    def scope(self, name: str) -> _Scope:
        return _Scope(self, name)

    def add_computed(self, name: str, ns: int, iters: int = 1) -> None:
        """Attach a post-processing stage outside the live scope stack."""
        self._check_name(name)
        entry = self.stages.setdefault(name, [0, 0])
        entry[0] += int(ns)
        entry[1] += int(iters)
        while name != ROOT_STAGE and STAGE_PARENT[name] not in self.stages:
            name = STAGE_PARENT[name]
            self.stages[name] = [0, 0]

    def mark_zero(self, name: str) -> None:
        """Record a stage as entered once with zero duration."""
        self.add_computed(name, 0, 1)

    def duration_ns(self, name: str) -> int:
        self._check_name(name)
        return self.stages.get(name, (0, 0))[0]

    def iterations(self, name: str) -> int:
        self._check_name(name)
        return self.stages.get(name, (0, 0))[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProfileRecord):
            return NotImplemented
        return self.stages == other.stages


def _tree(stages: dict[str, list[int]], name: str) -> dict:
    ns, iters = stages[name]
    return {
        "name": name,
        "ns": ns,
        "iterations": iters,
        "children": [_tree(stages, c) for c in _CHILDREN[name] if c in stages],
    }


def report(record: ProfileRecord, meta: dict | None = None) -> str:
    """Deterministic JSON document for a record (stable stage order and keys)."""
    doc = {
        "meta": dict(sorted((meta or {}).items())),
        "stages": _tree(record.stages, ROOT_STAGE),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _fill(stages: dict[str, list[int]], d: dict, name: str) -> None:
    """Enter a stage subtree, rejecting a negative count or an unknown,
    misplaced or repeated child."""
    ns, iters = int(d["ns"]), int(d["iterations"])
    if ns < 0 or iters < 0:
        raise IncompleteRecordError(f"stage {name!r} has {ns} ns over {iters} iterations")
    stages[name] = [ns, iters]
    for child in d["children"]:
        child_name = child["name"]
        if child_name not in STAGE_NAMES:
            raise IncompleteRecordError(f"unknown stage {child_name!r} under {name!r}")
        if STAGE_PARENT.get(child_name) != name:
            raise IncompleteRecordError(
                f"stage {child_name!r} under {name!r}, "
                f"expected under {STAGE_PARENT.get(child_name)!r}"
            )
        if child_name in stages:
            raise IncompleteRecordError(f"stage {child_name!r} listed twice under {name!r}")
        _fill(stages, child, child_name)


def parse_report(text: str) -> tuple[ProfileRecord, dict]:
    record = ProfileRecord()
    try:
        doc = json.loads(text)
        name = doc["stages"]["name"]
        if name != ROOT_STAGE:
            raise IncompleteRecordError(f"report root is {name!r}, expected {ROOT_STAGE!r}")
        _fill(record.stages, doc["stages"], name)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise IncompleteRecordError(f"unparseable profile report: {exc}") from None
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise IncompleteRecordError(f"report meta is {type(meta).__name__}, not an object")
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

    @property
    def modeled_assembly_ns(self) -> tuple[int, int]:
        a = next((r for r in self.rows if r.name == "Assemble"), StageRow("", 0, 0, 0, 0))
        return MODELED_ASSEMBLE_NS * a.baseline_iters, MODELED_ASSEMBLE_NS * a.pce_iters

    @property
    def modeled_classical_speedup(self) -> float | None:
        (mb, mp), cp = self.modeled_assembly_ns, self.pce_classical_ns
        return None if cp + mp <= 0 else (self.baseline_classical_ns + mb) / (cp + mp)

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
        mb, mp = self.modeled_assembly_ns
        lines.append(f"modeled assembly           baseline {mb} ns, pce {mp} ns")
        if (speedup := self.modeled_classical_speedup) is not None:
            lines.append(f"modeled classical speedup  {speedup:.2f}x")
        return "\n".join(lines) + "\n"


def compare(baseline: ProfileRecord, pce: ProfileRecord) -> SpeedupTable:
    """Per-stage ratios plus the classical-time summary (classical = Total - Start Run)."""
    for label, rec in (("baseline", baseline), ("pce", pce)):
        if rec.iterations(ROOT_STAGE) == 0 or rec.duration_ns(ROOT_STAGE) == 0:
            raise IncompleteRecordError(
                f"{label} record has no completed, timed {ROOT_STAGE!r} stage"
            )
    rows = tuple(
        StageRow(
            n, baseline.duration_ns(n), pce.duration_ns(n), baseline.iterations(n), pce.iterations(n)
        )
        for n in STAGE_ORDER
        if n in baseline.stages or n in pce.stages
    )
    tb, tp = baseline.duration_ns(ROOT_STAGE), pce.duration_ns(ROOT_STAGE)
    sb, sp = baseline.duration_ns("Start Run"), pce.duration_ns("Start Run")
    return SpeedupTable(rows, tb, tp, tb - sb, tp - sp)


def check_same_batch(meta_a: dict, meta_b: dict) -> None:
    ha, hb = meta_a.get("batch_hash"), meta_b.get("batch_hash")
    if ha != hb:
        raise ComparisonError(f"reports describe different batches ({ha!r} vs {hb!r})")
