"""Oracle suites: everything cross-checked by an independent route.

Each suite returns CheckResult rows; the first failure carries a concrete
counterexample (circuit index, qubit/channel, event) so a corrupted phase
word or a broken grouping is nameable, not just boolean.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .asm import assemble, compile_circuit, disassemble, machine_from_bytes, machine_to_bytes
from .circuits import _MEASURE_CODE, _PREQ, Circuit, circuit_unitary, global_phase_distance, vz
from .control import PulseTrace, TimingConfig
from .errors import PceError
from .generators import CircuitBatch
from .kernels import EVENT_KIND_NAMES
from .rip import (
    RipResult,
    binarize,
    debinarize,
    dequantize_word,
    identify_bruteforce,
    modify,
    peel,
    rip,
)
from .rpc import (
    Ack,
    GetData,
    LoadCircuit,
    LoadDefs,
    LoadParams,
    Run,
    rpc_decode,
    rpc_encode,
)
from .runner import check_run_args, run_experiment

UNITARY_ORACLE_MAX_QUBITS = 4


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        return f"CHECK {self.name}: {'PASS' if self.ok else 'FAIL'}" + (
            f" ({self.detail})" if self.detail else ""
        )


def first_trace_mismatch(a: PulseTrace, b: PulseTrace) -> str | None:
    """The first event where two traces differ, named as the dumps name it."""
    if a == b:
        return None
    if len(a) != len(b):
        return f"event counts differ ({len(a)} vs {len(b)})"
    channels = a.channels  # the columns are expansions of the compact form: read each once
    fields = (
        ("kind", a.kinds, b.kinds, lambda v: EVENT_KIND_NAMES.get(v, str(v))),
        ("time", a.times, b.times, str),
        ("channel", channels, b.channels, str),
        ("partner", a.channels2, b.channels2, str),
        ("phase word", a.phases, b.phases, lambda v: f"0x{v:08x}"),
    )
    differs = np.logical_or.reduce([fa != fb for _, fa, fb, _ in fields])
    if not differs.any():
        return "traces differ in metadata"
    i = int(np.argmax(differs))
    fname, fa, fb, show = next(f for f in fields if f[1][i] != f[2][i])
    return (
        f"event {i} on qubit {int(channels[i])}: "
        f"{fname} {show(int(fa[i]))} vs {show(int(fb[i]))}"
    )


def check_dedup_oracle(batch: CircuitBatch, result: RipResult) -> CheckResult:
    fast = result.report
    slow = identify_bruteforce(batch.circuits)
    if fast == slow:
        return CheckResult("dedup-oracle", True, f"{len(fast.groups)} groups")
    return CheckResult(
        "dedup-oracle",
        False,
        f"hashed and pairwise grouping disagree: {fast.groups[:3]}... vs {slow.groups[:3]}...",
    )


def check_blob_round_trip(result: RipResult) -> CheckResult:
    blob = binarize(result.report, result.table)
    try:
        report2, table2 = debinarize(blob)
    except PceError as exc:
        return CheckResult("blob-round-trip", False, str(exc))
    if report2 != result.report or table2 != result.table:
        return CheckResult("blob-round-trip", False, "decode does not reproduce the tables")
    if binarize(report2, table2) != blob:
        return CheckResult("blob-round-trip", False, "re-encode is not byte-stable")
    return CheckResult("blob-round-trip", True, f"{len(blob)} bytes")


def check_machine_round_trip(result: RipResult) -> CheckResult:
    for gi, circuit in enumerate(result.uniques):
        program = compile_circuit(circuit)
        machine = assemble(program)
        if disassemble(machine) != program:
            return CheckResult("machine-round-trip", False, f"unique {gi}: op stream mismatch")
        if machine_from_bytes(machine_to_bytes(machine)) != machine:
            return CheckResult("machine-round-trip", False, f"unique {gi}: file image mismatch")
    return CheckResult("machine-round-trip", True, f"{len(result.uniques)} programs")


def check_rpc_round_trip(result: RipResult) -> CheckResult:
    samples: list[object] = [GetData(), Ack(), Run(17)]
    samples.append(LoadDefs(np.exp(1j * np.linspace(0, 2, 16)), np.linspace(4e9, 5e9, 4)))
    for idx, unique in list(zip(result.report.unique_indices, result.uniques))[:4]:
        samples.append(LoadCircuit(idx, assemble(compile_circuit(unique))))
        samples.append(LoadParams(idx, result.table.words_for(idx)))
    for msg in samples:
        if rpc_decode(rpc_encode(msg)) != msg:
            return CheckResult("rpc-round-trip", False, f"{type(msg).__name__} mismatch")
    return CheckResult("rpc-round-trip", True, f"{len(samples)} frames")


def _strip_measures(c: Circuit) -> Circuit:
    return Circuit(c.ids[c.table.kind[c.ids] != _MEASURE_CODE], c.n_qubits, c.shots, table=c.table)


def check_unitaries(batch: CircuitBatch, result: RipResult) -> CheckResult:
    """Role-specific logic checks on the oracle-sized circuits of the roles
    that have one: an ``rb`` sequence inverts, and an ``rc`` circuit equals
    its group's representative.  Only the circuits compared are counted."""
    rep_of = {i: g[0] for g in result.report.groups for i in g}
    rep_unitaries: dict[int, np.ndarray] = {}
    checked = 0
    for i, (circuit, label) in enumerate(zip(batch.circuits, batch.labels)):
        if circuit.n_qubits > UNITARY_ORACLE_MAX_QUBITS or label.role not in ("rb", "rc"):
            continue
        U = circuit_unitary(_strip_measures(circuit))
        checked += 1
        if label.role == "rb":
            if global_phase_distance(U, np.eye(U.shape[0])) > 1e-9:
                return CheckResult("unitary", False, f"circuit {i}: sequence does not invert")
            continue
        rep = rep_of[i]
        if rep not in rep_unitaries:
            rep_unitaries[rep] = (
                U if rep == i else circuit_unitary(_strip_measures(batch.circuits[rep]))
            )
        if global_phase_distance(U, rep_unitaries[rep]) > 1e-9:
            return CheckResult(
                "unitary", False, f"circuit {i}: not equivalent to representative {rep}"
            )
    return CheckResult("unitary", True, f"{checked} circuits checked")


def check_peel_reinsertion(batch: CircuitBatch, limit: int = 50) -> CheckResult:
    """Re-inserting dequantized words at request positions reproduces each unitary."""
    checked = 0
    small = ((i, c) for i, c in enumerate(batch.circuits) if c.n_qubits <= UNITARY_ORACLE_MAX_QUBITS)
    for i, circuit in islice(small, limit):
        words = peel(circuit)
        cursors = [0] * circuit.n_qubits
        rebuilt = []
        for g in modify(circuit).gates:
            if g.kind is _PREQ:
                q = g.qubits[0]
                rebuilt.append(vz(q, dequantize_word(int(words[q][cursors[q]]))))
                cursors[q] += 1
            else:
                rebuilt.append(g)
        a = circuit_unitary(_strip_measures(circuit))
        b = circuit_unitary(_strip_measures(Circuit(tuple(rebuilt), circuit.n_qubits, circuit.shots)))
        if global_phase_distance(a, b) > 1e-6:
            return CheckResult("peel-reinsertion", False, f"circuit {i}: unitary drifted")
        checked += 1
    return CheckResult("peel-reinsertion", True, f"{checked} circuits checked")


def check_trace_equivalence(
    batch: CircuitBatch,
    seed: int = 0,
    shots: int | None = None,
    timing: TimingConfig = TimingConfig(),
    blob_override: bytes | None = None,
) -> CheckResult:
    """The central check: stitched execution must replay the baseline bit-for-bit."""
    base = run_experiment(batch, "baseline", seed=seed, shots=shots, timing=timing)
    stitched = run_experiment(
        batch,
        "pce",
        seed=seed,
        shots=shots,
        timing=timing,
        blob_override=blob_override,
    )
    for i in range(len(batch)):
        mismatch = first_trace_mismatch(base.traces[i], stitched.traces[i])
        if mismatch is not None:
            return CheckResult("trace-equivalence", False, f"circuit {i}: {mismatch}")
        if base.data[i] != stitched.data[i]:
            return CheckResult("trace-equivalence", False, f"circuit {i}: shot data differs")
    if base.sim_time_ns != stitched.sim_time_ns:
        return CheckResult(
            "trace-equivalence",
            False,
            f"simulated run time differs ({base.sim_time_ns} vs {stitched.sim_time_ns})",
        )
    return CheckResult("trace-equivalence", True, f"{len(batch)} circuits, bit-exact")


def verify_batch(
    batch: CircuitBatch,
    seed: int = 0,
    shots: int | None = None,
    timing: TimingConfig = TimingConfig(),
    blob_override: bytes | None = None,
) -> list[CheckResult]:
    """Every suite's result; a seed or shot count no run can use is a
    ``ConfigError`` before any suite runs, not a failed check."""
    check_run_args(seed, shots)
    result = rip(batch)
    checks = [
        check_dedup_oracle(batch, result),
        check_blob_round_trip(result),
        check_machine_round_trip(result),
        check_rpc_round_trip(result),
        check_unitaries(batch, result),
        check_peel_reinsertion(batch),
    ]
    try:
        checks.append(
            check_trace_equivalence(batch, seed=seed, shots=shots, timing=timing,
                                    blob_override=blob_override)
        )
    except PceError as exc:
        checks.append(CheckResult("trace-equivalence", False, str(exc)))
    return checks
