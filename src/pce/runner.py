"""Host-side experiment orchestration for both execution modes.

``baseline`` compiles, assembles, and loads every circuit in the batch;
``pce`` runs the dedup pass first, compiles only the unique representatives,
ships the peeled phases as one binary blob, and lets the deft scheduler
re-stitch them at run time.  Both paths drive the control session through the
same RPC framing and fill one profile record whose iteration counts carry the
amortization story.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .asm import MAX_SHOTS, MachineProgram, assemble, compile_circuit
from .circuits import require_int
from .control import (
    CYCLE_NS,
    REQUEST_LATENCY_CYCLES,
    ControlSession,
    PulseTrace,
    ShotData,
    TimingConfig,
    deft_run,
)
from .errors import ConfigError, SchedulingError
from .fileio import batch_hash, read_batch
from .generators import CircuitBatch
from .profiling import ProfileRecord
from .rip import EquivalenceReport, binarize, rip
from .rpc import ControlServer, DeftClient, LoopbackChannel

# small fixed definition tables loaded once per experiment
_DEFAULT_ENVELOPE = np.exp(1j * np.linspace(0.0, 1.0, 64))
_DEFAULT_FREQ = np.linspace(4.0e9, 6.0e9, 8)

MODES = ("baseline", "pce")


@dataclass(frozen=True)
class ExperimentOutcome:
    mode: str
    batch: CircuitBatch
    data: dict[int, ShotData]
    counts: dict[int, dict[str, int]]
    traces: dict[int, PulseTrace]
    record: ProfileRecord
    batch_hash: str
    report: EquivalenceReport | None
    stitch_requests: int
    sim_time_ns: int


def check_run_args(seed: int, shots: int | None) -> None:
    """Refuse a seed or shot count that no run can use, before any work starts."""
    if require_int(seed, "seed", ConfigError) < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    if shots is not None and not 1 <= require_int(shots, "shot count", ConfigError) <= MAX_SHOTS:
        raise ConfigError(f"shot count {shots} does not fit 1..{MAX_SHOTS}")


def run_experiment(
    batch: CircuitBatch | str | Path,
    mode: str,
    seed: int = 0,
    shots: int | None = None,
    timing: TimingConfig = TimingConfig(),
    channel_factory: Callable[[ControlSession], object] | None = None,
    blob_override: bytes | None = None,
) -> ExperimentOutcome:
    """Run one experiment end to end and return its data, traces, and profile.

    ``batch`` is a ``CircuitBatch``, or a batch directory or manifest path
    that "Transpile" reads; "Get circuit", like "Active", records zero.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    check_run_args(seed, shots)
    record = ProfileRecord()
    session = ControlSession(seed=seed, timing=timing, record=record)
    if channel_factory is None:
        channel = LoopbackChannel(ControlServer(session))
    else:
        channel = channel_factory(session)
    client = DeftClient(channel)
    record.push("Total")
    try:
        with record.scope("Pre-compile"):
            record.mark_zero("Get circuit")
            with record.scope("Transpile"):
                if not isinstance(batch, CircuitBatch):
                    batch = read_batch(batch)
        digest = batch.file_hash if batch.file_hash is not None else batch_hash(batch)
        report = None
        if mode == "pce":
            report, data, counts = _run_pce(batch, client, record, shots, blob_override)
        else:
            data, counts = _run_baseline(batch, client, record, shots)
        record.add_computed("Client/Server", channel.transfer_ns, channel.frames)
        served = sum(int(r.served.sum()) for r in session.results.values())
        if served:
            record.add_computed("Stitch", served * REQUEST_LATENCY_CYCLES * CYCLE_NS, served)
    finally:
        record.pop("Total")
        channel.close()
    results = session.results
    return ExperimentOutcome(
        mode, batch, data, counts, {i: r.trace for i, r in results.items()}, record, digest,
        report, served, sum(r.sim_time_ns for r in results.values()),
    )


def _sort_data(record, data) -> dict[int, dict[str, int]]:
    counts = {}
    for idx in sorted(data):
        with record.scope("Data Sort"):
            counts[idx] = data[idx].counts()
    return counts


def _build(record, indexed_circuits) -> dict[int, MachineProgram]:
    """Compile and assemble each (index, circuit) pair: the program of each index."""
    programs: dict[int, MachineProgram] = {}
    for i, circuit in indexed_circuits:
        with record.scope("Compile"):
            asm_program = compile_circuit(circuit)
        with record.scope("Assemble"):
            programs[i] = assemble(asm_program)
    return programs


def _run_baseline(batch, client, record, shots):
    record.mark_zero("Active")
    with record.scope("Build Run"):
        programs = _build(record, enumerate(batch.circuits))
        with record.scope("RunAll on Host"):
            with record.scope("Run on Host"):
                client.load_defs(_DEFAULT_ENVELOPE, _DEFAULT_FREQ)
                data: dict[int, ShotData] = {}
                for i, program in programs.items():
                    client.load_circuit(i, program)
                    client.run(shots if shots is not None else program.shots)
                    data[i] = client.get_data()
            return data, _sort_data(record, data)


def _run_pce(batch, client, record, shots, blob_override):
    with record.scope("RIP"):
        result = rip(batch)
        blob = binarize(result.report, result.table)
    record.mark_zero("Active")
    with record.scope("Build Run"):
        uniques = _build(record, zip(result.report.unique_indices, result.uniques))
        with record.scope("RunAll on Host"):
            with record.scope("Run on Host"):
                client.load_defs(_DEFAULT_ENVELOPE, _DEFAULT_FREQ)
                data = deft_run(
                    uniques, blob_override if blob_override is not None else blob, client, shots
                )
            if len(data) != len(batch):  # the blob's order is a permutation of its circuits
                raise SchedulingError(
                    f"parameter blob schedules {len(data)} circuits, batch has {len(batch)}"
                )
            return result.report, data, _sort_data(record, data)
