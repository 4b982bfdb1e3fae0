"""Machine-program executor in two passes: a timing pass, ``shot_skeleton``,
and a phase pass, ``run_program``.

Only the phase column of a trace depends on the parameter banks.  Event
times, channels, partner channels and kinds follow from the words alone, and
every shot plays them the same way: the accumulators reset each shot and all
channels meet at the shot's end plus the reset gap.  So the timing pass
decodes the words once (``asm.word_fields``) and records shot 0
(``ShotSkeleton``); its only walk in program order is the channel clocks, in
plain Python ints.  Shot ``s`` is shot 0 shifted by ``s * period``, with
``period = shot_end + reset_ns``.  The phase pass works on whole arrays: one
increment per op (an INC_PHASE immediate or a served bank word), a
cumulative sum per channel masked to 32 bits, read at the X90 events.  It
returns one phase row when every shot takes the same words and one row per
shot otherwise.  Neither pass expands the shots: a run is shot 0's events
(``ShotSkeleton.events``), the period and the phase rows, the compact trace
``control.PulseTrace`` holds.  A loaded program keeps its skeleton, so a run
of the next circuit of its group pays only the phase pass, and all the
group's traces share its ``ShotEvents`` (read-only arrays).  The phase-pass
inputs stay with the skeleton, not the traces.

Stitch serving law (the one implementation).  A bank holding ``pc`` words
serves its ``k``-th request (``k`` from 0) from offset ``k % pc`` and
underflows after ``pc * shots`` requests (at once when ``pc == 0``): one pass
over its words per shot.  With ``r`` requests a shot, request ``j`` of shot
``s`` is ``k = s * r + j``.  The request count is static in the words, so
underflow is decided before any phase is computed: the bank underflows iff
``r > pc``, first at request ``k = pc * shots``.

All arithmetic is integer: times are int64 nanoseconds, phase frames uint64
masked to 32 bits.  No floating point enters the kernel, which is what makes
stitched and baseline executions comparable bit-for-bit.  The fixed pulse
durations (``X90_NS``, ``CZ_NS``, ``MEASURE_NS``) are stated here.

The words come from a ``MachineProgram``, which obeys the word rules by
construction (known opcodes, channels in range, END last), so neither pass
checks a word.  A run refuses a shot count and reset gap whose event times
would not fit int64 (``shots * period`` past 2**63 - 1) as ``ConfigError``;
the only fault of a run that starts is the first request past a bank's
budget, raised as ``UnderflowError(bank, shot, op)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asm import Opcode, word_fields
from .errors import ConfigError, UnderflowError

# opcode byte values as plain ints, not IntEnum members: callers compare
# event kinds with them per event, and IntEnum comparison is slower
OP_PULSE_X90 = int(Opcode.PULSE_X90)
OP_INC_PHASE = int(Opcode.INC_PHASE)
OP_REQ_PARAM = int(Opcode.REQ_PARAM)
OP_TWO_QUBIT = int(Opcode.TWO_QUBIT)
OP_MEASURE = int(Opcode.MEASURE)
OP_DELAY = int(Opcode.DELAY)

# the ops that emit a trace event: event kind (the opcode) -> name in a dump
EVENT_KIND_NAMES = {
    OP_PULSE_X90: "X90", OP_TWO_QUBIT: "CZ", OP_MEASURE: "MEASURE", OP_DELAY: "DELAY"
}

X90_NS, CZ_NS, MEASURE_NS = 16, 100, 500  # fixed pulse durations

CYCLES_PER_OP = 2  # every issued instruction costs 2 cycles at 500 MHz (4 ns)

MASK32 = np.uint64(0xFFFFFFFF)

INT64_MAX = (1 << 63) - 1  # event times are int64 nanoseconds

# per opcode byte: does it emit an event, and the duration of a fixed pulse
_EMITS = np.zeros(256, bool)
_EMITS[list(EVENT_KIND_NAMES)] = True
_DURATIONS = np.zeros(256, np.int64)
_DURATIONS[[OP_PULSE_X90, OP_TWO_QUBIT, OP_MEASURE]] = [X90_NS, CZ_NS, MEASURE_NS]


def read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, marked read-only: traces share their arrays."""
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ShotEvents:
    """Shot 0's events apart from their phases: what a trace keeps of its
    program.  Every trace run from one loaded program shares one, so its
    arrays are read-only."""

    times: np.ndarray  # int64[events]
    channels: np.ndarray  # int16[events]
    channels2: np.ndarray  # int16[events], -1 when absent
    kinds: np.ndarray  # uint8[events], the emitting opcode


@dataclass(frozen=True, eq=False)
class ShotSkeleton:
    """The timing pass of a program: shot 0's events and what the phase pass
    reads of the words.  Its arrays are read-only."""

    events: ShotEvents
    event_ops: np.ndarray  # int64[events], the op that emitted each event
    shot_end: int  # latest channel clock at the end of shot 0
    op_channels: np.ndarray  # int64[ops], one entry per word
    op_incs: np.ndarray  # uint64[ops], INC_PHASE immediate, else 0
    requests: tuple[np.ndarray, ...]  # per bank, its REQ_PARAM op indices (int64)


def shot_skeleton(words, n_qubits: int) -> ShotSkeleton:
    """The timing pass: shot 0's events and the per-op phase inputs, from the
    words alone.  Only the channel clocks need a walk in program order (a CZ
    waits for both its channels); it runs over the emitting ops as plain
    Python ints."""
    ops, chans, chans2, imms = word_fields(words)
    event_ops = np.flatnonzero(_EMITS[ops])
    ev_ops, ev_chans = ops[event_ops], chans[event_ops]
    ev_chans2 = np.where(ev_ops == OP_TWO_QUBIT, chans2[event_ops], -1)
    durations = np.where(ev_ops == OP_DELAY, imms[event_ops], _DURATIONS[ev_ops])
    clocks = [0] * n_qubits
    times = []
    for ch, ch2, dur in zip(ev_chans.tolist(), ev_chans2.tolist(), durations.tolist()):
        if ch2 < 0:
            t = clocks[ch]
            clocks[ch] = t + dur
        else:  # CZ: both channels start together and end together
            t = max(clocks[ch], clocks[ch2])
            clocks[ch] = clocks[ch2] = t + dur
        times.append(t)
    return ShotSkeleton(
        events=ShotEvents(
            times=read_only(np.array(times, np.int64)),
            channels=read_only(ev_chans.astype(np.int16)),
            channels2=read_only(ev_chans2.astype(np.int16)),
            kinds=read_only(ev_ops.astype(np.uint8)),
        ),
        event_ops=read_only(event_ops),
        shot_end=max(clocks, default=0),
        op_channels=read_only(chans),
        op_incs=read_only(np.where(ops == OP_INC_PHASE, imms, 0).astype(np.uint64)),
        requests=tuple(
            read_only(np.flatnonzero((ops == OP_REQ_PARAM) & (chans == q)))
            for q in range(n_qubits)
        ),
    )


def _check_budgets(skeleton: ShotSkeleton, shots: int, counts) -> None:
    """Raise the first underflow in execution order, by (shot, op), if any."""
    first = None
    for q, ops in enumerate(skeleton.requests):
        r, pc = len(ops), int(counts[q])
        if r > pc:
            k = pc * shots  # the first request past the budget
            fault = (k // r, int(ops[k % r]), q)
            first = fault if first is None else min(first, fault)
    if first is not None:
        shot, op, bank = first
        raise UnderflowError(bank, shot, op)


def _phase_rows(skeleton: ShotSkeleton, shots: int, banks, counts) -> np.ndarray:
    """Each shot's phase column (uint32), one row per shot, or a single row
    when every shot takes the same words."""
    reqs = [(q, ops) for q, ops in enumerate(skeleton.requests) if len(ops)]
    # a bank that serves all its words each shot serves every shot alike
    uniform = all(len(ops) == counts[q] for q, ops in reqs)
    shot_ids = np.zeros(1, np.int64) if uniform else np.arange(shots, dtype=np.int64)
    inc = np.tile(skeleton.op_incs, (len(shot_ids), 1))
    for q, ops in reqs:
        r = len(ops)
        offsets = (shot_ids[:, None] * r + np.arange(r)) % counts[q]
        inc[:, ops] = banks[q, offsets]
    # a running sum per channel: sort the ops by channel (stable), sum along
    # the row, and subtract the sum before each channel's first op
    n_ops = len(skeleton.op_channels)
    order = np.argsort(skeleton.op_channels, kind="stable")
    sums = np.zeros((len(shot_ids), n_ops + 1), np.uint64)
    np.cumsum(inc[:, order], axis=1, out=sums[:, 1:])
    pos = np.empty(n_ops, np.int64)
    pos[order] = np.arange(n_ops)
    sorted_ch = skeleton.op_channels[order]
    first = np.searchsorted(sorted_ch, sorted_ch, side="left")  # channel's first position
    x90 = np.flatnonzero(skeleton.events.kinds == OP_PULSE_X90)
    at = pos[skeleton.event_ops[x90]]
    rows = np.zeros((len(shot_ids), len(skeleton.events.kinds)), np.uint32)
    rows[:, x90] = (sums[:, at + 1] - sums[:, first[at]]) & MASK32
    return rows


def run_program(
    skeleton,  # ShotSkeleton of the program
    shots,  # int
    banks,  # uint32[N_BANKS, BANK_CAPACITY]
    counts,  # int64[n_banks], words each bank serves per shot
    reset_ns,  # int, passive-reset gap between shots
):
    """Returns (times, channels, channels2, kinds, rows, cycles, period, served).

    The first four are shot 0's columns (the arrays of ``skeleton.events``) and
    ``rows`` the read-only uint32 phase rows, one or one per shot: shot ``s``
    plays them at ``times + s * period``.  ``cycles`` counts the issue cycles
    of all shots, and the last shot ends its reset gap at ``shots * period``."""
    period = skeleton.shot_end + int(reset_ns)
    if shots * period > INT64_MAX:
        raise ConfigError(
            f"{shots} shots of {period} ns (shot end plus reset gap) pass the int64 "
            f"event-time limit of {INT64_MAX} ns"
        )
    _check_budgets(skeleton, shots, counts)
    rows = read_only(_phase_rows(skeleton, shots, banks, counts))
    served = np.zeros(banks.shape[0], np.int64)
    served[: len(skeleton.requests)] = [len(ops) * shots for ops in skeleton.requests]
    ev = skeleton.events
    return (
        ev.times,
        ev.channels,
        ev.channels2,
        ev.kinds,
        rows,
        CYCLES_PER_OP * len(skeleton.op_channels) * shots,
        period,
        served,
    )
