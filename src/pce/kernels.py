"""Machine-program executor: one interpreted loop, ``run_program``.

Every op of every shot updates integer phase accumulators, per-channel
clocks, and per-bank request counts.  The loop allocates and returns its
own event columns; an event's kind is the opcode that emitted it.

Stitch serving law (the one implementation).  A bank holding ``pc`` words
serves its ``k``-th request (``k`` from 0) from offset ``k % pc`` and
underflows after ``pc * shots`` requests (at once when ``pc == 0``): one pass
over its words per shot.

All arithmetic is integer: times are int64 nanoseconds, phase frames uint64
masked to 32 bits.  No floating point enters the kernel, which is what makes
stitched and baseline executions comparable bit-for-bit.  The fixed pulse
durations (``X90_NS``, ``CZ_NS``, ``MEASURE_NS``) are stated here.

The words come from a ``MachineProgram``, which obeys the word rules by
construction (known opcodes, channels in range, END last), so the loop checks
no word: its only fault is the first request past a bank's budget, raised as
``UnderflowError(bank, shot, op)``.
"""

from __future__ import annotations

import numpy as np

from .asm import Opcode
from .errors import UnderflowError

# opcode byte values as plain ints, not IntEnum members: the loop compares
# each decoded op with them, and IntEnum comparison is slower
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


def run_program(
    words,  # uint64[n_ops]
    n_qubits,  # int
    shots,  # int
    banks,  # uint32[n_banks, 2048]
    counts,  # int64[n_banks], words each bank serves per shot
    reset_ns,  # int, passive-reset gap between shots
):
    """Returns (times, channels, channels2, kinds, phases, cycles, final_clock, served)."""
    n_ops = words.shape[0]
    total = count_emitting_ops(words) * shots
    ev_time = np.zeros(total, np.int64)
    ev_ch = np.zeros(total, np.int16)
    ev_ch2 = np.zeros(total, np.int16)
    ev_kind = np.zeros(total, np.uint8)
    ev_phase = np.zeros(total, np.uint32)
    served = np.zeros(banks.shape[0], np.int64)
    x90_ns, cz_ns, meas_ns = X90_NS, CZ_NS, MEASURE_NS  # locals: read per op
    clocks = np.zeros(n_qubits, np.int64)
    acc = np.zeros(n_qubits, np.uint64)
    budget = counts * shots
    mask32 = np.uint64(0xFFFFFFFF)
    pos = 0
    cycles = 0
    for shot in range(shots):
        for q in range(n_qubits):
            acc[q] = np.uint64(0)
        for i in range(n_ops):
            w = words[i]
            op = np.int64(w >> np.uint64(56))
            ch = np.int64((w >> np.uint64(48)) & np.uint64(0xFF))
            ch2 = np.int64((w >> np.uint64(40)) & np.uint64(0xFF))
            imm = w & mask32
            cycles += CYCLES_PER_OP  # END, the last word, issues and does nothing else
            if op == OP_INC_PHASE:
                acc[ch] = (acc[ch] + imm) & mask32
            elif op == OP_PULSE_X90:
                ev_time[pos] = clocks[ch]
                ev_ch[pos] = ch
                ev_ch2[pos] = -1
                ev_kind[pos] = OP_PULSE_X90
                ev_phase[pos] = acc[ch]
                pos += 1
                clocks[ch] += x90_ns
            elif op == OP_REQ_PARAM:
                k = served[ch]
                if k >= budget[ch]:
                    raise UnderflowError(int(ch), shot, i)
                word = banks[ch, k % counts[ch]]
                acc[ch] = (acc[ch] + np.uint64(word)) & mask32
                served[ch] = k + 1
            elif op == OP_TWO_QUBIT:
                t = clocks[ch]
                if clocks[ch2] > t:
                    t = clocks[ch2]
                ev_time[pos] = t
                ev_ch[pos] = ch
                ev_ch2[pos] = ch2
                ev_kind[pos] = OP_TWO_QUBIT
                ev_phase[pos] = 0
                pos += 1
                clocks[ch] = t + cz_ns
                clocks[ch2] = t + cz_ns
            elif op == OP_MEASURE:
                ev_time[pos] = clocks[ch]
                ev_ch[pos] = ch
                ev_ch2[pos] = -1
                ev_kind[pos] = OP_MEASURE
                ev_phase[pos] = 0
                pos += 1
                clocks[ch] += meas_ns
            elif op == OP_DELAY:
                ev_time[pos] = clocks[ch]
                ev_ch[pos] = ch
                ev_ch2[pos] = -1
                ev_kind[pos] = OP_DELAY
                ev_phase[pos] = 0
                pos += 1
                clocks[ch] += np.int64(imm)
        shot_end = np.int64(0)
        for q in range(n_qubits):
            if clocks[q] > shot_end:
                shot_end = clocks[q]
        for q in range(n_qubits):
            clocks[q] = shot_end + reset_ns
    return (ev_time, ev_ch, ev_ch2, ev_kind, ev_phase, cycles, clocks[0], served)


def count_emitting_ops(words: np.ndarray) -> int:
    """Number of ops per shot that emit a trace event."""
    op = (np.asarray(words, dtype=np.uint64) >> np.uint64(56)).astype(np.int64)
    return int(np.isin(op, tuple(EVENT_KIND_NAMES)).sum())
