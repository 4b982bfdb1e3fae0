"""The executor pulls parameter words by the stitch unit's law: request k of a
bank holding pc words takes word k % pc, and the pc * shots + 1-th underflows.

``_reference_run_program`` is the interpreted per-shot loop the two-pass
executor replaced; it stays here as the oracle the executor must match
column for column, fault for fault."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pce import kernels
from pce.asm import MachineProgram, Opcode
from pce.control import BANK_CAPACITY, N_BANKS, ParameterMemory, PulseTrace
from pce.errors import UnderflowError
from pce.kernels import (
    CYCLES_PER_OP,
    CZ_NS,
    EVENT_KIND_NAMES,
    MEASURE_NS,
    OP_DELAY,
    OP_INC_PHASE,
    OP_MEASURE,
    OP_PULSE_X90,
    OP_REQ_PARAM,
    OP_TWO_QUBIT,
    X90_NS,
)
from tests.test_asm import word


def count_emitting_ops(words: np.ndarray) -> int:
    """Number of ops per shot that emit a trace event."""
    op = (np.asarray(words, dtype=np.uint64) >> np.uint64(56)).astype(np.int64)
    return int(np.isin(op, tuple(EVENT_KIND_NAMES)).sum())


def _reference_run_program(
    words,  # uint64[n_ops]
    n_qubits,  # int
    shots,  # int
    banks,  # uint32[n_banks, 2048]
    counts,  # int64[n_banks], words each bank serves per shot
    reset_ns,  # int, passive-reset gap between shots
):
    """Returns (times, channels, channels2, kinds, phases, cycles, final_clock, served),
    each column over all shots."""
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


def expanded(ret, skeleton, n_qubits, shots):
    """The event columns of all shots, from a ``run_program`` return."""
    trace = PulseTrace(skeleton.events, ret[6], ret[4], n_qubits, shots)
    return trace.times, trace.channels, trace.channels2, trace.kinds, trace.phases


def run_path(machine, banks, param_counts, shots):
    skeleton = kernels.shot_skeleton(machine.words, machine.n_qubits)
    counts = np.asarray(param_counts, np.int64)
    ret = kernels.run_program(skeleton, shots, banks, counts, 500)
    columns = expanded(ret, skeleton, machine.n_qubits, shots)
    out = dict(zip(("ev_time", "ev_ch", "ev_ch2", "ev_kind", "ev_phase"), columns), served=ret[7])
    return ret, out


def requests_program(n_req, shots):
    words = [word(Opcode.REQ_PARAM)] * n_req + [word(Opcode.PULSE_X90), word(Opcode.END)]
    return MachineProgram(words, 1, shots)


class TestServingLawMatchesStitchUnit:
    def test_kernel_request_stream_equals_unit(self):
        # each shot's frame word is the sum of the words its requests took
        rng = np.random.default_rng(77)
        for _ in range(20):
            pc = int(rng.integers(1, 9))
            n_req = int(rng.integers(1, pc + 1))
            shots = int(rng.integers(1, 4))
            words = rng.integers(0, 1 << 32, size=pc).astype(np.uint32)
            mem = ParameterMemory()
            mem.write_params(0, words)
            _, out = run_path(requests_program(n_req, shots), mem.banks, mem.counts, shots)
            law = [int(words[k % pc]) for k in range(n_req * shots)]
            expected_phases = [
                sum(law[s * n_req : (s + 1) * n_req]) & 0xFFFFFFFF for s in range(shots)
            ]
            assert [int(p) for p in out["ev_phase"]] == expected_phases
            assert int(out["served"][0]) == n_req * shots

    def test_request_after_budget_underflows(self):
        # pc + 1 requests a shot: request pc * shots is the first one refused
        rng = np.random.default_rng(78)
        for _ in range(20):
            pc = int(rng.integers(1, 9))
            shots = int(rng.integers(1, 4))
            mem = ParameterMemory()
            mem.write_params(0, rng.integers(0, 1 << 32, size=pc).astype(np.uint32))
            with pytest.raises(UnderflowError) as err:
                run_path(requests_program(pc + 1, shots), mem.banks, mem.counts, shots)
            shot, op = divmod(pc * shots, pc + 1)
            assert (err.value.core_id, err.value.shot, err.value.op_index) == (0, shot, op)


@st.composite
def programs_and_banks(draw, fits=("equal", "below", "above", "zero")):
    """A valid program on 1-8 qubits and banks whose word counts are equal to,
    below or above the program's requests per shot on that bank, or zero
    (each bank draws one of ``fits``)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_qubits = int(rng.integers(1, N_BANKS + 1))
    words = []
    for _ in range(int(rng.integers(0, 25))):
        op = int(rng.choice([OP_PULSE_X90, OP_INC_PHASE, OP_REQ_PARAM, OP_REQ_PARAM,
                             OP_TWO_QUBIT, OP_MEASURE, OP_DELAY]))
        if op == OP_TWO_QUBIT and n_qubits == 1:
            continue
        ch, ch2 = (int(x) for x in rng.choice(n_qubits, size=2, replace=n_qubits == 1))
        imm = int(rng.integers(0, 1 << 32)) if op in (OP_INC_PHASE, OP_DELAY) else 0
        words.append(word(op, ch, ch2 if op == OP_TWO_QUBIT else 0, imm))
    program = MachineProgram(words + [word(Opcode.END)], n_qubits, 1)
    memory = ParameterMemory()
    for q in range(N_BANKS):
        r = sum(1 for w in words if w >> 56 == OP_REQ_PARAM and (w >> 48) & 0xFF == q)
        pc = {
            "equal": r,
            "below": r - int(rng.integers(1, 4)),
            "above": r + int(rng.integers(1, 4)),
            "zero": 0,
        }[draw(st.sampled_from(fits))]
        memory.write_params(q, rng.integers(0, 1 << 32, size=min(max(pc, 0), BANK_CAPACITY)))
    return program, memory


class TestRunProgramMatchesReference:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(programs_and_banks(), st.integers(1, 5))
    def test_columns_totals_and_first_fault(self, program_memory, shots):
        program, memory = program_memory
        args = (shots, memory.banks, memory.counts, 500)
        try:
            want = _reference_run_program(program.words, program.n_qubits, *args)
        except UnderflowError as err:
            with pytest.raises(UnderflowError) as got:
                kernels.run_program(kernels.shot_skeleton(program.words, program.n_qubits), *args)
            got = got.value
            assert (got.core_id, got.shot, got.op_index) == (err.core_id, err.shot, err.op_index)
            return
        skeleton = kernels.shot_skeleton(program.words, program.n_qubits)
        got = kernels.run_program(skeleton, *args)
        ev = skeleton.events
        assert all(g is c for g, c in zip(got[:4], (ev.times, ev.channels, ev.channels2, ev.kinds)))
        assert len(got[4]) in (1, shots)  # one phase row, or one per shot
        for g, w in zip(expanded(got, skeleton, program.n_qubits, shots), want[:5]):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)
        assert got[5] == want[5]  # cycles
        assert shots * got[6] == want[6]  # the final clock is shots periods
        assert got[7].dtype == want[7].dtype and np.array_equal(got[7], want[7])

    def test_a_skeleton_is_shot_zero_and_reads_no_bank(self):
        program = MachineProgram(
            [word(Opcode.REQ_PARAM, 1), word(Opcode.PULSE_X90, 1),
             word(Opcode.TWO_QUBIT, 0, 1), word(Opcode.DELAY, 0, 0, 7),
             word(Opcode.MEASURE, 1), word(Opcode.END)], 2, 1)
        sk = kernels.shot_skeleton(program.words, 2)
        assert sk.events.times.tolist() == [0, 16, 116, 116]
        assert sk.events.kinds.tolist() == [OP_PULSE_X90, OP_TWO_QUBIT, OP_DELAY, OP_MEASURE]
        assert sk.events.channels2.tolist() == [-1, 1, -1, -1]
        assert sk.event_ops.tolist() == [1, 2, 3, 4]
        assert sk.shot_end == 616
        assert [r.tolist() for r in sk.requests] == [[], [0]]
