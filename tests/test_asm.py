"""Tests for circuit lowering, word packing, and the machine file image."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pce.asm import (
    AsmOp,
    AssemblyProgram,
    MachineProgram,
    Opcode,
    assemble,
    compile_circuit,
    disassemble,
    machine_from_bytes,
    machine_to_bytes,
)
from pce.circuits import Circuit, U3Params, cz, delay, measure, param_request, u3_decompose, vz, x90
from pce.control import ParameterMemory, execute
from pce.errors import DecodeError, EncodeError, UnsupportedGateError, ValidationError
from pce.rip import modify, quantize_phase


def random_program(rng, n_qubits=4, n_ops=30) -> AssemblyProgram:
    ops = []
    for _ in range(n_ops):
        k = rng.integers(0, 6)
        q = int(rng.integers(0, n_qubits))
        if k == 0:
            ops.append(AsmOp(Opcode.PULSE_X90, q))
        elif k == 1:
            ops.append(AsmOp(Opcode.INC_PHASE, q, imm=int(rng.integers(0, 1 << 32))))
        elif k == 2:
            ops.append(AsmOp(Opcode.REQ_PARAM, q))
        elif k == 3 and n_qubits > 1:
            ops.append(AsmOp(Opcode.TWO_QUBIT, q, channel2=(q + 1) % n_qubits))
        elif k == 4:
            ops.append(AsmOp(Opcode.MEASURE, q))
        else:
            ops.append(AsmOp(Opcode.DELAY, q, imm=int(rng.integers(0, 10_000))))
    ops.append(AsmOp(Opcode.END))
    return AssemblyProgram(tuple(ops), n_qubits, shots=10)


def word(op, ch=0, ch2=0, imm=0) -> int:
    return (int(op) << 56) | (ch << 48) | (ch2 << 40) | imm


def image_of(words, n_qubits) -> bytes:
    """A PCEM image of raw words, valid or not: header and words packed here."""
    header = b"PCEM" + struct.pack("<HHII8x", 1, n_qubits, 1, len(words))
    return header + np.array(words, dtype="<u8").tobytes()


def _reference_word_fault(words, n_qubits):
    """Test-only scalar oracle for the word rules: the per-op checks that
    ``disassemble``, ``AsmOp`` and ``AssemblyProgram`` once made, one word at
    a time.  Returns the first bad word and the first rule it breaks, or None."""
    words = [int(w) for w in words]
    if not words:
        return 0, "program has no END op"
    known = {int(o) for o in Opcode}
    for i, w in enumerate(words):
        code, ch, ch2 = w >> 56, (w >> 48) & 0xFF, (w >> 40) & 0xFF
        if code not in known:
            return i, "unknown opcode"
        if (w >> 32) & 0xFF:
            return i, "nonzero reserved byte"
        if code == Opcode.REQ_PARAM and w & 0xFFFFFFFF:
            return i, "REQ_PARAM carries an immediate"
        if (code == Opcode.END) != (i == len(words) - 1):
            return i, "program must contain exactly one END, as the last op"
        if code != Opcode.END and ch >= n_qubits:
            return i, f"channel outside 0..{n_qubits - 1}"
        if code == Opcode.TWO_QUBIT and (ch2 >= n_qubits or ch2 == ch):
            return i, "invalid channel pair"
    return None


@st.composite
def damaged_images(draw):
    """The PCEM image of a random 6-op program, truncated or with one bit flipped."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    program = random_program(rng, n_qubits=int(rng.integers(1, 5)), n_ops=6)
    image = bytearray(machine_to_bytes(assemble(program)))
    if draw(st.booleans()):
        return bytes(image[: draw(st.integers(0, len(image) - 1))])
    image[draw(st.integers(0, len(image) - 1))] ^= 1 << draw(st.integers(0, 7))
    return bytes(image)


class TestCompile:
    def test_u3_lowering_op_pattern(self):
        c = Circuit(tuple(u3_decompose(U3Params(0.3, 0.7, 1.9), 0)), n_qubits=1)
        ops = compile_circuit(c).ops
        assert [op.opcode for op in ops] == [
            Opcode.INC_PHASE,
            Opcode.PULSE_X90,
            Opcode.INC_PHASE,
            Opcode.PULSE_X90,
            Opcode.INC_PHASE,
            Opcode.END,
        ]

    def test_empty_circuit_is_just_end(self):
        p = compile_circuit(Circuit((), n_qubits=1))
        assert [op.opcode for op in p.ops] == [Opcode.END]

    def test_phase_immediates_are_quantized(self):
        c = Circuit((vz(0, 1.25),), n_qubits=1)
        p = compile_circuit(c)
        assert p.ops[0].imm == quantize_phase(1.25)

    def test_modified_circuit_differs_only_at_request_slots(self):
        gates = (vz(0, 0.3), x90(0), cz(0, 1), vz(1, 2.0), measure(0), measure(1))
        c = Circuit(gates, n_qubits=2)
        base_ops = compile_circuit(c).ops
        mod_ops = compile_circuit(modify(c)).ops
        assert len(base_ops) == len(mod_ops)
        for a, b in zip(base_ops, mod_ops):
            if a.opcode is Opcode.INC_PHASE:
                assert b.opcode is Opcode.REQ_PARAM
                assert b.channel == a.channel and b.imm == 0
            else:
                assert a == b

    def test_non_cz_two_qubit_rejected(self):
        from pce.circuits import Gate, GateKind

        c = Circuit((Gate(GateKind.TWO_QUBIT, (0, 1), two_qubit_name="ISWAP"),), n_qubits=2)
        with pytest.raises(UnsupportedGateError):
            compile_circuit(c)

    def test_param_request_and_delay(self):
        c = Circuit((param_request(0), delay(0, 120)), n_qubits=1)
        ops = compile_circuit(c).ops
        assert ops[0].opcode is Opcode.REQ_PARAM and ops[0].imm == 0
        assert ops[1].opcode is Opcode.DELAY and ops[1].imm == 120

    def test_deterministic(self):
        c = Circuit((vz(0, 0.5), x90(0)), n_qubits=1, shots=7)
        a, b = assemble(compile_circuit(c)), assemble(compile_circuit(c))
        assert a == b

    def test_equivalent_circuits_differ_only_in_phase_immediates(self):
        # the semantic basis of parameterized execution: same opcode/channel
        # stream for every member of a structural-equivalence group
        from pce.generators import BatchSpec, gen_rb

        batch = gen_rb(BatchSpec("RB", ((0, 1),), ((3,),), 4, shots=5, seed=2))
        programs = [compile_circuit(c).ops for c, l in zip(batch.circuits, batch.labels) if l.role == "rb"]
        ref = programs[0]
        for ops in programs[1:]:
            assert len(ops) == len(ref)
            for a, b in zip(ref, ops):
                assert a.opcode == b.opcode
                assert a.channel == b.channel and a.channel2 == b.channel2
                if a.opcode is not Opcode.INC_PHASE:
                    assert a.imm == b.imm


class TestAssemble:
    def test_known_word_layout(self):
        p = AssemblyProgram(
            (AsmOp(Opcode.INC_PHASE, 1, imm=0x80000000), AsmOp(Opcode.END)), 2, 1
        )
        m = assemble(p)
        assert int(m.words[0]) == 0x0201000080000000
        assert int(m.words[1]) == 0x0700000000000000

    def test_end_word_is_opcode_only(self):
        m = assemble(AssemblyProgram((AsmOp(Opcode.END),), 1, 1))
        assert int(m.words[0]) == Opcode.END << 56

    def test_word_count_matches_ops(self):
        rng = np.random.default_rng(1)
        p = random_program(rng)
        assert len(assemble(p)) == len(p.ops)

    def test_round_trip_random_programs(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = random_program(rng, n_ops=int(rng.integers(1, 60)))
            assert disassemble(assemble(p)) == p

    def test_thousand_op_round_trip(self):
        rng = np.random.default_rng(3)
        p = random_program(rng, n_ops=1000)
        assert disassemble(assemble(p)) == p

    def test_param_counts_metadata(self):
        # a program's per-bank request count is what the executor serves per shot;
        # the machine words carry it, no separate copy
        ops = (
            AsmOp(Opcode.REQ_PARAM, 0),
            AsmOp(Opcode.REQ_PARAM, 2),
            AsmOp(Opcode.REQ_PARAM, 0),
            AsmOp(Opcode.END),
        )
        m = assemble(AssemblyProgram(ops, 3, 1))
        memory = ParameterMemory()
        for bank, n in enumerate((2, 0, 1)):
            memory.write_params(bank, np.arange(n, dtype=np.uint32))
        assert execute(m, memory, shots=4).served[:3].tolist() == [8, 0, 4]

    def test_oversize_channel_rejected(self):
        p = AssemblyProgram((AsmOp(Opcode.PULSE_X90, 300), AsmOp(Opcode.END)), 512, 1)
        with pytest.raises(EncodeError):
            assemble(p)


class TestProgramValidation:
    """An assembly program is checked when it is assembled: the word rules
    belong to the machine program."""

    def test_missing_end(self):
        with pytest.raises(ValidationError, match="word 0: program must contain exactly one END"):
            assemble(AssemblyProgram((AsmOp(Opcode.PULSE_X90, 0),), 1, 1))

    def test_empty_program(self):
        with pytest.raises(ValidationError, match="word 0: program has no END op"):
            assemble(AssemblyProgram((), 1, 1))

    def test_req_param_with_imm(self):
        ops = (AsmOp(Opcode.REQ_PARAM, 0, imm=5), AsmOp(Opcode.END))
        with pytest.raises(ValidationError, match="word 0: REQ_PARAM carries an immediate"):
            assemble(AssemblyProgram(ops, 1, 1))

    def test_channel_out_of_range(self):
        ops = (AsmOp(Opcode.PULSE_X90, 3), AsmOp(Opcode.END))
        with pytest.raises(ValidationError, match=r"word 0: channel outside 0\.\.1"):
            assemble(AssemblyProgram(ops, 2, 1))


class TestDisassemble:
    """``disassemble`` reads a valid program; a bad word never gets that far."""

    def test_unknown_opcode_names_index(self):
        m = assemble(random_program(np.random.default_rng(4)))
        words = m.words.copy()
        words[5] = np.uint64(0xFF) << np.uint64(56)
        with pytest.raises(ValidationError, match="word 5: unknown opcode"):
            MachineProgram(words, m.n_qubits, m.shots)

    def test_empty_words_invalid(self):
        with pytest.raises(ValidationError):
            MachineProgram(np.zeros(0, dtype=np.uint64), 1, 1)


class TestMachineFile:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = assemble(random_program(rng, n_ops=int(rng.integers(1, 40))))
            assert machine_from_bytes(machine_to_bytes(m)) == m

    def test_header_length(self):
        m = assemble(AssemblyProgram((AsmOp(Opcode.END),), 1, 1))
        data = machine_to_bytes(m)
        assert data[:4] == b"PCEM"
        assert len(data) == 24 + 8 * len(m.words)

    def test_bad_magic(self):
        m = assemble(AssemblyProgram((AsmOp(Opcode.END),), 1, 1))
        data = bytearray(machine_to_bytes(m))
        data[0] = ord("X")
        with pytest.raises(DecodeError):
            machine_from_bytes(bytes(data))

    def test_truncated_body(self):
        m = assemble(random_program(np.random.default_rng(6)))
        data = machine_to_bytes(m)
        with pytest.raises(DecodeError):
            machine_from_bytes(data[:-3])

    @pytest.mark.parametrize(
        "words, n_qubits, offset",
        [
            ([word(Opcode.PULSE_X90), word(Opcode.END), word(Opcode.PULSE_X90)], 1, 32),
            ([word(Opcode.PULSE_X90), word(Opcode.PULSE_X90)], 1, 32),  # no END
            ([word(Opcode.PULSE_X90, 2), word(Opcode.END)], 2, 24),
            ([word(Opcode.TWO_QUBIT, 1, 1), word(Opcode.END)], 2, 24),
            ([word(Opcode.PULSE_X90), word(Opcode.REQ_PARAM, imm=5), word(Opcode.END)], 1, 32),
            ([word(Opcode.PULSE_X90), word(0xFF), word(Opcode.END)], 1, 32),
            ([word(Opcode.PULSE_X90) | 1 << 32, word(Opcode.END)], 1, 24),
            ([], 1, 12),  # the header's word count
        ],
    )
    def test_bad_word_reports_its_image_offset(self, words, n_qubits, offset):
        with pytest.raises(DecodeError) as err:
            machine_from_bytes(image_of(words, n_qubits))
        assert err.value.offset == offset

    def test_accepts_exactly_what_the_scalar_oracle_accepts(self):
        # construction and the decoder both name the oracle's word and rule
        rng = np.random.default_rng(12)
        rejected = 0
        for _ in range(600):
            m = assemble(random_program(rng, n_qubits=int(rng.integers(1, 5)), n_ops=6))
            words = m.words.copy()
            words[rng.integers(0, len(words))] ^= np.uint64(1) << np.uint64(rng.integers(0, 64))
            expected = _reference_word_fault(words, m.n_qubits)
            if expected is None:
                assert np.array_equal(MachineProgram(words, m.n_qubits, 1).words, words)
                assert np.array_equal(machine_from_bytes(image_of(words, m.n_qubits)).words, words)
                continue
            rejected += 1
            i, reason = expected
            with pytest.raises(ValidationError) as built:
                MachineProgram(words, m.n_qubits, 1)
            assert str(built.value) == f"word {i}: {reason}"
            with pytest.raises(DecodeError) as decoded:
                machine_from_bytes(image_of(words, m.n_qubits))
            assert (decoded.value.detail, decoded.value.offset) == (str(built.value), 24 + 8 * i)
        assert rejected > 100

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(damaged_images())
    def test_damaged_images_raise_only_decode_errors(self, image):
        try:
            machine_from_bytes(image)
        except DecodeError as err:
            assert 0 <= err.offset <= len(image)
