"""Tests for circuit lowering, word packing, and the machine file image."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pce.asm import (
    _GATE_TO_OPCODE,
    AssemblyProgram,
    MachineProgram,
    Opcode,
    assemble,
    compile_circuit,
    disassemble,
    machine_from_bytes,
    machine_to_bytes,
)
from pce.circuits import (
    TAU,
    Circuit,
    U3Params,
    cz,
    delay,
    measure,
    param_request,
    u3_decompose,
    vz,
    x90,
)
from pce.control import ParameterMemory, execute
from pce.errors import DecodeError, EncodeError, ValidationError
from pce.generators import gen_batch
from pce.rip import modify, quantize_phases
from tests.test_rip import BATCH_SPECS


def asm(*rows, n_qubits=1, shots=1) -> AssemblyProgram:
    """An assembly program of ``(opcode, channel, channel2, imm)`` rows; a
    short row leaves its trailing fields zero."""
    columns = np.zeros((4, len(rows)), dtype=np.int64)
    for i, row in enumerate(rows):
        columns[: len(row), i] = row
    return AssemblyProgram(*columns, n_qubits, shots)


def _reference_compile_circuit(c: Circuit) -> AssemblyProgram:
    """Test-only oracle: the per-gate compiler, one row and one quantize call per gate."""
    rows = []
    for g in c.gates:
        opcode = _GATE_TO_OPCODE[g.kind]
        if opcode is Opcode.INC_PHASE:
            rows.append((opcode, g.qubits[0], 0, int(quantize_phases([g.phase])[0])))
        elif opcode is Opcode.TWO_QUBIT:
            rows.append((opcode, g.qubits[0], g.qubits[1]))
        elif opcode is Opcode.DELAY:
            rows.append((opcode, g.qubits[0], 0, g.duration_ns))
        else:
            rows.append((opcode, g.qubits[0]))
    return asm(*rows, (Opcode.END,), n_qubits=c.n_qubits, shots=c.shots)


def random_program(rng, n_qubits=4, n_ops=30) -> AssemblyProgram:
    rows = []
    for _ in range(n_ops):
        k = rng.integers(0, 6)
        q = int(rng.integers(0, n_qubits))
        if k == 0:
            rows.append((Opcode.PULSE_X90, q))
        elif k == 1:
            rows.append((Opcode.INC_PHASE, q, 0, int(rng.integers(0, 1 << 32))))
        elif k == 2:
            rows.append((Opcode.REQ_PARAM, q))
        elif k == 3 and n_qubits > 1:
            rows.append((Opcode.TWO_QUBIT, q, (q + 1) % n_qubits))
        elif k == 4:
            rows.append((Opcode.MEASURE, q))
        else:
            rows.append((Opcode.DELAY, q, 0, int(rng.integers(0, 10_000))))
    return asm(*rows, (Opcode.END,), n_qubits=n_qubits, shots=10)


def word(op, ch=0, ch2=0, imm=0) -> int:
    return (int(op) << 56) | (ch << 48) | (ch2 << 40) | imm


def image_of(words, n_qubits) -> bytes:
    """A PCEM image of raw words, valid or not: header and words packed here."""
    header = b"PCEM" + struct.pack("<HHII8x", 1, n_qubits, 1, len(words))
    return header + np.array(words, dtype="<u8").tobytes()


def _reference_word_fault(words, n_qubits):
    """Test-only scalar oracle for the word rules, checked one word at a
    time.  Returns the first bad word and the first rule it breaks, or None."""
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
        if code == Opcode.TWO_QUBIT and w & 0xFFFFFFFF:
            return i, "TWO_QUBIT carries an immediate"
        if code == Opcode.PULSE_X90 and w & 0xFFFFFFFF:
            return i, "PULSE_X90 carries an immediate"
        if code == Opcode.MEASURE and w & 0xFFFFFFFF:
            return i, "MEASURE carries an immediate"
        if code != Opcode.TWO_QUBIT and ch2:
            return i, "only TWO_QUBIT carries a second channel"
        if code == Opcode.END and (ch or w & 0xFFFFFFFF):
            return i, "END carries an operand"
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


# angles the quantizer must wrap: signs, zeros, exact turns, huge values
EDGE_PHASES = (0.0, -0.0, TAU, -TAU, 3 * TAU, TAU - 1e-12, -1e-12, math.pi, -math.pi, 1e6, -1e6)
raw_phases = st.one_of(
    st.sampled_from(EDGE_PHASES),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def phase_circuits(draw):
    """A circuit of VZ gates built from raw (uncanonicalized) angles among other
    gates; may have no VZ."""
    n_qubits = draw(st.integers(1, 3))
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        q = draw(st.integers(0, n_qubits - 1))
        kind = draw(st.sampled_from(("vz", "vz", "x90", "delay", "preq", "cz")))
        if kind == "vz":
            gates.append(vz(q, draw(raw_phases)))
        elif kind == "x90":
            gates.append(x90(q))
        elif kind == "delay":
            gates.append(delay(q, draw(st.integers(0, 10_000))))
        elif kind == "preq":
            gates.append(param_request(q))
        elif n_qubits > 1:
            gates.append(cz(q, (q + 1) % n_qubits))
    return Circuit(tuple(gates), n_qubits, shots=2)


@st.composite
def machine_words(draw):
    """A valid program's words, each with a one-in-eight chance of one field
    set where the word rules want zero or a value in range."""
    n_qubits = draw(st.integers(1, 4))
    channel = st.integers(0, n_qubits - 1)
    ops = [draw(st.sampled_from(list(Opcode)[:-1])) for _ in range(draw(st.integers(0, 5)))]
    words = []
    for op in [*ops, Opcode.END]:
        ch = 0 if op is Opcode.END else draw(channel)
        ch2 = imm = 0
        if op is Opcode.TWO_QUBIT:
            if n_qubits == 1:
                op = Opcode.PULSE_X90
            else:
                ch2 = (ch + draw(st.integers(1, n_qubits - 1))) % n_qubits
        elif op in (Opcode.INC_PHASE, Opcode.DELAY):
            imm = draw(st.integers(0, 0xFFFFFFFF))
        w = word(op, ch, ch2, imm)
        if not draw(st.integers(0, 7)):
            w |= draw(st.sampled_from((1 << 48, 1 << 40, 1 << 32, 1, 0xFF << 56)))
        words.append(w)
    return words, n_qubits


class TestCompile:
    @pytest.mark.parametrize("spec", BATCH_SPECS, ids=lambda s: s.kind)
    def test_matches_per_gate_oracle_on_generated_batches(self, spec):
        for c in gen_batch(spec).circuits:
            assert compile_circuit(c) == _reference_compile_circuit(c)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(phase_circuits())
    def test_matches_per_gate_oracle_on_edge_phases(self, c):
        assert compile_circuit(c) == _reference_compile_circuit(c)

    def test_u3_lowering_op_pattern(self):
        c = Circuit(tuple(u3_decompose(U3Params(0.3, 0.7, 1.9), 0)), n_qubits=1)
        assert compile_circuit(c).opcode.tolist() == [
            Opcode.INC_PHASE,
            Opcode.PULSE_X90,
            Opcode.INC_PHASE,
            Opcode.PULSE_X90,
            Opcode.INC_PHASE,
            Opcode.END,
        ]

    def test_empty_circuit_is_just_end(self):
        p = compile_circuit(Circuit((), n_qubits=1))
        assert p.opcode.tolist() == [Opcode.END]

    def test_phase_immediates_are_quantized(self):
        c = Circuit((vz(0, 1.25), x90(0), vz(0, math.pi)), n_qubits=1)
        p = compile_circuit(c)
        assert p.imm[0] == round(1.25 / TAU * 2**32)
        assert p.imm[2] == 0x80000000

    def test_modified_circuit_differs_only_at_request_slots(self):
        gates = (vz(0, 0.3), x90(0), cz(0, 1), vz(1, 2.0), measure(0), measure(1))
        c = Circuit(gates, n_qubits=2)
        base, mod = compile_circuit(c), compile_circuit(modify(c))
        phase_rows = base.opcode == Opcode.INC_PHASE
        assert phase_rows.sum() == 2
        assert np.array_equal(mod.opcode, np.where(phase_rows, Opcode.REQ_PARAM, base.opcode))
        assert np.array_equal(mod.imm, np.where(phase_rows, 0, base.imm))
        assert np.array_equal(mod.channel, base.channel)
        assert np.array_equal(mod.channel2, base.channel2)

    def test_param_request_and_delay(self):
        c = Circuit((param_request(0), delay(0, 120)), n_qubits=1)
        p = compile_circuit(c)
        assert p.opcode.tolist() == [Opcode.REQ_PARAM, Opcode.DELAY, Opcode.END]
        assert p.imm.tolist() == [0, 120, 0]

    def test_deterministic(self):
        c = Circuit((vz(0, 0.5), x90(0)), n_qubits=1, shots=7)
        a, b = assemble(compile_circuit(c)), assemble(compile_circuit(c))
        assert a == b

    def test_equivalent_circuits_differ_only_in_phase_immediates(self):
        # the semantic basis of parameterized execution: same opcode/channel
        # stream for every member of a structural-equivalence group
        from pce.generators import BatchSpec, gen_batch

        batch = gen_batch(BatchSpec("RB", ((0, 1),), ((3,),), 4, shots=5, seed=2))
        programs = [compile_circuit(c) for c, l in zip(batch.circuits, batch.labels) if l.role == "rb"]
        ref = programs[0]
        phase_rows = ref.opcode == Opcode.INC_PHASE
        for p in programs[1:]:
            assert np.array_equal(p.opcode, ref.opcode)
            assert np.array_equal(p.channel, ref.channel)
            assert np.array_equal(p.channel2, ref.channel2)
            assert np.array_equal(p.imm[~phase_rows], ref.imm[~phase_rows])


class TestAssemble:
    def test_known_word_layout(self):
        m = assemble(asm((Opcode.INC_PHASE, 1, 0, 0x80000000), (Opcode.END,), n_qubits=2))
        assert int(m.words[0]) == 0x0201000080000000
        assert int(m.words[1]) == 0x0700000000000000

    def test_end_word_is_opcode_only(self):
        m = assemble(asm((Opcode.END,)))
        assert int(m.words[0]) == Opcode.END << 56

    def test_word_count_matches_ops(self):
        rng = np.random.default_rng(1)
        p = random_program(rng)
        assert len(assemble(p)) == len(p.opcode) == 31

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
        rows = ((Opcode.REQ_PARAM, 0), (Opcode.REQ_PARAM, 2), (Opcode.REQ_PARAM, 0), (Opcode.END,))
        m = assemble(asm(*rows, n_qubits=3))
        memory = ParameterMemory()
        for bank, n in enumerate((2, 0, 1)):
            memory.write_params(bank, np.arange(n, dtype=np.uint32))
        assert execute(m, memory, shots=4).served[:3].tolist() == [8, 0, 4]

    def test_oversize_channel_rejected(self):
        p = asm((Opcode.PULSE_X90, 300), (Opcode.END,), n_qubits=512)
        with pytest.raises(EncodeError, match="op 0: channel 300 does not fit"):
            assemble(p)

    @pytest.mark.parametrize(
        "row, field",
        [
            ((Opcode.DELAY, 0, 0, 1 << 32), "imm"),
            ((Opcode.INC_PHASE, 0, 0, -1), "imm"),
            ((Opcode.TWO_QUBIT, 0, 256), "channel2"),
            ((Opcode.PULSE_X90, -1), "channel"),
            ((0x100, 0), "opcode"),
        ],
    )
    def test_field_outside_its_bits_is_an_encode_error(self, row, field):
        with pytest.raises(EncodeError, match=f"op 1: {field} "):
            assemble(asm((Opcode.PULSE_X90, 0), row, (Opcode.END,), n_qubits=2))

    def test_oversize_delay_compiles_and_fails_to_assemble(self):
        p = compile_circuit(Circuit((delay(0, 1 << 32),), n_qubits=1))
        assert p.imm.tolist() == [1 << 32, 0]
        with pytest.raises(EncodeError, match="op 0: imm 4294967296 does not fit"):
            assemble(p)

    def test_programs_equal_by_columns(self):
        p = asm((Opcode.DELAY, 0, 0, 5), (Opcode.END,))
        assert p == asm((Opcode.DELAY, 0, 0, 5), (Opcode.END,))
        assert p != asm((Opcode.DELAY, 0, 0, 6), (Opcode.END,))
        assert p != asm((Opcode.DELAY, 0, 0, 5), (Opcode.END,), shots=2)
        assert p != asm((Opcode.END,))


class TestProgramValidation:
    """An assembly program is checked when it is assembled: the word rules
    belong to the machine program."""

    def test_missing_end(self):
        with pytest.raises(ValidationError, match="word 0: program must contain exactly one END"):
            assemble(asm((Opcode.PULSE_X90, 0)))

    def test_empty_program(self):
        with pytest.raises(ValidationError, match="word 0: program has no END op"):
            assemble(asm())

    def test_req_param_with_imm(self):
        with pytest.raises(ValidationError, match="word 0: REQ_PARAM carries an immediate"):
            assemble(asm((Opcode.REQ_PARAM, 0, 0, 5), (Opcode.END,)))

    def test_channel_out_of_range(self):
        with pytest.raises(ValidationError, match=r"word 0: channel outside 0\.\.1"):
            assemble(asm((Opcode.PULSE_X90, 3), (Opcode.END,), n_qubits=2))

    @pytest.mark.parametrize(
        "op, reason",
        [
            ((Opcode.TWO_QUBIT, 0, 1, 5), "TWO_QUBIT carries an immediate"),
            ((Opcode.END, 1), "END carries an operand"),
            ((Opcode.END, 0, 0, 1), "END carries an operand"),
            ((Opcode.MEASURE, 0, 1), "only TWO_QUBIT carries a second channel"),
        ],
    )
    def test_unused_fields_must_be_zero(self, op, reason):
        rows = (op,) if op[0] is Opcode.END else (op, (Opcode.END,))
        with pytest.raises(ValidationError, match=f"word 0: {reason}"):
            assemble(asm(*rows, n_qubits=2))


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

    def test_unused_bytes_are_not_silently_dropped(self):
        # disassembling would drop these bytes, so the word rules refuse them
        words = [word(Opcode.PULSE_X90, 0, 3), word(Opcode.END, 9)]
        with pytest.raises(ValidationError, match="word 0: only TWO_QUBIT carries a second channel"):
            MachineProgram(words, 1, 1)
        with pytest.raises(ValidationError, match="word 1: END carries an operand"):
            MachineProgram([word(Opcode.PULSE_X90, 0, 0), word(Opcode.END, 9)], 1, 1)

    @pytest.mark.parametrize("op", list(Opcode), ids=lambda o: o.name)
    def test_an_immediate_is_refused_on_every_op_that_carries_none(self, op):
        ch2 = 1 if op is Opcode.TWO_QUBIT else 0
        words = [word(op, 0, ch2, 5)] + ([] if op is Opcode.END else [word(Opcode.END)])
        if op in (Opcode.INC_PHASE, Opcode.DELAY):
            assert MachineProgram(words, 2, 1).words[0] & 0xFFFFFFFF == 5
            return
        reason = "END carries an operand" if op is Opcode.END else f"{op.name} carries an immediate"
        assert _reference_word_fault(words, 2) == (0, reason)
        with pytest.raises(ValidationError, match=f"^word 0: {reason}$"):
            MachineProgram(words, 2, 1)
        with pytest.raises(DecodeError) as err:
            machine_from_bytes(image_of(words, 2))
        assert err.value.offset == 24

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(machine_words())
    def test_every_program_that_builds_round_trips(self, drawn):
        words, n_qubits = drawn
        try:
            m = MachineProgram(words, n_qubits, 3)
        except ValidationError:
            return
        assert assemble(disassemble(m)) == m


class TestMachineFile:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = assemble(random_program(rng, n_ops=int(rng.integers(1, 40))))
            assert machine_from_bytes(machine_to_bytes(m)) == m

    def test_header_length(self):
        m = assemble(asm((Opcode.END,)))
        data = machine_to_bytes(m)
        assert data[:4] == b"PCEM"
        assert len(data) == 24 + 8 * len(m.words)

    def test_bad_magic(self):
        m = assemble(asm((Opcode.END,)))
        data = bytearray(machine_to_bytes(m))
        data[0] = ord("X")
        with pytest.raises(DecodeError):
            machine_from_bytes(bytes(data))

    @pytest.mark.parametrize("n_qubits, shots", [(70000, 1), (1, 1 << 32), (1, -1), (-1, 1)])
    def test_header_field_that_does_not_fit_is_an_encode_error(self, n_qubits, shots):
        with pytest.raises(EncodeError, match="do not fit a PCEM header"):
            machine_to_bytes(MachineProgram([word(Opcode.END)], n_qubits, shots))

    def test_widest_header_fields_round_trip(self):
        m = MachineProgram([word(Opcode.END)], 0xFFFF, 0xFFFFFFFF)
        assert machine_from_bytes(machine_to_bytes(m)) == m

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
            ([word(Opcode.MEASURE, ch2=1), word(Opcode.END)], 2, 24),
            ([word(Opcode.TWO_QUBIT, 0, 1, imm=3), word(Opcode.END)], 2, 24),
            ([word(Opcode.PULSE_X90), word(Opcode.END, ch=1)], 2, 32),
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
                built = MachineProgram(words, m.n_qubits, 1)
                assert np.array_equal(built.words, words)
                assert assemble(disassemble(built)) == built
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
