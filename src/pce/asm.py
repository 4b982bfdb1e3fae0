"""Lowering to assembly ops and the fixed 64-bit machine-word encoding.

This is the deliberately costly stage whose repetition the dedup pipeline
amortizes: compiling a batch the naive way runs it once per circuit, the
parameterized way once per unique structure.

Word layout (little-endian files, one word per op):

    bits 63-56  opcode        bits 47-40  second channel (TWO_QUBIT only)
    bits 55-48  channel       bits 39-32  reserved, zero
    bits 31-0   immediate (phase word, delay ns, else zero)

The opcode numbering below is a published compatibility contract:

    PULSE_X90=0x01  INC_PHASE=0x02  REQ_PARAM=0x03  TWO_QUBIT=0x04
    MEASURE=0x05    DELAY=0x06      END=0x07
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .circuits import Circuit, GateKind
from .errors import DecodeError, EncodeError, UnsupportedGateError, ValidationError
from .rip import quantize_phase

MACHINE_MAGIC = b"PCEM"
MACHINE_VERSION = 1
MACHINE_HEADER_LEN = 24

# fixed per-word effort during assembly: the mixing rounds make assembly cost
# scale with program size, so amortization measurements stay meaningful
ASSEMBLE_WORK_ROUNDS = 48
_MIX_PRIME = np.uint64(0x9E3779B97F4A7C15)


class Opcode(IntEnum):
    PULSE_X90 = 0x01
    INC_PHASE = 0x02
    REQ_PARAM = 0x03
    TWO_QUBIT = 0x04
    MEASURE = 0x05
    DELAY = 0x06
    END = 0x07


_VALID_OPCODES = frozenset(int(o) for o in Opcode)
_OPCODE_VALUES = np.array(sorted(_VALID_OPCODES), dtype=np.uint64)


@dataclass(frozen=True, slots=True)
class AsmOp:
    opcode: Opcode
    channel: int = 0
    channel2: int = 0  # TWO_QUBIT only
    imm: int = 0

    def __post_init__(self):
        if self.opcode is Opcode.REQ_PARAM and self.imm != 0:
            raise ValidationError("REQ_PARAM carries no immediate")
        if self.opcode is not Opcode.TWO_QUBIT and self.channel2 != 0:
            raise ValidationError(f"{self.opcode.name} cannot address a second channel")
        if not 0 <= self.imm < (1 << 32):
            raise ValidationError(f"immediate {self.imm:#x} does not fit 32 bits")


@dataclass(frozen=True, slots=True)
class AssemblyProgram:
    ops: tuple[AsmOp, ...]
    n_qubits: int
    shots: int

    def __post_init__(self):
        if not self.ops:
            raise ValidationError("program has no END op")
        ends = [i for i, op in enumerate(self.ops) if op.opcode is Opcode.END]
        if ends != [len(self.ops) - 1]:
            raise ValidationError("program must contain exactly one END, as the last op")
        for i, op in enumerate(self.ops):
            limit = self.n_qubits
            if op.opcode is not Opcode.END and not 0 <= op.channel < limit:
                raise ValidationError(f"op {i} addresses channel {op.channel} outside 0..{limit - 1}")
            if op.opcode is Opcode.TWO_QUBIT:
                if not 0 <= op.channel2 < limit or op.channel2 == op.channel:
                    raise ValidationError(f"op {i} has invalid channel pair")


@dataclass(frozen=True)
class MachineProgram:
    words: np.ndarray = field(repr=False)  # uint64
    n_qubits: int
    shots: int
    checksum: int

    def __eq__(self, other) -> bool:
        if not isinstance(other, MachineProgram):
            return NotImplemented
        return (
            np.array_equal(self.words, other.words)
            and self.n_qubits == other.n_qubits
            and self.shots == other.shots
            and self.checksum == other.checksum
        )

    def __len__(self) -> int:
        return len(self.words)


_GATE_TO_OPCODE = {
    GateKind.X90: Opcode.PULSE_X90,
    GateKind.VIRTUAL_Z: Opcode.INC_PHASE,
    GateKind.PARAM_REQUEST: Opcode.REQ_PARAM,
    GateKind.TWO_QUBIT: Opcode.TWO_QUBIT,
    GateKind.MEASURE: Opcode.MEASURE,
    GateKind.DELAY: Opcode.DELAY,
}


def compile_circuit(c: Circuit) -> AssemblyProgram:
    """Map gates one-to-one onto assembly ops, preserving order, then END."""
    ops: list[AsmOp] = []
    for g in c.gates:
        opcode = _GATE_TO_OPCODE.get(g.kind)
        if opcode is None:
            raise UnsupportedGateError(f"cannot compile gate kind {g.kind!r}")
        if opcode is Opcode.INC_PHASE:
            ops.append(AsmOp(opcode, g.qubits[0], imm=quantize_phase(g.phase)))
        elif opcode is Opcode.TWO_QUBIT:
            if g.two_qubit_name != "CZ":
                raise UnsupportedGateError(f"no native lowering for {g.two_qubit_name!r}")
            ops.append(AsmOp(opcode, g.qubits[0], channel2=g.qubits[1]))
        elif opcode is Opcode.DELAY:
            ops.append(AsmOp(opcode, g.qubits[0], imm=g.duration_ns))
        else:
            ops.append(AsmOp(opcode, g.qubits[0]))
    ops.append(AsmOp(Opcode.END))
    return AssemblyProgram(tuple(ops), c.n_qubits, c.shots)


def _mix_checksum(words: np.ndarray) -> int:
    """Constant per-word mixing work; returns the folded accumulator."""
    acc = words.copy()
    for r in range(ASSEMBLE_WORK_ROUNDS):
        acc = (acc ^ (acc >> np.uint64(17))) * _MIX_PRIME + np.uint64(r)
    return int(np.bitwise_xor.reduce(acc)) if acc.size else 0


def assemble(p: AssemblyProgram) -> MachineProgram:
    """Pack each op into one 64-bit word."""
    for op in p.ops:
        if op.channel >= 256 or op.channel2 >= 256:
            raise EncodeError(f"channel {max(op.channel, op.channel2)} does not fit one byte")
    opcodes = np.array([int(op.opcode) for op in p.ops], dtype=np.uint64)
    ch = np.array([op.channel for op in p.ops], dtype=np.uint64)
    ch2 = np.array([op.channel2 for op in p.ops], dtype=np.uint64)
    imm = np.array([op.imm for op in p.ops], dtype=np.uint64)
    words = (opcodes << np.uint64(56)) | (ch << np.uint64(48)) | (ch2 << np.uint64(40)) | imm
    return MachineProgram(words, p.n_qubits, p.shots, _mix_checksum(words))


def disassemble(m: MachineProgram) -> AssemblyProgram:
    ops: list[AsmOp] = []
    for i, w in enumerate(int(x) for x in m.words):
        code = w >> 56
        if code not in _VALID_OPCODES:
            raise DecodeError(f"unknown opcode {code:#04x} in word {i}", i * 8)
        if (w >> 32) & 0xFF:
            raise DecodeError(f"nonzero reserved byte in word {i}", i * 8)
        opcode = Opcode(code)
        channel = (w >> 48) & 0xFF
        channel2 = (w >> 40) & 0xFF
        imm = w & 0xFFFFFFFF
        if opcode is Opcode.END:
            ops.append(AsmOp(Opcode.END))
        elif opcode is Opcode.TWO_QUBIT:
            ops.append(AsmOp(opcode, channel, channel2=channel2))
        else:
            ops.append(AsmOp(opcode, channel, imm=imm))
    return AssemblyProgram(tuple(ops), m.n_qubits, m.shots)


def machine_to_bytes(m: MachineProgram) -> bytes:
    header = MACHINE_MAGIC + struct.pack(
        "<HHII8x", MACHINE_VERSION, m.n_qubits, m.shots, len(m.words)
    )
    assert len(header) == MACHINE_HEADER_LEN
    return header + np.asarray(m.words, dtype="<u8").tobytes()


def _word_fault(words: np.ndarray, n_qubits: int) -> tuple[int, str] | None:
    """First word that ``disassemble`` would reject, with the reason; None if none.

    Accepts exactly the word sequences that ``disassemble`` accepts (it reads
    no channel byte an op does not use), so a bad image names its word instead
    of escaping as a ``ValidationError`` from the op constructors.
    """
    op = words >> np.uint64(56)
    ch = (words >> np.uint64(48)) & np.uint64(0xFF)
    ch2 = (words >> np.uint64(40)) & np.uint64(0xFF)
    end = op == Opcode.END
    misplaced_end = end.copy()  # an END before the last word, or a last word that is not END
    misplaced_end[-1] = not end[-1]
    imm = words & np.uint64(0xFFFFFFFF)
    checks = (
        (~np.isin(op, _OPCODE_VALUES), "unknown opcode"),
        ((words >> np.uint64(32)) & np.uint64(0xFF) != 0, "nonzero reserved byte"),
        ((op == Opcode.REQ_PARAM) & (imm != 0), "REQ_PARAM carries an immediate"),
        (misplaced_end, "program must contain exactly one END, as the last op"),
        (~end & (ch >= n_qubits), f"channel outside 0..{n_qubits - 1}"),
        ((op == Opcode.TWO_QUBIT) & ((ch2 >= n_qubits) | (ch2 == ch)), "invalid channel pair"),
    )
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    return i, next(reason for mask, reason in checks if mask[i])


def machine_from_bytes(data: bytes) -> MachineProgram:
    """Decode a PCEM image; any fault is a ``DecodeError`` at its image offset."""
    if len(data) < MACHINE_HEADER_LEN:
        raise DecodeError("machine image shorter than header", len(data))
    if data[:4] != MACHINE_MAGIC:
        raise DecodeError(f"bad machine magic {data[:4]!r}", 0)
    version, n_qubits, shots, count = struct.unpack("<HHII8x", data[4:MACHINE_HEADER_LEN])
    if version != MACHINE_VERSION:
        raise DecodeError(f"unsupported machine version {version}", 4)
    body = data[MACHINE_HEADER_LEN:]
    if len(body) != 8 * count:
        raise DecodeError(
            f"word section is {len(body)} bytes, header declares {count} words",
            MACHINE_HEADER_LEN,
        )
    if count == 0:
        raise DecodeError("program has no END op", 12)  # the header's word count
    words = np.frombuffer(body, dtype="<u8").astype(np.uint64)
    fault = _word_fault(words, n_qubits)
    if fault is not None:
        i, reason = fault
        raise DecodeError(f"word {i}: {reason}", MACHINE_HEADER_LEN + 8 * i)
    return MachineProgram(words, n_qubits, shots, _mix_checksum(words))
