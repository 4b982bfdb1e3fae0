"""Lowering to assembly columns and the fixed 64-bit machine-word encoding.

The dedup pipeline amortizes this stage: the naive way compiles and assembles
once per circuit, the parameterized way once per unique structure.
``compile_circuit`` gathers a circuit's ``GateTable`` columns into assembly
columns; ``assemble`` packs them into words, modeled at ``MODELED_ASSEMBLE_NS``.

``assemble`` checks only that each assembly column fits its word field.  A
``MachineProgram`` is valid by construction: its constructor checks the word
rules (``_word_fault``) and freezes the words, so no later stage checks one.

Word layout (little-endian files, one word per op):

    bits 63-56  opcode        bits 47-40  second channel (TWO_QUBIT, else zero)
    bits 55-48  channel       bits 39-32  reserved, zero
    bits 31-0   immediate (INC_PHASE phase word, DELAY ns, else zero)

Which of channel, second channel and immediate each op carries is stated
once, in ``_CARRIES``: END carries none, and PULSE_X90, REQ_PARAM and MEASURE
carry only a channel.  Every field an op does not carry is zero, so
``disassemble`` loses nothing.

The opcode numbering below is a published compatibility contract:

    PULSE_X90=0x01  INC_PHASE=0x02  REQ_PARAM=0x03  TWO_QUBIT=0x04
    MEASURE=0x05    DELAY=0x06      END=0x07
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .circuits import KINDS, Circuit, GateKind
from .errors import DecodeError, EncodeError, ValidationError

MACHINE_MAGIC = b"PCEM"
MACHINE_VERSION = 1
MACHINE_HEADER_LEN = 24
# the u32 shot field of a PCEM header and of a RUN frame: no run can use more
MAX_SHOTS = 0xFFFFFFFF

# modeled cost of one Assemble iteration, flat per program: what the 48 numpy
# mixing rounds assemble once ran cost at 10-100 words on a 2-vCPU x86-64 host
MODELED_ASSEMBLE_NS = 141_000


class Opcode(IntEnum):
    PULSE_X90 = 0x01
    INC_PHASE = 0x02
    REQ_PARAM = 0x03
    TWO_QUBIT = 0x04
    MEASURE = 0x05
    DELAY = 0x06
    END = 0x07


# the operand fields each op carries; every other field of its word is zero
_CARRIES = {
    Opcode.PULSE_X90: ("channel",),
    Opcode.INC_PHASE: ("channel", "imm"),
    Opcode.REQ_PARAM: ("channel",),
    Opcode.TWO_QUBIT: ("channel", "channel2"),
    Opcode.MEASURE: ("channel",),
    Opcode.DELAY: ("channel", "imm"),
    Opcode.END: (),
}
# per opcode byte, one row each: is an opcode, carries a channel, a second
# channel, an immediate; a word's row is one gather by its opcode byte
_OP_TABLE = np.zeros((4, 256), dtype=bool)
for _op, _fields in _CARRIES.items():
    _OP_TABLE[:, _op] = True, "channel" in _fields, "channel2" in _fields, "imm" in _fields
# plain ints, not IntEnum members: IntEnum comparison is slower
_OP_END = int(Opcode.END)
# the fields of a word, one assembly column each: name, bit offset, largest value
_FIELDS = (
    ("opcode", 56, 0xFF), ("channel", 48, 0xFF), ("channel2", 40, 0xFF), ("imm", 0, 0xFFFFFFFF)
)


def word_fields(words) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each word's opcode, channel, channel2 and imm field: the assembly columns."""
    w = np.asarray(words, dtype=np.uint64)
    return tuple(
        ((w >> np.uint64(shift)) & np.uint64(limit)).astype(np.int64) for _, shift, limit in _FIELDS
    )


@dataclass(frozen=True, eq=False)
class AssemblyProgram:
    """One row per op, END last: four equal-length int64 columns, one per word field."""

    opcode: np.ndarray = field(repr=False)
    channel: np.ndarray = field(repr=False)
    channel2: np.ndarray = field(repr=False)  # nonzero on TWO_QUBIT rows only
    imm: np.ndarray = field(repr=False)  # phase word or delay ns, else zero
    n_qubits: int
    shots: int

    def __eq__(self, other) -> bool:
        if not isinstance(other, AssemblyProgram):
            return NotImplemented
        return (self.n_qubits, self.shots) == (other.n_qubits, other.shots) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name, _, _ in _FIELDS
        )


def _word_fault(words: np.ndarray, n_qubits: int) -> tuple[int, str] | None:
    """First word that breaks a word rule, with the reason; None if none.

    The one statement of the rules, in the order a word is checked: a known
    opcode, a zero reserved byte, zero in every field ``_CARRIES`` does not
    give the op (an immediate on PULSE_X90, REQ_PARAM, TWO_QUBIT or MEASURE,
    a second channel on any op but TWO_QUBIT, any operand on END), one END as
    the last word, and channels (a distinct pair for TWO_QUBIT) inside
    ``0..n_qubits - 1``.  What each word's op carries is one gather from
    ``_OP_TABLE``.
    """
    if not words.size:
        return 0, "program has no END op"
    op, ch, ch2, imm = word_fields(words)
    known, has_ch, has_ch2, has_imm = _OP_TABLE[:, op]
    end = op == _OP_END
    misplaced_end = end.copy()  # an END before the last word, or a last word that is not END
    misplaced_end[-1] = not end[-1]
    stray_imm = imm != 0
    checks = (
        (~known, "unknown opcode"),
        ((words >> np.uint64(32)) & np.uint64(0xFF) != 0, "nonzero reserved byte"),
        (has_ch & ~has_imm & stray_imm, None),  # "<op> carries an immediate", built below
        (~has_ch2 & (ch2 != 0), "only TWO_QUBIT carries a second channel"),
        (~has_ch & ((ch != 0) | stray_imm), "END carries an operand"),
        (misplaced_end, "program must contain exactly one END, as the last op"),
        (has_ch & (ch >= n_qubits), f"channel outside 0..{n_qubits - 1}"),
        (has_ch2 & ((ch2 >= n_qubits) | (ch2 == ch)), "invalid channel pair"),
    )
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    reason = next(reason for mask, reason in checks if mask[i])
    return i, reason or f"{Opcode(op[i]).name} carries an immediate"


class _WordFault(ValidationError):
    """Word ``index`` of a machine program breaks a word rule."""

    def __init__(self, index: int, reason: str):
        self.index, self.reason = index, reason
        super().__init__(f"word {index}: {reason}")


@dataclass(frozen=True)
class MachineProgram:
    """Machine words that obey the word rules; the words are a read-only copy."""

    words: np.ndarray = field(repr=False)  # uint64
    n_qubits: int
    shots: int

    def __post_init__(self):
        words = np.array(self.words, dtype=np.uint64)
        fault = _word_fault(words, self.n_qubits)
        if fault is not None:
            raise _WordFault(*fault)
        words.flags.writeable = False
        object.__setattr__(self, "words", words)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MachineProgram):
            return NotImplemented
        return (
            np.array_equal(self.words, other.words)
            and self.n_qubits == other.n_qubits
            and self.shots == other.shots
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
_OPCODE_OF_CODE = np.array([_GATE_TO_OPCODE[k] for k in KINDS], dtype=np.int64)


def compile_circuit(c: Circuit) -> AssemblyProgram:
    """Map gates one-to-one onto assembly rows, preserving order, then END.

    Each column is one gather over the circuit's table rows: the opcode of
    the kind, ``q0`` and ``q1`` as the channels, and as the immediate the
    row's quantized phase plus its duration (each zero where it does not
    apply)."""
    table, ids = c.table, c.ids
    n = len(ids)
    cols = np.zeros((4, n + 1), dtype=np.int64)
    cols[0, :n] = _OPCODE_OF_CODE[table.kind[ids]]
    cols[0, n] = Opcode.END
    cols[1, :n] = table.q0[ids]
    cols[2, :n] = table.q1[ids]
    cols[3, :n] = table.words[ids]
    cols[3, :n] += table.duration[ids]
    return AssemblyProgram(*cols, c.n_qubits, c.shots)


def assemble(p: AssemblyProgram) -> MachineProgram:
    """Pack each row into one 64-bit word: a field too wide for its bits is an
    ``EncodeError``, a word that breaks a word rule a ``ValidationError``."""
    for name, _, limit in _FIELDS:
        col = getattr(p, name)
        bad = np.flatnonzero((col < 0) | (col > limit))
        if bad.size:
            raise EncodeError(f"op {bad[0]}: {name} {col[bad[0]]} does not fit 0..{limit:#x}")
    words = np.bitwise_or.reduce(
        [getattr(p, name).astype(np.uint64) << np.uint64(shift) for name, shift, _ in _FIELDS]
    )
    return MachineProgram(words, p.n_qubits, p.shots)


def disassemble(m: MachineProgram) -> AssemblyProgram:
    """Inverse of ``assemble``: the word rules zero every unused byte."""
    return AssemblyProgram(*word_fields(m.words), m.n_qubits, m.shots)


def machine_to_bytes(m: MachineProgram) -> bytes:
    if not (0 <= m.n_qubits <= 0xFFFF and 0 <= m.shots <= MAX_SHOTS):
        raise EncodeError(f"{m.n_qubits} qubits and {m.shots} shots do not fit a PCEM header")
    header = MACHINE_MAGIC + struct.pack(
        "<HHII8x", MACHINE_VERSION, m.n_qubits, m.shots, len(m.words)
    )
    assert len(header) == MACHINE_HEADER_LEN
    return header + np.asarray(m.words, dtype="<u8").tobytes()


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
    try:
        return MachineProgram(np.frombuffer(body, dtype="<u8"), n_qubits, shots)
    except _WordFault as exc:
        if count == 0:  # no word to name: the fault is the header's word count
            raise DecodeError(exc.reason, 12) from None
        raise DecodeError(str(exc), MACHINE_HEADER_LEN + 8 * exc.index) from None
