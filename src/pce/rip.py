"""Read-Identify-Peel: structural grouping, phase extraction, and binarization.

Structural identity of a circuit is what ``modify`` leaves of it: the same
gates in the same order with every virtual-Z phase erased to a parameter
request, on the same qubit count, run for the same number of shots.  Two
circuits that differ only in virtual-Z phases land in the same equivalence
group, and each stitched circuit runs its representative's exact program.
Cross-qubit gate order, two-qubit operand order and shots are part of the
identity because the compiled program, and so the trace, follows them.

Grouping is in batch order: a circuit joins the group of the first earlier
circuit with the same identity, otherwise it founds a new group.  The
flattened groups give the execution order consumed by the scheduler.
``identify`` makes one dict pass keyed on the bytes of each circuit's erased
row ids (a ``GateTable``'s VIRTUAL_Z rows point at their PARAM_REQUEST
twins), so no ``Gate`` is built or hashed; ``identify_bruteforce`` compares
``modify`` results pairwise as an independent oracle.  ``peel`` gathers a
circuit's VIRTUAL_Z rows and their table-quantized words with one mask.

Phase words are unsigned 32-bit fixed point over [0, 2*pi) (``quantize_phases``,
which a ``GateTable`` applies to its rows), so a stitched execution and a
directly-compiled execution agree bit-exactly once both sides are quantized.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .circuits import _VZ_CODE, PHASE_SCALE, TAU, Circuit, quantize_phases
from .errors import CapacityError, DecodeError, EncodeError, ValidationError

N_BANKS = 8  # parameter memory: one bank of 32-bit phase words per qubit
BANK_CAPACITY = 2048
BLOB_MAGIC = b"PCEB"
BLOB_VERSION = 1
_M32 = 0xFFFF_FFFF


def bank_words(words, bank: int) -> np.ndarray:
    """The bank-word rule: bank ``bank``'s words as a one-dimensional uint32
    array, if they are integers in 0..2**32-1; anything else (a float, a bool,
    a string, a nested bank) is a ``ValidationError`` naming the bank, and no
    word is wrapped or truncated.  A uint32 array is taken as it is."""
    try:
        arr = np.asarray(words)  # an array as it is
    except (TypeError, ValueError):  # a ragged bank, say
        arr = None
    if arr is None or arr.ndim != 1:
        raise ValidationError(f"bank {bank}: parameter words must be one flat sequence")
    if arr.dtype != np.uint32:
        # np.asarray makes the list [5, True] int64: its bools are found by their type
        mixed = arr is not words and any(isinstance(w, (bool, np.bool_)) for w in words)
        if mixed or arr.size and (arr.dtype.kind not in "iu" or arr.min() < 0 or arr.max() > _M32):
            raise ValidationError(f"bank {bank}: parameter words must be integers in 0..2**32-1")
        arr = arr.astype(np.uint32)
    return arr


def dequantize_word(word: int) -> float:
    return (int(word) & 0xFFFFFFFF) / PHASE_SCALE * TAU


def dequantize_words(words: np.ndarray) -> np.ndarray:
    return np.asarray(words, dtype=np.uint32).astype(np.float64) / PHASE_SCALE * TAU


@dataclass(frozen=True, slots=True)
class EquivalenceReport:
    """Partition of batch indices into structural-equivalence groups.

    The first index of each group is the unique representative; the flattened
    concatenation of groups is the execution order.
    """

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        for g in self.groups:
            if not g:
                raise ValueError("empty equivalence group")
            seen.update(g)
        n = sum(len(g) for g in self.groups)
        if len(seen) != n or (n and (min(seen) != 0 or max(seen) != n - 1)):
            raise ValueError("groups do not partition the batch indices")

    @property
    def n_circuits(self) -> int:
        return sum(len(g) for g in self.groups)

    @property
    def order(self) -> tuple[int, ...]:
        return tuple(i for g in self.groups for i in g)

    @property
    def unique_indices(self) -> tuple[int, ...]:
        return tuple(g[0] for g in self.groups)

    def equivalency_percent(self) -> float:
        """Share of the batch that did not need its own compilation, (n-u)/n."""
        n = self.n_circuits
        return 100.0 * (n - len(self.groups)) / n if n else 0.0


def modify(c: Circuit) -> Circuit:
    """Replace every virtual-Z gate with a parameter request at the same position."""
    return Circuit(c.table.erased[c.ids], c.n_qubits, c.shots, table=c.table)


def identify(circuits: Iterable[Circuit]) -> EquivalenceReport:
    """Group circuits by what ``modify`` leaves of them, in one dict pass.

    The key is ``(n_qubits, shots, erased row ids)``, the ids counted in one
    space for every table met (``GateTable.erased_ids``): a read batch has one
    table, so its ids are mapped once.  A dict keeps insertion order, so
    groups come out in first-seen order and each group lists its members in
    batch order; only the representatives' keys stay in memory, so
    ``circuits`` may be a generator over a batch too large to hold.
    """
    groups: dict[tuple, list[int]] = {}
    space: dict[tuple, int] = {}
    table = erased = None
    for i, c in enumerate(circuits):
        if c.table is not table:
            table, erased = c.table, c.table.erased_ids(space)
        groups.setdefault((c.n_qubits, c.shots, erased[c.ids].tobytes()), []).append(i)
    return EquivalenceReport(tuple(tuple(g) for g in groups.values()))


def identify_bruteforce(circuits: Iterable[Circuit]) -> EquivalenceReport:
    """Oracle for ``identify``: compare ``modify`` results pairwise, no hashing."""
    groups: list[list[int]] = []
    reps: list[Circuit] = []
    for i, c in enumerate(circuits):
        m = modify(c)
        for gi, rep in enumerate(reps):
            if rep == m:
                groups[gi].append(i)
                break
        else:
            groups.append([i])
            reps.append(m)
    return EquivalenceReport(tuple(tuple(g) for g in groups))


def peel(c: Circuit) -> list[np.ndarray]:
    """Per-qubit quantized virtual-Z phase words in encounter order.

    One mask picks the circuit's virtual-Z rows, whose words the table
    quantized once; they split per bank, and the first bank over capacity
    raises ``CapacityError``.
    """
    table, ids = c.table, c.ids
    vz = ids[table.kind[ids] == _VZ_CODE]
    banks = table.q0[vz]
    counts = np.bincount(banks, minlength=c.n_qubits)
    over = np.flatnonzero(counts > BANK_CAPACITY)
    if over.size:
        raise CapacityError(int(over[0]), int(counts[over[0]]), BANK_CAPACITY)
    words = table.words[vz]
    return [words[banks == q] for q in range(c.n_qubits)]


@dataclass(frozen=True, slots=True)
class ParamTable:
    """Peeled phase words: one row per circuit, one u32 array per qubit bank."""

    n_qubits: int
    rows: tuple[tuple[np.ndarray, ...], ...]

    @property
    def n_circuits(self) -> int:
        return len(self.rows)

    def words_for(self, circuit_index: int) -> tuple[np.ndarray, ...]:
        return self.rows[circuit_index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamTable):
            return NotImplemented
        return (
            self.n_qubits == other.n_qubits
            and len(self.rows) == len(other.rows)
            and all(
                len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))
                for a, b in zip(self.rows, other.rows)
            )
        )


def _padded_row(words: list[np.ndarray], n_qubits: int) -> tuple[np.ndarray, ...]:
    empty = np.zeros(0, dtype=np.uint32)
    return tuple(words[q] if q < len(words) else empty for q in range(n_qubits))


def _check_header_qubits(n_qubits: int) -> None:
    if n_qubits > 0xFFFF:
        raise EncodeError(f"{n_qubits} qubits do not fit a PCEB header")


def build_param_table(circuits) -> ParamTable:
    """Each circuit's peeled words, in banks padded to the widest circuit;
    a width the PCEB header cannot hold is refused before any bank is made."""
    cs = list(circuits)
    n_qubits = max((c.n_qubits for c in cs), default=0)
    _check_header_qubits(n_qubits)
    rows = []
    for i, c in enumerate(cs):
        try:
            rows.append(_padded_row(peel(c), n_qubits))
        except CapacityError as exc:
            raise CapacityError(exc.qubit, exc.count, exc.limit, where=f"circuit {i}") from None
    return ParamTable(n_qubits, tuple(rows))


@dataclass(frozen=True, slots=True)
class RipResult:
    uniques: tuple[Circuit, ...]  # modified representatives, in group order
    report: EquivalenceReport
    table: ParamTable


def rip(batch) -> RipResult:
    report = identify(batch.circuits)
    table = build_param_table(batch.circuits)
    uniques = tuple(modify(batch.circuits[g[0]]) for g in report.groups)
    return RipResult(uniques, report, table)


def binarize(report: EquivalenceReport, table: ParamTable) -> bytes:
    """Serialize (execution order, unique flags, phase words) to the blob format."""
    n = table.n_circuits
    if report.n_circuits != n:
        raise ValueError(f"report covers {report.n_circuits} circuits, table {n}")
    _check_header_qubits(table.n_qubits)
    out = bytearray()
    out += BLOB_MAGIC
    out += struct.pack("<HHII", BLOB_VERSION, table.n_qubits, n, len(report.groups))
    out += np.asarray(report.order, dtype="<u4").tobytes()
    flags = bytearray((n + 7) // 8)
    for i in report.unique_indices:
        flags[i // 8] |= 1 << (i % 8)
    out += flags
    for i, row in enumerate(table.rows):
        try:
            for bank, words in enumerate(row):
                out += encode_words(words, bank)
        except ValidationError as exc:
            raise ValidationError(f"circuit {i}: {exc}") from None
    out += struct.pack("<I", zlib.crc32(out) & 0xFFFFFFFF)
    return bytes(out)


def encode_words(words, bank: int = 0) -> bytes:
    """Bank ``bank`` as PCEB rows and LOAD_PARAMS frames carry it: u16 count,
    then u32 words; the words obey ``bank_words``."""
    arr = bank_words(words, bank)
    if arr.size > 0xFFFF:
        raise EncodeError(f"{arr.size} words do not fit a u16 bank count")
    return struct.pack("<H", arr.size) + arr.astype("<u4", copy=False).tobytes()


class ByteReader:
    """Bounded reads over ``data``; a fault's offset is ``base`` plus the read position,
    so a reader over a frame's payload reports frame offsets."""

    def __init__(self, data: bytes, base: int = 0):
        self.data = data
        self.base = base
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise DecodeError(f"truncated {what}", self.base + self.pos)
        b = self.data[self.pos : self.pos + n]
        self.pos += n
        return b

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def words(self, what: str, limit: int = 0xFFFF) -> np.ndarray:
        """Inverse of ``encode_words``; a count above ``limit`` is refused before the words."""
        count_pos = self.base + self.pos
        (count,) = self.unpack("<H", f"{what} word count")
        if count > limit:
            raise DecodeError(f"{what}: {count} words exceed bank capacity", count_pos)
        return np.frombuffer(self.take(4 * count, f"{what} words"), dtype="<u4").copy()


def debinarize(blob: bytes) -> tuple[EquivalenceReport, ParamTable]:
    """Exact inverse of ``binarize``; raises DecodeError naming the bad offset."""
    if len(blob) < 4:
        raise DecodeError("blob shorter than magic", 0)
    if blob[:4] != BLOB_MAGIC:
        raise DecodeError(f"bad magic {blob[:4]!r}", 0)
    if len(blob) < 4 + 12 + 4:
        raise DecodeError("blob shorter than fixed header", len(blob))
    stored_crc = struct.unpack("<I", blob[-4:])[0]
    actual_crc = zlib.crc32(blob[:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise DecodeError(
            f"checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}",
            len(blob) - 4,
        )
    r = ByteReader(blob[:-4])
    r.take(4, "blob magic")
    version, n_qubits, n, n_groups = r.unpack("<HHII", "blob header")
    if version != BLOB_VERSION:
        raise DecodeError(f"unsupported blob version {version}", 4)
    if n_groups > n or (n > 0 and n_groups == 0):
        raise DecodeError(f"group count {n_groups} inconsistent with {n} circuits", 8)
    order_pos = r.pos
    order = np.frombuffer(r.take(4 * n, "order array"), dtype="<u4").astype(np.int64)
    if n and (sorted(order.tolist()) != list(range(n))):
        raise DecodeError("order array is not a permutation of the batch", order_pos)
    flags = r.take((n + 7) // 8, "unique-flag bitmap")
    unique = [bool(flags[i // 8] >> (i % 8) & 1) for i in range(n)]
    if sum(unique) != n_groups:
        raise DecodeError(
            f"{sum(unique)} unique flags set but header declares {n_groups} groups", 8
        )
    groups: list[list[int]] = []
    for idx in order.tolist():
        if unique[idx]:
            groups.append([idx])
        elif groups:
            groups[-1].append(idx)
        else:
            raise DecodeError("execution order does not begin with a unique circuit", order_pos)
    rows = [
        tuple(r.words(f"circuit {i} qubit {q}", BANK_CAPACITY) for q in range(n_qubits))
        for i in range(n)
    ]
    if r.pos != len(r.data):
        raise DecodeError(f"{len(r.data) - r.pos} unexpected trailing bytes", r.pos)
    report = EquivalenceReport(tuple(tuple(g) for g in groups))
    return report, ParamTable(n_qubits, tuple(rows))
