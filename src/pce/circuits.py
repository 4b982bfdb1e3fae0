"""Circuit IR, phase arithmetic, the ZXZXZ lowering, and a small-system unitary oracle.

Conventions used throughout the package (any self-consistent choice works,
these are ours):

* ``Z(a) = diag(1, exp(i*a))`` and ``X90 = (1/sqrt(2)) [[1, -1j], [-1j, 1]]``.
* A circuit's gate list is in temporal order: ``gates[0]`` acts first.  The
  matrix of a circuit is therefore ``U = M(gates[-1]) @ ... @ M(gates[0])``.
* Qubit 0 is the most significant bit of a computational basis index, so the
  basis state ``|q0 q1 ... >`` has index ``q0*2^(n-1) + q1*2^(n-2) + ...``.
* Unitaries are compared up to global phase; ``global_phase_distance`` aligns
  the candidate pair before taking an elementwise max difference.

A circuit has one form: int32 row ids into a ``GateTable`` of distinct
gates, whether read from text, generated, made by ``modify`` or built from
``Gate``s, and is read, made, grouped, peeled, compiled and written per
table row (columns, or ``GateTable.each``), not per gate; ``Gate`` is the
value type a row builds on demand.  ``check_gate_row`` states the gate
rules once, ``GateTable.misuse`` the circuit rules, ``u3_phases`` the lowering.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import UnsupportedGateError, ValidationError

TAU = 2.0 * math.pi

X90_MATRIX = np.array([[1.0, -1.0j], [-1.0j, 1.0]], dtype=complex) / math.sqrt(2.0)


class GateKind(Enum):
    """Native operations; each value is the gate's token in circuit text."""

    X90 = "X90"
    VIRTUAL_Z = "VZ"
    TWO_QUBIT = "CZ"  # the only two-qubit gate
    MEASURE = "MEAS"
    DELAY = "DELAY"
    PARAM_REQUEST = "PREQ"


# module names for the kinds, read by the per-gate paths here and in fileio and
# verify: a GateKind.<member> lookup costs far more than a global
_X90, _VZ, _CZ, _MEASURE = GateKind.X90, GateKind.VIRTUAL_Z, GateKind.TWO_QUBIT, GateKind.MEASURE
_DELAY, _PREQ = GateKind.DELAY, GateKind.PARAM_REQUEST


KINDS = tuple(GateKind)  # a kind's code in a row table is its index here
_VZ_CODE, _CZ_CODE, _PREQ_CODE = KINDS.index(_VZ), KINDS.index(_CZ), KINDS.index(_PREQ)
_X90_CODE, _MEASURE_CODE = KINDS.index(_X90), KINDS.index(_MEASURE)
QUBIT_LIMIT = 1 << 15  # qubit ids fit a row table's int16 columns
PHASE_SCALE = 4294967296.0  # 2**32 phase words over one turn


def check_gate_row(kind, qubits, phase, duration) -> None:
    """The one statement of the gate rules, read by ``Gate`` and the circuit-text reader.

    ``kind`` is a ``GateKind``; ``qubits`` a tuple of int ids below
    ``QUBIT_LIMIT``, two distinct ones for TWO_QUBIT (CZ) and one for every
    other kind; ``phase`` a Python float in [0, 2*pi), never -0.0, on
    VIRTUAL_Z and zero elsewhere; ``duration`` an int in 0..2**63-1 on DELAY
    and zero elsewhere.  So a gate that builds writes text that reads back
    equal and fits a ``GateTable`` row, and two gates that ``modify`` leaves
    are equal exactly when they compile to the same assembly row.
    """
    if type(kind) is not GateKind:
        raise ValidationError(f"gate kind must be a GateKind, got {kind!r}")
    two = kind is _CZ
    if (
        type(qubits) is not tuple
        or len(qubits) != 1 + two
        or not type(qubits[0]) is type(qubits[-1]) is int
        or not (0 <= qubits[0] < QUBIT_LIMIT and 0 <= qubits[-1] < QUBIT_LIMIT)
        or (two and qubits[0] == qubits[1])
    ):
        need = "2 distinct qubits (int ids" if two else "1 qubit (an int id"
        raise ValidationError(f"{kind.value} gate needs {need} below {QUBIT_LIMIT}), got {qubits!r}")
    if kind is _VZ:
        if type(phase) is not float or not 0.0 <= phase < TAU or math.copysign(1.0, phase) < 0:
            raise ValidationError(f"VZ phase must be a float in [0, 2*pi), got {phase!r}")
    elif kind is _DELAY and (type(duration) is not int or not 0 <= duration < 1 << 63):
        raise ValidationError(f"DELAY duration must be a non-negative int64, got {duration!r}")
    if (phase != 0.0 and kind is not _VZ) or (duration != 0 and kind is not _DELAY):
        raise ValidationError(
            f"{kind.value} gate cannot carry phase {phase!r} or duration {duration!r}"
        )


@dataclass(frozen=True, slots=True)
class Gate:
    """One native operation, valid by construction (``check_gate_row``)."""

    kind: GateKind
    qubits: tuple[int, ...]
    phase: float = 0.0
    duration_ns: int = 0

    def __post_init__(self):
        check_gate_row(self.kind, self.qubits, self.phase, self.duration_ns)


def x90(q: int) -> Gate:
    return Gate(_X90, (q,))


def vz(q: int, phase: float) -> Gate:
    return Gate(_VZ, (q,), phase=canonical_phase(phase))


def cz(a: int, b: int) -> Gate:
    return Gate(_CZ, (a, b))


def measure(q: int) -> Gate:
    return Gate(_MEASURE, (q,))


def delay(q: int, duration_ns: int) -> Gate:
    return Gate(_DELAY, (q,), duration_ns=int(duration_ns))


def param_request(q: int) -> Gate:
    return Gate(_PREQ, (q,))


def quantize_phases(phases) -> np.ndarray:
    """Quantize an array of angles to u32 words: round(canonical/2pi * 2^32) mod 2^32."""
    arr = np.asarray(phases, dtype=np.float64)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("phases must be finite")
    r = np.mod(arr, TAU)
    r[r >= TAU] = 0.0
    return (np.round(r / TAU * PHASE_SCALE).astype(np.int64) % (1 << 32)).astype(np.uint32)


# a row: the kind's code, the qubits (q1 is zero off CZ), the phase and the duration
ROW_DTYPE = np.dtype(
    [("kind", "u1"), ("q0", "i2"), ("q1", "i2"), ("phase", "f8"), ("duration", "i8")], align=True
)


def row_fields(code: int, q0: int, q1: int, phase: float, duration: int) -> tuple:
    """A row's gate fields (kind, qubits, phase, duration), as ``check_gate_row`` takes them."""
    return KINDS[code], (q0, q1) if code == _CZ_CODE else (q0,), phase, duration


class GateTable:
    """Distinct gates, one ``ROW_DTYPE`` row each, that circuits hold by int32 row id.

    The rows are distinct, so two ids of one table are equal exactly when
    their gates are.  Each qubit a VIRTUAL_Z row acts on has a PARAM_REQUEST
    row too: ``erased[r]`` is the row ``modify`` makes of row ``r`` (``r``
    itself off VIRTUAL_Z).  ``words`` holds each row's quantized phase.
    """

    def __init__(self, records):
        rows = np.array(records, dtype=ROW_DTYPE)
        missing = np.zeros(QUBIT_LIMIT, dtype=bool)
        missing[rows["q0"][rows["kind"] == _VZ_CODE]] = True
        missing[rows["q0"][rows["kind"] == _PREQ_CODE]] = False
        twins = np.zeros(np.count_nonzero(missing), dtype=ROW_DTYPE)
        twins["kind"], twins["q0"] = _PREQ_CODE, np.flatnonzero(missing)
        self.rows = rows = np.concatenate([rows, twins])
        self.kind, self.q0, self.q1, self.duration = (rows[f] for f in ("kind", "q0", "q1", "duration"))
        self.words = quantize_phases(rows["phase"])
        preq = np.flatnonzero(self.kind == _PREQ_CODE)
        preq = preq[np.argsort(self.q0[preq])]
        vz = np.flatnonzero(self.kind == _VZ_CODE)
        self.erased = np.arange(len(rows), dtype=np.int32)
        self.erased[vz] = preq[np.searchsorted(self.q0[preq], self.q0[vz])]
        self._built: list[Gate | None] = [None] * len(rows)  # each row's Gate once built
        self._each: dict = {}  # the lists ``each`` made
        self._checked: set[tuple[int, bytes]] = set()  # the (n_qubits, erased ids) that pass

    def gate(self, r: int) -> Gate:
        """Row ``r`` as a ``Gate``, one object per row."""
        if self._built[r] is None:
            self._built[r] = Gate(*row_fields(*self.rows[r].item()))
        return self._built[r]

    def each(self, build) -> list:
        """Every row as ``build(kind, qubits, phase, duration)``, made once per table and ``build``."""
        if build not in self._each:
            self._each[build] = [build(*row_fields(*row)) for row in self.rows.tolist()]
        return self._each[build]

    def misuse(self, ids: np.ndarray, n_qubits: int) -> str | None:
        """The one statement of the circuit rules: each gate of ``ids`` acts on
        qubits in ``0..n_qubits - 1``, and none uses a qubit after a MEASURE
        on it.  The first fault, or None.  The rules read only qubits and
        measures, which ``modify`` keeps, so each erased structure is checked
        once per qubit count, over columns; only a fault builds a ``Gate``."""
        erased = self.erased[ids]
        key = (n_qubits, erased.tobytes())
        if key in self._checked:
            return None
        kind, q0, q1 = self.kind[erased], self.q0[erased], self.q1[erased]
        at = np.arange(len(ids))
        measures = np.flatnonzero(kind == _MEASURE_CODE)
        measured_at = np.full(int(max(q0.max(initial=0), q1.max(initial=0))) + 1, len(ids))
        np.minimum.at(measured_at, q0[measures], measures)  # each qubit's first MEASURE
        late = (q0 >= n_qubits) | (measured_at[q0] < at)
        late |= (kind == _CZ_CODE) & ((q1 >= n_qubits) | (measured_at[q1] < at))
        if not late.any():
            self._checked.add(key)
            return None
        i = int(np.argmax(late))
        g = self.gate(int(ids[i]))
        q = next(q for q in g.qubits if q >= n_qubits or measured_at[q] < i)
        if q >= n_qubits:
            return f"gate {g} touches qubit {q} outside 0..{n_qubits - 1}"
        return f"qubit {q} is used after its measurement"

    def erased_ids(self, space: dict) -> np.ndarray:
        """Each row's erased row as an id in ``space``, a map from row content
        to id that grows as it meets new content, so tables sharing it agree."""
        rows, inverse = np.unique(self.erased, return_inverse=True)
        ids = [space.setdefault(self.rows[r].item(), len(space)) for r in rows.tolist()]
        return np.array(ids, dtype=np.int32)[inverse]


class Circuit:
    """An ordered gate sequence over ``n_qubits`` qubits, run for ``shots`` shots.

    It holds int32 row ids ``ids`` into a ``GateTable`` ``table``: read from
    text, made by ``generators``, or by ``modify``.  Built from ``Gate``s, it
    numbers their distinct gates in first appearance in a table of its own.
    ``gates`` is a view on demand; equal content compares and hashes equal.
    """

    __slots__ = ("n_qubits", "shots", "table", "ids")

    def __init__(self, gates, n_qubits: int, shots: int = 100, table: GateTable | None = None):
        """``gates`` are ``Gate``s, or the row ids into ``table`` when one is given."""
        self.n_qubits, self.shots = require_int(n_qubits, "n_qubits"), require_int(shots, "shots")
        for what, n in (("n_qubits", self.n_qubits), ("shots", self.shots)):
            if n <= 0:
                raise ValidationError(f"{what} must be positive, got {n}")
        if table is None:
            index: dict[Gate, int] = {}
            gates = [index.setdefault(g, len(index)) for g in gates]
            table = GateTable([
                (KINDS.index(g.kind), g.qubits[0], g.qubits[-1] if g.kind is _CZ else 0, g.phase,
                 g.duration_ns)
                for g in index
            ])
            table._built[: len(index)] = index  # its rows' gates are these
        self.table, self.ids = table, np.asarray(gates, dtype=np.int32)
        fault = table.misuse(self.ids, self.n_qubits)
        if fault is not None:
            raise ValidationError(fault)

    @property
    def gates(self) -> tuple[Gate, ...]:
        return tuple(map(self.table.gate, self.ids.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        if (self.n_qubits, self.shots) != (other.n_qubits, other.shots):
            return False
        if self.table is other.table:
            return np.array_equal(self.ids, other.ids)
        return np.array_equal(self.table.rows[self.ids], other.table.rows[other.ids])

    def __hash__(self) -> int:
        return hash((self.n_qubits, self.shots, tuple(self.table.rows[self.ids].tolist())))

    def __repr__(self) -> str:
        return f"Circuit(gates={self.gates!r}, n_qubits={self.n_qubits}, shots={self.shots})"


def require_int(value, what: str, error: type = ValidationError) -> int:
    """``value`` as an int if it is a Python or numpy integer (not a bool): nothing is truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True, slots=True)
class U3Params:
    """The three phases parameterizing an arbitrary single-qubit gate."""

    phi: float
    theta: float
    lam: float

    def __post_init__(self):
        for v in (self.phi, self.theta, self.lam):
            if not math.isfinite(v):
                raise ValidationError(f"non-finite angle in {self!r}")


def canonical_phase(p: float) -> float:
    """Reduce an angle to the canonical interval [0, 2*pi)."""
    if not math.isfinite(p):
        raise ValidationError(f"phase must be finite, got {p}")
    r = float(p) % TAU
    # p % TAU rounds to TAU itself for tiny negative p
    return 0.0 if r >= TAU else r


def z_matrix(alpha: float) -> np.ndarray:
    return np.array([[1.0, 0.0], [0.0, cmath.exp(1j * alpha)]], dtype=complex)


def u3_phases(params: U3Params) -> tuple[float, float, float]:
    """The VZ angles of the lowering Z(phi-pi/2) X90 Z(pi-theta) X90 Z(lam-pi/2), rightmost first."""
    return params.lam - math.pi / 2, math.pi - params.theta, params.phi - math.pi / 2


def u3_matrix(params: U3Params) -> np.ndarray:
    """2x2 matrix of the lowered gate (``u3_phases``)."""
    first, middle, last = u3_phases(params)
    return z_matrix(last) @ X90_MATRIX @ z_matrix(middle) @ X90_MATRIX @ z_matrix(first)


def u3_decompose(params: U3Params, q: int) -> list[Gate]:
    """Lower an arbitrary single-qubit gate to 2 X90 pulses and 3 virtual-Z
    phases (``u3_phases``), in application order."""
    first, middle, last = u3_phases(params)
    return [vz(q, first), x90(q), vz(q, middle), x90(q), vz(q, last)]


def u3_rows(params: U3Params, q: int) -> tuple[tuple, ...]:
    """``u3_decompose`` as ``GateTable`` rows, its phases made by the same calls."""
    first, middle, last = map(canonical_phase, u3_phases(params))
    x = (_X90_CODE, q, 0, 0.0, 0)
    return (_VZ_CODE, q, 0, first, 0), x, (_VZ_CODE, q, 0, middle, 0), x, (_VZ_CODE, q, 0, last, 0)


def _assert_unitary(U: np.ndarray, atol: float) -> None:
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {U.shape}")
    err = np.max(np.abs(U @ U.conj().T - np.eye(U.shape[0])))
    if err > atol:
        raise ValidationError(f"matrix is not unitary (deviation {err:.3e} > {atol:.0e})")


def u3_from_unitary(U: np.ndarray, atol: float = 1e-8) -> U3Params:
    """Recover phases such that ``u3_matrix(result)`` equals U up to global phase."""
    U = np.asarray(U, dtype=complex)
    _assert_unitary(U, atol)
    return u3_from_unitary_unchecked(U)


def u3_from_unitary_unchecked(U: np.ndarray) -> U3Params:
    """``u3_from_unitary`` without the unitarity check, for a complex 2x2
    array that is unitary by construction (a product of unitaries)."""
    a00, a10 = abs(U[0, 0]), abs(U[1, 0])
    theta = 2.0 * math.atan2(a10, a00)
    if a00 < 1e-9:
        # theta ~ pi: the (0,0) entry is too small to anchor the global
        # phase, but its contribution to the reconstruction is below atol
        V = U / (U[1, 0] / a10)
        lam = cmath.phase(V[0, 1] / V[1, 0])
        return U3Params(0.0, theta, lam)
    # fix global phase so that the (0,0) entry is real positive
    V = U / (U[0, 0] / a00)
    if a10 < 1e-12:
        return U3Params(cmath.phase(V[1, 1]), theta, 0.0)
    phi = cmath.phase(V[1, 0]) + math.pi / 2
    lam = cmath.phase(V[0, 1]) + math.pi / 2
    return U3Params(phi, theta, lam)


def global_phase_distance(U: np.ndarray, V: np.ndarray) -> float:
    """Elementwise max of ``|U - exp(i*g)*V|`` minimized over the phase g."""
    U = np.asarray(U, dtype=complex)
    V = np.asarray(V, dtype=complex)
    if U.shape != V.shape:
        return math.inf
    s = np.vdot(V, U)  # tr(V^dag U); nonzero whenever U ~ V up to phase
    if abs(s) < 1e-14:
        k = int(np.argmax(np.abs(V)))
        v = V.reshape(-1)[k]
        s = U.reshape(-1)[k] * np.conj(v) if abs(v) > 1e-14 else 1.0
        if abs(s) < 1e-14:
            s = 1.0
    return float(np.max(np.abs(U - (s / abs(s)) * V)))


def _apply_1q(U: np.ndarray, m: np.ndarray, q: int, n: int) -> np.ndarray:
    # contract the 2x2 onto axis q of U viewed as a (2,)*n x dim tensor
    dim = 1 << n
    T = U.reshape((2,) * n + (dim,))
    T = np.tensordot(m, T, axes=([1], [q]))
    return np.moveaxis(T, 0, q).reshape(dim, dim)


def _apply_cz(U: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    dim = 1 << n
    T = U.reshape((2,) * n + (dim,)).copy()
    idx: list = [slice(None)] * (n + 1)
    idx[a] = 1
    idx[b] = 1
    T[tuple(idx)] *= -1.0
    return T.reshape(dim, dim)


def circuit_unitary(c: Circuit, max_qubits: int = 10) -> np.ndarray:
    """Full-circuit unitary with gates applied in list order.

    Supports X90, VIRTUAL_Z, TWO_QUBIT (CZ) and DELAY (identity); measurement
    and parameter-request gates have no unitary meaning here.
    """
    if c.n_qubits > max_qubits:
        raise ValidationError(f"{c.n_qubits} qubits exceeds the {max_qubits}-qubit oracle limit")
    n = c.n_qubits
    U = np.eye(1 << n, dtype=complex)
    for g in c.gates:
        if g.kind is GateKind.X90:
            U = _apply_1q(U, X90_MATRIX, g.qubits[0], n)
        elif g.kind is GateKind.VIRTUAL_Z:
            U = _apply_1q(U, z_matrix(g.phase), g.qubits[0], n)
        elif g.kind is GateKind.TWO_QUBIT:
            U = _apply_cz(U, g.qubits[0], g.qubits[1], n)
        elif g.kind is GateKind.DELAY:
            continue
        else:
            raise UnsupportedGateError(f"{g.kind.value} gate has no unitary")
    return U
