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


# module names for the kinds, read by the per-gate paths here and in fileio, rip,
# generators and verify: a GateKind.<member> lookup costs far more than a global
_X90, _VZ, _CZ, _MEASURE = GateKind.X90, GateKind.VIRTUAL_Z, GateKind.TWO_QUBIT, GateKind.MEASURE
_DELAY, _PREQ = GateKind.DELAY, GateKind.PARAM_REQUEST


@dataclass(frozen=True, slots=True)
class Gate:
    """One native operation, valid by construction.

    ``__post_init__`` is the one statement of the gate rules: ``kind`` is a
    ``GateKind``; ``qubits`` is a tuple of int ids, two distinct ones for
    TWO_QUBIT (CZ) and one for every other kind; ``phase`` is a Python float
    in [0, 2*pi), never -0.0, on VIRTUAL_Z and zero elsewhere; ``duration_ns``
    is a non-negative int on DELAY and zero elsewhere.  So a gate that builds
    writes circuit text that reads back equal, and two gates that ``modify``
    leaves are equal exactly when they compile to the same assembly row.
    """

    kind: GateKind
    qubits: tuple[int, ...]
    phase: float = 0.0
    duration_ns: int = 0

    def __post_init__(self):
        kind, qubits, phase, duration = self.kind, self.qubits, self.phase, self.duration_ns
        if type(kind) is not GateKind:
            raise ValidationError(f"gate kind must be a GateKind, got {kind!r}")
        if kind is _CZ:
            if (
                type(qubits) is not tuple
                or len(qubits) != 2
                or not type(qubits[0]) is type(qubits[1]) is int
                or qubits[0] == qubits[1]
            ):
                raise ValidationError(f"CZ gate needs 2 distinct qubits (int ids), got {qubits!r}")
        elif type(qubits) is not tuple or len(qubits) != 1 or type(qubits[0]) is not int:
            raise ValidationError(f"{kind.value} gate needs 1 qubit (an int id), got {qubits!r}")
        if kind is _VZ:
            if type(phase) is not float or not 0.0 <= phase < TAU or math.copysign(1.0, phase) < 0:
                raise ValidationError(f"VZ phase must be a float in [0, 2*pi), got {phase!r}")
        elif kind is _DELAY:
            if type(duration) is not int or duration < 0:
                raise ValidationError(f"DELAY duration must be a non-negative int, got {duration!r}")
        if (phase != 0.0 and kind is not _VZ) or (duration != 0 and kind is not _DELAY):
            raise ValidationError(
                f"{kind.value} gate cannot carry phase {phase!r} or duration {duration!r}"
            )


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


@dataclass(frozen=True, slots=True)
class Circuit:
    """An ordered gate sequence over ``n_qubits`` qubits, run for ``shots`` shots."""

    gates: tuple[Gate, ...]
    n_qubits: int
    shots: int = 100

    def __post_init__(self):
        if self.n_qubits <= 0:
            raise ValidationError(f"n_qubits must be positive, got {self.n_qubits}")
        if self.shots <= 0:
            raise ValidationError(f"shots must be positive, got {self.shots}")
        object.__setattr__(self, "gates", tuple(self.gates))
        measured = 0  # bitmask of qubits already measured
        for g in self.gates:
            for q in g.qubits:
                if q < 0 or q >= self.n_qubits:
                    raise ValidationError(f"gate {g} touches qubit {q} outside 0..{self.n_qubits - 1}")
                if measured >> q & 1:
                    raise ValidationError(f"qubit {q} is used after its measurement")
            if g.kind is _MEASURE:
                measured |= 1 << g.qubits[0]


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


def u3_matrix(params: U3Params) -> np.ndarray:
    """2x2 matrix of the lowered gate: Z(phi-pi/2) X90 Z(pi-theta) X90 Z(lam-pi/2)."""
    return (
        z_matrix(params.phi - math.pi / 2)
        @ X90_MATRIX
        @ z_matrix(math.pi - params.theta)
        @ X90_MATRIX
        @ z_matrix(params.lam - math.pi / 2)
    )


def u3_decompose(params: U3Params, q: int) -> list[Gate]:
    """Lower an arbitrary single-qubit gate to 2 X90 pulses and 3 virtual-Z phases.

    Gates come back in application order, i.e. the rightmost factor of the
    operator product first.
    """
    return [
        vz(q, params.lam - math.pi / 2),
        x90(q),
        vz(q, math.pi - params.theta),
        x90(q),
        vz(q, params.phi - math.pi / 2),
    ]


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
