"""Tests for the circuit IR, phase arithmetic, and the unitary oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pce.circuits import (
    TAU,
    X90_MATRIX,
    Circuit,
    Gate,
    GateKind,
    U3Params,
    canonical_phase,
    circuit_unitary,
    cz,
    delay,
    global_phase_distance,
    measure,
    param_request,
    u3_decompose,
    u3_from_unitary,
    u3_matrix,
    vz,
    x90,
    z_matrix,
)
from pce.errors import UnsupportedGateError, ValidationError

X_PAULI = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def u3_matrix_oracle(params: U3Params) -> np.ndarray:
    """Independent explicit five-factor multiplication."""
    z = lambda a: np.array([[1, 0], [0, np.exp(1j * a)]], dtype=complex)
    x = np.array([[1, -1j], [-1j, 1]], dtype=complex) / np.sqrt(2)
    return (
        z(params.phi - np.pi / 2)
        @ x
        @ z(np.pi - params.theta)
        @ x
        @ z(params.lam - np.pi / 2)
    )


# angles a builder must canonicalize: signs, zeros, exact turns, huge and tiny values
EDGE_ANGLES = (0.0, -0.0, TAU, -TAU, 3 * TAU, TAU - 1e-15, -1e-300, 5e-324, math.pi, 1e300, -1e300)
builder_angles = st.one_of(
    st.sampled_from(EDGE_ANGLES),
    st.floats(allow_nan=False, allow_infinity=False),
).flatmap(lambda a: st.sampled_from((a, np.float64(a))))


@st.composite
def gates_that_build(draw, n_qubits: int) -> Gate:
    """A gate on ``0..n_qubits - 1``: built directly from drawn fields when the
    rules accept them, else through its builder from raw numpy or edge values."""
    q = draw(st.integers(0, n_qubits - 1))
    kind = draw(st.sampled_from(list(GateKind)))
    if kind is GateKind.TWO_QUBIT and n_qubits == 1:
        kind = GateKind.X90
    qubits = (q, (q + 1) % n_qubits) if kind is GateKind.TWO_QUBIT else (q,)
    if draw(st.booleans()):
        phase = draw(st.sampled_from((0.0, -0.0, 0.5, 7.0, np.float64(0.5))))
        duration = draw(st.sampled_from((0, 5, -4, 1.5)))
        try:
            return Gate(kind, qubits, phase, duration)
        except ValidationError:
            pass
    if kind is GateKind.VIRTUAL_Z:
        return vz(q, draw(builder_angles))
    if kind is GateKind.DELAY:
        ns = draw(st.integers(0, 2**32 - 1))
        return delay(q, draw(st.sampled_from((ns, np.int64(ns), float(ns)))))
    if kind is GateKind.TWO_QUBIT:
        return cz(*qubits)
    builders = {GateKind.X90: x90, GateKind.MEASURE: measure, GateKind.PARAM_REQUEST: param_request}
    return builders[kind](q)


@st.composite
def circuits_that_build(draw, max_qubits: int = 3, max_gates: int = 14) -> Circuit:
    """A circuit of ``gates_that_build``, dropping each gate on a measured qubit."""
    n_qubits = draw(st.integers(1, max_qubits))
    gates, measured = [], set()
    for _ in range(draw(st.integers(0, max_gates))):
        g = draw(gates_that_build(n_qubits))
        if measured.isdisjoint(g.qubits):
            gates.append(g)
            if g.kind is GateKind.MEASURE:
                measured.add(g.qubits[0])
    return Circuit(tuple(gates), n_qubits, shots=draw(st.integers(1, 3)))


class TestCanonicalPhase:
    @pytest.mark.parametrize(
        "raw, expected",
        [(0.0, 0.0), (-math.pi / 2, 3 * math.pi / 2), (5 * math.pi, math.pi)],
    )
    def test_known_values(self, raw, expected):
        assert canonical_phase(raw) == pytest.approx(expected, abs=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for p in rng.uniform(-50, 50, size=500):
            c = canonical_phase(p)
            assert 0.0 <= c < TAU
            assert canonical_phase(c) == c

    def test_tiny_negative_does_not_round_to_tau(self):
        assert 0.0 <= canonical_phase(-1e-20) < TAU

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            canonical_phase(float("nan"))
        with pytest.raises(ValidationError):
            canonical_phase(float("inf"))


def _reference_misuse(gates, n_qubits: int) -> str | None:
    """Oracle for the circuit rules: one pass over the gates with a bitmask of measured qubits."""
    measured = 0
    for g in gates:
        for q in g.qubits:
            if q >= n_qubits:
                return f"gate {g} touches qubit {q} outside 0..{n_qubits - 1}"
            if measured >> q & 1:
                return f"qubit {q} is used after its measurement"
        if g.kind is GateKind.MEASURE:
            measured |= 1 << g.qubits[0]
    return None


class TestGateAndCircuitInvariants:
    def test_two_qubit_needs_distinct_pair(self):
        with pytest.raises(ValidationError):
            cz(1, 1)
        with pytest.raises(ValidationError):
            Gate(GateKind.TWO_QUBIT, (1,))

    def test_single_qubit_kinds_need_one_qubit(self):
        with pytest.raises(ValidationError):
            Gate(GateKind.X90, (0, 1))

    def test_phase_only_on_virtual_z(self):
        with pytest.raises(ValidationError):
            Gate(GateKind.X90, (0,), phase=0.5)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Gate("X90", (0,)),
            lambda: Gate(GateKind.X90, [0]),
            lambda: Gate(GateKind.X90, (0.0,)),
            lambda: Gate(GateKind.TWO_QUBIT, (0, np.int64(1))),
            lambda: Gate(GateKind.X90, (0,), duration_ns=5),
            lambda: Gate(GateKind.VIRTUAL_Z, (0,), phase=7.0),
            lambda: Gate(GateKind.VIRTUAL_Z, (0,), phase=-0.5),
            lambda: Gate(GateKind.VIRTUAL_Z, (0,), phase=-0.0),
            lambda: Gate(GateKind.VIRTUAL_Z, (0,), phase=np.float64(1.0)),
            lambda: Gate(GateKind.VIRTUAL_Z, (0,), phase=1),
            lambda: Gate(GateKind.DELAY, (0,), duration_ns=-4),
            lambda: Gate(GateKind.DELAY, (0,), duration_ns=1.5),
            lambda: Gate(GateKind.DELAY, (0,), duration_ns=np.int64(8)),
            lambda: delay(0, -4),
        ],
        ids=[
            "kind-not-gatekind", "qubits-list", "qubit-float", "qubit-numpy", "duration-on-x90",
            "phase-above-tau", "phase-negative", "phase-minus-zero", "phase-numpy", "phase-int",
            "duration-negative", "duration-float", "duration-numpy", "delay-builder-negative",
        ],
    )
    def test_malformed_gate_refused(self, build):
        with pytest.raises(ValidationError):
            build()

    def test_builders_canonicalize_into_the_rules(self):
        g = vz(0, np.float64(-math.pi / 2))
        assert type(g.phase) is float and g.phase == 3 * math.pi / 2
        assert vz(0, -0.0).phase == 0.0 and math.copysign(1.0, vz(0, -0.0).phase) == 1.0
        assert delay(0, np.int64(40)) == Gate(GateKind.DELAY, (0,), duration_ns=40)
        assert type(canonical_phase(np.float64(7.0))) is float

    def test_qubits_must_fit_circuit(self):
        with pytest.raises(ValidationError):
            Circuit((x90(3),), n_qubits=2)

    def test_measure_must_be_final_on_its_qubit(self):
        with pytest.raises(ValidationError):
            Circuit((measure(0), x90(0)), n_qubits=1)
        # measuring another qubit is fine
        Circuit((measure(0), x90(1), measure(1)), n_qubits=2)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.integers(1, 3).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(gates_that_build(n + 1), max_size=10))
    ))
    def test_the_circuit_rules_name_the_fault_the_per_gate_pass_names(self, case):
        n_qubits, gates = case
        want = _reference_misuse(gates, n_qubits)
        try:
            c = Circuit(gates, n_qubits)
        except ValidationError as exc:
            assert str(exc) == want
        else:
            assert want is None and c.gates == tuple(gates)

    @pytest.mark.parametrize(
        "n_qubits, shots",
        [(1, 2.5), (1, True), (True, 2), (1.0, 2), (1, "2"), (1, np.float64(2.0))],
    )
    def test_a_count_that_is_not_an_integer_is_refused(self, n_qubits, shots):
        with pytest.raises(ValidationError, match="must be an integer"):
            Circuit([x90(0), measure(0)], n_qubits, shots=shots)

    def test_numpy_integer_counts_are_taken_as_ints(self):
        c = Circuit([x90(0), measure(0)], np.int64(1), shots=np.uint32(2))
        assert (type(c.n_qubits), type(c.shots), c.n_qubits, c.shots) == (int, int, 1, 2)


class TestU3:
    def test_decompose_gate_kinds(self):
        gates = u3_decompose(U3Params(0.3, 1.1, -0.7), 0)
        kinds = [g.kind for g in gates]
        assert kinds == [
            GateKind.VIRTUAL_Z,
            GateKind.X90,
            GateKind.VIRTUAL_Z,
            GateKind.X90,
            GateKind.VIRTUAL_Z,
        ]

    def test_decompose_zero_params_phases(self):
        gates = u3_decompose(U3Params(0.0, 0.0, 0.0), 0)
        phases = [g.phase for g in gates if g.kind is GateKind.VIRTUAL_Z]
        assert phases == pytest.approx([3 * math.pi / 2, math.pi, 3 * math.pi / 2])

    def test_matrix_against_explicit_product(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = U3Params(*rng.uniform(-TAU, TAU, size=3))
            assert np.allclose(u3_matrix(p), u3_matrix_oracle(p), atol=1e-12)

    def test_matrix_is_unitary(self):
        U = u3_matrix(U3Params(0.0, math.pi, 0.0))
        assert np.allclose(U @ U.conj().T, np.eye(2), atol=1e-12)

    def test_theta_periodicity_up_to_phase(self):
        p1 = U3Params(0.4, 0.9, 1.3)
        p2 = U3Params(0.4, 0.9 + TAU, 1.3)
        assert global_phase_distance(u3_matrix(p1), u3_matrix(p2)) <= 1e-10

    def test_decompose_product_matches_matrix(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = U3Params(*rng.uniform(-TAU, TAU, size=3))
            gates = u3_decompose(p, 0)
            prod = np.eye(2, dtype=complex)
            for g in gates:
                m = X90_MATRIX if g.kind is GateKind.X90 else z_matrix(g.phase)
                prod = m @ prod
            assert global_phase_distance(prod, u3_matrix(p)) < 1e-10


class TestU3FromUnitary:
    def test_identity(self):
        p = u3_from_unitary(np.eye(2, dtype=complex))
        assert global_phase_distance(u3_matrix(p), np.eye(2)) <= 1e-10

    def test_round_trip(self):
        p0 = U3Params(0.5, 1.2, 2.2)
        p = u3_from_unitary(u3_matrix(p0))
        assert global_phase_distance(u3_matrix(p), u3_matrix(p0)) <= 1e-10

    def test_x_pauli(self):
        p = u3_from_unitary(X_PAULI)
        assert global_phase_distance(u3_matrix(p), X_PAULI) <= 1e-10

    def test_random_unitaries_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            Q, _ = np.linalg.qr(A)
            p = u3_from_unitary(Q)
            assert global_phase_distance(u3_matrix(p), Q) < 1e-8

    def test_near_pauli_x_with_small_diagonal(self):
        eps = 1e-5
        U = np.array(
            [[math.cos(eps), -1j * math.sin(eps)], [-1j * math.sin(eps), math.cos(eps)]],
            dtype=complex,
        ) @ X_PAULI
        p = u3_from_unitary(U)
        assert global_phase_distance(u3_matrix(p), U) < 1e-8

    def test_non_unitary_rejected(self):
        with pytest.raises(ValidationError):
            u3_from_unitary(np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex))


class TestCircuitUnitary:
    def test_empty_circuit_is_identity(self):
        U = circuit_unitary(Circuit((), n_qubits=2))
        assert np.array_equal(U, np.eye(4))

    def test_two_x90_make_x(self):
        U = circuit_unitary(Circuit((x90(0), x90(0)), n_qubits=1))
        assert global_phase_distance(U, X_PAULI) < 1e-10

    def test_cz_diagonal(self):
        U = circuit_unitary(Circuit((cz(0, 1),), n_qubits=2))
        assert np.allclose(U, np.diag([1, 1, 1, -1]), atol=1e-12)

    def test_qubit_zero_is_most_significant(self):
        # X on qubit 0 of two maps |00> -> |10>, i.e. index 0 -> index 2
        U = circuit_unitary(Circuit((x90(0), x90(0)), n_qubits=2))
        amps = U @ np.eye(4)[:, 0]
        assert abs(amps[2]) == pytest.approx(1.0, abs=1e-12)

    def test_delay_is_identity(self):
        U = circuit_unitary(Circuit((delay(0, 100),), n_qubits=1))
        assert np.array_equal(U, np.eye(2))

    def test_measure_rejected(self):
        with pytest.raises(UnsupportedGateError):
            circuit_unitary(Circuit((measure(0),), n_qubits=1))

    def test_qubit_count_cap(self):
        with pytest.raises(ValidationError):
            circuit_unitary(Circuit((), n_qubits=5), max_qubits=4)


class TestInvariantSweeps:
    def test_thousand_random_decompositions(self):
        rng = np.random.default_rng(2026)
        for _ in range(1000):
            p = U3Params(*rng.uniform(-TAU, TAU, size=3))
            gates = u3_decompose(p, 0)
            assert sum(g.kind is GateKind.X90 for g in gates) == 2
            assert sum(g.kind is GateKind.VIRTUAL_Z for g in gates) == 3
            prod = np.eye(2, dtype=complex)
            for g in gates:
                m = X90_MATRIX if g.kind is GateKind.X90 else z_matrix(g.phase)
                prod = m @ prod
            assert global_phase_distance(prod, u3_matrix(p)) < 1e-10
