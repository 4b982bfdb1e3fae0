"""Tests for the batch generators: Clifford table, RB/CB/RC construction laws."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pce.generators as generators
from pce.asm import compile_circuit
from pce.circuits import (
    _PREQ_CODE,
    TAU,
    Circuit,
    Gate,
    GateTable,
    GateKind,
    U3Params,
    circuit_unitary,
    cz,
    global_phase_distance,
    measure,
    u3_decompose,
    u3_from_unitary,
    u3_matrix,
)
from pce.errors import ConfigError
from pce.generators import (
    _PAULI_MATRICES,
    _STREAM_RC,
    BASIS_PREP_PARAMS,
    MAX_QUBIT_ID,
    PAULI_NAMES,
    BatchSpec,
    PAULI_PARAMS,
    _cz_conjugate,
    _parse_layers,
    _rng,
    clifford_table,
    gen_batch,
    gen_random_base,
    gen_rc,
    gen_read_circuits,
    preset_spec,
)
from pce.fileio import write_batch
from pce.rip import identify, modify, peel

X_PAULI = np.array([[0, 1], [1, 0]], dtype=complex)
Y_PAULI = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z_PAULI = np.diag([1, -1]).astype(complex)


def strip_measures(c: Circuit) -> Circuit:
    gates = tuple(g for g in c.gates if g.kind is not GateKind.MEASURE)
    return Circuit(gates, c.n_qubits, c.shots)


def gate_counts(c: Circuit, q: int) -> tuple[int, int]:
    n_x90 = sum(1 for g in c.gates if g.kind is GateKind.X90 and g.qubits[0] == q)
    n_vz = sum(1 for g in c.gates if g.kind is GateKind.VIRTUAL_Z and g.qubits[0] == q)
    return n_x90, n_vz


class TestPauliParams:
    @pytest.mark.parametrize(
        "name, matrix",
        [("I", np.eye(2)), ("X", X_PAULI), ("Y", Y_PAULI), ("Z", Z_PAULI)],
    )
    def test_params_reproduce_paulis(self, name, matrix):
        assert global_phase_distance(u3_matrix(PAULI_PARAMS[name]), matrix) <= 1e-12


class TestCliffordTable:
    def test_size_is_24(self):
        assert len(clifford_table()) == 24

    def test_entry_zero_is_identity(self):
        table = clifford_table()
        assert global_phase_distance(table.matrices[0], np.eye(2)) <= 1e-9

    def test_entries_distinct_up_to_phase(self):
        table = clifford_table()
        for i in range(24):
            for j in range(i + 1, 24):
                assert global_phase_distance(table.matrices[i], table.matrices[j]) > 1e-3

    def test_closed_under_composition(self):
        # brute force over all pairwise products
        table = clifford_table()
        for a in table.matrices:
            for b in table.matrices:
                prod = a @ b
                hits = [
                    k
                    for k, m in enumerate(table.matrices)
                    if global_phase_distance(prod, m) < 1e-9
                ]
                assert len(hits) == 1


class TestRb:
    def spec(self, **kw):
        args = dict(
            kind="RB",
            widths=((0,), (0, 1)),
            depths=((2, 4),),
            randomizations=3,
            shots=25,
            seed=99,
        )
        args.update(kw)
        return BatchSpec(**args)

    def test_gate_count_law(self):
        batch = gen_batch(self.spec())
        for c, label in zip(batch.circuits, batch.labels):
            if label.role != "rb":
                continue
            m = label.depth
            for q in label.width:
                assert gate_counts(c, q) == (2 * (m + 1), 3 * (m + 1))

    def test_single_qubit_depth4_counts(self):
        spec = self.spec(widths=((0,),), depths=((4,),), randomizations=1)
        c = gen_batch(spec).circuits[0]
        assert gate_counts(c, 0) == (10, 15)

    def test_inverts_to_identity(self):
        batch = gen_batch(self.spec())
        for c, label in zip(batch.circuits, batch.labels):
            if label.role != "rb":
                continue
            U = circuit_unitary(strip_measures(c))
            assert global_phase_distance(U, np.eye(U.shape[0])) < 1e-9

    def test_batch_count_includes_read_circuits(self):
        spec = self.spec()
        batch = gen_batch(spec)
        assert len(batch) == spec.expected_count() == 2 * (2 * 3 + 2)

    def test_same_width_depth_structurally_equal(self):
        batch = gen_batch(self.spec())
        by_key = {}
        for c, label in zip(batch.circuits, batch.labels):
            if label.role == "rb":
                by_key.setdefault((label.width, label.depth), []).append(c)
        for circuits in by_key.values():
            assert len(identify(circuits).groups) == 1

    def test_group_count_per_width(self):
        # one group per depth plus one shared group for the read pair
        spec = self.spec(widths=((0, 1),))
        report = identify(gen_batch(spec).circuits)
        assert len(report.groups) == 2 + 1

    def test_deterministic(self):
        a = gen_batch(self.spec())
        b = gen_batch(self.spec())
        assert a.circuits == b.circuits
        assert a.labels == b.labels

    def test_seed_changes_phases_not_structure(self):
        a = gen_batch(self.spec(seed=1)).circuits[0]
        b = gen_batch(self.spec(seed=2)).circuits[0]
        assert a != b
        assert modify(a) == modify(b)


class TestReadCircuits:
    def test_two_x90_per_qubit(self):
        read0, read1 = gen_read_circuits((0, 1))
        for c in (read0, read1):
            for q in (0, 1):
                assert gate_counts(c, q)[0] == 2

    def test_structurally_equal_pair(self):
        read0, read1 = gen_read_circuits((0, 1, 2))
        assert modify(read0) == modify(read1)

    def test_prepares_zero_and_one(self):
        read0, read1 = gen_read_circuits((0,))
        U0 = circuit_unitary(strip_measures(read0))
        U1 = circuit_unitary(strip_measures(read1))
        assert global_phase_distance(U0, np.eye(2)) < 1e-10
        assert global_phase_distance(U1, X_PAULI) < 1e-10


class TestCb:
    def spec(self, **kw):
        args = dict(
            kind="CB",
            widths=((0, 1), (0, 1, 2, 3)),
            depths=((2, 4),),
            randomizations=4,
            shots=10,
            seed=5,
        )
        args.update(kw)
        return BatchSpec(**args)

    def test_odd_width_rejected(self):
        with pytest.raises(ConfigError):
            self.spec(widths=((0, 1, 2),))

    def test_cz_layer_count(self):
        spec = self.spec(widths=((0, 1),), depths=((2,),), randomizations=1)
        c = gen_batch(spec).circuits[0]
        assert sum(1 for g in c.gates if g.kind is GateKind.TWO_QUBIT) == 2

    def test_same_width_depth_structurally_equal(self):
        batch = gen_batch(self.spec())
        by_key = {}
        for c, label in zip(batch.circuits, batch.labels):
            by_key.setdefault((label.width, label.depth), []).append(c)
        assert len(by_key) == 4
        for circuits in by_key.values():
            assert len(identify(circuits).groups) == 1

    def test_group_count(self):
        report = identify(gen_batch(self.spec()).circuits)
        assert len(report.groups) == 4  # widths x depths

    def test_per_width_randomizations(self):
        spec = self.spec(randomizations=(2, 3))
        batch = gen_batch(spec)
        assert len(batch) == 2 * 2 + 2 * 3 == spec.expected_count()


def _reference_dress(layers, rng) -> Circuit:
    """Test-only oracle: the per-slot dressing, which lowers every slot of
    every randomization afresh and shares no gate between dressings."""
    gates = []
    corr = {q: "I" for q in layers.active}
    last = len(layers.easy) - 1
    for k, easy in enumerate(layers.easy):
        if k < last:
            draws = rng.integers(0, 4, size=len(layers.active))
            twirl = {q: PAULI_NAMES[int(d)] for q, d in zip(layers.active, draws)}
        else:
            twirl = {q: "I" for q in layers.active}
        for q in layers.active:
            m = (
                _PAULI_MATRICES[twirl[q]]
                @ easy.get(q, np.eye(2, dtype=complex))
                @ _PAULI_MATRICES[corr[q]]
            )
            gates.extend(u3_decompose(u3_from_unitary(m), q))
        if k < last:
            corr = dict(twirl)
            for a, b in layers.hard[k]:
                corr[a], corr[b] = _cz_conjugate(twirl[a], twirl[b])
            gates.extend(cz(a, b) for a, b in layers.hard[k])
    gates.extend(measure(q) for q in layers.active)
    return Circuit(tuple(gates), layers.n_qubits, layers.shots)


@st.composite
def layered_bases(draw):
    """A layered base on 1-4 qubit ids out of 0..7, with 1-6 CZ layers.  A
    slot other than the first qubit's may have no single-qubit gate, and a CZ
    layer may leave qubits idle; one that draws no pair merges its
    neighbouring easy layers."""
    width = tuple(draw(st.permutations(range(MAX_QUBIT_ID + 1)))[: draw(st.integers(1, 4))])
    depth = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gates = []
    for k in range(depth + 1):
        for q in width:
            if q == width[0] or rng.random() < 0.8:
                gates += u3_decompose(U3Params(*rng.uniform(0.0, TAU, size=3)), q)
        if k < depth:
            order = rng.permutation(width).tolist()
            gates += [
                cz(order[i], order[i + 1])
                for i in range(0, len(order) - 1, 2)
                if rng.random() < 0.8
            ]
    gates += [measure(q) for q in sorted(width)]
    return Circuit(tuple(gates), max(width) + 1, shots=3)


class TestRc:
    def make_base(self, width=(0, 1), cycles=3, seed=8):
        return gen_random_base(width, cycles, np.random.default_rng(seed), shots=10)

    def test_dressings_structurally_equal(self):
        batch = gen_rc(self.make_base(), n_rand=6, seed=3)
        assert len(identify(batch.circuits).groups) == 1

    def test_logically_equivalent_to_base(self):
        base = self.make_base()
        base_u = circuit_unitary(strip_measures(base))
        batch = gen_rc(base, n_rand=8, seed=17)
        for c in batch.circuits:
            assert global_phase_distance(circuit_unitary(strip_measures(c)), base_u) < 1e-9

    def test_three_qubit_base_with_idle_qubit_in_hard_layer(self):
        base = self.make_base(width=(0, 1, 2), cycles=2)
        base_u = circuit_unitary(strip_measures(base))
        for c in gen_rc(base, n_rand=5, seed=2).circuits:
            assert global_phase_distance(circuit_unitary(strip_measures(c)), base_u) < 1e-9

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(layered_bases(), st.integers(1, 30), st.integers(0, 2**64 - 1), st.integers(0, 9))
    def test_dressings_equal_the_per_slot_reference(self, base, n_rand, seed, stream):
        # Gate equality compares phases as floats, so the lowerings are bit-equal
        layers = _parse_layers(base)
        want = tuple(
            _reference_dress(layers, _rng(seed, _STREAM_RC, stream, r)) for r in range(n_rand)
        )
        got = gen_rc(base, n_rand, seed, stream=(stream,)).circuits
        assert got == want
        assert len({id(c.table) for c in got}) == 1  # row ids into one table per base

    @pytest.mark.parametrize("n_rand", [1, 5, 16, 40])
    def test_a_slot_is_lowered_at_most_once_per_twirl_and_correction(self, monkeypatch, n_rand):
        base = self.make_base(width=(0, 1, 2), cycles=4)
        layers = _parse_layers(base)
        slots = len(layers.easy) * len(layers.active)
        calls = []
        lower = generators.u3_from_unitary_unchecked
        monkeypatch.setattr(
            generators, "u3_from_unitary_unchecked", lambda m: calls.append(m) or lower(m)
        )
        gen_rc(base, n_rand, seed=6)
        assert len(calls) <= min(n_rand, 16) * slots
        if n_rand > 16:
            assert len(calls) < n_rand * slots

    def test_malformed_base_rejected(self):
        from pce.circuits import delay, x90

        bad = Circuit((x90(0), delay(0, 10)), n_qubits=1)
        with pytest.raises(ConfigError):
            gen_rc(bad, 1, 0)


class TestColumnarDressing:
    """Generated circuits are row ids into one ``GateTable`` per base or cell:
    they build no ``Gate``, and compiling or peeling them builds no table."""

    # the frc_1shot benchmark batch: 300 single-shot FRC circuits, 12 bases
    FRC_1SHOT = BatchSpec("FRC", ((0, 1), (0, 1, 2), (0, 1, 2, 3)), ((1, 10, 20, 30),), 25, 1, 3)

    def test_one_at_a_time_compile_and_peel_build_no_table(self, monkeypatch):
        batch = gen_batch(self.FRC_1SHOT)
        tables = []
        init = GateTable.__init__
        monkeypatch.setattr(GateTable, "__init__", lambda t, r: tables.append(t) or init(t, r))
        for c in batch.circuits:
            compile_circuit(c)
            peel(c)
        assert len(batch) == 300 and tables == []
        assert len({id(c.table) for c in batch.circuits}) == 12  # one table per base

    def test_generating_and_writing_builds_no_gate_per_dressing(self, tmp_path, monkeypatch):
        built = []
        post_init = Gate.__post_init__
        monkeypatch.setattr(Gate, "__post_init__", lambda g: built.append(g) or post_init(g))
        for kind in ("RB", "CB", "RC", "FRC"):  # every kind, the readout pairs and bases too
            spec = BatchSpec(kind, ((0, 1), (0, 1, 2, 3)), ((1, 10),), 5, 1, 3)
            write_batch(gen_batch(spec), tmp_path / kind)
        assert built == []

    def test_a_new_row_is_checked_by_the_gate_rules(self, monkeypatch):
        base = gen_random_base((0, 1), 2, np.random.default_rng(5), shots=2)
        checked = []
        monkeypatch.setattr(generators, "check_gate_row", lambda *f: checked.append(f))
        table = gen_rc(base, 6, seed=1).circuits[0].table
        assert len(checked) == len(set(checked)) == int(np.count_nonzero(table.kind != _PREQ_CODE))


class TestLoweringCaches:
    """The module caches of fixed lowerings are keyed by table entries and
    qubits (or widths) only: each has a maxsize, a table-keyed one stays
    within its table's size x 8 qubits, and RC/FRC batches with new random
    bases add no entry."""

    TABLES = {
        "_clifford_rows": 24,
        "_pauli_rows": len(PAULI_NAMES),
        "_basis_prep_rows": len(BASIS_PREP_PARAMS),
    }
    WIDTH_KEYED = ("_cz_rows", "_measure_rows")

    def sizes(self):
        return {name: getattr(generators, name).cache_info().currsize
                for name in (*self.TABLES, *self.WIDTH_KEYED)}

    def test_caches_stay_bounded(self):
        widths = ((0, 1), (2, 3, 4, 5), (7, 6))
        for kind in ("RB", "CB", "RC", "FRC"):
            gen_batch(BatchSpec(kind, widths, ((1, 3),), 4, shots=2, seed=0))
        sizes = self.sizes()
        for name, size in self.TABLES.items():
            assert sizes[name] <= size * (MAX_QUBIT_ID + 1)
        for name in (*self.TABLES, *self.WIDTH_KEYED):
            assert getattr(generators, name).cache_info().maxsize is not None
        for kind in ("RC", "FRC"):
            gen_batch(BatchSpec(kind, widths, ((1, 3),), 4, shots=2, seed=1))
        assert self.sizes() == sizes


class TestSpecsAndPresets:
    def test_preset_counts(self):
        assert preset_spec("rc20").expected_count() == 1540
        assert preset_spec("frc").expected_count() == 77000
        assert preset_spec("cb").expected_count() == 3240
        assert preset_spec("rb").expected_count() == 736

    def test_frc_arithmetic_follows_randomizations(self):
        # count = randomizations x depths x widths for the dressing kinds
        spec = BatchSpec("FRC", ((0, 1),), ((1, 2),), 10, shots=1, seed=0)
        assert spec.expected_count() == 20

    def test_bad_specs(self):
        with pytest.raises(ConfigError):
            BatchSpec("XX", ((0,),), ((1,),), 1)
        with pytest.raises(ConfigError):
            BatchSpec("RB", (), ((1,),), 1)
        with pytest.raises(ConfigError):
            BatchSpec("RB", ((0, 9),), ((1,),), 1)
        with pytest.raises(ConfigError):
            BatchSpec("RB", ((0,),), ((0,),), 1)
        with pytest.raises(ConfigError):
            BatchSpec("RB", ((0,),), ((1,),), 0)
        with pytest.raises(ConfigError):
            BatchSpec("RB", ((0,),), ((1,),), (2, 3))
        # a flat shape where a tuple of tuples belongs names its field
        with pytest.raises(ConfigError, match="widths must be a tuple of qubit id tuples"):
            BatchSpec("RB", (0, 1), ((2,),), 1)
        with pytest.raises(ConfigError, match="depths must be a tuple of depth tuples"):
            BatchSpec("RB", ((0, 1),), (2, 3), 1)
        # the shot field of a PCEM header and of a RUN frame is 32 bits
        assert BatchSpec("RB", ((0,),), ((1,),), 1, shots=0xFFFFFFFF).shots == 0xFFFFFFFF
        with pytest.raises(ConfigError, match="shot count 4294967296 does not fit"):
            BatchSpec("RB", ((0,),), ((1,),), 1, shots=1 << 32)
        # a field that is not an integer is refused, never truncated
        not_ints = [
            dict(seed=1.5),
            dict(widths=((0.7, 1.2),)),
            dict(depths=((2.9,),)),
            dict(randomizations=True),
            dict(randomizations=1.5),
            dict(kind="CB", randomizations=(2.5,)),
            dict(shots=3.0),
        ]
        for bad in not_ints:
            fields = {"kind": "RB", "widths": ((0, 1),), "depths": ((2,),), "randomizations": 1}
            with pytest.raises(ConfigError, match="must be an integer"):
                BatchSpec(**{**fields, **bad})
        spec = BatchSpec(
            "CB", ((np.int64(0), np.int16(1)),), ((np.int32(2),),), (np.int64(2),),
            shots=np.int64(3), seed=np.uint64(5),
        )
        assert spec == BatchSpec("CB", ((0, 1),), ((2,),), (2,), shots=3, seed=5)
        assert type(spec.seed) is int and type(spec.randomizations[0]) is int
        assert BatchSpec("RB", ((0,),), ((1,),), np.int64(2)).randomizations == 2

    def test_gen_batch_dispatch(self):
        spec = BatchSpec("RC", ((0, 1),), ((2,),), 3, shots=5, seed=1)
        batch = gen_batch(spec)
        assert len(batch) == 3
        assert batch.labels[0].role == "rc"
