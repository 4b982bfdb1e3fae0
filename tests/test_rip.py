"""Tests for structural grouping, phase peeling, and the parameter blob format."""

import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pce.asm import assemble, compile_circuit
from pce.circuits import (
    TAU,
    Circuit,
    GateKind,
    U3Params,
    circuit_unitary,
    cz,
    delay,
    global_phase_distance,
    measure,
    param_request,
    u3_decompose,
    vz,
    x90,
)
from pce.errors import CapacityError, DecodeError, EncodeError, ValidationError
from pce.generators import BatchSpec, CircuitBatch, Label, gen_batch
from pce.rip import (
    BANK_CAPACITY,
    EquivalenceReport,
    ParamTable,
    binarize,
    build_param_table,
    debinarize,
    dequantize_word,
    dequantize_words,
    encode_words,
    identify,
    identify_bruteforce,
    modify,
    peel,
    quantize_phases,
    rip,
)
from pce.verify import check_trace_equivalence, verify_batch
from tests.test_circuits import circuits_that_build


def batch_of(*circuits) -> CircuitBatch:
    labels = tuple(Label((0,), 0, i, "test") for i in range(len(circuits)))
    return CircuitBatch(tuple(circuits), labels)


def circular_diff(a: float, b: float) -> float:
    d = abs(a - b) % TAU
    return min(d, TAU - d)


def _reference_peel(c: Circuit) -> list[np.ndarray]:
    """Test-only oracle: one quantize call per bank, banks checked in order."""
    raw: list[list[float]] = [[] for _ in range(c.n_qubits)]
    for g in c.gates:
        if g.kind is GateKind.VIRTUAL_Z:
            raw[g.qubits[0]].append(g.phase)
    words = []
    for q, phases in enumerate(raw):
        if len(phases) > BANK_CAPACITY:
            raise CapacityError(q, len(phases), BANK_CAPACITY)
        words.append(quantize_phases(phases))
    return words


# valid 2-circuit batches whose per-qubit gate chains agree but whose
# programs differ, so neither circuit may run the other's program
SAME_CHAINS_PAIRS = {
    "cross_qubit_order": (
        Circuit((vz(0, 0.3), x90(0), vz(1, 0.7), x90(1), measure(0), measure(1)), 2, 5),
        Circuit((vz(1, 1.1), x90(1), vz(0, 2.2), x90(0), measure(0), measure(1)), 2, 5),
    ),
    "shots": (
        Circuit((vz(0, 0.3), x90(0), measure(0)), 1, 5),
        Circuit((vz(0, 1.9), x90(0), measure(0)), 1, 9),
    ),
    "cz_operand_order": (
        Circuit((x90(0), cz(0, 1), vz(1, 0.4), x90(1), measure(0), measure(1)), 2, 5),
        Circuit((x90(0), cz(1, 0), vz(1, 2.4), x90(1), measure(0), measure(1)), 2, 5),
    ),
}


@st.composite
def skeleton_variant_batches(draw):
    """2-5 circuits on 1-3 qubits, each a variant of one gate skeleton.

    A variant reorders the skeleton and may swap CZ operands; each circuit
    draws its own phases and 1-3 shots.
    """
    n = draw(st.integers(1, 3))
    qubit = st.integers(0, n - 1)
    ops = [st.tuples(st.sampled_from(("X90", "VZ")), qubit)]
    if n > 1:
        ops.append(st.tuples(st.just("CZ"), qubit, qubit).filter(lambda op: op[1] != op[2]))
    base = draw(st.lists(st.one_of(ops), min_size=1, max_size=6))
    variants = [base]
    for _ in range(draw(st.integers(0, 2))):
        variants.append([
            ("CZ", op[2], op[1]) if op[0] == "CZ" and draw(st.booleans()) else op
            for op in draw(st.permutations(base))
        ])
    circuits = []
    for _ in range(draw(st.integers(2, 5))):
        gates = []
        for op in draw(st.sampled_from(variants)):
            if op[0] == "VZ":
                gates.append(vz(op[1], draw(st.floats(0.0, TAU, exclude_max=True))))
            elif op[0] == "X90":
                gates.append(x90(op[1]))
            else:
                gates.append(cz(op[1], op[2]))
        gates += [measure(q) for q in range(n)]
        circuits.append(Circuit(tuple(gates), n, draw(st.integers(1, 3))))
    return circuits


# small RB, CB, RC and FRC batches, the kinds the workloads run
BATCH_SPECS = (
    BatchSpec("RB", ((0,), (0, 1)), ((2, 5),), 3, shots=5, seed=3),
    BatchSpec("CB", ((0, 1),), ((2, 4),), 3, shots=5, seed=3),
    BatchSpec("RC", ((0, 1, 2),), ((1, 3),), 3, shots=5, seed=3),
    BatchSpec("FRC", ((0, 1), (0, 1, 2)), ((1, 4),), 3, shots=1, seed=3),
)


class TestQuantize:
    def test_zero(self):
        assert quantize_phases([0.0]).tolist() == [0]

    def test_pi_is_half_scale(self):
        assert quantize_phases([math.pi]).tolist() == [0x80000000]

    def test_round_trip_bound(self):
        rng = np.random.default_rng(21)
        phases = rng.uniform(-4 * TAU, 4 * TAU, size=10000)
        words = quantize_phases(phases)
        back = dequantize_words(words)
        for p, b in zip(phases, back):
            assert circular_diff(p % TAU, b) <= math.pi * 2**-31

    def test_scalar_matches_vector(self):
        rng = np.random.default_rng(22)
        phases = rng.uniform(-2 * TAU, 2 * TAU, size=200)
        vec = quantize_phases(phases)
        assert all(quantize_phases([p])[0] == w for p, w in zip(phases, vec))

    def test_wraparound_near_tau(self):
        assert quantize_phases([TAU - 1e-12]).tolist() == [0]
        assert dequantize_word(0) == 0.0


class TestGraphs:
    """Structural identity is the phase-erased circuit: ``modify`` equality."""

    def test_empty_circuit_has_empty_chains(self):
        a, b = Circuit((), n_qubits=2), Circuit((), n_qubits=2)
        assert modify(a).gates == ()
        assert identify([a, b]).groups == ((0, 1),)
        assert identify([a, Circuit((), n_qubits=1)]).groups == ((0,), (1,))

    def test_u3_chain_shape(self):
        c = Circuit(tuple(u3_decompose(U3Params(0.1, 0.2, 0.3), 0)), n_qubits=1)
        kinds = [g.kind.value for g in modify(c).gates]
        assert kinds == ["PREQ", "X90", "PREQ", "X90", "PREQ"]

    def test_phases_do_not_enter_identity(self):
        a = Circuit((vz(0, 0.1), x90(0)), n_qubits=1)
        b = Circuit((vz(0, 2.9), x90(0)), n_qubits=1)
        assert modify(a) == modify(b)
        assert identify([a, b]).groups == ((0, 1),)

    def test_delay_duration_is_structural(self):
        a = Circuit((delay(0, 10),), n_qubits=1)
        b = Circuit((delay(0, 20),), n_qubits=1)
        assert modify(a) != modify(b)
        assert identify([a, b]).groups == ((0,), (1,))

    def test_two_qubit_partner_recorded(self):
        a = Circuit((cz(0, 1),), n_qubits=3)
        b = Circuit((cz(0, 2),), n_qubits=3)
        assert modify(a).gates[0].qubits == (0, 1)
        assert identify([a, b]).groups == ((0,), (1,))

    def test_reflexive(self):
        c = Circuit((x90(0), cz(0, 1)), n_qubits=2)
        assert modify(c) == modify(c)
        assert identify([c, c]).groups == ((0, 1),)

    def test_different_depth_not_equal(self):
        a = Circuit((x90(0),), n_qubits=1)
        b = Circuit((x90(0), x90(0)), n_qubits=1)
        assert modify(a) != modify(b)
        assert identify([a, b]).groups == ((0,), (1,))


class TestIdentify:
    def test_singleton(self):
        report = identify([Circuit((x90(0),), n_qubits=1)])
        assert report.groups == ((0,),)
        assert report.order == (0,)

    def test_distinct_structures_all_singletons(self):
        circuits = [Circuit(tuple(x90(0) for _ in range(k + 1)), n_qubits=1) for k in range(6)]
        report = identify(circuits)
        oracle = identify_bruteforce(circuits)
        assert report == oracle
        assert len(report.groups) == 6

    def test_scattered_equivalents_grouped_in_first_seen_order(self):
        a1 = Circuit((vz(0, 0.1), x90(0)), n_qubits=1)
        b1 = Circuit((x90(0), x90(0)), n_qubits=1)
        a2 = Circuit((vz(0, 1.7), x90(0)), n_qubits=1)
        b2 = Circuit((x90(0), x90(0)), n_qubits=1)
        report = identify([a1, b1, a2, b2])
        assert report.groups == ((0, 2), (1, 3))
        assert report.order == (0, 2, 1, 3)

    def test_matches_bruteforce_on_generated_batch(self):
        spec = BatchSpec("RB", ((0,), (0, 1)), ((2, 3),), 4, shots=5, seed=11)
        batch = gen_batch(spec)
        assert identify(batch.circuits) == identify_bruteforce(batch.circuits)

    def test_stable_under_non_representative_reordering(self):
        # with every structure's first occurrence pinned in place, permuting
        # the later members of each group must not change the grouping at all
        spec = BatchSpec("RB", ((0,), (0, 1)), ((2, 3),), 4, shots=5, seed=12)
        batch = gen_batch(spec)
        base = identify(batch.circuits)
        rng = np.random.default_rng(1)
        scrambled = list(range(len(batch)))
        for group in base.groups:
            tail = list(group[1:])
            for slot, i in zip(group[1:], rng.permutation(tail)):
                scrambled[slot] = int(i)
        assert scrambled != list(range(len(batch)))
        remapped = identify(batch.circuits[i] for i in scrambled)
        back = tuple(tuple(scrambled[i] for i in g) for g in remapped.groups)
        assert tuple(tuple(sorted(g)) for g in back) == tuple(tuple(sorted(g)) for g in base.groups)
        assert tuple(g[0] for g in back) == tuple(g[0] for g in base.groups)

    def test_equivalency_percent(self):
        report = EquivalenceReport(((0, 1, 2, 3), (4,)))
        assert report.equivalency_percent() == pytest.approx(100 * 3 / 5)

    def test_report_validation(self):
        with pytest.raises(ValueError):
            EquivalenceReport(((0, 1), (1, 2)))
        with pytest.raises(ValueError):
            EquivalenceReport(((0, 2),))


class TestSameProgram:
    """A group shares one program: cross-qubit order, CZ operands and shots split it."""

    @pytest.mark.parametrize("name", sorted(SAME_CHAINS_PAIRS))
    def test_pair_is_split(self, name):
        pair = SAME_CHAINS_PAIRS[name]
        assert identify(pair).groups == ((0,), (1,))
        assert identify_bruteforce(pair) == identify(pair)

    @pytest.mark.parametrize("name", sorted(SAME_CHAINS_PAIRS))
    def test_pair_passes_every_check(self, name):
        failed = [r.line() for r in verify_batch(batch_of(*SAME_CHAINS_PAIRS[name])) if not r.ok]
        assert failed == []

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(skeleton_variant_batches())
    def test_matches_oracle_and_replays_baseline(self, circuits):
        assert identify(circuits) == identify_bruteforce(circuits)
        check = check_trace_equivalence(batch_of(*circuits))
        assert check.ok, check.detail


class TestGroupIsOneProgram:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(circuits_that_build(max_qubits=2, max_gates=3), min_size=1, max_size=8))
    def test_groups_are_exactly_the_equal_programs(self, circuits):
        programs = [assemble(compile_circuit(modify(c))) for c in circuits]
        groups: list[list[int]] = []
        for i, m in enumerate(programs):
            for g in groups:
                if programs[g[0]] == m:
                    g.append(i)
                    break
            else:
                groups.append([i])
        assert identify(circuits).groups == tuple(tuple(g) for g in groups)


class TestPeelModify:
    def test_no_vz_gives_empty_lists(self):
        words = peel(Circuit((x90(0), measure(0)), n_qubits=2))
        assert [len(w) for w in words] == [0, 0]

    def test_words_match_traversal(self):
        rng = np.random.default_rng(9)
        gates = []
        expect = {0: [], 1: []}
        for _ in range(60):
            q = int(rng.integers(0, 2))
            if rng.random() < 0.6:
                p = float(rng.uniform(0, TAU))
                gates.append(vz(q, p))
                expect[q].append(p)
            else:
                gates.append(x90(q))
        words = peel(Circuit(tuple(gates), n_qubits=2))
        for q in (0, 1):
            assert len(words[q]) == len(expect[q])
            for w, p in zip(words[q], expect[q]):
                assert circular_diff(dequantize_word(int(w)), p) <= math.pi * 2**-31

    def test_rb_circuit_word_count(self):
        spec = BatchSpec("RB", ((0,),), ((6,),), 1, shots=5, seed=0)
        c = gen_batch(spec).circuits[0]
        words = peel(c)
        assert len(words[0]) == 3 * (6 + 1)

    def test_capacity_error_names_qubit_and_count(self):
        gates = tuple(vz(1, 0.5) for _ in range(BANK_CAPACITY + 1))
        with pytest.raises(CapacityError) as err:
            peel(Circuit(gates, n_qubits=2))
        assert err.value.qubit == 1
        assert err.value.count == BANK_CAPACITY + 1
        assert "qubit 1" in str(err.value)

    def test_capacity_error_names_the_first_bank_over(self):
        # bank 2 overflows first in gate order, bank 1 is the lower bank over capacity
        gates = [vz(2, 0.5)] * (BANK_CAPACITY + 3) + [vz(1, 0.25)] * (BANK_CAPACITY + 1)
        c = Circuit(tuple(gates + [vz(0, 0.1)]), n_qubits=3)
        errors = []
        for fn in (peel, _reference_peel, lambda c: build_param_table([c, c])):
            with pytest.raises(CapacityError) as err:
                fn(c)
            errors.append((err.value.qubit, err.value.count, str(err.value)))
        assert errors[0] == errors[1]
        assert errors[0][:2] == (1, BANK_CAPACITY + 1)
        assert errors[2] == (1, BANK_CAPACITY + 1, f"circuit 0: {errors[0][2]}")

    @pytest.mark.parametrize("spec", BATCH_SPECS, ids=lambda s: s.kind)
    def test_matches_per_bank_oracle_on_generated_batches(self, spec):
        batch = gen_batch(spec)
        for c in batch.circuits:
            words, expected = peel(c), _reference_peel(c)
            assert len(words) == len(expected) == c.n_qubits
            for w, e in zip(words, expected):
                assert w.dtype == e.dtype and np.array_equal(w, e)
        # the rows and the blob are byte-identical to the oracle's
        result = rip(batch)
        n_qubits = result.table.n_qubits
        empty = np.zeros(0, dtype=np.uint32)
        rows = tuple(
            tuple(w[q] if q < len(w) else empty for q in range(n_qubits))
            for w in map(_reference_peel, batch.circuits)
        )
        oracle = ParamTable(n_qubits, rows)
        assert result.table == oracle
        assert binarize(result.report, result.table) == binarize(result.report, oracle)

    def test_modify_swaps_vz_for_param_request(self):
        c = Circuit((vz(0, 0.4), x90(0), vz(0, 1.0), measure(0)), n_qubits=1)
        m = modify(c)
        assert len(m.gates) == len(c.gates)
        kinds = [g.kind for g in m.gates]
        assert kinds.count(GateKind.PARAM_REQUEST) == 2
        assert kinds.count(GateKind.VIRTUAL_Z) == 0

    def test_modify_without_vz_is_identity(self):
        c = Circuit((x90(0), measure(0)), n_qubits=1)
        assert modify(c) == c

    def test_modify_graph_differs_only_in_kind(self):
        c = Circuit((vz(0, 0.4), x90(0), vz(1, 1.0), cz(1, 0), delay(0, 8)), n_qubits=2)
        m = modify(c)
        assert (m.n_qubits, m.shots, len(m.gates)) == (c.n_qubits, c.shots, len(c.gates))
        for a, b in zip(c.gates, m.gates):
            if a.kind is GateKind.VIRTUAL_Z:
                assert b == param_request(a.qubits[0])
            else:
                assert b is a

    def test_peel_modify_lossless_on_unitary(self):
        rng = np.random.default_rng(30)
        gates = []
        for _ in range(40):
            q = int(rng.integers(0, 3))
            r = rng.random()
            if r < 0.5:
                gates.append(vz(q, float(rng.uniform(0, TAU))))
            elif r < 0.8:
                gates.append(x90(q))
            else:
                gates.append(cz(q, (q + 1) % 3))
        c = Circuit(tuple(gates), n_qubits=3)
        words = peel(c)
        cursors = [0] * 3
        rebuilt = []
        for g in modify(c).gates:
            if g.kind is GateKind.PARAM_REQUEST:
                q = g.qubits[0]
                rebuilt.append(vz(q, dequantize_word(int(words[q][cursors[q]]))))
                cursors[q] += 1
            else:
                rebuilt.append(g)
        back = Circuit(tuple(rebuilt), n_qubits=3)
        assert global_phase_distance(circuit_unitary(back), circuit_unitary(c)) < 1e-6

    def test_rip_composition(self):
        spec = BatchSpec("RB", ((0, 1),), ((2, 3),), 3, shots=5, seed=4)
        batch = gen_batch(spec)
        result = rip(batch)
        assert len(result.uniques) == len(result.report.groups)
        # request count per qubit equals peeled word count per qubit
        for gi, group in enumerate(result.report.groups):
            u = result.uniques[gi]
            for q in range(u.n_qubits):
                reqs = sum(
                    1
                    for g in u.gates
                    if g.kind is GateKind.PARAM_REQUEST and g.qubits[0] == q
                )
                for i in group:
                    assert len(result.table.words_for(i)[q]) == reqs


def _fuzz_seed_blob() -> tuple[bytes, tuple[int, ...]]:
    """A real blob and the byte offset of each of its per-bank word counts."""
    result = rip(gen_batch(BatchSpec("RB", ((0,), (0, 1)), ((2, 3),), 2, shots=5, seed=8)))
    n = result.table.n_circuits
    pos = 16 + 4 * n + (n + 7) // 8
    counts = []
    for row in result.table.rows:
        for words in row:
            counts.append(pos)
            pos += 2 + 4 * len(words)
    return binarize(result.report, result.table), tuple(counts)


FUZZ_BLOB, FUZZ_COUNT_OFFSETS = _fuzz_seed_blob()
# (format, offset) of the header's qubit, circuit and group counts
HEADER_COUNTS = (("<H", 6), ("<I", 8), ("<I", 12))


@st.composite
def damaged_blobs(draw):
    """FUZZ_BLOB truncated, bit-flipped or given an absurd count, CRC re-sealed."""
    body = bytearray(FUZZ_BLOB[:-4])
    how = draw(st.sampled_from(("truncate", "flip", "header", "word count")))
    if how == "truncate":
        body = body[: draw(st.integers(0, len(body) - 1))]
    elif how == "flip":
        body[draw(st.integers(0, len(body) - 1))] ^= 1 << draw(st.integers(0, 7))
    elif how == "header":
        fmt, at = draw(st.sampled_from(HEADER_COUNTS))
        struct.pack_into(fmt, body, at, draw(st.integers(0, 256 ** struct.calcsize(fmt) - 1)))
    else:
        at = draw(st.sampled_from(FUZZ_COUNT_OFFSETS))
        struct.pack_into("<H", body, at, draw(st.integers(0, 0xFFFF)))
    return bytes(body) + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


class TestBlob:
    def round_trip(self, report, table):
        blob = binarize(report, table)
        r2, t2 = debinarize(blob)
        assert r2 == report
        assert t2 == table
        assert binarize(r2, t2) == blob
        return blob

    def test_empty_batch(self):
        blob = self.round_trip(EquivalenceReport(()), ParamTable(0, ()))
        assert blob[:4] == b"PCEB"

    def test_generated_batch_round_trip(self):
        spec = BatchSpec("RB", ((0, 1),), ((2, 4),), 3, shots=5, seed=8)
        result = rip(gen_batch(spec))
        self.round_trip(result.report, result.table)

    def test_random_tables_round_trip(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(0, 6))
            nq = int(rng.integers(1, 5)) if n else 0
            perm = rng.permutation(n)
            groups = []
            for idx in perm:
                if groups and rng.random() < 0.5:
                    groups[int(rng.integers(0, len(groups)))].append(int(idx))
                else:
                    groups.append([int(idx)])
            report = EquivalenceReport(tuple(tuple(g) for g in groups))
            rows = tuple(
                tuple(
                    rng.integers(0, 1 << 32, size=int(rng.integers(0, 9))).astype(np.uint32)
                    for _ in range(nq)
                )
                for _ in range(n)
            )
            self.round_trip(report, ParamTable(nq, rows))

    def corrupt(self, blob: bytes, at: int, value: int) -> bytes:
        b = bytearray(blob)
        b[at] = value
        return bytes(b)

    def test_bad_magic(self):
        blob = binarize(EquivalenceReport(()), ParamTable(0, ()))
        with pytest.raises(DecodeError):
            debinarize(b"XXXX" + blob[4:])

    def test_truncation(self):
        r = rip(gen_batch(BatchSpec("RB", ((0,),), ((2,),), 2, shots=5, seed=1)))
        blob = binarize(r.report, r.table)
        for cut in (2, 10, len(blob) // 2, len(blob) - 1):
            with pytest.raises(DecodeError):
                debinarize(blob[:cut])

    def test_corrupted_byte_fails_checksum(self):
        r = rip(gen_batch(BatchSpec("RB", ((0,),), ((2,),), 2, shots=5, seed=1)))
        blob = binarize(r.report, r.table)
        bad = self.corrupt(blob, 20, blob[20] ^ 0xFF)
        with pytest.raises(DecodeError) as err:
            debinarize(bad)
        assert "checksum" in str(err.value)

    def test_error_carries_offset(self):
        with pytest.raises(DecodeError) as err:
            debinarize(b"PCEB\x01\x00")
        assert err.value.offset >= 0

    def test_bank_count_over_u16_is_an_encode_error(self):
        # the row format's count is a u16; 70,000 words cannot be written
        table = ParamTable(1, ((np.zeros(70_000, dtype=np.uint32),),))
        with pytest.raises(EncodeError, match="70000 words do not fit"):
            binarize(EquivalenceReport(((0,),)), table)

    @pytest.mark.parametrize(
        "words",
        [[-1], np.array([-1]), [2**32], np.array([2**40]), [0.5], [True], [3, True], ["7"],
         [[1, 2]], np.zeros((2, 2), np.uint32), 5, [[1], [1, 2]], [2**64]],
        ids=repr,
    )
    def test_encode_words_refuses_what_a_bank_cannot_hold(self, words):
        with pytest.raises(ValidationError, match=r"^bank 3: parameter words must be"):
            encode_words(words, 3)
        with pytest.raises(ValidationError, match=r"^bank 0: "):
            encode_words(words)

    @pytest.mark.parametrize(
        "words", [np.array([0, 7, 2**32 - 1], np.uint32), [0, 7, 2**32 - 1], np.array([0, 7, 2**32 - 1])]
    )
    def test_encode_words_writes_integer_words_unchanged(self, words):
        assert encode_words(words) == struct.pack("<H3I", 3, 0, 7, 2**32 - 1)

    def test_binarize_refuses_a_bad_word_naming_circuit_and_bank(self):
        good = np.array([5], np.uint32)
        table = ParamTable(2, ((good, good), (good, np.array([-1], np.int64))))
        with pytest.raises(ValidationError, match=r"^circuit 1: bank 1: parameter words must be"):
            binarize(EquivalenceReport(((0, 1),)), table)

    def test_binarize_takes_integer_words_of_any_dtype_unchanged(self):
        as_uint32 = ParamTable(1, ((np.array([1, 2], np.uint32),),))
        as_int64 = ParamTable(1, ((np.array([1, 2], np.int64),),))
        report = EquivalenceReport(((0,),))
        assert binarize(report, as_int64) == binarize(report, as_uint32)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(damaged_blobs())
    def test_damaged_blobs_raise_only_decode_errors(self, blob):
        try:
            debinarize(blob)
        except DecodeError as exc:
            assert 0 <= exc.offset <= len(blob)


class TestParamTableBuild:
    def test_rows_padded_to_batch_width(self):
        c1 = Circuit((vz(0, 1.0),), n_qubits=1)
        c2 = Circuit((vz(2, 1.0),), n_qubits=3)
        table = build_param_table([c1, c2])
        assert table.n_qubits == 3
        assert [len(w) for w in table.words_for(0)] == [1, 0, 0]
        assert [len(w) for w in table.words_for(1)] == [0, 0, 1]
