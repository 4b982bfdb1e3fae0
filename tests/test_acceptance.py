"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Wall-clock speedups are machine-dependent, so the amortization criteria are
iteration-count invariants with a loose wall-clock floor; correctness criteria
are exact (bit-level) or carry the stated numeric tolerance.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from pce.asm import MachineProgram, Opcode, assemble
from pce.circuits import (
    Circuit,
    GateKind,
    TAU,
    U3Params,
    X90_MATRIX,
    circuit_unitary,
    global_phase_distance,
    u3_decompose,
    u3_matrix,
    z_matrix,
)
from pce.control import BANK_CAPACITY, ParameterMemory, execute
from pce.errors import CapacityError, DecodeError, UnderflowError
from pce.generators import BatchSpec, gen_batch, iter_batch, preset_spec
from pce.rip import (
    EquivalenceReport,
    ParamTable,
    binarize,
    debinarize,
    identify,
    identify_bruteforce,
    peel,
)
from pce.rpc import rpc_decode, rpc_encode
from pce.runner import run_experiment
from pce.verify import first_trace_mismatch
from tests.test_control import END, requests_then_pulses, served_stream, word


@contextmanager
def criterion(n: int, desc: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n:02d} FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {n:02d} PASS - {desc} ({time.perf_counter() - t0:.1f}s)")


def desk_rb_spec(randomizations=3, shots=10, seed=101):
    return BatchSpec(
        "RB",
        ((0,), (0, 1), (0, 1, 2), (0, 1, 2, 3)),
        ((2, 8, 16),),
        randomizations,
        shots=shots,
        seed=seed,
    )


def desk_cb_spec(shots=10, seed=102):
    return BatchSpec("CB", ((0, 1), (0, 1, 2, 3)), ((2, 4, 8),), 3, shots=shots, seed=seed)


def desk_rc_spec(shots=10, seed=103):
    return BatchSpec("RC", ((0, 1), (0, 1, 2, 3)), ((1, 2, 3, 4, 5),), 20, shots=shots, seed=seed)


def strip_measures(c: Circuit) -> Circuit:
    return Circuit(tuple(g for g in c.gates if g.kind is not GateKind.MEASURE), c.n_qubits, c.shots)


def test_criterion_1_decomposition_correctness():
    with criterion(1, "1000 random decompositions match the three-phase matrix at 1e-10"):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            p = U3Params(*rng.uniform(-TAU, TAU, size=3))
            prod = np.eye(2, dtype=complex)
            for g in u3_decompose(p, 0):
                m = X90_MATRIX if g.kind is GateKind.X90 else z_matrix(g.phase)
                prod = m @ prod
            assert global_phase_distance(prod, u3_matrix(p)) < 1e-10


def test_criterion_2_rb_structure_law():
    with criterion(2, "RB gate-count law and inversion identity at 1e-9"):
        spec = BatchSpec(
            "RB",
            ((0,), (0, 1), (0, 1, 2), (0, 1, 2, 3)),
            ((2, 8, 16),),
            10,
            shots=10,
            seed=7,
        )
        n_checked = 0
        for c, label in iter_batch(spec):
            if label.role != "rb":
                continue
            m = label.depth
            for q in label.width:
                n_x90 = sum(1 for g in c.gates if g.kind is GateKind.X90 and g.qubits[0] == q)
                n_vz = sum(
                    1 for g in c.gates if g.kind is GateKind.VIRTUAL_Z and g.qubits[0] == q
                )
                assert n_x90 == 2 * (m + 1)
                assert n_vz == 3 * (m + 1)
            U = circuit_unitary(strip_measures(c))
            assert global_phase_distance(U, np.eye(U.shape[0])) < 1e-9
            n_checked += 1
        assert n_checked == 4 * 3 * 10


def test_criterion_3_dedup_exactness_full_configs():
    with criterion(3, "full-config dedup: RC20 77/1540 (95.00%), CB 12/3240, RB 32/736 (95.65%)"):
        expectations = {
            "rc20": (1540, 77, 95.00),
            "cb": (3240, 12, None),
            "rb": (736, 32, 95.65),
        }
        for name, (want_n, want_groups, want_pct) in expectations.items():
            spec = preset_spec(name, seed=1)
            report = identify(c for c, _ in iter_batch(spec))
            count = report.n_circuits
            assert count == want_n, f"{name}: generated {count} circuits"
            assert len(report.groups) == want_groups, f"{name}: {len(report.groups)} groups"
            if want_pct is not None:
                assert round(report.equivalency_percent(), 2) == want_pct


def test_criterion_4_identify_matches_bruteforce_under_shuffles():
    with criterion(4, "grouping equals the all-pairs partition on 50 shuffled batches"):
        rb = gen_batch(BatchSpec("RB", ((0,), (0, 1)), ((2, 4),), 3, shots=5, seed=21))
        cb = gen_batch(desk_cb_spec(seed=22))
        rc = gen_batch(BatchSpec("RC", ((0, 1),), ((1, 3),), 5, shots=5, seed=23))
        pool = list(rb.circuits) + list(cb.circuits) + list(rc.circuits)
        assert identify(pool) == identify_bruteforce(pool)
        base_partition = {frozenset(g) for g in identify(pool).groups}
        rng = np.random.default_rng(9)
        for _ in range(50):
            perm = rng.permutation(len(pool))
            shuffled = [pool[i] for i in perm]
            fast = identify(shuffled)
            assert fast == identify_bruteforce(shuffled)
            # map the shuffled grouping back to original indices: same partition
            back = {frozenset(int(perm[i]) for i in g) for g in fast.groups}
            assert back == base_partition


def test_criterion_5_central_pce_equivalence():
    with criterion(5, "stitched trace and shot data bit-exact vs baseline on desk batches"):
        for spec in (desk_rb_spec(), desk_cb_spec(), desk_rc_spec()):
            batch = gen_batch(spec)
            base = run_experiment(batch, "baseline", seed=5, shots=10)
            pce = run_experiment(batch, "pce", seed=5, shots=10)
            for i in range(len(batch)):
                mismatch = first_trace_mismatch(base.traces[i], pce.traces[i])
                assert mismatch is None, f"{spec.kind} circuit {i}: {mismatch}"
                assert base.data[i] == pce.data[i], f"{spec.kind} circuit {i}: shot data"
            assert base.sim_time_ns == pce.sim_time_ns
            # independent count of every stitched request across the batch
            expected_requests = sum(
                len(words) * 10 for c in batch.circuits for words in peel(c)
            )
            assert pce.stitch_requests == expected_requests
            assert base.stitch_requests == 0


def test_criterion_6_amortization_invariant():
    with criterion(6, "Compile/Assemble/Load-circuit iterations amortize to group count"):
        batch = gen_batch(desk_rc_spec())
        base = run_experiment(batch, "baseline", seed=6, shots=10)
        pce = run_experiment(batch, "pce", seed=6, shots=10)
        n, groups = len(batch), len(pce.report.groups)
        assert n == 200 and groups == 10
        for stage in ("Compile", "Assemble", "Load circuit"):
            assert pce.record.iterations(stage) == groups, stage
            assert base.record.iterations(stage) == n, stage
        assert pce.record.iterations("Load para") == n
        ratio = base.record.duration_ns("Compile") / pce.record.duration_ns("Compile")
        floor = 0.25 * (n / groups)
        assert ratio >= floor, f"compile wall ratio {ratio:.2f} below floor {floor:.2f}"


def test_criterion_7_stitch_semantics_properties():
    with criterion(7, "stitch repetition/underflow and bank laws through execute, 10k cases each"):
        rng = np.random.default_rng(70)

        # shot repetition: request k takes word k % pc; the pc * shots + 1-th underflows
        underflows = 0
        programs = {}  # assembling costs more than executing: one program per shape
        for _ in range(10_000):
            pc = int(rng.integers(1, 9))
            shots = int(rng.integers(1, 4))
            n_req = int(rng.integers(1, 10))
            mem = ParameterMemory()
            words = rng.integers(0, 1 << 32, size=pc).astype(np.uint32)
            mem.write_params(0, words)
            if (n_req, shots) not in programs:
                programs[n_req, shots] = requests_then_pulses(0, n_req, shots)
            program = programs[n_req, shots]
            if n_req <= pc:
                res = execute(program, mem)
                law = [int(words[k % pc]) for k in range(n_req * shots)]
                assert served_stream(res.trace, 0) == law
                assert int(res.served[0]) == n_req * shots
                continue
            underflows += 1
            with pytest.raises(UnderflowError) as err:
                execute(program, mem)
            shot, j = divmod(pc * shots, n_req)
            assert (err.value.core_id, err.value.shot, err.value.op_index) == (0, shot, 1 + 2 * j)
        assert underflows > 1000

        # bank isolation: interleaved requests keep per-bank order and repetition
        for _ in range(10_000):
            n_banks = int(rng.integers(2, 5))
            shots = int(rng.integers(1, 3))
            mem = ParameterMemory()
            all_words = []
            for b in range(n_banks):
                w = rng.integers(0, 1 << 32, size=int(rng.integers(1, 5))).astype(np.uint32)
                mem.write_params(b, w)
                all_words.append([int(x) for x in w])
            schedule = [b for b in range(n_banks) for _ in all_words[b]]
            rng.shuffle(schedule)
            ops = [word(op, b) for b in schedule for op in (Opcode.REQ_PARAM, Opcode.PULSE_X90)]
            program = MachineProgram(np.array(ops + [END], np.uint64), n_banks, shots)
            res = execute(program, mem)
            for b in range(n_banks):
                assert served_stream(res.trace, b) == all_words[b] * shots


def _random_report_table(rng):
    n = int(rng.integers(0, 7))
    nq = int(rng.integers(1, 5)) if n else 0
    groups = []
    for idx in rng.permutation(n):
        if groups and rng.random() < 0.5:
            groups[int(rng.integers(0, len(groups)))].append(int(idx))
        else:
            groups.append([int(idx)])
    report = EquivalenceReport(tuple(tuple(g) for g in groups))
    rows = tuple(
        tuple(
            rng.integers(0, 1 << 32, size=int(rng.integers(0, 7))).astype(np.uint32)
            for _ in range(nq)
        )
        for _ in range(n)
    )
    return report, ParamTable(nq, rows)


def test_criterion_8_format_round_trips():
    with criterion(8, "blob/machine/RPC round trips on 1000 instances each, typed corruption"):
        rng = np.random.default_rng(80)

        for _ in range(1000):
            report, table = _random_report_table(rng)
            blob = binarize(report, table)
            r2, t2 = debinarize(blob)
            assert r2 == report and t2 == table
            assert binarize(r2, t2) == blob

        from tests.test_asm import random_program
        from pce.asm import disassemble, machine_from_bytes, machine_to_bytes

        for _ in range(1000):
            p = random_program(rng, n_qubits=int(rng.integers(1, 8)), n_ops=int(rng.integers(0, 25)))
            m = assemble(p)
            assert disassemble(m) == p
            assert machine_from_bytes(machine_to_bytes(m)) == m

        from tests.test_rpc import random_message

        for _ in range(1000):
            msg = random_message(rng)
            assert rpc_decode(rpc_encode(msg)) == msg

        # corruption produces typed errors, never crashes
        report, table = _random_report_table(rng)
        blob = bytearray(binarize(report, table))
        if len(blob) > 24:
            blob[16] ^= 0x5A
            with pytest.raises(DecodeError):
                debinarize(bytes(blob))
        with pytest.raises(DecodeError):
            debinarize(b"PCEB\x01\x00\x02")
        with pytest.raises(DecodeError):
            machine_from_bytes(b"PCEMxx")
        with pytest.raises(DecodeError):
            rpc_decode(b"\x02\x00\x00\x00\x63")  # declares 2 payload bytes, carries 1


def test_criterion_9_capacity_enforcement():
    with criterion(9, "2049 phase words rejected at peel and at write_params, naming the qubit"):
        c = Circuit(tuple(_many_vz(1, BANK_CAPACITY + 1)), n_qubits=2)
        with pytest.raises(CapacityError) as err:
            peel(c)
        assert err.value.qubit == 1 and err.value.count == BANK_CAPACITY + 1
        assert "qubit 1" in str(err.value) and str(BANK_CAPACITY + 1) in str(err.value)

        mem = ParameterMemory()
        with pytest.raises(CapacityError) as err2:
            mem.write_params(1, np.zeros(BANK_CAPACITY + 1, dtype=np.uint32))
        assert err2.value.qubit == 1 and err2.value.count == BANK_CAPACITY + 1

        # a full bank is fine on both routes
        ok = Circuit(tuple(_many_vz(0, BANK_CAPACITY)), n_qubits=1)
        assert len(peel(ok)[0]) == BANK_CAPACITY
        assert mem.write_params(0, np.zeros(BANK_CAPACITY, dtype=np.uint32)) == BANK_CAPACITY


def _many_vz(q: int, count: int):
    from pce.circuits import vz

    return [vz(q, 0.5) for _ in range(count)]


def test_criterion_10_cmd_run_determinism(tmp_path):
    with criterion(10, "two identical cmd_run invocations produce byte-identical outputs"):
        from pce.cli import main
        from tests.test_cli import tree_bytes

        cfg = tmp_path / "spec.cfg"
        cfg.write_text(
            "kind = RB\nwidths = 0 | 0,1\ndepths = 2,4\nrandomizations = 3\nshots = 5\nseed = 31\n"
        )
        bdir = tmp_path / "batch"
        assert main(["generate", "--config", str(cfg), "--out", str(bdir)]) == 0
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            rc = main(
                ["run", "--batch", str(bdir), "--mode", "pce", "--seed", "17",
                 "--shots", "5", "--out", str(out)]
            )
            assert rc == 0
            outs.append(tree_bytes(out))
        assert outs[0] == outs[1]
