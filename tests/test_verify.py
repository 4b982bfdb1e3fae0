"""The ``pce verify`` suites: their passing lines on generated batches, and
the failing branch of each oracle that a logic error can reach."""

from __future__ import annotations

from dataclasses import replace

import pytest

from pce import verify
from pce.circuits import _VZ, Circuit, vz
from pce.generators import BatchSpec, gen_batch
from pce.rip import rip
from pce.verify import check_peel_reinsertion, check_unitaries, verify_batch


def lines(batch) -> dict[str, str]:
    """Each suite's CHECK line at shot seed 3, by suite name."""
    return {r.name: r.line() for r in verify_batch(batch, seed=3)}


def with_vz_nudged(batch, index: int):
    """The batch with the first VZ phase of one circuit moved by 0.5 rad."""
    c = batch.circuits[index]
    gates = list(c.gates)
    k = next(k for k, g in enumerate(gates) if g.kind is _VZ)
    gates[k] = vz(gates[k].qubits[0], gates[k].phase + 0.5)
    circuits = list(batch.circuits)
    circuits[index] = Circuit(tuple(gates), c.n_qubits, c.shots)
    return replace(batch, circuits=tuple(circuits))


class TestPassingBatches:
    @pytest.mark.parametrize("kind", ["RC", "FRC"])
    def test_randomized_compiling_batches_pass_every_check(self, kind):
        batch = gen_batch(BatchSpec(kind, ((0, 1), (0, 1, 2)), ((2, 5),), 3, shots=2, seed=5))
        results = verify_batch(batch, seed=3)
        assert [r.line() for r in results if not r.ok] == []
        assert results[4].line() == f"CHECK unitary: PASS ({len(batch)} circuits checked)"

    def test_each_compared_circuit_is_built_once(self, monkeypatch):
        batch = gen_batch(BatchSpec("RC", ((0, 1),), ((2, 3),), 3, shots=2, seed=5))
        built = []
        real_unitary = verify.circuit_unitary
        monkeypatch.setattr(verify, "circuit_unitary", lambda c: built.append(c) or real_unitary(c))
        assert check_unitaries(batch, rip(batch)).ok
        assert len(built) == len(batch)  # a representative's reference is its own build

    def test_cb_batch_has_no_unitary_comparison(self):
        batch = gen_batch(BatchSpec("CB", ((0, 1),), ((4, 8),), 3, shots=2, seed=5))
        assert check_unitaries(batch, rip(batch)).line() == (
            "CHECK unitary: PASS (0 circuits checked)"
        )

    def test_rb_readout_circuits_are_not_counted(self):
        batch = gen_batch(BatchSpec("RB", ((0,), (0, 1)), ((2,),), 2, shots=2, seed=5))
        compared = sum(label.role == "rb" for label in batch.labels)
        assert compared == len(batch) - 4  # a readout pair per width
        assert check_unitaries(batch, rip(batch)).line() == (
            f"CHECK unitary: PASS ({compared} circuits checked)"
        )


class TestFailingBranches:
    def test_rc_phase_edit_fails_unitary_while_traces_agree(self):
        batch = gen_batch(BatchSpec("RC", ((0, 1),), ((2,),), 3, shots=2, seed=5))
        got = lines(with_vz_nudged(batch, 1))
        assert got["unitary"] == (
            "CHECK unitary: FAIL (circuit 1: not equivalent to representative 0)"
        )
        # stitching replays the edited phase faithfully: only the oracle sees the logic error
        assert got["trace-equivalence"] == "CHECK trace-equivalence: PASS (3 circuits, bit-exact)"

    def test_rb_phase_edit_fails_unitary(self):
        batch = gen_batch(BatchSpec("RB", ((0, 1),), ((2,),), 3, shots=2, seed=5))
        edited = with_vz_nudged(batch, 1)
        assert check_unitaries(edited, rip(edited)).line() == (
            "CHECK unitary: FAIL (circuit 1: sequence does not invert)"
        )

    def test_reordered_bank_words_fail_peel_reinsertion(self, monkeypatch):
        batch = gen_batch(BatchSpec("RC", ((0, 1),), ((2,),), 2, shots=2, seed=5))
        real_peel = verify.peel
        monkeypatch.setattr(verify, "peel", lambda c: [bank[::-1] for bank in real_peel(c)])
        assert check_peel_reinsertion(batch).line() == (
            "CHECK peel-reinsertion: FAIL (circuit 0: unitary drifted)"
        )


# the benchmark's three workload batches, generated at seed 3
BENCHMARK_SPECS = {
    "rb_shots": BatchSpec(
        "RB", ((0,), (0, 1), (0, 1, 2), (0, 1, 2, 3)), ((2, 8, 16),), 3, shots=50, seed=3
    ),
    "frc_1shot": BatchSpec(
        "FRC", ((0, 1), (0, 1, 2), (0, 1, 2, 3)), ((1, 10, 20, 30),), 25, shots=1, seed=3
    ),
    "rc_wide_socket": BatchSpec(
        "RC", (tuple(range(6)), tuple(range(8))), ((1, 5, 10, 20),), 4, shots=20, seed=3
    ),
}

PINNED_CHECK_LINES = {
    "rb_shots": [
        "CHECK dedup-oracle: PASS (16 groups)",
        "CHECK blob-round-trip: PASS (11234 bytes)",
        "CHECK machine-round-trip: PASS (16 programs)",
        "CHECK rpc-round-trip: PASS (12 frames)",
        "CHECK unitary: PASS (36 circuits checked)",
        "CHECK peel-reinsertion: PASS (44 circuits checked)",
        "CHECK trace-equivalence: PASS (44 circuits, bit-exact)",
    ],
    "frc_1shot": [
        "CHECK dedup-oracle: PASS (12 groups)",
        "CHECK blob-round-trip: PASS (179158 bytes)",
        "CHECK machine-round-trip: PASS (12 programs)",
        "CHECK rpc-round-trip: PASS (12 frames)",
        "CHECK unitary: PASS (300 circuits checked)",
        "CHECK peel-reinsertion: PASS (50 circuits checked)",
        "CHECK trace-equivalence: PASS (300 circuits, bit-exact)",
    ],
    "rc_wide_socket": [
        "CHECK dedup-oracle: PASS (8 groups)",
        "CHECK blob-round-trip: PASS (27544 bytes)",
        "CHECK machine-round-trip: PASS (8 programs)",
        "CHECK rpc-round-trip: PASS (12 frames)",
        "CHECK unitary: PASS (0 circuits checked)",
        "CHECK peel-reinsertion: PASS (0 circuits checked)",
        "CHECK trace-equivalence: PASS (32 circuits, bit-exact)",
    ],
}


@pytest.mark.parametrize("name", sorted(BENCHMARK_SPECS))
def test_benchmark_batches_check_lines_are_pinned(name):
    got = [r.line() for r in verify_batch(gen_batch(BENCHMARK_SPECS[name]), seed=3)]
    assert got == PINNED_CHECK_LINES[name]
