"""Tests for the control-stack model: memory, stitch, executor, session, scheduler."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pce import kernels
from pce.asm import MachineProgram, Opcode, assemble, compile_circuit
from pce.circuits import Circuit, U3Params, circuit_unitary, cz, measure, u3_decompose, vz, x90
from pce.control import (
    ARRAY_DRAW_MIN_SHOTS,
    BANK_CAPACITY,
    ControlSession,
    N_BANKS,
    ParameterMemory,
    PulseTrace,
    REQUEST_LATENCY_CYCLES,
    ShotData,
    TimingConfig,
    _array_draws,
    _fit_bank,
    _entropy_words,
    _measured,
    _sample_bits,
    _shot_distribution,
    _shot_draws,
    deft_run,
    execute,
)
from pce.errors import (
    CapacityError,
    ConfigError,
    RoutingError,
    SchedulingError,
    UnderflowError,
    ValidationError,
)
from pce.generators import BatchSpec, gen_batch
from pce.profiling import ProfileRecord, parse_report, report
from pce.rip import (
    EquivalenceReport,
    ParamTable,
    binarize,
    debinarize,
    dequantize_words,
    modify,
    peel,
    rip,
)
from pce.rpc import ControlServer, DeftClient, LoopbackChannel
from pce.runner import run_experiment
from tests.test_asm import word
from tests.test_kernels import _reference_run_program, count_emitting_ops, programs_and_banks

OP_X90, OP_CZ = kernels.OP_PULSE_X90, kernels.OP_TWO_QUBIT
OP_MEASURE, OP_DELAY = kernels.OP_MEASURE, kernels.OP_DELAY


def program_of(*words, n_qubits=2, shots=3) -> MachineProgram:
    return MachineProgram([*words, word(Opcode.END)], n_qubits, shots)


class TestParameterMemory:
    def test_write_then_read(self):
        mem = ParameterMemory()
        words = np.arange(10, dtype=np.uint32)
        mem.write_params(3, words)
        assert mem.banks[3, :10].tolist() == list(range(10))
        assert mem.counts.tolist() == [0, 0, 0, 10, 0, 0, 0, 0]

    def test_bank_independence(self):
        mem = ParameterMemory()
        mem.write_params(3, np.full(5, 7, dtype=np.uint32))
        assert not mem.banks[4].any()
        assert (int(mem.counts[3]), int(mem.counts[4])) == (5, 0)

    def test_capacity_error_names_qubit_and_count(self):
        mem = ParameterMemory()
        with pytest.raises(CapacityError) as err:
            mem.write_params(2, np.zeros(BANK_CAPACITY + 1, dtype=np.uint32))
        assert err.value.qubit == 2
        assert err.value.count == BANK_CAPACITY + 1

    def test_exactly_full_bank_accepted(self):
        mem = ParameterMemory()
        assert mem.write_params(0, np.zeros(BANK_CAPACITY, dtype=np.uint32)) == BANK_CAPACITY

    @pytest.mark.parametrize(
        "words", [[-1], [5, 2**32], [1.5], ["7"], [True], [2**64], [5, True], [True, 5]]
    )
    def test_a_word_outside_u32_or_not_an_integer_is_refused(self, words):
        mem = ParameterMemory()
        with pytest.raises(ValidationError, match="^bank 2: parameter words must be integers"):
            mem.write_params(2, words)
        assert not mem.banks.any() and not mem.counts.any()

    @pytest.mark.parametrize("words", [[[1, 2]], np.zeros((2, 2)), np.zeros((1, 2), np.uint32), 7])
    def test_a_bank_that_is_not_one_flat_sequence_is_refused(self, words):
        mem = ParameterMemory()
        with pytest.raises(ValidationError, match="^bank 0: parameter words must be one flat sequence"):
            mem.write_params(0, words)
        assert not mem.banks.any() and not mem.counts.any()

    def test_integer_words_of_any_dtype_are_taken(self):
        mem = ParameterMemory()
        assert mem.write_params(1, [0, 2**32 - 1]) == 2
        assert mem.write_params(2, np.array([7], np.int64)) == 1
        assert mem.write_params(3, []) == 0
        assert mem.banks[1, :2].tolist() == [0, 2**32 - 1] and mem.banks[2, 0] == 7

    def test_a_uint32_array_is_taken_without_a_pass(self):
        words = np.arange(5, dtype=np.uint32)
        assert _fit_bank(0, words) is words


class TestIntegerArguments:
    """A seed, shot count or reset gap that is not an integer is refused, not
    truncated; a bool is not an integer here, a numpy integer is."""

    BATCH = BatchSpec("RB", ((0,),), ((2,),), 1, shots=3, seed=1)

    @pytest.mark.parametrize(
        "kwargs", [{"shots": 2.5}, {"seed": 1.5}, {"shots": True}, {"seed": False}, {"shots": "3"}]
    )
    def test_run_experiment(self, kwargs):
        batch = gen_batch(self.BATCH)
        with pytest.raises(ConfigError, match="must be an integer, got"):
            run_experiment(batch, "pce", **kwargs)

    def test_run_experiment_takes_numpy_integers(self):
        batch = gen_batch(self.BATCH)
        got = run_experiment(batch, "pce", seed=np.int64(1), shots=np.int32(2))
        want = run_experiment(batch, "pce", seed=1, shots=2)
        assert got.data == want.data

    @pytest.mark.parametrize("shots", [2.5, True])
    def test_execute(self, shots):
        prog = program_of(word(Opcode.PULSE_X90, 0), n_qubits=1, shots=2)
        with pytest.raises(ValidationError, match=f"shot count must be an integer, got {shots}"):
            execute(prog, shots=shots)
        assert execute(prog, shots=np.uint32(3)).trace.shots == 3

    @pytest.mark.parametrize("reset_ns", [1.5, True, "500"])
    def test_timing_config(self, reset_ns):
        with pytest.raises(ConfigError, match="reset gap must be an integer"):
            TimingConfig(reset_ns=reset_ns)
        assert TimingConfig(reset_ns=np.int64(4)).reset_ns == 4

    def test_session_seed(self):
        with pytest.raises(ValidationError, match="seed must be an integer, got 1.5"):
            ControlSession(seed=1.5)

    @pytest.mark.parametrize("kwargs", [{"seed": 1.5}, {"seed": True}, {"circuit_index": 2.0}])
    def test_execute_seed_and_circuit_index(self, kwargs):
        prog = program_of(word(Opcode.PULSE_X90, 0), word(Opcode.MEASURE, 0), n_qubits=1, shots=2)
        with pytest.raises(ValidationError, match="must be an integer, got"):
            execute(prog, **kwargs)


class TestStitchUnit:
    """The modeled stitch unit: REQ_PARAM on qubit q takes bank q's words in
    order, ``counts[q]`` of them per shot, decoded from the trace by
    ``served_stream``."""

    def test_serves_in_fifo_order_and_repeats_per_shot(self):
        words = [10, 20, 30]
        mem = ParameterMemory()
        mem.write_params(0, np.asarray(words, dtype=np.uint32))
        res = execute(requests_then_pulses(0, 3, shots=2), mem)
        assert served_stream(res.trace, 0) == words + words

    def test_underflow_after_budget(self):
        mem = ParameterMemory()
        mem.write_params(0, np.array([1, 2], dtype=np.uint32))
        assert int(execute(requests_then_pulses(0, 2, shots=3), mem).served[0]) == 6
        # three requests a shot: the seventh, first of shot 2, finds the budget spent
        with pytest.raises(UnderflowError) as err:
            execute(requests_then_pulses(0, 3, shots=3), mem)
        assert (err.value.core_id, err.value.shot, err.value.op_index) == (0, 2, 1)

    def test_latency_constant(self):
        # a request issues in the 2 cycles of any other op
        mem = ParameterMemory()
        mem.write_params(0, np.array([7], dtype=np.uint32))
        req = program_of(word(Opcode.REQ_PARAM, 0), word(Opcode.PULSE_X90, 0))
        inc = program_of(word(Opcode.INC_PHASE, 0, imm=7), word(Opcode.PULSE_X90, 0))
        a, b = execute(req, mem, shots=1), execute(inc, mem, shots=1)
        assert a.trace == b.trace
        assert a.cycle_count == b.cycle_count == 3 * REQUEST_LATENCY_CYCLES
        assert a.sim_time_ns == b.sim_time_ns

    def test_unknown_core_id(self):
        with pytest.raises(RoutingError):
            ParameterMemory().write_params(N_BANKS, [1])
        prog = program_of(word(Opcode.REQ_PARAM, N_BANKS), n_qubits=N_BANKS + 1)
        with pytest.raises(ValidationError, match="9 qubits exceed the 8-bank design"):
            execute(prog, ParameterMemory())

    def test_program_wider_than_the_banks_is_refused_without_requests(self):
        prog = program_of(word(Opcode.PULSE_X90, 0), n_qubits=N_BANKS + 1)
        with pytest.raises(ValidationError, match="9 qubits exceed the 8-bank design"):
            execute(prog)

    def test_empty_bank_underflows_immediately(self):
        mem = ParameterMemory()
        mem.write_params(0, np.zeros(0, dtype=np.uint32))
        with pytest.raises(UnderflowError) as err:
            execute(requests_then_pulses(0, 1, shots=5), mem)
        assert (err.value.core_id, err.value.shot, err.value.op_index) == (0, 0, 1)


class TestExecute:
    def test_trace_ignores_memory_without_requests(self):
        prog = program_of(word(Opcode.PULSE_X90, 0), n_qubits=1, shots=2)
        mem = ParameterMemory()
        mem.write_params(0, np.full(8, 123, dtype=np.uint32))
        a = execute(prog, mem, seed=1)
        b = execute(prog, shots=2, seed=1)
        assert a.trace == b.trace

    def test_shot_spacing_with_measure(self):
        c = Circuit((x90(0), measure(0)), n_qubits=1, shots=3)
        res = execute(assemble(compile_circuit(c)), seed=0)
        x90_times = res.trace.times[res.trace.kinds == 1]
        # X90 16 ns + measure 500 ns + passive reset 500 ns between shots
        assert list(x90_times) == [0, 1016, 2032]

    def test_shot_spacing_without_measure(self):
        prog = program_of(word(Opcode.PULSE_X90, 0), n_qubits=1, shots=3)
        res = execute(prog, seed=0)
        assert list(res.trace.times) == [0, 516, 1032]

    def test_cz_synchronizes_channels(self):
        gates = (x90(0), x90(0), x90(1), cz(0, 1), x90(0))
        prog = assemble(compile_circuit(Circuit(gates, n_qubits=2, shots=1)))
        res = execute(prog, seed=0)
        cz_idx = int(np.where(res.trace.kinds == 4)[0][0])
        assert res.trace.times[cz_idx] == 32  # later of the two channel clocks
        assert res.trace.times[cz_idx + 1] == 132  # resumes after the 100 ns gate

    def test_phase_accumulator_resets_each_shot(self):
        gates = (vz(0, 1.0), x90(0))
        prog = assemble(compile_circuit(Circuit(gates, n_qubits=1, shots=3)))
        res = execute(prog, seed=0)
        phases = set(int(p) for p in res.trace.phases)
        assert len(phases) == 1  # same frame word every shot

    def test_underflow_names_shot_and_op(self):
        # one word, two requests a shot: 4 shots serve 4 requests, shot 2 asks for a fifth
        req = word(Opcode.REQ_PARAM, 0)
        prog = program_of(req, req, n_qubits=1, shots=4)
        mem = ParameterMemory()
        mem.write_params(0, np.array([5], dtype=np.uint32))
        with pytest.raises(UnderflowError) as err:
            execute(prog, mem, shots=4, seed=0)
        assert err.value.shot == 2
        assert err.value.op_index == 0

    def test_request_count_invariant(self):
        c = Circuit(tuple(u3_decompose(U3Params(0.1, 0.2, 0.3), 0)) + (measure(0),), 1, shots=5)
        words = peel(c)
        mem = ParameterMemory()
        mem.write_params(0, words[0])
        prog = assemble(compile_circuit(modify(c)))
        res = execute(prog, mem, shots=5, seed=0)
        assert int(res.served[0]) == len(words[0]) * 5

    def test_deterministic_given_seed(self):
        c = Circuit(tuple(u3_decompose(U3Params(1.0, 0.4, 0.2), 0)) + (measure(0),), 1, shots=20)
        prog = assemble(compile_circuit(c))
        a = execute(prog, seed=77, circuit_index=3)
        b = execute(prog, seed=77, circuit_index=3)
        assert a.trace == b.trace and a.data == b.data and a.cycle_count == b.cycle_count

    def test_sampled_distribution_matches_circuit_unitary(self):
        # distribution derived from the trace equals the circuit's own statistics
        rng = np.random.default_rng(40)
        for _ in range(10):
            gates = []
            for q in (0, 1):
                gates.extend(u3_decompose(U3Params(*rng.uniform(0, 6.28, 3)), q))
            gates.append(cz(0, 1))
            for q in (0, 1):
                gates.extend(u3_decompose(U3Params(*rng.uniform(0, 6.28, 3)), q))
            circuit = Circuit(tuple(gates) + (measure(0), measure(1)), 2, shots=1)
            res = execute(assemble(compile_circuit(circuit)), seed=0)
            probs, measured = _trace_shot_distribution(res.trace, 0, 2)
            stripped = Circuit(tuple(gates), 2, shots=1)
            expected = np.abs(circuit_unitary(stripped)[:, 0]) ** 2
            assert measured == (0, 1)
            assert np.allclose(probs, expected, atol=1e-6)

    def test_x_gate_measures_one_deterministically(self):
        c = Circuit((x90(0), x90(0), measure(0)), 1, shots=10)
        res = execute(assemble(compile_circuit(c)), seed=5)
        assert res.data.measured_qubits == (0,)
        assert res.data.counts() == {"1": 10}

    def test_wide_program_is_trace_only(self):
        gates = tuple(x90(q) for q in range(5)) + tuple(measure(q) for q in range(5))
        res = execute(assemble(compile_circuit(Circuit(gates, 5, shots=4))), seed=0)
        assert res.data.measured_qubits == (0, 1, 2, 3, 4)
        assert res.data.counts() == {"00000": 4}

    def test_counts_sum_to_shots(self):
        c = Circuit((x90(0), measure(0)), 1, shots=33)
        res = execute(assemble(compile_circuit(c)), seed=2)
        assert sum(res.data.counts().values()) == 33

    def test_negative_reset_delay_rejected(self):
        assert TimingConfig(reset_ns=0).reset_ns == 0
        with pytest.raises(ConfigError, match="reset gap must be non-negative"):
            TimingConfig(reset_ns=-600)

    def test_reset_delay_configurable(self):
        prog = program_of(word(Opcode.PULSE_X90, 0), n_qubits=1, shots=2)
        res = execute(prog, seed=0, timing=TimingConfig(reset_ns=500_000))
        assert list(res.trace.times) == [0, 500_016]

    def test_ops_after_end_never_run(self):
        # a program with ops after its END cannot be built, so it never runs
        x90_word, end_word = 1 << 56, 7 << 56
        with pytest.raises(ValidationError) as err:
            MachineProgram(np.array([x90_word, end_word, x90_word], np.uint64), 1, 2)
        assert str(err.value) == "word 1: program must contain exactly one END, as the last op"


X90_0, END = word(Opcode.PULSE_X90), word(Opcode.END)
BAD_OPCODE = word(0x09)


@st.composite
def word_arrays(draw):
    """Random words on 1-10 qubits: opcode bytes 0-8 (0 and 8 unknown),
    channels 0-9, some reserved bits set.  One word in eight is drawn from
    that whole space and the rest from well-formed ops, and most arrays end
    in END, so that about half of them make a program."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_qubits = int(rng.integers(1, 11))
    words = []
    for _ in range(int(rng.integers(0, 9))):
        if rng.random() < 1 / 8:
            op, ch, ch2, reserved = (int(x) for x in rng.integers(0, (9, 10, 10, 256)))
            words.append(word(op, ch, ch2, int(rng.integers(0, 1 << 32))) | reserved << 32)
            continue
        op = int(rng.integers(1, 7))
        ch, ch2 = (int(x) for x in rng.choice(n_qubits, size=2, replace=n_qubits == 1))
        imm = int(rng.integers(0, 1000)) if op in (Opcode.INC_PHASE, Opcode.DELAY) else 0
        words.append(word(op, ch, ch2 if op == Opcode.TWO_QUBIT else 0, imm))
    if rng.random() < 0.9:
        words.append(END)
    return words, n_qubits


class TestExecutorFaults:
    """Underflow is the executor's only runtime fault: a program holding a bad
    word is refused when it is built, so it never reaches the executor."""

    @pytest.mark.parametrize(
        "words, message",
        [
            ((X90_0, BAD_OPCODE, END), "word 1: unknown opcode"),
            ((X90_0, word(Opcode.PULSE_X90, ch=2), END), "word 1: channel outside 0..1"),
            ((word(Opcode.TWO_QUBIT, 0, 5), END), "word 0: invalid channel pair"),
        ],
    )
    def test_bad_word_is_refused_at_construction(self, words, message):
        with pytest.raises(ValidationError) as err:
            MachineProgram(np.array(words, np.uint64), 2, 1)
        assert str(err.value) == message

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(word_arrays(), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_a_built_program_runs_or_underflows(self, program_words, shots, seed):
        words, n_qubits = program_words
        try:
            program = MachineProgram(np.array(words, np.uint64), n_qubits, shots)
        except ValidationError:
            return
        with pytest.raises(ValueError):
            program.words[0] = 0
        rng = np.random.default_rng(seed)
        mem = ParameterMemory()
        for bank in range(N_BANKS):
            mem.write_params(bank, rng.integers(0, 1 << 32, size=int(rng.integers(0, 4))))
        try:
            res = execute(program, mem)
        except UnderflowError:
            return
        except ValidationError as err:
            assert n_qubits > N_BANKS and "-bank design" in str(err)
            return
        assert len(res.trace) == count_emitting_ops(program.words) * shots


def _reference_distribution(trace, shot, n):
    """Test-only oracle: one X90 matrix per event, built from its own scalar
    phase and contracted into the state with ``tensordot``.  The batched
    sampler must match it bit for bit."""
    k = trace.events_per_shot
    lo, hi = shot * k, (shot + 1) * k
    kinds, channels, channels2, phases = trace.kinds, trace.channels, trace.channels2, trace.phases
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    measured = []
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(lo, hi):
        kind = int(kinds[i])
        ch = int(channels[i])
        if kind == kernels.OP_PULSE_X90:
            phi = dequantize_words(phases[i : i + 1])[0]
            e = np.exp(1j * phi)
            m = np.array([[1.0, -1j / e], [-1j * e, 1.0]], dtype=complex) * inv_sqrt2
            T = np.tensordot(m, state.reshape((2,) * n), axes=([1], [ch]))
            state = np.moveaxis(T, 0, ch).reshape(-1)
        elif kind == kernels.OP_TWO_QUBIT:
            T = state.reshape((2,) * n)
            idx = [slice(None)] * n
            idx[ch] = 1
            idx[int(channels2[i])] = 1
            T[tuple(idx)] *= -1.0
            state = T.reshape(-1)
        elif kind == kernels.OP_MEASURE:
            measured.append(ch)
    return np.abs(state) ** 2, tuple(sorted(measured))


def _trace_shot_distribution(trace, shot, n):
    """The sampler's probabilities for one shot of a trace, and its measured qubits."""
    row = trace.rows[0 if len(trace.rows) == 1 else shot]
    shot = trace.shot
    events = shot.kinds.tolist(), shot.channels.tolist(), shot.channels2.tolist()
    return _shot_distribution(*events, row, n), _measured(shot)


def random_trace(rng, n, k, shots, reset_ns=500):
    """The trace of a random program of k events of all four kinds on n
    qubits, with random DELAY lengths: a real skeleton, and either one phase
    row or one per shot (each half the time).  30 % of the traces use
    quadrant phases; phases sit on X90 events only, as the executor puts
    them."""
    ops = [OP_X90, OP_X90, OP_X90, OP_CZ, OP_MEASURE, OP_DELAY] if n > 1 else [
        OP_X90, OP_X90, OP_MEASURE, OP_DELAY]
    words = []
    for op in rng.choice(ops, size=k).tolist():
        ch = int(rng.integers(0, n))
        ch2 = (ch + int(rng.integers(1, n))) % n if op == OP_CZ else 0
        imm = int(rng.integers(0, 1 << 32)) if op == OP_DELAY else 0
        words.append(word(op, ch, ch2, imm))
    program = program_of(*words, n_qubits=n, shots=shots)
    skeleton = kernels.shot_skeleton(program.words, n)
    n_rows = 1 if rng.random() < 0.5 else shots
    if rng.random() < 0.3:
        rows = (rng.integers(0, 4, size=(n_rows, k)) << 30).astype(np.uint32)
    else:
        rows = rng.integers(0, 1 << 32, size=(n_rows, k), dtype=np.uint64).astype(np.uint32)
    rows[:, skeleton.events.kinds != OP_X90] = 0
    return PulseTrace(skeleton.events, skeleton.shot_end + reset_ns, rows, n, shots)


def reference_draws(seed, circuit_index, shots):
    """The draw law as written: one Generator a shot."""
    return np.array(
        [np.random.default_rng((seed, circuit_index, s)).random() for s in range(shots)]
    )


def reference_bits(trace, n, seed, circuit_index):
    """Shot bits drawn as the sampler draws them, one reference solve per shot."""
    rows = []
    for s, r in enumerate(reference_draws(seed, circuit_index, trace.shots)):
        probs, measured = _reference_distribution(trace, s, n)
        cum = np.cumsum(probs)
        idx = min(int(np.searchsorted(cum, r * cum[-1], side="right")), (1 << n) - 1)
        rows.append([(idx >> (n - 1 - q)) & 1 for q in measured])
    return np.array(rows, dtype=np.uint8).reshape(trace.shots, -1)


class TestSamplerMatchesReference:
    def test_random_traces_bitwise(self):
        rng = np.random.default_rng(17)
        for _ in range(120):
            n = int(rng.integers(1, 5))
            shots = int(rng.integers(1, 4))
            trace = random_trace(rng, n, int(rng.integers(0, 80)), shots)
            for shot in {0, shots - 1}:
                probs, measured = _trace_shot_distribution(trace, shot, n)
                ref_probs, ref_measured = _reference_distribution(trace, shot, n)
                assert measured == ref_measured
                assert np.array_equal(probs.view(np.uint64), ref_probs.view(np.uint64))

    def test_sampled_bits_equal_the_per_shot_reference(self):
        # per-shot rows are drawn from a pool of two, so shots share rows; every
        # other trace draws at or above the array-draw crossover
        rng = np.random.default_rng(29)
        for i in range(80):
            n = int(rng.integers(1, 5))
            if i % 2:
                shots = int(rng.integers(ARRAY_DRAW_MIN_SHOTS, 200))
            else:
                shots = int(rng.integers(1, ARRAY_DRAW_MIN_SHOTS))
            trace = random_trace(rng, n, int(rng.integers(0, 40)), shots)
            if len(trace.rows) > 1:
                trace = replace(trace, rows=trace.rows[rng.integers(0, 2, size=shots)])
            seed, index = int(rng.integers(0, 1 << 32)), int(rng.integers(0, 300))
            data = _sample_bits(trace, n, shots, seed, index)
            assert data.measured_qubits == _measured(trace.shot)
            assert data.bits.dtype == np.uint8
            assert np.array_equal(data.bits, reference_bits(trace, n, seed, index))

    @pytest.mark.parametrize("n", [2, 6])
    def test_a_qubit_measured_twice_is_listed_twice(self, n):
        # trace-only programs (over 4 qubits) list one entry per MEASURE event too
        program = program_of(
            word(Opcode.MEASURE, 1), word(Opcode.MEASURE, 0), word(Opcode.MEASURE, 1), n_qubits=n
        )
        data = execute(program, shots=3).data
        assert data.measured_qubits == (0, 1, 1)
        assert data.bits.shape == (3, 3)

    def test_windowed_stitch_bits_match_per_shot_reference(self):
        # 3 requests a shot against 5 loaded words: each shot starts 3 words on,
        # so shot rows differ and the sampler takes its per-shot branch
        rng = np.random.default_rng(23)
        n, shots = 3, 12
        ops = []
        for q in range(n):
            ops += [word(Opcode.REQ_PARAM, q), word(Opcode.PULSE_X90, q)] * 2
        ops += [word(Opcode.TWO_QUBIT, 0, 1), word(Opcode.TWO_QUBIT, 1, 2)]
        for q in range(n):
            ops += [word(Opcode.REQ_PARAM, q), word(Opcode.PULSE_X90, q)]
        ops += [word(Opcode.MEASURE, q) for q in range(n)]
        program = program_of(*ops, n_qubits=n, shots=shots)
        mem = ParameterMemory()
        for q in range(n):
            mem.write_params(q, rng.integers(0, 1 << 32, size=5, dtype=np.uint64).astype(np.uint32))
        for seed in range(5):
            res = execute(program, mem, seed=seed, circuit_index=4)
            rows = res.trace.phases.reshape(shots, -1)
            assert len({row.tobytes() for row in rows}) > 1
            assert np.array_equal(res.data.bits, reference_bits(res.trace, n, seed, 4))


# entropy ints on both sides of each uint32 word boundary, and past two words
WORD_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 2**32 + 7, 2**100 + 3]


def measured_x90(shots):
    """A 1-qubit program that samples its shots: X90, then MEASURE."""
    return assemble(compile_circuit(Circuit((x90(0), measure(0)), 1, shots=shots)))


class TestShotDraws:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        st.one_of(st.sampled_from(WORD_EDGES), st.integers(0, 2**130)),
        st.one_of(st.sampled_from(WORD_EDGES), st.integers(0, 2**70)),
        st.sampled_from(
            [1, ARRAY_DRAW_MIN_SHOTS - 1, ARRAY_DRAW_MIN_SHOTS, ARRAY_DRAW_MIN_SHOTS + 1, 3000]
        ),
    )
    def test_draws_equal_the_per_shot_generators(self, seed, index, shots):
        # both paths, and the array path on its own below the crossover too
        expected = reference_draws(seed, index, shots).view(np.uint64)
        words = _entropy_words(seed, "seed") + _entropy_words(index, "circuit index")
        assert np.array_equal(_shot_draws(seed, index, shots).view(np.uint64), expected)
        assert np.array_equal(_array_draws(words, shots).view(np.uint64), expected)

    @pytest.mark.parametrize("shots", [1, ARRAY_DRAW_MIN_SHOTS - 1, ARRAY_DRAW_MIN_SHOTS, 200])
    def test_generators_are_built_only_below_the_crossover(self, monkeypatch, shots):
        built = []
        default_rng = np.random.default_rng

        def counting(*args, **kwargs):
            built.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        res = execute(measured_x90(shots), seed=3, circuit_index=2)
        assert len(built) == (shots if shots < ARRAY_DRAW_MIN_SHOTS else 0)
        monkeypatch.undo()
        assert np.array_equal(res.data.bits, reference_bits(res.trace, 1, 3, 2))

    @pytest.mark.parametrize("shots", [1, ARRAY_DRAW_MIN_SHOTS])
    def test_negative_seed_is_refused(self, shots):
        with pytest.raises(ValidationError, match="seed must be non-negative, got -1"):
            execute(measured_x90(shots), seed=-1)

    @pytest.mark.parametrize("shots", [1, ARRAY_DRAW_MIN_SHOTS])
    def test_negative_circuit_index_is_refused(self, shots):
        with pytest.raises(ValidationError, match="circuit index must be non-negative, got -1"):
            execute(measured_x90(shots), circuit_index=-1)

    # trace-only programs draw no shot, but refuse what a sampled one refuses
    TRACE_ONLY = {
        "wide": Circuit((*(x90(q) for q in range(5)), *(measure(q) for q in range(5))), 5, 3),
        "unmeasured": Circuit((x90(0), vz(0, 0.5), x90(0)), 1, 3),
    }

    @pytest.mark.parametrize("name", sorted(TRACE_ONLY))
    @pytest.mark.parametrize("seed, index", [(-1, 0), (0, -3), (-1, -3)])
    def test_trace_only_programs_refuse_a_negative_seed_or_index(self, name, seed, index):
        program = assemble(compile_circuit(self.TRACE_ONLY[name]))
        assert not execute(program, seed=0, circuit_index=0).data.bits.any()
        what = "seed" if seed < 0 else "circuit index"  # the seed is checked first
        with pytest.raises(ValidationError, match=f"{what} must be non-negative, got -"):
            execute(program, seed=seed, circuit_index=index)


def _reference_counts(data):
    """Oracle: the per-shot histogram, each key built bit by bit."""
    out = {}
    for row in data.bits:
        key = "".join(str(int(b)) for b in row)
        out[key] = out.get(key, 0) + 1
    return out


class TestShotCounts:
    @pytest.mark.parametrize(
        "shots, width, top",
        [(1, 0, 2), (5, 0, 2), (1, 1, 2), (1, 4, 2), (50, 4, 2), (200, 8, 2), (7, 3, 256),
         (30, 70, 2)],
    )
    def test_counts_and_dump_equal_the_per_shot_reference(self, shots, width, top):
        # bytes other than 0 and 1, and rows wider than a word, key as they read
        rng = np.random.default_rng(shots * 1000 + width)
        bits = rng.integers(0, top, size=(shots, width)).astype(np.uint8)
        data = ShotData(tuple(range(width)), bits)
        want = _reference_counts(data)
        assert data.counts() == want
        lines = [f"measured {' '.join(map(str, range(width)))}", f"shots {shots}"]
        lines += [f"{k} {n}" for k, n in sorted(want.items())]
        assert data.to_text() == "\n".join(lines) + "\n"

    def test_non_contiguous_bits(self):
        bits = np.random.default_rng(3).integers(0, 2, size=(6, 8)).astype(np.uint8)
        data = ShotData((0, 1, 2, 3), bits[:, ::2])
        assert data.counts() == _reference_counts(data)


def _reference_trace_text(trace):
    """Oracle: the per-event trace dump, one indexed read per field."""
    lines = []
    times, channels, channels2 = trace.times, trace.channels, trace.channels2
    kinds, phases = trace.kinds, trace.phases
    for i in range(len(times)):
        ch = int(channels[i])
        ch2 = int(channels2[i])
        chs = f"{ch}" if ch2 < 0 else f"{ch},{ch2}"
        lines.append(
            f"t={int(times[i])} ch={chs} "
            f"kind={kernels.EVENT_KIND_NAMES[int(kinds[i])]} "
            f"phase=0x{int(phases[i]):08x}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


class TestTraceText:
    def test_random_traces_match_reference(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            shots = int(rng.integers(1, 4))
            trace = random_trace(rng, n, int(rng.integers(0, 40)), shots,
                                 reset_ns=int(rng.integers(0, 1 << 20)))
            rows = trace.rows.copy()
            rows[rng.random(rows.shape) < 0.2] = 0xFFFFFFFF
            rows[rng.random(rows.shape) < 0.2] = 0
            trace = replace(trace, rows=rows)
            assert trace.to_text() == _reference_trace_text(trace)

    def test_cz_and_extreme_phases(self):
        rng = np.random.default_rng(3)
        trace = random_trace(rng, 4, 50, 2, reset_ns=1_000_000_007_000)
        rows = trace.rows.copy()
        rows[:, ::2] = 0xFFFFFFFF
        trace = replace(trace, rows=rows)
        text = trace.to_text()
        assert text == _reference_trace_text(trace)
        cz_at = int(np.flatnonzero(trace.channels2 >= 0)[0])
        ch, ch2 = int(trace.channels[cz_at]), int(trace.channels2[cz_at])
        assert f"ch={ch},{ch2} kind=CZ phase=0x{int(trace.phases[cz_at]):08x}\n" in text
        assert "phase=0xffffffff\n" in text
        assert f"t={int(trace.times[-1])} " in text and trace.times[-1] > 1_000_000_007_000

    def test_empty_trace(self):
        empty = random_trace(np.random.default_rng(0), 2, 0, 1)
        assert len(empty) == 0
        assert empty.to_text() == _reference_trace_text(empty) == ""


class TestCompactTrace:
    """A trace is shot 0's events, a period and one phase row or one per
    shot; its expanded columns and its dump match the per-shot oracles."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(programs_and_banks(fits=("equal", "equal", "above")), st.integers(1, 5))
    def test_executed_traces_match_the_per_shot_oracles(self, program_memory, shots):
        # no bank underflows: counts equal to the requests per shot give one
        # phase row, a larger count on a requested bank one row per shot
        program, memory = program_memory
        args = (shots, memory.banks, memory.counts, 500)
        want = _reference_run_program(program.words, program.n_qubits, *args)
        trace = execute(program, memory, shots=shots).trace
        assert len(trace.rows) in (1, shots)
        got = (trace.times, trace.channels, trace.channels2, trace.kinds, trace.phases)
        for g, w in zip(got, want[:5]):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert len(trace) == len(want[0])
        assert trace.to_text() == _reference_trace_text(trace)

    def test_one_row_equals_its_per_shot_twin(self):
        program = program_of(word(Opcode.REQ_PARAM, 0), word(Opcode.PULSE_X90, 0),
                             word(Opcode.MEASURE, 1), n_qubits=2, shots=4)
        mem = ParameterMemory()
        mem.write_params(0, [0x40000000])
        trace = execute(program, mem).trace
        assert trace.rows.shape == (1, 2)
        twin = replace(trace, rows=np.repeat(trace.rows, 4, axis=0))
        assert trace == twin and twin == trace
        assert twin.to_text() == trace.to_text()
        rows = twin.rows.copy()
        rows[3, 0] = 7
        assert replace(twin, rows=rows) != trace

    def test_period_counts_only_from_the_second_shot(self):
        one = execute(program_of(word(Opcode.PULSE_X90, 0), shots=1)).trace
        assert replace(one, period=one.period + 1) == one
        two = execute(program_of(word(Opcode.PULSE_X90, 0), shots=2)).trace
        assert replace(two, period=two.period + 1) != two

    def test_expansions_are_read_only(self):
        trace = execute(program_of(word(Opcode.PULSE_X90, 0), word(Opcode.MEASURE, 1))).trace
        for column in (trace.times, trace.channels, trace.channels2, trace.kinds, trace.phases):
            with pytest.raises(ValueError):
                column[0] = 1
        with pytest.raises(ValueError):
            trace.shot.times[0] = 1

    def test_a_group_shares_one_shot(self):
        batch = gen_batch(BatchSpec("RB", ((0,), (0, 1)), ((2, 3),), 3, shots=4, seed=6))
        outcome = run_experiment(batch, "pce", seed=1)
        groups = outcome.report.groups
        assert any(len(g) > 1 for g in groups)
        for g in groups:
            assert len({id(outcome.traces[i].shot) for i in g}) == 1
        base = run_experiment(batch, "baseline", seed=1)
        assert len({id(t.shot) for t in base.traces.values()}) == len(base.traces)
        for i in sorted(outcome.traces):
            assert outcome.traces[i].to_text() == base.traces[i].to_text()

    def test_event_times_past_int64_are_refused(self):
        program = program_of(word(Opcode.PULSE_X90, 0), word(Opcode.MEASURE, 0), shots=3)
        shot_end = 16 + 500
        limit = (1 << 63) - 1
        fits = limit // 3 - shot_end  # 3 shots end exactly inside the limit
        trace = execute(program, timing=TimingConfig(reset_ns=fits)).trace
        assert int(trace.times[-1]) == 2 * (shot_end + fits) + 16
        for reset_ns in (fits + 1, 1 << 62, 10**23):
            with pytest.raises(ConfigError, match="int64 event-time limit"):
                execute(program, timing=TimingConfig(reset_ns=reset_ns))


def requests_then_pulses(q, n_req, shots):
    """A 2-qubit program whose every request on q is followed by a pulse on q."""
    ops = [word(Opcode.PULSE_X90, 1 - q)]
    for _ in range(n_req):
        ops += [word(Opcode.REQ_PARAM, q), word(Opcode.PULSE_X90, q)]
    return program_of(*ops, n_qubits=2, shots=shots)


def served_stream(trace, q):
    """Words the executor served to q, recovered from the frame word of each pulse on q.

    The accumulator restarts every shot, so each pulse's frame word minus the
    previous one in its shot is the word the request before it added."""
    stream = []
    k = trace.events_per_shot
    channels, kinds, phases = trace.channels, trace.kinds, trace.phases
    for shot in range(trace.shots):
        lo = shot * k
        on_q = (channels[lo : lo + k] == q) & (kinds[lo : lo + k] == 1)
        prev = 0
        for phase in phases[lo : lo + k][on_q]:
            stream.append((int(phase) - prev) & 0xFFFFFFFF)
            prev = int(phase)
    return stream


class TestServingLawThroughExecute:
    def test_random_windows_and_short_stitch_budgets(self):
        # request k takes word k % pc; the budget is pc * shots
        rng = np.random.default_rng(91)
        underflows = 0
        for _ in range(200):
            q = int(rng.integers(0, 2))
            pc = int(rng.integers(1, 7))
            shots = int(rng.integers(1, 5))
            n_req = int(rng.integers(1, 9))
            words = [int(w) for w in rng.integers(0, 1 << 32, size=pc)]
            mem = ParameterMemory()
            mem.write_params(q, np.asarray(words, dtype=np.uint32))
            law = [words[k % pc] for k in range(pc * shots)]
            program = requests_then_pulses(q, n_req, shots)
            if n_req * shots <= len(law):
                res = execute(program, mem, seed=0)
                assert served_stream(res.trace, q) == law[: n_req * shots]
                assert int(res.served[q]) == n_req * shots
                continue
            underflows += 1
            with pytest.raises(UnderflowError) as err:
                execute(program, mem, seed=0)
            # the request after the budget's last word is the first to fail
            shot, j = divmod(len(law), n_req)
            assert (err.value.core_id, err.value.shot, err.value.op_index) == (q, shot, 1 + 2 * j)
        assert underflows > 50


class TestSessionAndDeft:
    def run_batch(self, spec_seed=6):
        spec = BatchSpec("RB", ((0,), (0, 1)), ((2, 3),), 3, shots=4, seed=spec_seed)
        return gen_batch(spec)

    HOST_STAGES = ("Total", "Build Run", "RunAll on Host", "Run on Host")

    def make_client(self, seed=9, record=None):
        session = ControlSession(seed=seed, record=record)
        return session, DeftClient(LoopbackChannel(ControlServer(session)))

    def open_record(self):
        """A record with the stages open that the session's own stages nest under."""
        record = ProfileRecord()
        for stage in self.HOST_STAGES:
            record.push(stage)
        return record

    def test_underflowing_run_leaves_no_stage_open(self):
        record = self.open_record()
        session = ControlSession(seed=1, record=record)
        req = word(Opcode.REQ_PARAM, 0)
        session.handle_load_circuit(0, program_of(req, req, n_qubits=1, shots=2))
        session.handle_load_params(0, [[5]])  # 2 requests a shot, 1 word: shot 1 underflows
        with pytest.raises(UnderflowError, match="circuit 0: parameter underflow on core 0"):
            session.handle_run(2)
        session.handle_load_params(0, [[5, 6]])
        session.handle_run(2)
        assert session.handle_get_data().shots == 2
        for stage in reversed(self.HOST_STAGES):
            record.pop(stage)
        parsed, _ = parse_report(report(record))
        assert parsed.iterations("Run Batch") == parsed.iterations("Start Run") == 2
        assert parsed.iterations("Get data") == 1

    def test_deft_load_counts(self):
        batch = self.run_batch()
        result = rip(batch)
        blob = binarize(result.report, result.table)
        uniques = {
            g[0]: assemble(compile_circuit(result.uniques[gi]))
            for gi, g in enumerate(result.report.groups)
        }
        record = self.open_record()
        _, client = self.make_client(record=record)
        data = deft_run(uniques, blob, client)
        assert record.iterations("Load circuit") == len(result.report.groups)
        assert record.iterations("Load para") == len(batch)
        assert sorted(data) == list(range(len(batch)))

    def test_single_circuit_batch(self):
        from pce.generators import CircuitBatch, Label

        c = Circuit((x90(0), measure(0)), 1, shots=2)
        batch = CircuitBatch((c,), (Label((0,), 1, 0, "x"),))
        result = rip(batch)
        uniques = {0: assemble(compile_circuit(result.uniques[0]))}
        record = self.open_record()
        _, client = self.make_client(record=record)
        deft_run(uniques, binarize(result.report, result.table), client)
        assert record.iterations("Load circuit") == 1
        assert record.iterations("Load para") == 1

    def test_deft_results_match_baseline(self):
        batch = self.run_batch()
        result = rip(batch)
        blob = binarize(result.report, result.table)
        uniques = {
            g[0]: assemble(compile_circuit(result.uniques[gi]))
            for gi, g in enumerate(result.report.groups)
        }
        session, client = self.make_client(seed=4)
        data = deft_run(uniques, blob, client)
        for i, c in enumerate(batch.circuits):
            base = execute(assemble(compile_circuit(c)), seed=4, circuit_index=i)
            assert data[i] == base.data

    def test_a_blob_listing_members_in_another_order_replays_the_baseline(self):
        # the blob is the schedule: groups and their non-representative members reversed
        batch = self.run_batch()
        result = rip(batch)
        groups = tuple((g[0], *reversed(g[1:])) for g in reversed(result.report.groups))
        assert any(len(g) > 2 for g in groups)
        blob = binarize(EquivalenceReport(groups), result.table)
        order = [i for g in groups for i in g]
        assert debinarize(blob)[0].order == tuple(order) != result.report.order
        base = run_experiment(batch, "baseline", seed=4)
        stitched = run_experiment(batch, "pce", seed=4, blob_override=blob)
        assert list(stitched.data) == order
        assert all(stitched.traces[i] == base.traces[i] for i in range(len(batch)))
        assert all(stitched.data[i] == base.data[i] for i in range(len(batch)))
        assert stitched.sim_time_ns == base.sim_time_ns

    def test_a_blob_that_skips_a_circuit_is_refused(self):
        # the batch's own groups and words without its last circuit, a group member
        batch = self.run_batch()
        result = rip(batch)
        last = len(batch) - 1
        assert last not in result.report.unique_indices
        groups = tuple(tuple(i for i in g if i != last) for g in result.report.groups)
        table = ParamTable(result.table.n_qubits, result.table.rows[:last])
        blob = binarize(EquivalenceReport(groups), table)
        with pytest.raises(SchedulingError, match=f"schedules {last} circuits, batch has {last + 1}"):
            run_experiment(batch, "pce", blob_override=blob)

    def test_uniques_mismatch_rejected(self):
        batch = self.run_batch()
        result = rip(batch)
        blob = binarize(result.report, result.table)
        _, client = self.make_client()
        with pytest.raises(SchedulingError):
            deft_run({}, blob, client)

    def test_run_consumes_loaded_counts(self):
        session, _ = self.make_client()
        session.handle_load_circuit(0, requests_then_pulses(0, 2, shots=1))
        session.handle_load_params(0, [[1, 2], [3]])
        assert session.memory.counts.tolist() == [2, 1, 0, 0, 0, 0, 0, 0]
        session.handle_run(1)
        assert not session.memory.counts.any()
        # the next run without a fresh LOAD_PARAMS finds every bank empty
        with pytest.raises(UnderflowError):
            session.handle_run(1)

    def test_refused_load_params_writes_and_counts_nothing(self):
        session, _ = self.make_client()
        session.handle_load_params(0, [[1, 2]])
        with pytest.raises(CapacityError):
            session.handle_load_params(1, [[9, 9], np.zeros(BANK_CAPACITY + 1, np.uint32)])
        assert session.memory.banks[0, :2].tolist() == [1, 2]
        assert not session.memory.counts.any()
        session.handle_load_params(2, [[5]])
        with pytest.raises(ValidationError):
            session.handle_load_params(3, [[1]] * (N_BANKS + 1))
        assert not session.memory.counts.any()

    def test_load_defs_round_trip_and_zero(self):
        session, client = self.make_client()
        env = np.exp(1j * np.linspace(0, 3, 32))
        freq = np.linspace(4e9, 5e9, 6)
        client.load_circuit(0, program_of(word(Opcode.PULSE_X90, 0)))
        client.load_defs(env, freq)
        assert np.allclose(session.envelope_table, env)
        assert np.allclose(session.freq_table, freq)
        # new definitions zero the loaded program: a run needs a fresh load
        with pytest.raises(SchedulingError):
            session.handle_run(2)

    def test_oversize_defs_rejected(self):
        from pce.rpc import CAPACITY_CODES, RemoteError

        session, client = self.make_client()
        for env_size, freq_size, message in (
            (5000, 2, "envelope table: 5000 entries exceed the 4096-entry table capacity"),
            (100_000, 2, "envelope table: 100000 entries exceed the 4096-entry table capacity"),
            (64, 65, "frequency table: 65 entries exceed the 64-entry table capacity"),
        ):
            with pytest.raises(RemoteError) as err:
                client.load_defs(np.zeros(env_size, dtype=complex), np.zeros(freq_size))
            assert str(err.value) == message
            assert err.value.code in CAPACITY_CODES  # a capacity fault: exit 3 from the CLI
        assert session.envelope_table.size == session.freq_table.size == 0

    def test_get_data_without_run(self):
        from pce.rpc import RemoteError

        _, client = self.make_client()
        with pytest.raises(RemoteError):
            client.get_data()

    def test_no_skeleton_outlives_its_program(self):
        # A and B differ in their delays and CZ pairs, so a stale skeleton
        # would give B the wrong times and partners
        a = program_of(word(Opcode.DELAY, 0, 0, 40), word(Opcode.TWO_QUBIT, 0, 1),
                       word(Opcode.PULSE_X90, 2), n_qubits=3)
        b = program_of(word(Opcode.DELAY, 2, 0, 7), word(Opcode.TWO_QUBIT, 1, 2),
                       word(Opcode.TWO_QUBIT, 2, 0), word(Opcode.MEASURE, 0), n_qubits=3)
        session, client = self.make_client()
        client.load_circuit(0, a)
        client.run(2)
        client.get_data()
        client.load_circuit(1, b)
        client.run(2)
        client.get_data()
        assert session.results[1].trace == execute(b, shots=2).trace
        client.load_defs(np.zeros(4, dtype=complex), np.zeros(2))
        client.load_circuit(2, a)
        client.run(3)
        client.get_data()
        assert session.results[2].trace == execute(a, shots=3).trace

    @pytest.mark.parametrize("mode", ["pce", "baseline"])
    def test_rpc_schedule(self, mode):
        # one LOAD_DEFS; then baseline sends LOAD_CIRCUIT, RUN and GET_DATA per
        # circuit, and pce a LOAD_CIRCUIT per group and LOAD_PARAMS, RUN and
        # GET_DATA per circuit
        batch = self.run_batch()
        outcome = run_experiment(batch, mode, seed=3)
        n, groups = len(batch), len(rip(batch).report.groups)
        assert groups < n
        requests = batch.circuits[0].shots * sum(len(w) for c in batch.circuits for w in peel(c))
        assert requests > 0
        expected = {
            "baseline": {"Client/Server": 1 + 3 * n, "Load circuit": n, "Load para": 0, "Stitch": 0},
            "pce": {
                "Client/Server": 1 + groups + 3 * n,
                "Load circuit": groups,
                "Load para": n,
                "Stitch": requests,
            },
        }[mode]
        assert {stage: outcome.record.iterations(stage) for stage in expected} == expected
        assert outcome.stitch_requests == expected["Stitch"]

    @pytest.mark.parametrize("mode", ["pce", "baseline"])
    def test_timing_pass_runs_once_per_loaded_program(self, mode, monkeypatch):
        from pce.runner import run_experiment

        calls = []
        original = kernels.shot_skeleton

        def counted(words, n_qubits):
            calls.append(len(words))
            return original(words, n_qubits)

        monkeypatch.setattr(kernels, "shot_skeleton", counted)
        batch = self.run_batch()
        outcome = run_experiment(batch, mode, seed=3)
        n_groups = len(rip(batch).report.groups)
        assert n_groups < len(batch)
        assert len(calls) == (n_groups if mode == "pce" else len(batch))
        assert outcome.record.iterations("Start Run") == len(batch)


def test_run_path_imports_no_numpy_ma():
    # numpy.ma adds about 1.25 MB of resident memory, and numpy 2.4 imports it
    # from np.unique; a fresh interpreter shows whether a run pulls it in
    import os
    import subprocess
    import sys
    from pathlib import Path

    import pce

    code = (
        "import sys\n"
        "from pce.generators import BatchSpec, gen_batch\n"
        "from pce.runner import run_experiment\n"
        "batch = gen_batch(BatchSpec('RB', ((0,), (0, 1)), ((2, 3),), 2, shots=3, seed=1))\n"
        "for mode in ('baseline', 'pce'):\n"
        "    run_experiment(batch, mode, seed=1)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(pce.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
