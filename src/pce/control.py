"""Deterministic control-stack model: parameter memory, executor, and the deft
scheduler.

The executor plays assembled machine words with one integer phase
accumulator per qubit (32-bit wraparound, reset each shot).  INC_PHASE adds
its immediate, REQ_PARAM adds the next stitched word for that qubit, and
every physical pulse is logged as a trace event stamped with the current
accumulator.  Because both sides work on the same quantized words, a directly
compiled circuit and its stitched representative produce bit-identical traces.
``kernels`` describes the two passes that do this, the serving law and the
faults of a run.

A ``ControlSession`` keeps the loaded program's timing pass
(``kernels.ShotSkeleton``): the first RUN after a LOAD_CIRCUIT builds it,
inside "Start Run", and LOAD_CIRCUIT and LOAD_DEFS drop it.  So pce mode pays
the timing pass once per group and the baseline once per circuit, and every
other RUN pays only the phase pass, as the hardware keeps a loaded pulse
structure and stitches only the phases.  A ``PulseTrace`` stays in the form
the passes make: shot 0's events (shared by every trace run from one loaded
program), the period and the phase rows.

Timing model: every instruction costs ``kernels.CYCLES_PER_OP`` cycles of
``CYCLE_NS`` to issue, and a parameter request costs the same
(``REQUEST_LATENCY_CYCLES``: prefetch always hits).  Physical durations are
per-channel and fixed, stated in ``kernels``; the passive-reset gap between
shots is ``TimingConfig.reset_ns``.  The bank geometry, ``N_BANKS`` banks of
``BANK_CAPACITY`` words, is stated in ``rip`` and re-exported here.

Measurement bits are sampled noiselessly from the executed pulse trace via a
small state-vector computation for up to 4 qubits (one distribution per
distinct phase row, ``_shot_distribution``, bit-exact to the per-event oracle
``_reference_distribution`` in the tests); wider programs run trace-only with
all bits zero.  Shot ``s`` of circuit ``i`` draws
``default_rng((seed, i, s)).random()``: ``_shot_draws`` builds those
Generators below ``ARRAY_DRAW_MIN_SHOTS`` shots and computes the same doubles
over an array of shot numbers from there on.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import kernels
from .asm import MachineProgram
from .circuits import require_int
from .errors import (
    CapacityError,
    ConfigError,
    RoutingError,
    SchedulingError,
    TableCapacityError,
    UnderflowError,
    ValidationError,
)
from .rip import BANK_CAPACITY, N_BANKS, bank_words, debinarize, dequantize_words

CYCLE_NS = 2  # 500 MHz clock
# prefetch always hits: a request costs what any issued op costs
REQUEST_LATENCY_CYCLES = kernels.CYCLES_PER_OP

ENVELOPE_CAPACITY = 4096
FREQ_CAPACITY = 64


@dataclass(frozen=True)
class TimingConfig:
    reset_ns: int = 500

    def __post_init__(self):
        if require_int(self.reset_ns, "reset gap", ConfigError) < 0:
            raise ConfigError(f"reset gap must be non-negative, got {self.reset_ns} ns")


def _check_width(n_qubits: int) -> None:
    if n_qubits > N_BANKS:
        raise ValidationError(f"{n_qubits} qubits exceed the {N_BANKS}-bank design")


def _fit_bank(bank: int, words) -> np.ndarray:
    """The words as uint32, if they obey the bank-word rule (``rip.bank_words``)
    and fit bank ``bank``."""
    if not 0 <= bank < N_BANKS:
        raise RoutingError(f"bank {bank} outside 0..{N_BANKS - 1}")
    arr = bank_words(words, bank)
    if arr.size > BANK_CAPACITY:
        raise CapacityError(bank, int(arr.size), BANK_CAPACITY)
    return arr


class ParameterMemory:
    """``N_BANKS`` parallel banks of ``BANK_CAPACITY`` 32-bit parameters, one per qubit.

    ``counts[q]`` is the number of words bank ``q`` serves per shot: the
    length of its last write, until a run consumes the parameters.
    """

    def __init__(self):
        self.banks = np.zeros((N_BANKS, BANK_CAPACITY), dtype=np.uint32)
        self.counts = np.zeros(N_BANKS, dtype=np.int64)

    def write_params(self, bank: int, words) -> int:
        """Controller-side write of a circuit's words at the start of a bank."""
        arr = _fit_bank(bank, words)
        self.banks[bank, : arr.size] = arr
        self.counts[bank] = arr.size
        return int(arr.size)


@dataclass(frozen=True)
class PulseTrace:
    """Timestamped pulse/phase event log; the bit-exact comparison object.

    It is held compact, as the executor makes it: shot 0's events (times,
    channels, partner channels and kinds, shared by every trace run from one
    loaded program), the period from one shot's start to the next, and the
    phase rows, one uint32 row when every shot plays the same words and one
    per shot otherwise.  The event columns ``times``, ``channels``,
    ``channels2``, ``kinds`` and ``phases`` are read-only expansions over
    all shots, and two traces are equal exactly when their expanded columns
    and metadata are.
    """

    shot: kernels.ShotEvents
    period: int  # ns from one shot's start to the next: shot end plus reset gap
    rows: np.ndarray  # uint32[1 or shots, events_per_shot]
    n_qubits: int
    shots: int

    @property
    def events_per_shot(self) -> int:
        return len(self.shot.kinds)

    def __len__(self) -> int:
        return self.events_per_shot * self.shots

    def _shot_times(self) -> np.ndarray:
        """int64[shots, events_per_shot]: each shot's event times."""
        starts = np.arange(self.shots, dtype=np.int64) * self.period
        return starts[:, None] + self.shot.times

    @property
    def times(self) -> np.ndarray:
        return kernels.read_only(self._shot_times().reshape(-1))

    @property
    def channels(self) -> np.ndarray:
        return kernels.read_only(np.tile(self.shot.channels, self.shots))

    @property
    def channels2(self) -> np.ndarray:
        return kernels.read_only(np.tile(self.shot.channels2, self.shots))

    @property
    def kinds(self) -> np.ndarray:
        return kernels.read_only(np.tile(self.shot.kinds, self.shots))

    @property
    def phases(self) -> np.ndarray:
        shape = (self.shots, self.events_per_shot)
        return kernels.read_only(np.broadcast_to(self.rows, shape).reshape(-1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PulseTrace):
            return NotImplemented
        a, b = self.shot, other.shot
        return (
            self.n_qubits == other.n_qubits
            and self.shots == other.shots
            and (
                a is b
                or (
                    np.array_equal(a.times, b.times)
                    and np.array_equal(a.channels, b.channels)
                    and np.array_equal(a.channels2, b.channels2)
                    and np.array_equal(a.kinds, b.kinds)
                )
            )
            # the period shows in the times only from the second shot on
            and (self.period == other.period or self.shots == 1 or len(a.kinds) == 0)
            and bool((self.rows == other.rows).all())
        )

    def to_text(self) -> str:
        """The dump: one ``t=… ch=… kind=… phase=0x…`` line per event.

        One shot's lines are built once as a template, with each event's
        time and phase left as ``%`` fields.  Each phase row fills the
        phases with one ``%``, and each shot then fills its times into its
        row's lines with one more, so a trace with one row formats its
        phases once."""
        ev = self.shot
        template = "".join(
            [
                f"t=%%s ch={ch if ch2 < 0 else f'{ch},{ch2}'} "
                f"kind={kernels.EVENT_KIND_NAMES[kind]} phase=0x%08x\n"
                for ch, ch2, kind in zip(
                    ev.channels.tolist(), ev.channels2.tolist(), ev.kinds.tolist()
                )
            ]
        )
        row_lines = [template % tuple(row) for row in self.rows.tolist()]
        return "".join(
            [
                row_lines[0 if len(row_lines) == 1 else s] % tuple(t)
                for s, t in enumerate(self._shot_times().tolist())
            ]
        )


@dataclass(frozen=True)
class ShotData:
    """Per-shot measured bits plus the aggregated bitstring histogram."""

    measured_qubits: tuple[int, ...]
    bits: np.ndarray  # uint8, shape (shots, len(measured_qubits))

    @property
    def shots(self) -> int:
        return int(self.bits.shape[0])

    def counts(self) -> dict[str, int]:
        """Shots per distinct row of bits, keyed by the row's entries written
        one after another, in order of first appearance.  The rows are
        counted as byte strings sliced from one ``tobytes`` of the matrix, and
        only each distinct row is written out as a key."""
        shots, width = self.bits.shape
        if not width:
            return {"": shots} if shots else {}
        raw = np.ascontiguousarray(self.bits, dtype=np.uint8).tobytes()
        rows: dict[bytes, int] = {}
        for i in range(0, shots * width, width):
            row = raw[i : i + width]
            rows[row] = rows.get(row, 0) + 1
        return {"".join(map(str, row)): n for row, n in rows.items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, ShotData):
            return NotImplemented
        return self.measured_qubits == other.measured_qubits and np.array_equal(
            self.bits, other.bits
        )

    def to_text(self) -> str:
        lines = [
            "measured " + " ".join(str(q) for q in self.measured_qubits),
            f"shots {self.shots}",
        ]
        lines += [f"{key} {n}" for key, n in sorted(self.counts().items())]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ExecResult:
    trace: PulseTrace
    data: ShotData
    cycle_count: int
    served: np.ndarray
    sim_time_ns: int  # modeled Start-Run duration: issue cycles + channel timeline


@functools.lru_cache(maxsize=None)
def _axis_gathers(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per qubit of an n-qubit state vector, the gather that brings the
    qubit's axis to the front (``state[front]`` is the state transposed that
    way, in C order) and the gather that puts it back."""
    amps = np.arange(1 << n).reshape((2,) * n)
    out = []
    for q in range(n):
        front = np.moveaxis(amps, q, 0).reshape(-1)
        out.append((kernels.read_only(front), kernels.read_only(np.argsort(front))))
    return tuple(out)


def _measured(shot: kernels.ShotEvents) -> tuple[int, ...]:
    """The qubits a shot measures, sorted, one entry per MEASURE event."""
    return tuple(sorted(shot.channels[shot.kinds == kernels.OP_MEASURE].tolist()))


def _shot_distribution(
    kinds: list[int], channels: list[int], channels2: list[int], phases: np.ndarray, n: int
) -> np.ndarray:
    """Probabilities of the final state played by one shot's events.

    The shot's X90 matrices are built in one batch (one per event; only the
    X90 ones are used), and each pulse is one ``np.dot`` of its matrix with
    the state gathered so that the pulsed qubit's axis comes first.  That is
    the same float work, in the same order and on operands of the same
    layout, as contracting each event's matrix into the state tensor one at a
    time, so the probabilities are bit-identical to that per-event reference.
    """
    e = np.exp(1j * dequantize_words(phases))
    mats = np.ones((len(kinds), 2, 2), dtype=complex)
    mats[:, 0, 1] = -1j / e
    mats[:, 1, 0] = -1j * e
    mats *= 1.0 / np.sqrt(2.0)
    shape = (2,) * n
    gathers = _axis_gathers(n)
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    for i, kind in enumerate(kinds):
        if kind == kernels.OP_PULSE_X90:
            front, back = gathers[channels[i]]
            state = np.dot(mats[i], state[front].reshape(2, -1)).reshape(-1)[back]
        elif kind == kernels.OP_TWO_QUBIT:
            T = state.reshape(shape)
            idx: list = [slice(None)] * n
            idx[channels[i]] = 1
            idx[channels2[i]] = 1
            T[tuple(idx)] *= -1.0
            state = T.reshape(-1)
    return np.abs(state) ** 2


# --- shot draws --------------------------------------------------------------
# The draw law: shot s of circuit i draws default_rng((seed, i, s)).random().
# NEP 19 keeps the SeedSequence and PCG64 streams behind it stable across
# numpy versions.  Below ARRAY_DRAW_MIN_SHOTS the law is evaluated as written,
# one Generator a shot; from there on ``_array_draws`` re-states numpy's
# algorithm over all shots at once.  Every Python-int constant that meets an
# array there is non-negative and fits the array's dtype, and the tabled
# constants are arrays of that dtype, so numpy 1.x value-based casting and
# NEP 50 promotion agree.

# Measured on a 2-vCPU x86-64 host with numpy 2.4, in two sets of 15
# alternated rounds: one Generator costs 22-27 us, the array pass about
# 200 us whatever the shot count up to 50.  The array pass won 5 and 4 of
# 15 rounds at 8 shots, 15 and 14 at 9, and is 6x faster at 50.
ARRAY_DRAW_MIN_SHOTS = 9
_M32 = 0xFFFF_FFFF
_M64 = 0xFFFF_FFFF_FFFF_FFFF
# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _hash_constants(init: int, mult: int):
    """The (xor, multiply) constants of successive hashmix calls.

    They depend only on the call number: call k xors ``init * mult**k`` and
    multiplies by ``init * mult**(k+1)``, mod 2**32."""
    c = init
    while True:
        nxt = c * mult & _M32
        yield c, nxt
        c = nxt


def _state_constants() -> tuple[np.ndarray, np.ndarray]:
    """generate_state's eight hashmix constants, one row per output word."""
    consts = _hash_constants(_INIT_B, _MULT_B)
    xor, mul = zip(*(next(consts) for _ in range(8)))
    return np.array(xor, dtype=np.uint32)[:, None], np.array(mul, dtype=np.uint32)[:, None]


_STATE_XOR, _STATE_MUL = _state_constants()
# PCG64's seeding (state = 0, step, state += init, step, each step
# state = state * M + inc with inc = 2 * seq + 1) and the first random() step
# fold into state = init * M**2 + inc * (M**2 + M + 1) mod 2**128: one row
# per term, split into 64-bit halves
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_AFFINE = (_PCG_MULT**2 % (1 << 128), (_PCG_MULT**2 + _PCG_MULT + 1) % (1 << 128))
_AFFINE_LO = np.array([[c & _M64] for c in _AFFINE], dtype=np.uint64)
_AFFINE_HI = np.array([[c >> 64] for c in _AFFINE], dtype=np.uint64)


def _entropy_words(n: int, what: str) -> list[int]:
    """The little-endian uint32 words SeedSequence splits an entropy int into."""
    n = require_int(n, what)
    if n < 0:
        raise ValidationError(f"{what} must be non-negative, got {n}")
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _wrap32(v):
    """``v`` mod 2**32: Python ints are reduced, uint32 arrays wrap already."""
    return v & _M32 if isinstance(v, int) else v


def _hashmix(v, consts):
    """SeedSequence's hashmix, with the next call's constants."""
    xor, mul = next(consts)
    v = _wrap32((v ^ xor) * mul)
    return v ^ (v >> _XSHIFT)


def _mix(x, y):
    """SeedSequence's mix of a hashed word ``y`` into the pool word ``x``."""
    r = _wrap32(_wrap32(_MIX_MULT_L * x) - _wrap32(_MIX_MULT_R * y))
    return r ^ (r >> _XSHIFT)


def _mulhi64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit products ``a * b``, in 32-bit limbs."""
    a0, a1 = a & _M32, a >> 32
    b0, b1 = b & _M32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> 32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _array_draws(words: list[int], shots: int) -> np.ndarray:
    """``default_rng((*words, s)).random()`` for every ``s < shots``, as numpy
    computes it: SeedSequence's pool mix and ``generate_state(4, uint64)``,
    PCG64's seeding and one step, its XSL-RR output and ``(x >> 11) * 2**-53``.

    The words before ``s`` stay Python ints; only the terms ``s`` reaches are
    arrays (uint32 in the hash, uint64 after it).  ``shots`` is at most
    ``asm.MAX_SHOTS``, so each ``s`` is one uint32 word."""
    consts = _hash_constants(_INIT_A, _MULT_A)
    entropy = [*words, np.arange(shots, dtype=np.uint32)]
    pool = [_hashmix(w, consts) for w in (entropy + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for w in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(w, consts))
    # s reaches every pool word, so all four are arrays by now; one row per word
    state = np.array(pool * 2) ^ _STATE_XOR  # generate_state cycles the pool
    state *= _STATE_MUL
    state ^= state >> _XSHIFT
    state = state.astype(np.uint64)
    seed = state[0::2] | (state[1::2] << 32)  # rows: init hi, init lo, seq hi, seq lo
    # rows: init and inc = 2 * seq + 1, each times its affine constant
    x_lo = np.array([seed[1], (seed[3] << 1) | 1])
    x_hi = np.array([seed[0], (seed[2] << 1) | (seed[3] >> 63)])
    prod_lo = x_lo * _AFFINE_LO
    prod_hi = _mulhi64(x_lo, _AFFINE_LO) + x_lo * _AFFINE_HI + x_hi * _AFFINE_LO
    lo = prod_lo[0] + prod_lo[1]
    hi = prod_hi[0] + prod_hi[1] + (lo < prod_lo[0])
    # XSL-RR: rotate hi ^ lo right by the state's top 6 bits
    out, rot = hi ^ lo, hi >> 58
    out = (out >> rot) | (out << ((64 - rot) & 63))
    return (out >> 11).astype(np.float64) * (1.0 / 9007199254740992.0)


def _shot_draws(seed: int, circuit_index: int, shots: int) -> np.ndarray:
    """Shot ``s`` draws ``default_rng((seed, circuit_index, s)).random()``.

    Below ``ARRAY_DRAW_MIN_SHOTS`` shots each draw builds its Generator;
    from there on ``_array_draws`` makes the same doubles in one pass.  Both
    paths refuse a negative seed or circuit index."""
    words = _entropy_words(seed, "seed") + _entropy_words(circuit_index, "circuit index")
    if shots < ARRAY_DRAW_MIN_SHOTS:
        return np.array(
            [np.random.default_rng((seed, circuit_index, s)).random() for s in range(shots)]
        )
    return _array_draws(words, shots)


def _sample_bits(
    trace: PulseTrace, n_qubits: int, shots: int, seed: int, circuit_index: int
) -> ShotData:
    """Shot ``s`` draws one uniform from ``default_rng((seed, circuit_index, s))``
    (``_shot_draws``) and reads the basis state it falls in from the
    cumulative distribution of its phase row; the lookup, the clamp and the
    bit unpacking run over all shots of one distinct row at once."""
    shot = trace.shot
    measured = _measured(shot)
    if n_qubits > 4 or not measured:
        # trace-only mode: deterministic zeros, refusing what _shot_draws refuses
        _entropy_words(seed, "seed"), _entropy_words(circuit_index, "circuit index")
        return ShotData(measured, np.zeros((shots, len(measured)), dtype=np.uint8))
    events = shot.kinds.tolist(), shot.channels.tolist(), shot.channels2.tolist()
    draws = _shot_draws(seed, circuit_index, shots)
    # distinct phase row -> the indices of the rows equal to it (shot ids
    # when there is one row per shot)
    members: dict[bytes, list[int]] = {}
    for i, row in enumerate(trace.rows):
        members.setdefault(row.tobytes(), []).append(i)
    state = np.empty(shots, dtype=np.int64)
    for same in members.values():
        cum = np.cumsum(_shot_distribution(*events, trace.rows[same[0]], n_qubits))
        at = same if len(trace.rows) > 1 else slice(None)  # one row serves every shot
        state[at] = np.searchsorted(cum, draws[at] * cum[-1], side="right")
    np.minimum(state, (1 << n_qubits) - 1, out=state)
    shifts = n_qubits - 1 - np.array(measured, dtype=np.int64)
    return ShotData(measured, ((state[:, None] >> shifts) & 1).astype(np.uint8))


def execute(
    program: MachineProgram,
    memory: ParameterMemory | None = None,
    shots: int | None = None,
    timing: TimingConfig = TimingConfig(),
    seed: int = 0,
    circuit_index: int = 0,
    skeleton: kernels.ShotSkeleton | None = None,
) -> ExecResult:
    """Run a machine program for N shots against the parameter memory.

    Bank ``q`` serves its ``memory.counts[q]`` words once per shot; with no
    memory every bank is empty.  ``skeleton`` is the program's timing pass,
    ``kernels.shot_skeleton(program.words, program.n_qubits)``; it is built
    here when not given.
    """
    n_qubits = program.n_qubits
    shots = require_int(program.shots if shots is None else shots, "shot count")
    if shots <= 0:
        raise ValidationError("shots must be positive")
    if memory is None:
        memory = ParameterMemory()
    _check_width(n_qubits)
    if skeleton is None:
        skeleton = kernels.shot_skeleton(program.words, n_qubits)
    *_, rows, cycles, period, served = kernels.run_program(
        skeleton, shots, memory.banks, memory.counts, timing.reset_ns
    )
    trace = PulseTrace(skeleton.events, period, rows, n_qubits, shots)
    data = _sample_bits(trace, n_qubits, shots, seed, circuit_index)
    sim_ns = int(cycles) * CYCLE_NS + shots * period  # the last reset gap ends at shots * period
    return ExecResult(trace, data, int(cycles), served, sim_ns)


class ControlSession:
    """Server-side state: memories, loaded program, results.

    A session is single-threaded and externally synchronized; independent
    sessions share nothing.
    """

    def __init__(
        self,
        seed: int = 0,
        timing: TimingConfig = TimingConfig(),
        record=None,
    ):
        self.seed = require_int(seed, "seed")
        self.timing = timing
        self.record = record
        self.memory = ParameterMemory()
        self.envelope_table = np.zeros(0, dtype=complex)
        self.freq_table = np.zeros(0, dtype=np.float64)
        self.program: MachineProgram | None = None
        self.skeleton: kernels.ShotSkeleton | None = None  # of the loaded program
        self.current_index = -1
        self.results: dict[int, ExecResult] = {}
        self._pending: ExecResult | None = None

    def _scope(self, name: str):
        if self.record is None:
            return contextlib.nullcontext()
        return self.record.scope(name)

    def handle_load_circuit(self, index: int, program: MachineProgram) -> None:
        index = require_int(index, "circuit index")
        _check_width(program.n_qubits)
        with self._scope("Load Batch"):
            with self._scope("Load circuit"):
                self.program = program
                self.skeleton = None  # built by the first run of this program
                self.current_index = index

    def handle_load_params(self, index: int, words_per_bank: Sequence) -> None:
        index = require_int(index, "circuit index")
        # every bank is checked before any is written; a refused load leaves none counted
        self.memory.counts[:] = 0
        if len(words_per_bank) > N_BANKS:
            raise ValidationError(f"{len(words_per_bank)} banks supplied, have {N_BANKS}")
        with self._scope("Load para"):
            arrays = [_fit_bank(bank, words) for bank, words in enumerate(words_per_bank)]
            for bank, arr in enumerate(arrays):
                self.memory.write_params(bank, arr)
            self.current_index = index

    def handle_load_defs(self, envelope, freq) -> None:
        env = np.asarray(envelope, dtype=complex)
        frq = np.asarray(freq, dtype=np.float64)
        if env.size > ENVELOPE_CAPACITY:
            raise TableCapacityError("envelope", int(env.size), ENVELOPE_CAPACITY)
        if frq.size > FREQ_CAPACITY:
            raise TableCapacityError("frequency", int(frq.size), FREQ_CAPACITY)
        with self._scope("Load Batch"):
            with self._scope("Load definition"):
                with self._scope("Load env."):
                    self.envelope_table = env.copy()
                with self._scope("Load freq."):
                    self.freq_table = frq.copy()
                with self._scope("Load zero"):
                    # new definitions invalidate the loaded program
                    self.program = None
                    self.skeleton = None

    def handle_run(self, shots: int) -> None:
        if self.program is None:
            raise SchedulingError("run requested before any circuit was loaded")
        if self.record is not None:
            self.record.push("Run Batch")
        try:
            with self._scope("Start Run"):
                if self.skeleton is None:
                    self.skeleton = kernels.shot_skeleton(
                        self.program.words, self.program.n_qubits
                    )
                result = execute(
                    self.program,
                    self.memory,
                    shots=shots,
                    timing=self.timing,
                    seed=self.seed,
                    circuit_index=self.current_index,
                    skeleton=self.skeleton,
                )
        except Exception as exc:
            if self.record is not None:
                self.record.pop("Run Batch")
            if isinstance(exc, UnderflowError):
                where = f"circuit {self.current_index}"
                raise UnderflowError(exc.core_id, exc.shot, exc.op_index, where=where) from None
            raise
        self._pending = result  # get-data closes "Run Batch"
        self.results[self.current_index] = result
        # parameters are consumed by the run; the next circuit must reload
        self.memory.counts[:] = 0

    def handle_get_data(self) -> ShotData:
        if self._pending is None:
            raise SchedulingError("no run pending before get-data")
        try:
            with self._scope("Get data"):
                data = self._pending.data
        finally:
            if self.record is not None:
                self.record.pop("Run Batch")
            self._pending = None
        return data


def deft_run(
    uniques: Mapping[int, MachineProgram],
    blob: bytes,
    client,
    shots: int | None = None,
) -> dict[int, ShotData]:
    """Schedule a batch in the blob's own order: load a circuit only at each
    group's representative, load parameters for every circuit, run, and
    collect the data."""
    report, table = debinarize(blob)
    if set(uniques) != set(report.unique_indices):
        missing = set(report.unique_indices) - set(uniques)
        extra = set(uniques) - set(report.unique_indices)
        raise SchedulingError(
            f"unique programs mismatch (missing {sorted(missing)}, unexpected {sorted(extra)})"
        )
    data: dict[int, ShotData] = {}
    run_shots = shots
    for idx in report.order:
        program = uniques.get(idx)
        if program is not None:
            client.load_circuit(idx, program)
            if shots is None:
                run_shots = program.shots
        client.load_params(idx, table.words_for(idx))
        client.run(run_shots)
        data[idx] = client.get_data()
    return data
