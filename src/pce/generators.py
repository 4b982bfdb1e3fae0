"""Deterministic circuit-batch generators.

Every generator draws from a named 64-bit seeded PRNG (numpy PCG64 behind
``np.random.default_rng``) with the stream split per circuit index, so a batch
is reproducible circuit-by-circuit and byte-identical across runs for the same
spec.  All single-qubit content is lowered through ``u3_rows``, which is
what makes same-shape circuits structurally equivalent under the dedup engine
(including the pair of readout-calibration circuits: |0...0> and |1...1>
preparations lower to the same pulse skeleton and differ only in phases).

Every kind emits rows, and builds no ``Gate``: ``_Rows`` numbers the rows
of one ``GateTable`` in first appearance, checks each new one, and makes the
circuits of an RB or CB (width, depth) cell, an RB readout pair, a random
base or the dressings of a base over one table.  Each lowering is computed
once and shared: the fixed table entries (Cliffords, Paulis, basis
preparations, CZ chains and measurement blocks) as row tuples in module
caches keyed by the entry and the qubits, mapped to ids once per table, and
the RC/FRC dressing slots in a memo that lives for one ``gen_rc`` call.  A
cached lowering is the same function of the same inputs, so the batch bytes
do not depend on the caching.  No cache is keyed by a random matrix, so
none grows with the batch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .asm import MAX_SHOTS
from .circuits import KINDS as GATE_KINDS
from .circuits import (
    _CZ_CODE,
    _MEASURE_CODE,
    _VZ_CODE,
    _X90_CODE,
    TAU,
    X90_MATRIX,
    Circuit,
    GateTable,
    U3Params,
    check_gate_row,
    require_int,
    row_fields,
    u3_from_unitary,
    u3_from_unitary_unchecked,
    u3_matrix,
    u3_rows,
    z_matrix,
)
from .errors import ConfigError
from .rip import N_BANKS

MAX_QUBIT_ID = N_BANKS - 1  # one parameter bank per qubit id

# stream tags keep the per-kind PRNG streams disjoint under one seed
_STREAM_RB = 1
_STREAM_CB = 2
_STREAM_RC = 3
_STREAM_BASE = 4

KINDS = ("RB", "RC", "CB", "FRC")

# (phi, theta, lam) triples whose u3_matrix is the named operator up to phase
IDENTITY_PARAMS = U3Params(0.0, 0.0, 0.0)
PAULI_PARAMS = {
    "I": IDENTITY_PARAMS,
    "X": U3Params(math.pi / 2, math.pi, math.pi / 2),
    "Y": U3Params(math.pi, math.pi, 0.0),
    "Z": U3Params(math.pi, 0.0, 0.0),
}
PAULI_NAMES = ("I", "X", "Y", "Z")
# rotations taking |0> to the +1 eigenstate of Z, X, Y
BASIS_PREP_PARAMS = (
    IDENTITY_PARAMS,
    U3Params(math.pi / 2, math.pi / 2, 0.0),
    U3Params(math.pi, math.pi / 2, 0.0),
)

_PAULI_MATRICES = {name: u3_matrix(p) for name, p in PAULI_PARAMS.items()}
_IDENTITY = np.eye(2, dtype=complex)
_IDENTITY.setflags(write=False)


def _pauli_mul(a: str, b: str) -> str:
    """Product of Pauli labels, ignoring the global phase."""
    if a == "I":
        return b
    if b == "I":
        return a
    if a == b:
        return "I"
    return ({"X", "Y", "Z"} - {a, b}).pop()


def _cz_conjugate(pa: str, pb: str) -> tuple[str, str]:
    """Labels of CZ (pa x pb) CZ, ignoring the global phase."""
    za = "Z" if pa in ("X", "Y") else "I"
    zb = "Z" if pb in ("X", "Y") else "I"
    return _pauli_mul(pa, zb), _pauli_mul(pb, za)


class Label(NamedTuple):
    """Per-circuit provenance: which (width, depth, randomization, role) produced it."""

    width: tuple[int, ...]
    depth: int
    randomization: int
    role: str


def _ints(values, what: str) -> tuple[int, ...]:
    return tuple(require_int(v, what, ConfigError) for v in values)


def _groups(values, field: str, what: str) -> tuple[tuple[int, ...], ...]:
    """A field of integer tuples; a flat or scalar shape is refused by name."""
    try:
        return tuple(_ints(group, what) for group in values)
    except TypeError:  # a value where a tuple belongs
        raise ConfigError(f"{field} must be a tuple of {what} tuples, got {values!r}") from None


@dataclass(frozen=True)
class BatchSpec:
    """Configuration for one generated batch.

    ``depths`` holds one list of depths shared by every width, or one list per
    width.  ``randomizations`` is the circuit count per (width, depth); CB
    additionally accepts one count per width.
    """

    kind: str
    widths: tuple[tuple[int, ...], ...]
    depths: tuple[tuple[int, ...], ...]
    randomizations: int | tuple[int, ...]
    shots: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown batch kind {self.kind!r}, expected one of {KINDS}")
        if not self.widths:
            raise ConfigError("widths must be non-empty")
        widths = _groups(self.widths, "widths", "qubit id")
        for w in widths:
            if not w:
                raise ConfigError("empty width tuple")
            if len(set(w)) != len(w):
                raise ConfigError(f"width {w} repeats a qubit")
            if min(w) < 0 or max(w) > MAX_QUBIT_ID:
                raise ConfigError(f"width {w} uses qubit ids outside 0..{MAX_QUBIT_ID}")
            if self.kind == "CB" and len(w) % 2:
                raise ConfigError(f"CB width {w} must pair all qubits (even size)")
        object.__setattr__(self, "widths", widths)
        depths = _groups(self.depths, "depths", "depth")
        if len(depths) == 1:
            depths = depths * len(widths)
        if len(depths) != len(widths):
            raise ConfigError(f"{len(depths)} depth lists for {len(widths)} widths")
        for d_list in depths:
            if not d_list or min(d_list) <= 0:
                raise ConfigError(f"depths must be positive, got {d_list}")
        object.__setattr__(self, "depths", depths)
        rand = self.randomizations
        if np.ndim(rand) == 0:
            rand = require_int(rand, "randomization count", ConfigError)
            if rand <= 0:
                raise ConfigError("randomizations must be positive")
        else:
            rand = _ints(rand, "randomization count")
            if self.kind != "CB":
                raise ConfigError("per-width randomization counts are only meaningful for CB")
            if len(rand) != len(widths) or min(rand) <= 0:
                raise ConfigError(f"need one positive count per width, got {rand}")
        object.__setattr__(self, "randomizations", rand)
        shots = require_int(self.shots, "shot count", ConfigError)
        if not 1 <= shots <= MAX_SHOTS:
            raise ConfigError(f"shot count {shots} does not fit 1..{MAX_SHOTS}")
        object.__setattr__(self, "shots", shots)
        seed = require_int(self.seed, "seed", ConfigError)
        if not 0 <= seed < (1 << 64):
            raise ConfigError("seed must fit in 64 bits")
        object.__setattr__(self, "seed", seed)

    def rand_for(self, width_index: int) -> int:
        r = self.randomizations
        return r if isinstance(r, int) else r[width_index]

    def expected_count(self) -> int:
        per_width_extra = 2 if self.kind == "RB" else 0
        return sum(
            len(self.depths[wi]) * self.rand_for(wi) + per_width_extra
            for wi in range(len(self.widths))
        )


@dataclass(frozen=True)
class CircuitBatch:
    circuits: tuple[Circuit, ...]
    labels: tuple[Label, ...]
    spec: BatchSpec | None = None
    # sha256 of the circuit-file bytes the batch was read from; None in memory
    file_hash: str | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.circuits) != len(self.labels):
            raise ConfigError("labels length must match circuits length")

    def __len__(self) -> int:
        return len(self.circuits)


@dataclass(frozen=True)
class CliffordTable:
    """The 24 single-qubit Clifford operators as lowered-gate parameters.

    Entry 0 is the identity; the set is closed under composition up to global
    phase.  ``matrices`` caches ``u3_matrix`` of each entry.
    """

    params: tuple[U3Params, ...]
    matrices: tuple[np.ndarray, ...] = field(repr=False, default=())

    def __len__(self) -> int:
        return len(self.params)


def _phase_free_key(U: np.ndarray) -> bytes:
    mags = np.round(np.abs(U), 6)
    k = int(np.argmax(mags))
    v = U.flat[k]
    W = np.round(U * (abs(v) / v), 9) + (0.0 + 0.0j)  # adding zero folds -0.0 into +0.0
    return W.tobytes()


@functools.lru_cache(maxsize=1)
def clifford_table() -> CliffordTable:
    """Enumerate the 24 single-qubit Cliffords by closing {Z90, X90} over products."""
    gens = [z_matrix(math.pi / 2), X90_MATRIX]
    found: dict[bytes, np.ndarray] = {}
    frontier = [np.eye(2, dtype=complex)]
    found[_phase_free_key(frontier[0])] = frontier[0]
    while frontier:
        nxt = []
        for U in frontier:
            for g in gens:
                V = g @ U
                key = _phase_free_key(V)
                if key not in found:
                    found[key] = V
                    nxt.append(V)
        frontier = nxt
    mats = list(found.values())
    if len(mats) != 24:
        raise RuntimeError(f"Clifford closure produced {len(mats)} elements, expected 24")
    params = tuple(u3_from_unitary(U) for U in mats)
    return CliffordTable(params, tuple(u3_matrix(p) for p in params))


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng((int(seed), *key))


# the fixed lowerings as GateTable rows: each key is a table entry and a qubit
# id (or a width), so on qubits 0..7 a table-keyed cache holds at most its
# table's size x 8 entries; maxsize bounds them for any other ids a caller passes
@functools.lru_cache(maxsize=256)
def _clifford_rows(index: int, q: int) -> tuple[tuple, ...]:
    return u3_rows(clifford_table().params[index], q)


@functools.lru_cache(maxsize=256)
def _pauli_rows(name: str, q: int) -> tuple[tuple, ...]:
    return u3_rows(PAULI_PARAMS[name], q)


@functools.lru_cache(maxsize=256)
def _basis_prep_rows(basis: int, q: int) -> tuple[tuple, ...]:
    return u3_rows(BASIS_PREP_PARAMS[basis], q)


@functools.lru_cache(maxsize=256)
def _measure_rows(width: tuple[int, ...]) -> tuple[tuple, ...]:
    return tuple((_MEASURE_CODE, q, 0, 0.0, 0) for q in sorted(width))


@functools.lru_cache(maxsize=256)
def _cz_rows(width: tuple[int, ...]) -> tuple[tuple, ...]:
    return tuple((_CZ_CODE, width[i], width[i + 1], 0.0, 0) for i in range(0, len(width) - 1, 2))


class _Rows(dict):
    """The rows of one ``GateTable`` in the making, numbered in first
    appearance in ``index``, each new one checked once by the gate rules.
    As a dict it maps a fixed lowering ``(lower, *args)`` to the ids of the
    rows ``lower(*args)`` makes; ``circuits`` makes circuits of id lists."""

    def __init__(self):
        super().__init__()
        self.index: dict[tuple, int] = {}

    def __missing__(self, key: tuple) -> tuple[int, ...]:
        ids = self[key] = self.ids(key[0](*key[1:]))
        return ids

    def ids(self, rows) -> tuple[int, ...]:
        index = self.index
        for row in rows:
            if row not in index:
                check_gate_row(*row_fields(*row))
                index[row] = len(index)
        return tuple(map(index.__getitem__, rows))

    def circuits(self, ids, n_qubits: int, shots: int) -> tuple[Circuit, ...]:
        """One circuit per id list (all of one length) over one table of the rows."""
        table = GateTable(list(self.index))
        return tuple(Circuit(i, n_qubits, shots, table=table) for i in np.array(ids, dtype=np.int32))


def _rb_ids(width: tuple[int, ...], depth: int, rng: np.random.Generator, rows: _Rows) -> list[int]:
    table = clifford_table()
    draws = rng.integers(0, len(table), size=(depth, len(width)))
    ids: list[int] = []
    products = [np.eye(2, dtype=complex) for _ in width]
    for row in draws.tolist():
        for qi, (q, idx) in enumerate(zip(width, row)):
            ids += rows[_clifford_rows, idx, q]
            products[qi] = table.matrices[idx] @ products[qi]
    for qi, q in enumerate(width):
        ids += rows.ids(u3_rows(u3_from_unitary(products[qi].conj().T), q))
    ids += rows[_measure_rows, width]
    return ids


def gen_read_circuits(width: tuple[int, ...], shots: int = 100) -> tuple[Circuit, Circuit]:
    """Readout calibration pair: prepare |0...0> and |1...1>, both fully lowered."""
    rows = _Rows()
    ids = [
        [i for q in sorted(width) for i in rows[_pauli_rows, name, q]]
        + list(rows[_measure_rows, width])
        for name in ("I", "X")
    ]
    read0, read1 = rows.circuits(ids, max(width) + 1, shots)
    return read0, read1


def _cb_ids(width: tuple[int, ...], depth: int, rng: np.random.Generator, rows: _Rows) -> list[int]:
    ids: list[int] = []
    for q, b in zip(width, rng.integers(0, 3, size=len(width)).tolist()):
        ids += rows[_basis_prep_rows, b, q]
    for k in range(depth + 1):  # a random Pauli per qubit, then the CZ chain but after the last
        for q, i in zip(width, rng.integers(0, 4, size=len(width)).tolist()):
            ids += rows[_pauli_rows, PAULI_NAMES[i], q]
        if k < depth:
            ids += rows[_cz_rows, width]
    ids += rows[_measure_rows, width]
    return ids


# --- randomized dressing of a layered base circuit ---------------------------


@dataclass(frozen=True)
class _LayeredBase:
    easy: tuple[dict[int, np.ndarray], ...]  # per layer: qubit -> 2x2 matrix
    hard: tuple[tuple[tuple[int, int], ...], ...]  # per layer: disjoint CZ pairs
    active: tuple[int, ...]
    n_qubits: int
    shots: int


def _parse_layers(base: Circuit) -> _LayeredBase:
    """Split a base circuit into alternating single-qubit and CZ layers, from its table's columns."""
    easy: list[dict[int, np.ndarray]] = [{}]
    hard: list[list[tuple[int, int]]] = []
    active: set[int] = set()
    seen_measure = False
    in_hard = False
    table, ids = base.table, base.ids
    columns = (table.kind[ids], table.q0[ids], table.q1[ids], table.rows["phase"][ids])
    for code, a, b, phase in zip(*(col.tolist() for col in columns)):
        if code == _MEASURE_CODE:
            seen_measure = True
            active.add(a)
            continue
        if seen_measure:
            raise ConfigError("base circuit has gates after measurement")
        if code == _CZ_CODE:
            if not in_hard:
                hard.append([])
                in_hard = True
            busy = {q for pair in hard[-1] for q in pair}
            if a in busy or b in busy:
                raise ConfigError(f"hard layer reuses qubit in CZ({a},{b})")
            hard[-1].append((a, b))
            active.update((a, b))
        elif code == _X90_CODE or code == _VZ_CODE:
            if in_hard:
                easy.append({})
                in_hard = False
            m = X90_MATRIX if code == _X90_CODE else z_matrix(phase)
            easy[-1][a] = m @ easy[-1].get(a, _IDENTITY)
            active.add(a)
        else:
            raise ConfigError(f"base circuit may not contain {GATE_KINDS[code].value} gates")
    if in_hard:
        easy.append({})  # trailing correction layer slot
    if len(easy) != len(hard) + 1:
        raise ConfigError("base circuit does not alternate single- and two-qubit layers")
    return _LayeredBase(
        tuple(easy),
        tuple(tuple(h) for h in hard),
        tuple(sorted(active)),
        base.n_qubits,
        base.shots,
    )


def _dress(layers: _LayeredBase, rng: np.random.Generator, memo: dict, rows: _Rows) -> list[int]:
    """Twirl every easy layer with random Paulis and fold in the corrections;
    the dressing's row ids in ``rows``.

    A slot's lowering depends only on its layer, qubit, twirl and correction,
    so ``memo`` (one per base) holds at most 16 lowerings per slot and every
    dressing of the base reuses them; ``memo[k]`` holds the rows after easy
    layer ``k``, its CZ layer or (the last) the measurements.
    """
    ids: list[int] = []
    active = layers.active
    corr = {q: "I" for q in active}
    last = len(layers.easy) - 1
    # one call draws what one call per layer would; the last layer is not twirled
    draws = rng.integers(0, 4, size=(last, len(active))).tolist() + [[0] * len(active)]
    for k, easy in enumerate(layers.easy):
        twirl = {q: PAULI_NAMES[d] for q, d in zip(active, draws[k])}
        for q in active:
            key = (k, q, twirl[q], corr[q])
            lowered = memo.get(key)
            if lowered is None:
                m = (
                    _PAULI_MATRICES[twirl[q]]
                    @ easy.get(q, _IDENTITY)
                    @ _PAULI_MATRICES[corr[q]]
                )
                # a product of unitaries: no unitarity check needed
                lowered = memo[key] = rows.ids(u3_rows(u3_from_unitary_unchecked(m), q))
            ids += lowered
        if k < last:
            corr = dict(twirl)
            for a, b in layers.hard[k]:
                corr[a], corr[b] = _cz_conjugate(twirl[a], twirl[b])
        ids += memo[k]
    return ids


def gen_rc(
    base: Circuit,
    n_rand: int,
    seed: int,
    stream: tuple[int, ...] = (),
) -> CircuitBatch:
    """``n_rand`` logically-equivalent dressings of a layered base circuit, in one ``GateTable``."""
    if n_rand < 1:
        raise ConfigError("n_rand must be at least 1")
    layers = _parse_layers(base)
    rows = _Rows()
    fixed = [[(_CZ_CODE, a, b, 0.0, 0) for a, b in h] for h in layers.hard]
    fixed.append([(_MEASURE_CODE, q, 0, 0.0, 0) for q in layers.active])
    memo: dict = {k: rows.ids(fixed_rows) for k, fixed_rows in enumerate(fixed)}
    rngs = (_rng(seed, _STREAM_RC, *stream, r) for r in range(n_rand))
    # every dressing lowers every slot to 5 rows, so all have one length
    dressings = [_dress(layers, rng, memo, rows) for rng in rngs]
    circuits = rows.circuits(dressings, layers.n_qubits, layers.shots)
    labels = tuple(Label(layers.active, len(layers.hard), r, "rc") for r in range(n_rand))
    return CircuitBatch(circuits, labels)


def gen_random_base(
    width: tuple[int, ...], n_cycles: int, rng: np.random.Generator, shots: int = 100
) -> Circuit:
    """Random layered circuit: n_cycles of (random single-qubit layer, CZ chain),
    plus a closing single-qubit layer and measurements."""
    rows = _Rows()
    ids: list[int] = []
    for k in range(n_cycles + 1):
        for q in width:
            angles = rng.uniform(0.0, TAU, size=3)
            ids += rows.ids(u3_rows(U3Params(*angles), q))
        if k < n_cycles:
            ids += rows[_cz_rows, width]
    ids += rows[_measure_rows, width]
    (base,) = rows.circuits([ids], max(width) + 1, shots)
    return base


def _cell(spec: BatchSpec, wi: int, di: int) -> tuple[Circuit, ...]:
    """The circuits of one (width, depth) cell, over one table."""
    width, depth = spec.widths[wi], spec.depths[wi][di]
    if spec.kind in ("RC", "FRC"):
        base = gen_random_base(width, depth, _rng(spec.seed, _STREAM_BASE, wi, di), spec.shots)
        return gen_rc(base, spec.rand_for(wi), spec.seed, stream=(wi, di)).circuits
    stream, make = (_STREAM_RB, _rb_ids) if spec.kind == "RB" else (_STREAM_CB, _cb_ids)
    rows = _Rows()
    rngs = (_rng(spec.seed, stream, wi, di, r) for r in range(spec.rand_for(wi)))
    return rows.circuits([make(width, depth, rng, rows) for rng in rngs], max(width) + 1, spec.shots)


def iter_batch(spec: BatchSpec) -> Iterator[tuple[Circuit, Label]]:
    """Each circuit and its label, a (width, depth) cell at a time; RB
    follows each width's cells with its readout pair."""
    role = "rc" if spec.kind == "FRC" else spec.kind.lower()
    for wi, width in enumerate(spec.widths):
        for di, depth in enumerate(spec.depths[wi]):
            for r, c in enumerate(_cell(spec, wi, di)):
                yield c, Label(width, depth, r, role)
        if spec.kind == "RB":
            read0, read1 = gen_read_circuits(width, spec.shots)
            yield read0, Label(width, 0, 0, "read0")
            yield read1, Label(width, 0, 1, "read1")


def gen_batch(spec: BatchSpec) -> CircuitBatch:
    pairs = list(iter_batch(spec))
    return CircuitBatch(tuple(c for c, _ in pairs), tuple(l for _, l in pairs), spec)


# full-scale reference configurations used by the dedup benchmarks
def preset_spec(name: str, seed: int = 0) -> BatchSpec:
    widths_2_to_8 = tuple(tuple(range(n)) for n in range(2, 9))
    if name == "rc20":
        return BatchSpec(
            "RC", widths_2_to_8, (tuple([1] + list(range(10, 101, 10))),), 20, shots=50, seed=seed
        )
    if name == "frc":
        return BatchSpec(
            "FRC", widths_2_to_8, (tuple([1] + list(range(10, 101, 10))),), 1000, shots=1, seed=seed
        )
    if name == "cb":
        return BatchSpec(
            "CB",
            (tuple(range(2)), tuple(range(4)), tuple(range(6)), tuple(range(8))),
            ((4, 16, 64), (4, 8, 32), (2, 4, 8), (2, 4, 8)),
            (180, 220, 320, 360),
            shots=100,
            seed=seed,
        )
    if name == "rb":
        return BatchSpec(
            "RB",
            tuple(tuple(range(n)) for n in range(1, 9)),
            (
                (16, 128, 384),
                (16, 96, 384),
                (16, 64, 256),
                (16, 64, 192),
                (8, 64, 192),
                (8, 32, 160),
                (4, 32, 160),
                (4, 32, 128),
            ),
            30,
            shots=100,
            seed=seed,
        )
    raise ConfigError(f"unknown preset {name!r}; choose from rc20, frc, cb, rb")
