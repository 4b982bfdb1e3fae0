"""Text file formats: circuits, batch manifests, and config files.

Circuit files are UTF-8 with LF endings, one gate per line after a header:

    qubits <n> shots <s>
    X90 q<i>
    VZ q<i> <radians>
    CZ q<i> q<j>
    MEAS q<i>
    DELAY q<i> <ns>
    PREQ q<i>

``#`` starts a comment.  Phases are written with ``repr`` so parsing returns
the identical double and re-encoding is byte-stable.  Numbers are ASCII
digits without ``_`` separators, though ``int`` and ``float`` take both.
``circuit_to_text`` is the one writer and ``_gate_line`` the one statement
of a line: every circuit, whatever made it, joins the lines its
``GateTable`` formats once per row.

``read_batch`` reads each file in two steps: its header, then a dict lookup
per raw body line that maps it to its index among the batch's distinct
lines.  One pass per batch then parses each distinct line once, into a row
of one ``GateTable`` that every file shares: the VZ lines in the form
``circuit_to_text`` writes as columns (one regex scan, ``int`` and
``float`` maps, numpy range masks), every other line through
``_row_of_line``, the one statement of the line grammar and its faults.
Equal gates on different lines share a row, rows are numbered in first
appearance, and a circuit keeps only its int32 row ids; no ``Gate`` is
built.  Errors name the circuit file's path relative to the manifest and the
line; the first fault reported is the first in file and line order, and
text faults come before circuit-rule faults.

Batch spec configs are ``key = value`` lines; list-valued keys separate
per-width groups with ``|`` and elements with ``,``:

    kind = RB
    widths = 0 | 0,1
    depths = 2,4 | 2,4      # one group, or one per width
    randomizations = 30     # int, or per-width groups for CB
    shots = 100
    seed = 7
"""

from __future__ import annotations

import hashlib
import re
from collections import deque
from functools import partial
from itertools import compress
from pathlib import Path

import numpy as np

from .circuits import (
    _CZ, _DELAY, _VZ, _VZ_CODE, _X90, KINDS, QUBIT_LIMIT, ROW_DTYPE, TAU, Circuit, GateTable,
    canonical_phase, check_gate_row,
)
from .errors import ConfigError, DecodeError, ValidationError
from .generators import BatchSpec, CircuitBatch, Label, preset_spec

MANIFEST_NAME = "manifest.txt"
CIRCUIT_DIR = "circuits"


def _gate_line(kind, qubits, phase, duration) -> str:
    """The one statement of a gate's line in circuit text, newline included."""
    if kind is _X90:
        return f"X90 q{qubits[0]}\n"
    if kind is _VZ:
        return f"VZ q{qubits[0]} {phase!r}\n"
    if kind is _CZ:
        return f"CZ q{qubits[0]} q{qubits[1]}\n"
    if kind is _DELAY:
        return f"DELAY q{qubits[0]} {duration}\n"
    return f"{kind.value} q{qubits[0]}\n"  # MEAS, PREQ: the kind's token and its qubit


def circuit_to_text(c: Circuit) -> str:
    """The header, then each gate's line, as its table formats it once per row."""
    lines = c.table.each(_gate_line)
    return f"qubits {c.n_qubits} shots {c.shots}\n" + "".join([lines[i] for i in c.ids.tolist()])


# the builtins' own messages, for the tokens the reader refuses beside theirs
_NUMBER_FAULTS = {
    int: "invalid literal for int() with base 10", float: "could not convert string to float"
}


def _number(parse, token: str):
    """``parse`` (``int`` or ``float``) of a token in ASCII without ``_``
    separators: the builtins also take other scripts' digits and ``1_000``."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"{_NUMBER_FAULTS[parse]}: {token!r}")
    return parse(token)


def _parse_qubit(token: str) -> int:
    digits = token[1:]
    if not token.startswith("q") or not (digits.isascii() and digits.isdigit()):
        raise ConfigError(f"expected qubit token like 'q0', got {token!r}")
    return int(digits)


# a gate line's token -> its kind, its code and the parser of its last field
_LINE_FORMS = {
    k.value: (k, KINDS.index(k), {_VZ: float, _DELAY: int}.get(k)) for k in KINDS
}


def _row_of_line(line: str) -> tuple:
    """The table row of one gate line, comment and outer blanks stripped; the
    builders' conversions (``vz``, ``delay``), then the gate rules.  A fault
    is a ``ConfigError`` that the caller places at its line."""
    tokens = line.split()
    form = _LINE_FORMS.get(tokens[0])
    if form is None or len(tokens) != 2 + (form[0] is _CZ or form[2] is not None):
        raise ConfigError(f"unrecognized gate line {line!r}")
    kind, code, parse = form
    try:
        q0 = _parse_qubit(tokens[1])
        qubits = (q0, _parse_qubit(tokens[2])) if kind is _CZ else (q0,)
        value = _number(parse, tokens[2]) if parse else 0
        phase = canonical_phase(value) if kind is _VZ else 0.0
        duration = value if kind is _DELAY else 0
        check_gate_row(kind, qubits, phase, duration)
    except (ValueError, ValidationError) as exc:
        raise ConfigError(str(exc)) from None
    return code, q0, qubits[-1] if kind is _CZ else 0, phase, duration


# per line of a "\n"-joined text: for the line ``circuit_to_text`` writes for
# a VZ gate, a plain qubit id and an unsigned decimal phase, which ``float``
# and ``_row_of_line`` read alike; ("", "") for any other line
_PLAIN_VZ = re.compile(r"^(?:VZ q([0-9]{1,5}) ([0-9]+(?:\.[0-9]+)?(?:e-[0-9]+)?)$|.*)", re.M)
_NO_GATE = 255  # the kind code of a blank or comment line
# ROW_DTYPE without its padding, so two rows are equal exactly when their bytes are
_PACKED_ROW = np.dtype([(name, ROW_DTYPE[name]) for name in ROW_DTYPE.names])
_SLICE = 4096  # lines per column parse, which bounds its transient strings


def _read_plain_vz(lines: list[str], rows: np.ndarray) -> None:
    """Set the rows of the lines in ``_PLAIN_VZ`` form whose qubit and phase
    are in range, each exactly as ``_row_of_line`` makes it."""
    qubits, phases = zip(*_PLAIN_VZ.findall("\n".join(lines)))
    found = np.fromiter(map(bool, qubits), bool, len(lines))
    count = np.count_nonzero(found)
    q0 = np.fromiter(map(int, compress(qubits, found)), np.int32, count)
    phase = np.fromiter(map(float, compress(phases, found)), np.float64, count)
    ok = (q0 < QUBIT_LIMIT) & (phase < TAU)
    found[np.flatnonzero(found)[~ok]] = False
    rows["kind"][found], rows["q0"][found], rows["phase"][found] = _VZ_CODE, q0[ok], phase[ok]


class _Texts:
    """Circuit texts read into one ``GateTable``.

    ``add`` reads a text's header and maps each raw body line through
    ``seen`` to its index among the batch's distinct lines, so a repeated
    line costs one lookup.  ``circuits`` then parses each distinct line
    once: lines in ``_PLAIN_VZ`` form as columns, every other line through
    ``_row_of_line``.  Rows are numbered in first appearance, equal rows
    share one id, and the first fault is the one a line-by-line read meets
    first.
    """

    def __init__(self):
        self.seen: dict[str, int] = {}
        self.texts = deque()  # (where, header line number, n_qubits, shots, line indices)

    def add(self, text: str, where: str) -> None:
        """Read one text; ``where`` ("<file>: ", or "") prefixes its faults."""
        lines = text.splitlines()
        for header_no, raw in enumerate(lines, start=1):
            header = raw.split("#", 1)[0].strip()
            if header:
                break
        else:
            raise ConfigError(f"{where}circuit file has no header line")
        tokens = header.split()
        if len(tokens) != 4 or tokens[0] != "qubits" or tokens[2] != "shots":
            raise ConfigError(f"{where}line {header_no}: expected header 'qubits <n> shots <s>'")
        try:
            n_qubits, shots = _number(int, tokens[1]), _number(int, tokens[3])
        except ValueError:
            raise ConfigError(f"{where}line {header_no}: non-integer header field") from None
        body, seen = lines[header_no:], self.seen
        new = [raw for raw in dict.fromkeys(body) if raw not in seen]
        seen.update(zip(new, range(len(seen), len(seen) + len(new))))
        indices = np.fromiter(map(seen.__getitem__, body), np.int32, len(body))
        self.texts.append((where, header_no, n_qubits, shots, indices))

    def rows(self) -> np.ndarray:
        """Each distinct line's row, kind ``_NO_GATE`` for a line without a gate."""
        lines, self.seen = list(self.seen), None  # free the map before the parse allocates
        rows = np.zeros(len(lines), _PACKED_ROW)
        for lo in range(0, len(lines), _SLICE):
            _read_plain_vz(lines[lo : lo + _SLICE], rows[lo : lo + _SLICE])
        rest = np.flatnonzero(rows["kind"] != _VZ_CODE).tolist()
        rows[rest] = [self._row(lines[i], i) for i in rest]
        return rows

    def _row(self, raw: str, index: int) -> tuple:
        line = raw.split("#", 1)[0].strip()
        if not line:
            return _NO_GATE, 0, 0, 0.0, 0
        try:
            return _row_of_line(line)
        except ConfigError as exc:  # placed where the line first appears
            where, header_no, *_, indices = next(t for t in self.texts if index in t[-1])
            line_no = header_no + 1 + int(np.argmax(indices == index))
            raise ConfigError(f"{where}line {line_no}: {exc}") from None

    def circuits(self) -> list[Circuit]:
        """The circuits over one table; a circuit-rule fault after every text fault."""
        rows = self.rows()
        gate = rows["kind"] != _NO_GATE
        _, index, inverse = np.unique(
            rows[gate].view(f"V{_PACKED_ROW.itemsize}"), return_index=True, return_inverse=True
        )
        order = np.argsort(index)  # the distinct rows in first appearance
        table = GateTable(rows[gate][index[order]])
        line_row = np.full(len(rows), -1, np.int32)
        line_row[gate] = np.argsort(order)[inverse]
        out = []
        while self.texts:  # in order, freeing each text's line indices once its ids are made
            where, _, n_qubits, shots, indices = self.texts.popleft()
            ids = line_row[indices]
            try:
                out.append(Circuit(ids[ids >= 0], n_qubits, shots, table=table))
            except ValidationError as exc:
                raise ValidationError(f"{where}{exc}") from None
        return out


def circuit_from_text(text: str) -> Circuit:
    texts = _Texts()
    texts.add(text, "")
    return texts.circuits()[0]


def _width_str(width: tuple[int, ...]) -> str:
    return ",".join(str(q) for q in width)


def batch_hash(batch: CircuitBatch) -> str:
    """sha256 of the canonical text of every circuit: for a batch that
    ``write_batch`` wrote, the manifest hash and the read batch's ``file_hash``."""
    h = hashlib.sha256()
    for c in batch.circuits:
        h.update(circuit_to_text(c).encode("utf-8"))
    return h.hexdigest()


def write_batch(batch: CircuitBatch, outdir: str | Path) -> Path:
    """One circuit file per circuit plus a manifest listing order and labels."""
    outdir = Path(outdir)
    (outdir / CIRCUIT_DIR).mkdir(parents=True, exist_ok=True)
    h = hashlib.sha256()
    rel_paths = []
    for i, c in enumerate(batch.circuits):
        text = circuit_to_text(c)
        h.update(text.encode("utf-8"))
        rel = f"{CIRCUIT_DIR}/c{i:05d}.txt"
        (outdir / rel).write_bytes(text.encode("utf-8"))
        rel_paths.append(rel)
    spec = batch.spec
    lines = [
        "# circuit batch manifest",
        "version 1",
        f"kind {spec.kind if spec else '-'}",
        f"seed {spec.seed if spec else 0}",
        f"shots {spec.shots if spec else '-'}",
        f"count {len(batch)}",
        f"hash {h.hexdigest()}",
    ]
    for i, (rel, label) in enumerate(zip(rel_paths, batch.labels)):
        lines.append(
            f"circuit {i} {rel} width {_width_str(label.width)} "
            f"depth {label.depth} rand {label.randomization} role {label.role}"
        )
    manifest = outdir / MANIFEST_NAME
    manifest.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    return manifest


def _decode_utf8(data: bytes, where: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError(f"{where}: not UTF-8 ({exc.reason})", exc.start) from None


def read_utf8(path: Path) -> str:
    """A text file's contents; bytes that are not UTF-8 are a ``DecodeError``."""
    return _decode_utf8(path.read_bytes(), str(path))


def read_batch(path: str | Path) -> CircuitBatch:
    """Load a batch from a manifest file or the directory containing one.

    The batch keeps the sha256 of the circuit-file bytes as ``file_hash``.
    Its ``spec`` is ``None``: the manifest records the spec's kind, seed and
    shots but not its widths, depths and randomizations, so no spec can be
    rebuilt, and a generated batch read back equals it only up to ``spec``.
    """
    path = Path(path)
    manifest = path / MANIFEST_NAME if path.is_dir() else path
    if not manifest.is_file():
        raise ConfigError(f"no manifest at {manifest}")
    root = manifest.parent
    entries: list[tuple[str, Label]] = []
    declared: dict[str, str] = {}
    widths: dict[str, tuple[int, ...]] = {}  # width token -> width, once it parsed
    for line_no, raw in enumerate(read_utf8(manifest).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "circuit":
            if len(tokens) != 11 or tokens[3:10:2] != ["width", "depth", "rand", "role"]:
                raise ConfigError(f"{manifest}:{line_no}: malformed circuit entry")
            try:
                index, depth, rand = (_number(int, tokens[k]) for k in (1, 6, 8))
                width = widths.get(tokens[4])
                if width is None:
                    (width,) = _parse_groups(tokens[4])  # one group: a ValueError otherwise
                    widths[tokens[4]] = width
                label = Label(width, depth, rand, tokens[10])
            except (ValueError, ConfigError):
                raise ConfigError(f"{manifest}:{line_no}: malformed circuit entry") from None
            if index != len(entries):
                raise ConfigError(
                    f"{manifest}:{line_no}: circuit {index} listed at position {len(entries)}"
                )
            entries.append((tokens[2], label))
        elif tokens[0] == "version" and tokens[1:] != ["1"]:
            version = " ".join(tokens[1:])
            raise ConfigError(f"{manifest}:{line_no}: unknown manifest version {version!r}")
        elif len(tokens) >= 2:
            declared[tokens[0]] = tokens[1]
    if "count" in declared and declared["count"] != str(len(entries)):
        raise ConfigError(
            f"{manifest}: declares {declared['count']} circuits, lists {len(entries)}"
        )
    texts = _Texts()
    h = hashlib.sha256()
    for rel, _ in entries:
        data = (root / rel).read_bytes()
        h.update(data)
        try:
            texts.add(_decode_utf8(data, rel), f"{rel}: ")
        except (ConfigError, DecodeError):
            texts.rows()  # a bad line in an earlier file comes first
            raise
    circuits = texts.circuits()
    digest = h.hexdigest()
    if "hash" in declared and declared["hash"] != digest:
        raise DecodeError(f"{manifest}: circuit files do not match the manifest hash")
    return CircuitBatch(tuple(circuits), tuple(l for _, l in entries), file_hash=digest)


_SPEC_KEYS = ("kind", "widths", "depths", "randomizations", "shots", "seed", "preset")


def _parse_keyvals(text: str, where: str) -> tuple[dict[str, str], dict[str, int]]:
    """Each ``key = value`` line's value and line; an unknown or repeated key is refused."""
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{where}:{line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SPEC_KEYS:
            raise ConfigError(
                f"{where}:{line_no}: unknown key {key!r}, expected one of {', '.join(_SPEC_KEYS)}"
            )
        if key in first_line:
            raise ConfigError(f"{where}:{line_no}: key {key!r} repeats line {first_line[key]}")
        first_line[key] = line_no
        out[key] = value
    return out, first_line


def _parse_groups(text: str) -> tuple[tuple[int, ...], ...]:
    groups = []
    for part in text.split("|"):
        part = part.strip()
        if not part:
            raise ConfigError(f"empty group in {text!r}")
        try:
            groups.append(tuple(_number(int, t.strip()) for t in part.split(",")))
        except ValueError:
            raise ConfigError(f"bad integer group {part!r}") from None
    return tuple(groups)


def parse_batchspec(text: str, where: str = "<config>") -> BatchSpec:
    kv, line_of = _parse_keyvals(text, where)

    def parsed(parse, key):
        """``parse`` of the key's value; a fault names the file and the key's line."""
        try:
            return parse(kv[key])
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{where}:{line_of[key]}: {key}: {exc}") from None

    shots = parsed(partial(_number, int), "shots") if "shots" in kv else 100
    seed = parsed(partial(_number, int), "seed") if "seed" in kv else 0
    if "preset" in kv:
        ignored = sorted(set(kv) - {"preset", "seed"})
        if ignored:
            raise ConfigError(
                f"{where}: a preset takes only 'seed' beside it, got {ignored}"
                " (use --shots to change its shots)"
            )
        return preset_spec(kv["preset"], seed=seed)
    missing = {"kind", "widths", "depths", "randomizations"} - set(kv)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    rand_groups = parsed(_parse_groups, "randomizations")
    if any(len(g) != 1 for g in rand_groups):
        raise ConfigError(
            f"{where}: randomizations takes one integer per group, got {kv['randomizations']!r}"
        )
    rand = rand_groups[0][0] if len(rand_groups) == 1 else tuple(g[0] for g in rand_groups)
    return BatchSpec(
        kind=kv["kind"].upper(),
        widths=parsed(_parse_groups, "widths"),
        depths=parsed(_parse_groups, "depths"),
        randomizations=rand,
        shots=shots,
        seed=seed,
    )
