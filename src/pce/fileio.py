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
the identical double and re-encoding is byte-stable.

``read_batch`` parses each distinct raw gate line once per batch, into a row
of one ``GateTable`` that every file of the batch shares: a dict maps the raw
line to its row id, so most lines cost one lookup, equal gates on different
lines share a row, and a circuit keeps only its int32 row ids.  No ``Gate``
is built.  Errors name the circuit file's path relative to the manifest and
the line.

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
from pathlib import Path

import numpy as np

from .circuits import (
    _CZ, _DELAY, _VZ, _X90, KINDS, Circuit, GateTable, canonical_phase, check_gate_row
)
from .errors import ConfigError, DecodeError, ValidationError
from .generators import BatchSpec, CircuitBatch, Label

MANIFEST_NAME = "manifest.txt"
CIRCUIT_DIR = "circuits"


def circuit_to_text(c: Circuit) -> str:
    lines = [f"qubits {c.n_qubits} shots {c.shots}"]
    for g in c.gates:
        kind = g.kind
        if kind is _X90:
            lines.append(f"X90 q{g.qubits[0]}")
        elif kind is _VZ:
            lines.append(f"VZ q{g.qubits[0]} {g.phase!r}")
        elif kind is _CZ:
            lines.append(f"CZ q{g.qubits[0]} q{g.qubits[1]}")
        elif kind is _DELAY:
            lines.append(f"DELAY q{g.qubits[0]} {g.duration_ns}")
        else:  # MEAS, PREQ: the kind's token and its qubit
            lines.append(f"{kind.value} q{g.qubits[0]}")
    return "\n".join(lines) + "\n"


def _parse_qubit(token: str, line_no: int) -> int:
    if not token.startswith("q") or not token[1:].isdigit():
        raise ConfigError(f"line {line_no}: expected qubit token like 'q0', got {token!r}")
    return int(token[1:])


# a gate line's token -> its kind, its code and the parser of its last field
_LINE_FORMS = {
    k.value: (k, KINDS.index(k), {_VZ: float, _DELAY: int}.get(k)) for k in KINDS
}


def _row_of_line(line: str, line_no: int) -> tuple:
    """The table row of one gate line, comment and outer blanks stripped; the
    builders' conversions (``vz``, ``delay``), then the gate rules."""
    tokens = line.split()
    form = _LINE_FORMS.get(tokens[0])
    if form is None or len(tokens) != 2 + (form[0] is _CZ or form[2] is not None):
        raise ConfigError(f"line {line_no}: unrecognized gate line {line!r}")
    kind, code, parse = form
    try:
        q0 = _parse_qubit(tokens[1], line_no)
        qubits = (q0, _parse_qubit(tokens[2], line_no)) if kind is _CZ else (q0,)
        value = parse(tokens[2]) if parse else 0
        phase = canonical_phase(value) if kind is _VZ else 0.0
        duration = value if kind is _DELAY else 0
        check_gate_row(kind, qubits, phase, duration)
    except (ValueError, ValidationError) as exc:
        raise ConfigError(f"line {line_no}: {exc}") from None
    return code, q0, qubits[-1] if kind is _CZ else 0, phase, duration


def _read_text(text: str, seen: dict[str, int], rows: dict[tuple, int]) -> tuple:
    """A circuit text's qubit count, shots and int32 row ids.

    ``seen`` maps each raw line met so far to its row id (-1 for a line with
    no gate) and ``rows`` each row's content to its id; only successful
    parses enter them, so a bad line always fails with its own line number."""
    lines = text.splitlines()
    for header_no, raw in enumerate(lines, start=1):
        header = raw.split("#", 1)[0].strip()
        if header:
            break
    else:
        raise ConfigError("circuit file has no header line")
    tokens = header.split()
    if len(tokens) != 4 or tokens[0] != "qubits" or tokens[2] != "shots":
        raise ConfigError(f"line {header_no}: expected header 'qubits <n> shots <s>'")
    try:
        n_qubits, shots = int(tokens[1]), int(tokens[3])
    except ValueError:
        raise ConfigError(f"line {header_no}: non-integer header field") from None
    body = lines[header_no:]
    ids = list(map(seen.get, body))
    i = -1
    for _ in range(ids.count(None)):
        i = ids.index(None, i + 1)
        raw = body[i]
        if raw not in seen:  # a line new to the file may repeat in it
            line = raw.split("#", 1)[0].strip()
            seen[raw] = rows.setdefault(_row_of_line(line, header_no + 1 + i), len(rows)) if line else -1
        ids[i] = seen[raw]
    out = np.array(ids, dtype=np.int32)
    return n_qubits, shots, out[out >= 0] if -1 in ids else out


def circuit_from_text(text: str) -> Circuit:
    rows: dict[tuple, int] = {}
    n_qubits, shots, ids = _read_text(text, {}, rows)
    return Circuit(None, n_qubits, shots, rows=(GateTable(list(rows)), ids))


def _width_str(width: tuple[int, ...]) -> str:
    return ",".join(str(q) for q in width)


def _parse_width(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ConfigError(f"bad width {text!r}") from None


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
    manifest_text = _decode_utf8(manifest.read_bytes(), str(manifest))
    for line_no, raw in enumerate(manifest_text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "circuit":
            if len(tokens) != 11 or tokens[3] != "width" or tokens[5] != "depth":
                raise ConfigError(f"{manifest}:{line_no}: malformed circuit entry")
            try:
                label = Label(
                    _parse_width(tokens[4]), int(tokens[6]), int(tokens[8]), tokens[10]
                )
            except ValueError:
                raise ConfigError(f"{manifest}:{line_no}: malformed circuit entry") from None
            entries.append((tokens[2], label))
        elif len(tokens) >= 2:
            declared[tokens[0]] = tokens[1]
    if "count" in declared and declared["count"] != str(len(entries)):
        raise ConfigError(
            f"{manifest}: declares {declared['count']} circuits, lists {len(entries)}"
        )
    # every file's text first, into one table; then the circuits over it
    seen: dict[str, int] = {}
    rows: dict[tuple, int] = {}
    parsed = []
    h = hashlib.sha256()
    for rel, _ in entries:
        data = (root / rel).read_bytes()
        h.update(data)
        try:
            parsed.append((rel, *_read_text(_decode_utf8(data, rel), seen, rows)))
        except ConfigError as exc:
            raise ConfigError(f"{rel}: {exc}") from None
    del seen  # free the raw-line cache first, so it and the new table never peak together
    table = GateTable(list(rows))
    circuits = []
    for rel, n_qubits, shots, ids in parsed:
        try:
            circuits.append(Circuit(None, n_qubits, shots, rows=(table, ids)))
        except ValidationError as exc:
            raise ValidationError(f"{rel}: {exc}") from None
    digest = h.hexdigest()
    if "hash" in declared and declared["hash"] != digest:
        raise DecodeError(f"{manifest}: circuit files do not match the manifest hash")
    return CircuitBatch(tuple(circuits), tuple(l for _, l in entries), file_hash=digest)


def _parse_keyvals(text: str, where: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{where}:{line_no}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _parse_groups(text: str) -> tuple[tuple[int, ...], ...]:
    groups = []
    for part in text.split("|"):
        part = part.strip()
        if not part:
            raise ConfigError(f"empty group in {text!r}")
        try:
            groups.append(tuple(int(t.strip()) for t in part.split(",")))
        except ValueError:
            raise ConfigError(f"bad integer group {part!r}") from None
    return tuple(groups)


def parse_batchspec(text: str, where: str = "<config>") -> BatchSpec:
    kv = _parse_keyvals(text, where)
    try:
        shots = int(kv.get("shots", 100))
        seed = int(kv.get("seed", 0))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    if "preset" in kv:
        from .generators import preset_spec

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
    rand_groups = _parse_groups(kv["randomizations"])
    if any(len(g) != 1 for g in rand_groups):
        raise ConfigError(
            f"{where}: randomizations takes one integer per group, got {kv['randomizations']!r}"
        )
    rand = rand_groups[0][0] if len(rand_groups) == 1 else tuple(g[0] for g in rand_groups)
    return BatchSpec(
        kind=kv["kind"].upper(),
        widths=_parse_groups(kv["widths"]),
        depths=_parse_groups(kv["depths"]),
        randomizations=rand,
        shots=shots,
        seed=seed,
    )
