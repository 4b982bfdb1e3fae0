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

``read_batch`` parses each distinct raw gate line once per batch: one dict,
shared by every file, maps the raw line to its (frozen) ``Gate``, so circuits
share gate objects and most lines cost one lookup.  Errors name the circuit
file's path relative to the manifest and the line.

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

from .circuits import (
    _CZ, _DELAY, _VZ, _X90, Circuit, Gate, cz, delay, measure, param_request, vz, x90
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


def _gate_from_line(raw: str, line_no: int) -> Gate | None:
    """Parse one gate line; ``None`` for a blank or comment-only line."""
    line = raw.split("#", 1)[0].strip()
    if not line:
        return None
    tokens = line.split()
    op = tokens[0]
    try:
        if op == "X90" and len(tokens) == 2:
            return x90(_parse_qubit(tokens[1], line_no))
        if op == "VZ" and len(tokens) == 3:
            return vz(_parse_qubit(tokens[1], line_no), float(tokens[2]))
        if op == "CZ" and len(tokens) == 3:
            return cz(_parse_qubit(tokens[1], line_no), _parse_qubit(tokens[2], line_no))
        if op == "MEAS" and len(tokens) == 2:
            return measure(_parse_qubit(tokens[1], line_no))
        if op == "DELAY" and len(tokens) == 3:
            return delay(_parse_qubit(tokens[1], line_no), int(tokens[2]))
        if op == "PREQ" and len(tokens) == 2:
            return param_request(_parse_qubit(tokens[1], line_no))
        raise ConfigError(f"line {line_no}: unrecognized gate line {line!r}")
    except (ValueError, ValidationError) as exc:
        raise ConfigError(f"line {line_no}: {exc}") from None


def _circuit_from_text(text: str, gate_cache: dict[str, Gate]) -> Circuit:
    """Parse a circuit, looking each raw gate line up in ``gate_cache`` first.

    Only successful parses enter the cache, so a bad line always fails with
    its own line number; gates are frozen, so circuits may share them.
    """
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
    gates: list[Gate] = []
    for line_no, raw in enumerate(lines[header_no:], start=header_no + 1):
        gate = gate_cache.get(raw)
        if gate is None:
            gate = _gate_from_line(raw, line_no)
            if gate is None:
                continue
            gate_cache[raw] = gate
        gates.append(gate)
    return Circuit(tuple(gates), n_qubits, shots)


def circuit_from_text(text: str) -> Circuit:
    return _circuit_from_text(text, {})


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
    circuits = []
    h = hashlib.sha256()
    gate_cache: dict[str, Gate] = {}  # shared by every file of the batch
    for rel, _ in entries:
        data = (root / rel).read_bytes()
        h.update(data)
        try:
            circuits.append(_circuit_from_text(_decode_utf8(data, rel), gate_cache))
        except (ConfigError, ValidationError) as exc:
            raise type(exc)(f"{rel}: {exc}") from None
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
