"""Tests for circuit text, manifests, and config parsing."""

import hashlib
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pce.asm import compile_circuit
from pce.circuits import Circuit, Gate, cz, delay, measure, param_request, vz, x90
from pce.errors import ConfigError, DecodeError, ValidationError
from pce.fileio import (
    batch_hash,
    circuit_from_text,
    circuit_to_text,
    parse_batchspec,
    read_batch,
    write_batch,
)
from pce.generators import BatchSpec, CircuitBatch, Label, gen_batch, gen_random_base
from pce.rip import binarize, build_param_table, identify, identify_bruteforce, peel, rip
from tests.test_asm import _reference_compile_circuit
from tests.test_circuits import circuits_that_build
from tests.test_rip import _reference_peel


def _reference_qubit(token: str, line_no: int) -> int:
    if not token.startswith("q") or not token[1:].isdigit():
        raise ConfigError(f"line {line_no}: expected qubit token like 'q0', got {token!r}")
    return int(token[1:])


def _reference_circuit_from_text(text: str) -> Circuit:
    """Oracle: the per-line parser that builds a fresh Gate for every line."""
    gates: list[Gate] = []
    n_qubits = shots = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n_qubits is None:
            if len(tokens) != 4 or tokens[0] != "qubits" or tokens[2] != "shots":
                raise ConfigError(f"line {line_no}: expected header 'qubits <n> shots <s>'")
            try:
                n_qubits, shots = int(tokens[1]), int(tokens[3])
            except ValueError:
                raise ConfigError(f"line {line_no}: non-integer header field") from None
            continue
        op = tokens[0]
        try:
            if op == "X90" and len(tokens) == 2:
                gates.append(x90(_reference_qubit(tokens[1], line_no)))
            elif op == "VZ" and len(tokens) == 3:
                gates.append(vz(_reference_qubit(tokens[1], line_no), float(tokens[2])))
            elif op == "CZ" and len(tokens) == 3:
                gates.append(
                    cz(_reference_qubit(tokens[1], line_no), _reference_qubit(tokens[2], line_no))
                )
            elif op == "MEAS" and len(tokens) == 2:
                gates.append(measure(_reference_qubit(tokens[1], line_no)))
            elif op == "DELAY" and len(tokens) == 3:
                gates.append(delay(_reference_qubit(tokens[1], line_no), int(tokens[2])))
            elif op == "PREQ" and len(tokens) == 2:
                gates.append(param_request(_reference_qubit(tokens[1], line_no)))
            else:
                raise ConfigError(f"line {line_no}: unrecognized gate line {line!r}")
        except ValueError as exc:
            raise ConfigError(f"line {line_no}: {exc}") from None
    if n_qubits is None:
        raise ConfigError("circuit file has no header line")
    return Circuit(tuple(gates), n_qubits, shots)


def write_hand_batch(root, texts):
    """Circuit files with the given texts plus a manifest that declares no hash."""
    (root / "circuits").mkdir(parents=True)
    lines = ["version 1", f"count {len(texts)}"]
    for i, text in enumerate(texts):
        rel = f"circuits/c{i:05d}.txt"
        (root / rel).write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
        lines.append(f"circuit {i} {rel} width 0 depth 1 rand {i} role hand")
    (root / "manifest.txt").write_text("\n".join(lines) + "\n")
    return root


def sample_circuit():
    gates = (
        vz(0, 1.2345678901234567),
        x90(0),
        cz(0, 1),
        delay(1, 80),
        param_request(0),
        measure(0),
        measure(1),
    )
    return Circuit(gates, n_qubits=2, shots=12)


class TestCircuitText:
    def test_round_trip(self):
        c = sample_circuit()
        assert circuit_from_text(circuit_to_text(c)) == c

    def test_byte_stable(self):
        c = sample_circuit()
        text = circuit_to_text(c)
        assert circuit_to_text(circuit_from_text(text)) == text

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(circuits_that_build())
    def test_every_circuit_that_builds_reads_back_equal(self, c):
        text = circuit_to_text(c)
        back = circuit_from_text(text)
        assert back == c
        assert circuit_to_text(back) == text

    def test_random_base_reads_back(self):
        base = gen_random_base((0, 1), 2, np.random.default_rng(4))
        assert circuit_from_text(circuit_to_text(base)) == base

    def test_comments_and_blank_lines(self):
        text = "# header comment\nqubits 1 shots 5\n\nX90 q0  # inline\n"
        c = circuit_from_text(text)
        assert len(c.gates) == 1 and c.shots == 5

    def test_missing_header(self):
        with pytest.raises(ConfigError):
            circuit_from_text("X90 q0\n")

    def test_bad_gate_line(self):
        with pytest.raises(ConfigError) as err:
            circuit_from_text("qubits 1 shots 1\nWIBBLE q0\n")
        assert "line 2" in str(err.value)

    def test_bad_qubit_token(self):
        with pytest.raises(ConfigError):
            circuit_from_text("qubits 1 shots 1\nX90 0\n")

    def test_non_integer_header(self):
        with pytest.raises(ConfigError):
            circuit_from_text("qubits one shots 1\nX90 q0\n")


class TestBatchFiles:
    def make_batch(self):
        return gen_batch(BatchSpec("RB", ((0, 1),), ((2,),), 2, shots=6, seed=3))

    def test_write_read_round_trip(self, tmp_path):
        batch = self.make_batch()
        write_batch(batch, tmp_path)
        loaded = read_batch(tmp_path)
        assert loaded.circuits == batch.circuits
        assert loaded.labels == batch.labels

    def test_deterministic_bytes(self, tmp_path):
        batch = self.make_batch()
        write_batch(batch, tmp_path / "a")
        write_batch(batch, tmp_path / "b")
        for rel in sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.txt")):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_hash_detects_tampering(self, tmp_path):
        batch = self.make_batch()
        write_batch(batch, tmp_path)
        victim = sorted((tmp_path / "circuits").glob("*.txt"))[0]
        victim.write_text(victim.read_text().replace("VZ q0", "VZ q1", 1))
        with pytest.raises(DecodeError):
            read_batch(tmp_path)

    def test_count_mismatch_detected(self, tmp_path):
        batch = self.make_batch()
        manifest = write_batch(batch, tmp_path)
        lines = manifest.read_text().splitlines()
        lines = [l for l in lines if not l.startswith("circuit 0 ")]
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError):
            read_batch(tmp_path)

    def test_malformed_label_numbers_detected(self, tmp_path):
        batch = self.make_batch()
        manifest = write_batch(batch, tmp_path)
        text = manifest.read_text().replace("depth 2", "depth two", 1)
        manifest.write_text(text)
        with pytest.raises(ConfigError):
            read_batch(tmp_path)

    def test_batch_hash_matches_manifest(self, tmp_path):
        batch = self.make_batch()
        manifest = write_batch(batch, tmp_path)
        declared = [l.split()[1] for l in manifest.read_text().splitlines() if l.startswith("hash ")]
        assert declared == [batch_hash(batch)]
        assert read_batch(tmp_path).file_hash == batch_hash(batch)

    def test_read_batch_equals_the_batch_written(self, tmp_path):
        # the manifest does not carry a full spec, so compare a spec-less batch;
        # the read batch's file hash does not enter equality
        batch = replace(self.make_batch(), spec=None)
        write_batch(batch, tmp_path)
        loaded = read_batch(tmp_path)
        assert batch.file_hash is None and loaded.file_hash is not None
        assert loaded == batch

    def test_file_hash_is_the_bytes_read(self, tmp_path):
        # hand-written files hash as read, not as re-serialized
        (tmp_path / "circuits").mkdir()
        text = "qubits 1 shots 2\n# prepare\nX90 q0\nMEAS q0\n"
        (tmp_path / "circuits" / "a.txt").write_text(text)
        (tmp_path / "manifest.txt").write_text(
            "version 1\ncircuit 0 circuits/a.txt width 0 depth 1 rand 0 role x\n"
        )
        loaded = read_batch(tmp_path)
        assert loaded.file_hash == hashlib.sha256(text.encode()).hexdigest()
        assert loaded.file_hash != batch_hash(loaded)


class TestReaderMatchesReference:
    SPECS = {
        "RB": BatchSpec("RB", ((0,), (0, 1)), ((2, 5),), 2, shots=7, seed=5),
        "CB": BatchSpec("CB", ((0, 1), (0, 1, 2, 3)), ((2, 4),), (2, 3), shots=3, seed=6),
        "RC": BatchSpec("RC", ((0, 1), (0, 1, 2)), ((1, 4),), 3, shots=9, seed=7),
        "FRC": BatchSpec("FRC", ((0, 1), (0, 1, 2, 3)), ((1, 6),), 4, shots=1, seed=8),
    }

    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_written_batches_of_every_kind(self, tmp_path, kind):
        batch = gen_batch(self.SPECS[kind])
        manifest = write_batch(batch, tmp_path)
        loaded = read_batch(tmp_path)
        assert loaded.circuits == batch.circuits
        assert loaded.labels == batch.labels
        rels = [l.split()[2] for l in manifest.read_text().splitlines() if l.startswith("circuit ")]
        for rel, c in zip(rels, loaded.circuits):
            assert c == _reference_circuit_from_text((tmp_path / rel).read_text("utf-8"))

    def test_hand_made_files_with_comments_and_blank_lines(self, tmp_path):
        texts = [
            "# lead comment\n\nqubits 2 shots 3  # header\nX90 q0\n\n  VZ q1 0.5 # turn\n",
            "qubits 2 shots 3\n#X90 q0\nX90 q0\n  X90 q0  \nCZ q0 q1\nDELAY q1 40\n",
            "qubits 2 shots 3\nX90 q0\r\nPREQ q1\nMEAS q0\n# tail\nMEAS q1",
        ]
        loaded = read_batch(write_hand_batch(tmp_path, texts))
        assert loaded.circuits == tuple(_reference_circuit_from_text(t) for t in texts)
        assert [len(c.gates) for c in loaded.circuits] == [2, 4, 4]
        for t in texts:
            assert circuit_from_text(t) == _reference_circuit_from_text(t)

    def test_equal_lines_in_different_files_share_gates(self, tmp_path):
        texts = ["qubits 1 shots 1\nX90 q0\nVZ q0 1.5\n", "qubits 2 shots 1\nVZ q0 1.5\nX90 q0\n"]
        a, b = read_batch(write_hand_batch(tmp_path, texts)).circuits
        assert a.gates[0] is b.gates[1] and a.gates[1] is b.gates[0]

    def test_bad_line_after_cached_lines_names_its_own_line(self, tmp_path):
        texts = [
            "qubits 2 shots 1\nX90 q0\nX90 q1\n",
            "qubits 2 shots 1\n\nX90 q0\nX90 q1\nX90 q0\nX90 1\n",
        ]
        with pytest.raises(ConfigError) as err:
            read_batch(write_hand_batch(tmp_path, texts))
        assert str(err.value) == (
            "circuits/c00001.txt: line 6: expected qubit token like 'q0', got '1'"
        )


class TestColumnarReader:
    """The reader's row table against the per-line ``Gate`` parser and the per-gate passes."""

    def test_spelling_and_literal_requests_group_as_the_oracle_does(self, tmp_path):
        texts = [
            "qubits 2 shots 3\nX90 q0\nVZ q1 0.5\nCZ q0 q1\nMEAS q0\nMEAS q1\n",
            "# c\nqubits 2 shots 3\n  X90   q0 # pulse\n\nVZ q1 1.25\nCZ q0  q1\nMEAS q0\nMEAS q1",
            "qubits 2 shots 3\nX90 q0\nPREQ q1\nCZ q0 q1\n\n# tail\nMEAS q0\nMEAS q1\n",
            "qubits 2 shots 3\nX90 q0\nVZ q1 0.5\nCZ q1 q0\nMEAS q0\nMEAS q1\n",
            "qubits 2 shots 4\nX90 q0\nVZ q1 0.5\nCZ q0 q1\nMEAS q0\nMEAS q1\n",
        ]
        loaded = read_batch(write_hand_batch(tmp_path, texts))
        reference = tuple(_reference_circuit_from_text(t) for t in texts)
        assert loaded.circuits == reference
        assert identify(loaded.circuits) == identify_bruteforce(reference)
        assert identify(loaded.circuits).groups == ((0, 1, 2), (3,), (4,))
        by_gates = CircuitBatch(reference, loaded.labels)
        read, oracle = rip(loaded), rip(by_gates)
        assert binarize(read.report, read.table) == binarize(oracle.report, oracle.table)
        # equal gates share one row whatever their spelling
        assert loaded.circuits[0].row_ids()[1][0] == loaded.circuits[1].row_ids()[1][0]

    @settings(derandomize=True, max_examples=24, deadline=None)
    @given(
        st.sampled_from(("RB", "CB", "RC", "FRC")),
        st.sampled_from((((0,), (0, 1)), ((0, 1),), ((1, 2, 3),), ((0, 1), (0, 1, 2, 3)))),
        st.lists(st.integers(1, 6), min_size=1, max_size=2, unique=True),
        st.integers(1, 3),
        st.integers(1, 4),
        st.integers(0, 2**32),
    )
    def test_read_batches_match_the_per_gate_passes(self, kind, widths, depths, rand, shots, seed):
        if kind == "CB":
            widths = tuple(w for w in widths if len(w) % 2 == 0) or ((0, 1),)
        batch = gen_batch(BatchSpec(kind, widths, (tuple(depths),), rand, shots=shots, seed=seed))
        with tempfile.TemporaryDirectory() as tmp:
            write_batch(batch, tmp)
            loaded = read_batch(tmp)
            files = sorted((Path(tmp) / "circuits").iterdir())
            reference = [_reference_circuit_from_text(f.read_text("utf-8")) for f in files]
        assert list(loaded.circuits) == reference == list(batch.circuits)
        assert identify(loaded.circuits) == identify_bruteforce(loaded.circuits)
        assert identify(loaded.circuits) == identify(batch.circuits)
        for c, ref in zip(loaded.circuits, reference):
            assert compile_circuit(c) == _reference_compile_circuit(ref)
            got, want = peel(c), _reference_peel(ref)
            assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_reading_and_ripping_a_batch_builds_no_gate(self, tmp_path, monkeypatch):
        # the frc_1shot benchmark batch: 300 single-shot FRC circuits on 2-4 qubits
        spec = BatchSpec("FRC", ((0, 1), (0, 1, 2), (0, 1, 2, 3)), ((1, 10, 20, 30),), 25, 1, 3)
        write_batch(gen_batch(spec), tmp_path)
        built = []
        post_init = Gate.__post_init__
        monkeypatch.setattr(Gate, "__post_init__", lambda g: built.append(g) or post_init(g))
        batch = read_batch(tmp_path)
        result = rip(batch)
        binarize(result.report, result.table)
        build_param_table(batch.circuits)
        programs = [compile_circuit(c) for c in (*result.uniques, *batch.circuits)]
        assert built == []
        assert len(batch) == 300 and len(result.report.groups) == 12 and len(programs) == 312


class TestReaderErrors:
    @pytest.mark.parametrize(
        "gate_line, reason",
        [
            ("VZ q0 nan", "phase must be finite"),
            ("VZ q0 x", "could not convert"),
            ("CZ q0 q0", "2 distinct qubits"),
            ("DELAY q0 -4", "non-negative"),
            ("FOO q0", "unrecognized gate line"),
        ],
    )
    def test_gate_errors_name_file_and_line(self, tmp_path, gate_line, reason):
        text = f"qubits 2 shots 1\nX90 q0\n{gate_line}\n"
        with pytest.raises(ConfigError) as err:
            circuit_from_text(text)
        assert str(err.value).startswith("line 3: ") and reason in str(err.value)
        with pytest.raises(ConfigError) as err:
            read_batch(write_hand_batch(tmp_path, ["qubits 1 shots 1\nX90 q0\n", text]))
        assert str(err.value).startswith("circuits/c00001.txt: line 3: ")
        assert reason in str(err.value)

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("qubits 1 shots 1\nX90 q3\n", "outside 0..0"),
            ("qubits 1 shots 1\nMEAS q0\nX90 q0\n", "used after its measurement"),
        ],
    )
    def test_circuit_errors_name_file(self, tmp_path, text, reason):
        with pytest.raises(ValidationError) as err:
            read_batch(write_hand_batch(tmp_path, [text]))
        assert str(err.value).startswith("circuits/c00000.txt: ")
        assert reason in str(err.value)

    def test_header_error_names_file_and_line(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            read_batch(write_hand_batch(tmp_path, ["# c\nqubits 1 shots x\nX90 q0\n"]))
        assert str(err.value) == "circuits/c00000.txt: line 2: non-integer header field"

    def test_non_utf8_circuit_file(self, tmp_path):
        data = b"qubits 1 shots 5\nX90 q0\xff\n"
        with pytest.raises(DecodeError) as err:
            read_batch(write_hand_batch(tmp_path, [data]))
        assert err.value.offset == data.index(b"\xff")
        assert str(err.value).startswith("circuits/c00000.txt: not UTF-8")

    def test_non_utf8_manifest(self, tmp_path):
        write_hand_batch(tmp_path, ["qubits 1 shots 5\nX90 q0\n"])
        manifest = tmp_path / "manifest.txt"
        data = manifest.read_bytes().replace(b"hand", b"h\xc3nd")
        manifest.write_bytes(data)
        with pytest.raises(DecodeError) as err:
            read_batch(tmp_path)
        assert err.value.offset == data.index(b"\xc3")
        assert str(manifest) in str(err.value)


class TestManifestEntries:
    def test_declared_version_other_than_1_is_refused(self, tmp_path):
        write_hand_batch(tmp_path, ["qubits 1 shots 5\nX90 q0\n"])
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("version 1", "version 7"))
        with pytest.raises(ConfigError) as err:
            read_batch(tmp_path)
        assert str(err.value) == f"{manifest}:1: unknown manifest version '7'"

    def test_manifest_without_version_line_reads(self, tmp_path):
        write_hand_batch(tmp_path, ["qubits 1 shots 5\nX90 q0\n"])
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("version 1\n", ""))
        assert len(read_batch(tmp_path)) == 1

    def test_circuit_index_out_of_place_is_refused(self, tmp_path):
        write_hand_batch(tmp_path, ["qubits 1 shots 5\nX90 q0\n"] * 2)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("circuit 0 ", "circuit 9 "))
        with pytest.raises(ConfigError) as err:
            read_batch(tmp_path)
        assert str(err.value) == f"{manifest}:3: circuit 9 listed at position 0"


class TestBatchSpecConfig:
    def test_parse_full(self):
        text = """
        kind = RB
        widths = 0 | 0,1
        depths = 2,4
        randomizations = 3
        shots = 25
        seed = 99
        """
        spec = parse_batchspec(text)
        assert spec.kind == "RB"
        assert spec.widths == ((0,), (0, 1))
        assert spec.depths == ((2, 4), (2, 4))
        assert spec.randomizations == 3
        assert spec.shots == 25 and spec.seed == 99

    def test_parse_per_width_randomizations(self):
        text = """
        kind = CB
        widths = 0,1 | 0,1,2,3
        depths = 2,4 | 2,4
        randomizations = 5 | 7
        """
        spec = parse_batchspec(text)
        assert spec.randomizations == (5, 7)

    def test_preset_shorthand(self):
        spec = parse_batchspec("preset = rb\nseed = 4\n")
        assert spec.kind == "RB" and spec.seed == 4

    def test_preset_refuses_keys_it_would_ignore(self):
        with pytest.raises(ConfigError) as err:
            parse_batchspec("preset = rb\nshots = 3\nkind = CB\n", "spec.cfg")
        assert str(err.value) == (
            "spec.cfg: a preset takes only 'seed' beside it, got ['kind', 'shots']"
            " (use --shots to change its shots)"
        )

    def test_missing_keys(self):
        with pytest.raises(ConfigError):
            parse_batchspec("kind = RB\n")

    def test_bad_line(self):
        with pytest.raises(ConfigError):
            parse_batchspec("kind RB\n")
