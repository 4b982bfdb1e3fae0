"""Tests for circuit text, manifests, and config parsing."""

import pytest

from pce.circuits import Circuit, cz, delay, measure, param_request, vz, x90
from pce.errors import ConfigError, DecodeError
from pce.fileio import (
    batch_hash,
    circuit_from_text,
    circuit_to_text,
    parse_batchspec,
    read_batch,
    write_batch,
)
from pce.generators import BatchSpec, gen_rb


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
        return gen_rb(BatchSpec("RB", ((0, 1),), ((2,),), 2, shots=6, seed=3))

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

    def test_missing_keys(self):
        with pytest.raises(ConfigError):
            parse_batchspec("kind = RB\n")

    def test_bad_line(self):
        with pytest.raises(ConfigError):
            parse_batchspec("kind RB\n")
