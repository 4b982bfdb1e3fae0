"""End-to-end CLI tests: generate, run (both modes and transports), verify, compare."""

import hashlib
import json
import re
import zlib
from dataclasses import replace

import numpy as np
import pytest

from pce import kernels
from pce.asm import (
    MODELED_ASSEMBLE_NS,
    MachineProgram,
    Opcode,
    assemble,
    compile_circuit,
    machine_to_bytes,
)
from pce.cli import main
from pce.control import PulseTrace
from pce.fileio import read_batch, write_batch
from pce.generators import CircuitBatch, Label
from pce.profiling import compare, parse_report
from pce.rip import binarize, debinarize, identify_bruteforce, rip
from pce.verify import first_trace_mismatch
from tests.test_asm import word
from tests.test_rip import SAME_CHAINS_PAIRS


@pytest.fixture()
def batch_dir(tmp_path):
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(
        "kind = RB\nwidths = 0 | 0,1\ndepths = 2,3\nrandomizations = 2\nshots = 4\nseed = 11\n"
    )
    out = tmp_path / "batch"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def duplicate_compile_stage(text):
    """A profile report with a second Compile (7 iterations) under Build Run."""
    doc = json.loads(text)
    build_run = next(c for c in doc["stages"]["children"] if c["name"] == "Build Run")
    compile_stage = next(c for c in build_run["children"] if c["name"] == "Compile")
    build_run["children"].append({**compile_stage, "iterations": 7})
    return json.dumps(doc)


def with_root(text, **fields):
    """A profile report whose Total stage has the given fields replaced."""
    doc = json.loads(text)
    doc["stages"].update(fields)
    return json.dumps(doc)


def tree_bytes(root, subdirs=("traces", "shotdata"), files=("manifest.txt",)):
    snapshot = {}
    for name in files:
        snapshot[name] = (root / name).read_bytes()
    for sub in subdirs:
        for p in sorted((root / sub).glob("*")):
            snapshot[f"{sub}/{p.name}"] = p.read_bytes()
    return snapshot


class TestDumpBytesPinned:
    """The trace and shot dumps of two small batches, pinned by digest.

    The digests were recorded before the compact trace form replaced the
    per-event columns, so any change to the dump bytes fails here.  The RB
    batches sample shot bits at 5 shots, below the array-draw crossover, and
    at 50, above it; the 50-shot digest was recorded while every shot still
    built its own Generator.  The RC batch is 6 qubits wide and runs
    trace-only."""

    SPECS = {
        "rb": (
            "kind = RB\nwidths = 0 | 0,1\ndepths = 2,8\nrandomizations = 2\nshots = 5\nseed = 3\n",
            "718bbc7bddc6e061a9b7e8c8b9b0be362cae83afd22430cab63566752eff130a",
        ),
        "rb50": (
            "kind = RB\nwidths = 0 | 0,1\ndepths = 2,8\nrandomizations = 2\nshots = 50\n"
            "seed = 3\n",
            "7c151e57865fd73c8316339124efc9e7e11998a0429e133f92b960d7d0a51613",
        ),
        "rc6": (
            "kind = RC\nwidths = 0,1,2,3,4,5\ndepths = 1,5\nrandomizations = 3\nshots = 4\nseed = 3\n",
            "df076851a1296f4cf864225f44ad478bf6614f2d3b657fe0a4a406f939e5a5f2",
        ),
    }

    @staticmethod
    def dump_digest(out):
        h = hashlib.sha256()
        for sub in ("traces", "shotdata"):
            for p in sorted((out / sub).iterdir()):
                h.update(f"{sub}/{p.name}\n".encode())
                h.update(p.read_bytes())
        return h.hexdigest()

    @pytest.mark.parametrize("name", sorted(SPECS))
    @pytest.mark.parametrize("mode", ["baseline", "pce"])
    def test_dumps_match_the_pinned_digest(self, tmp_path, name, mode):
        spec, digest = self.SPECS[name]
        cfg = tmp_path / "spec.cfg"
        cfg.write_text(spec)
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        out = tmp_path / "out"
        assert main(["run", "--batch", str(tmp_path / "b"), "--mode", mode, "--out", str(out)]) == 0
        assert self.dump_digest(out) == digest


class TestManifestHashPinned:
    """The manifest hash of one small batch per kind, pinned by digest.

    The digests were recorded before generation shared one lowering between
    the circuits that use it, so a change to any circuit file's bytes fails
    here.  The FRC batch has 20 dressings per base, so most of its slots
    repeat a lowering."""

    SPECS = {
        "rb": (
            "kind = RB\nwidths = 0 | 0,1\ndepths = 2,5\nrandomizations = 3\nshots = 5\nseed = 4\n",
            "7e81e0406ce92bebc13362fd61079118540dc23573b325d71bcad9766a02af94",
        ),
        "cb": (
            "kind = CB\nwidths = 0,1 | 0,1,2,3\ndepths = 2,4\nrandomizations = 3\nshots = 5\n"
            "seed = 4\n",
            "3d7ef8648371cb8501ea9345692102bf791af734092a2daaa3310a25697b8bcf",
        ),
        "rc": (
            "kind = RC\nwidths = 0,1,2\ndepths = 1,3\nrandomizations = 4\nshots = 5\nseed = 4\n",
            "e6b1680f5b138620d0abb0aae336c365088ce6a766ebaea5b414662604bf36dc",
        ),
        "frc": (
            "kind = FRC\nwidths = 0,1 | 0,1,2,3\ndepths = 2,6\nrandomizations = 20\nshots = 1\n"
            "seed = 4\n",
            "c5c1e28a29f9258708d0b3a7df57d37101f392d939d62218ae4bbf76887373d0",
        ),
    }

    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_manifest_hash_matches_the_pinned_digest(self, tmp_path, kind):
        spec, digest = self.SPECS[kind]
        cfg = tmp_path / "spec.cfg"
        cfg.write_text(spec)
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        manifest = (tmp_path / "b" / "manifest.txt").read_text()
        assert re.search(r"^hash (\w+)$", manifest, re.M).group(1) == digest


class TestRipBytesPinned:
    """What RIP and assembly make of a generated batch read back, pinned by digest.

    For the four manifest-pinned batches, the 6-qubit RC batch of the dump
    pins and the three benchmark workload batches at seed 3: the groups (their
    ``repr``), the PCEB blob, the PCEM images of the unique programs (pce mode)
    and of every circuit's program (baseline mode).  The first five digests
    were recorded while the reader still built a ``Gate`` per gate, the
    workload ones while it still parsed each distinct line on its own."""

    SPECS = {
        "rb": (
            TestManifestHashPinned.SPECS["rb"][0],
            "dde199e4945e6eff39b62e4b9743402b02d4eba7d367cdf67d6905baac680b9b",
            "b1523b4e896047babed1e5bb154b874cff69ff48d34b6380e0b77356f2337d7e",
            "e3da85e81de113ac23560f9b4dbb9ee32a89856adc7976a6a77999a51f31b330",
            "b6ff0a225e1ac7cfbab8e831493de3c9d8bb0a87d3db94241ed47c73d3183f22",
        ),
        "cb": (
            TestManifestHashPinned.SPECS["cb"][0],
            "357d60b5290c4ad27ba2a8d697fa0707f987e1fcd8bb828d4b3b168215188e64",
            "a2746b1f229fd43b392228fa6a887fd8498a6c3937618b3fd2d5567d5b8a29e1",
            "950a37e9b7c9b6a4bae19cdf69d43aeeede4b1a7d96fe4b4e986a639e9c026eb",
            "2f8152e1b5c144c84c3279ef102a395ae76b472de0e515fd248b6002b894e8f4",
        ),
        "rc": (
            TestManifestHashPinned.SPECS["rc"][0],
            "eb6571113e1104319c4f13fe3310b5e099c44ebf17df544e7d706e008fae7407",
            "ed313f36cb77dd91ed28a981fd38a77a7047835ed6a2371bfe4be257f3d88e3c",
            "5dde6c80be7c3e8ce6476e1d4209b1364ec678497c95ce2594edb2037750cb91",
            "7e9d502b528d34269032d05ef678e89a0b923d438f77994d4cfe3919ef7a5bad",
        ),
        "frc": (
            TestManifestHashPinned.SPECS["frc"][0],
            "f7a8c4d75e46633edb9c3e0448f75f63111cf7204d3a6cfae5a8821ce94b21d2",
            "0a7877e89954ff9185c1aa1d4c1af48a7a317c9b92fd186a9f5c9b1897c3f39b",
            "0e656534d9a48f0ae180931407b65a1f3b56add15c8d9d9f39f59b1a2bbddb28",
            "8e9d94dbed688a8369dd6aac949bb8c4e9148cb1786b73e2292e1825528ed8df",
        ),
        "rc6": (
            TestDumpBytesPinned.SPECS["rc6"][0],
            "f15dccfcbf7f65a861e948e38b39ff6f0161519522fac3bd370ebf94e479a62b",
            "efc8f493b1bcf904e30439d8c946ef3eacee6c3f75ae8c887fe289cc063f1938",
            "2cd706ae829819230f040aa40065d491ace96449b5d702586d9f66015ac7bdff",
            "bf3f1d974dbf7d3804c6676b4968831301b1beff44e449eb8a33c5fb1e2434e3",
        ),
        "rb_shots": (
            "kind = RB\nwidths = 0 | 0,1 | 0,1,2 | 0,1,2,3\ndepths = 2,8,16\nrandomizations = 3\n"
            "shots = 50\nseed = 3\n",
            "aa2c3b85042896971a60a59c660f3408ec37b1d06966c3f26d6b93bbedf5ae19",
            "9b36b37864c9bef702c5625c9a398e5486b23d174124dbf048000dcbac0b83c5",
            "f4a0ff1f55098ee6663768a948237f1e806d075bfd73e32335e7028c7f507f15",
            "bdecde31357de28b25bd42a606ec0a227a8dccbe1c1284a76cea601b7957c69e",
        ),
        "frc_1shot": (
            "kind = FRC\nwidths = 0,1 | 0,1,2 | 0,1,2,3\ndepths = 1,10,20,30\nrandomizations = 25\n"
            "shots = 1\nseed = 3\n",
            "e0d7760b98f630d14859c3aa3b65fac03c5be4665a19dfe69189319e1d09aeb8",
            "3e0a48b298ffccab8dc8e5de2b5eae762da269dd55c23cbe85f0c2efc9fb2b1c",
            "1d09002cedf5162cf7af2c2c3bf01a5010af7c1fe8fc0239d2c4af50e9fc7574",
            "8126a5b709c679a93c5221369cd03257a9b5206e1de97d50258b7ab1b618cc12",
        ),
        "rc_wide_socket": (
            "kind = RC\nwidths = 0,1,2,3,4,5 | 0,1,2,3,4,5,6,7\ndepths = 1,5,10,20\n"
            "randomizations = 4\nshots = 20\nseed = 3\n",
            "62332e163590170b5170b6d3cd86b498b0902d5657df96bf5877b232d14840e7",
            "4346011bb490c9c316e1142a22f9601a24a35fe268cc2957cf8a44d6acc78e40",
            "33d0833c1f5c4594602ab0bf87ee1e98d1d09ef2ff03bec93c61202efebee743",
            "cc4449570722495119686103a081319f2461d1faca25bbc09dd80eedc9d80c91",
        ),
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_groups_blob_and_programs_match_the_pinned_digests(self, tmp_path, name):
        spec, groups, blob, pce_images, baseline_images = self.SPECS[name]
        cfg = tmp_path / "spec.cfg"
        cfg.write_text(spec)
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        batch = read_batch(tmp_path / "b")
        result = rip(batch)

        def digest(data: bytes) -> str:
            return hashlib.sha256(data).hexdigest()

        def images(circuits) -> bytes:
            return b"".join(machine_to_bytes(assemble(compile_circuit(c))) for c in circuits)

        assert result.report == identify_bruteforce(batch.circuits)
        assert digest(repr(result.report.groups).encode()) == groups
        assert digest(binarize(result.report, result.table)) == blob
        assert digest(images(result.uniques)) == pce_images
        assert digest(images(batch.circuits)) == baseline_images


class TestGenerate:
    def test_writes_expected_count(self, batch_dir):
        batch = read_batch(batch_dir)
        assert len(batch) == 2 * (2 * 2 + 2)

    def test_same_seed_byte_identical(self, tmp_path, batch_dir):
        cfg = tmp_path / "spec.cfg"
        out2 = tmp_path / "batch2"
        assert main(["generate", "--config", str(cfg), "--out", str(out2)]) == 0
        a = tree_bytes(batch_dir, subdirs=("circuits",))
        b = tree_bytes(out2, subdirs=("circuits",))
        assert a == b

    def test_preset_shorthand(self, tmp_path):
        out = tmp_path / "b"
        # smallest preset is still large; just validate the CLI path with a config file
        cfg = tmp_path / "c.cfg"
        cfg.write_text("kind = RC\nwidths = 0,1\ndepths = 2\nrandomizations = 2\nseed = 1\n")
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "manifest.txt").exists()

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("kind = RB\n")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_preset_with_bad_seed_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("preset = rb\nseed = abc\n")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'abc'" in err

    @pytest.mark.parametrize(
        "key, value", [("depths", "1_0"), ("shots", "1_0"), ("seed", "\u0663")]
    )
    def test_number_outside_the_circuit_text_rule_exits_2(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.cfg"
        keys = {"kind": "RB", "widths": "0", "depths": "2", "randomizations": "1", key: value}
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), "utf-8")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}:")

    @pytest.mark.parametrize(
        "widths, rand", [("0,1", "2,9"), ("0,1 | 0,1", "2,9 | 3")], ids=["one", "two"]
    )
    def test_randomization_group_of_several_integers_exits_2(self, tmp_path, capsys, widths, rand):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"kind = CB\nwidths = {widths}\ndepths = 2\nrandomizations = {rand}\n")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "randomizations" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "last, named",
        [("shotz = 5", "bad.cfg:5: unknown key 'shotz'"),
         ("kind = CB", "bad.cfg:5: key 'kind' repeats line 1")],
        ids=["unknown", "repeated"],
    )
    def test_unknown_or_repeated_key_exits_2(self, tmp_path, capsys, last, named):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"kind = RB\nwidths = 0\ndepths = 2\nrandomizations = 1\n{last}\n")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_empty_widths_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("kind = RB\nwidths = \ndepths = 2\nrandomizations = 1\n")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_non_utf8_config_exits_2_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"kind = RB\n\xff\n")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: not UTF-8") and "(at byte offset 10)" in err
        assert "Traceback" not in err

    def test_directory_as_config_exits_2(self, tmp_path, capsys):
        rc = main(["generate", "--config", str(tmp_path), "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_missing_subcommand_exits_2(self):
        assert main([]) == 2


class TestRun:
    def run_mode(self, batch_dir, tmp_path, mode, extra=()):
        out = tmp_path / f"out-{mode}-{len(extra)}"
        rc = main(
            ["run", "--batch", str(batch_dir), "--mode", mode, "--seed", "5", "--shots", "3",
             "--out", str(out), *extra]
        )
        assert rc == 0
        return out

    def test_baseline_and_pce_agree(self, batch_dir, tmp_path):
        base = self.run_mode(batch_dir, tmp_path, "baseline")
        pce = self.run_mode(batch_dir, tmp_path, "pce")
        assert tree_bytes(base) == tree_bytes(pce)

    def test_determinism_rerun_byte_identical(self, batch_dir, tmp_path):
        a = self.run_mode(batch_dir, tmp_path, "pce")
        b_dir = tmp_path / "again"
        rc = main(
            ["run", "--batch", str(batch_dir), "--mode", "pce", "--seed", "5", "--shots", "3",
             "--out", str(b_dir)]
        )
        assert rc == 0
        assert tree_bytes(a) == tree_bytes(b_dir)

    def test_socket_transport_matches_loopback(self, batch_dir, tmp_path):
        loop = self.run_mode(batch_dir, tmp_path, "pce")
        sock = self.run_mode(batch_dir, tmp_path, "pce", extra=("--socket",))
        assert tree_bytes(loop) == tree_bytes(sock)

    def test_profile_written_with_iteration_counts(self, batch_dir, tmp_path):
        out = self.run_mode(batch_dir, tmp_path, "pce")
        from pce.profiling import parse_report

        record, meta = parse_report((out / "profile.json").read_text())
        assert meta["mode"] == "pce"
        assert record.iterations("Compile") == meta["groups"]
        assert record.iterations("Load para") == meta["circuits"]
        # the full taxonomy is present: definition sub-stages and the zeroed stage
        for stage in ("Load env.", "Load freq.", "Load zero"):
            assert record.iterations(stage) == 1
        assert record.iterations("Active") == 1
        assert record.duration_ns("Active") == 0
        assert record.iterations("Stitch") == meta["stitch_requests"]

    @pytest.mark.parametrize("mode", ["baseline", "pce"])
    def test_meta_batch_hash_is_the_manifest_hash(self, batch_dir, tmp_path, mode):
        from pce.fileio import batch_hash
        from pce.profiling import parse_report

        out = self.run_mode(batch_dir, tmp_path, mode)
        _, meta = parse_report((out / "profile.json").read_text())
        manifest = (batch_dir / "manifest.txt").read_text().splitlines()
        declared = [line.split()[1] for line in manifest if line.startswith("hash ")]
        assert declared == [meta["batch_hash"]]
        assert meta["batch_hash"] == batch_hash(read_batch(batch_dir))

    def test_run_of_files_does_not_reserialize_the_batch(self, batch_dir, tmp_path, monkeypatch):
        from pce import runner

        def refuse(batch):
            raise AssertionError("batch re-serialized to hash it")

        monkeypatch.setattr(runner, "batch_hash", refuse)
        self.run_mode(batch_dir, tmp_path, "pce")

    def test_in_memory_batch_hashes_its_canonical_text(self, batch_dir):
        from pce.fileio import batch_hash
        from pce.runner import run_experiment

        batch = replace(read_batch(batch_dir), file_hash=None)
        outcome = run_experiment(batch, "baseline", shots=1)
        assert outcome.batch_hash == batch_hash(batch)

    @pytest.mark.parametrize("mode", ["baseline", "pce"])
    def test_a_batch_path_runs_as_the_batch_it_names(self, batch_dir, mode):
        from dataclasses import FrozenInstanceError

        from pce.runner import run_experiment

        by_path = run_experiment(str(batch_dir), mode, seed=2)
        by_batch = run_experiment(read_batch(batch_dir / "manifest.txt"), mode, seed=2)
        assert (by_path.traces, by_path.data) == (by_batch.traces, by_batch.data)
        assert by_path.batch_hash == by_batch.batch_hash
        for outcome in (by_path, by_batch):  # reading counts as Transpile; Get circuit is zero
            record = outcome.record
            assert (record.duration_ns("Get circuit"), record.iterations("Get circuit")) == (0, 1)
            assert record.iterations("Transpile") == 1
        with pytest.raises(FrozenInstanceError):
            by_path.counts = {}

    @pytest.mark.parametrize("name", sorted(SAME_CHAINS_PAIRS))
    def test_same_chains_pair_modes_agree(self, tmp_path, name):
        # each circuit runs at its own shots: no --shots
        bdir = tmp_path / "pair"
        labels = (Label((0,), 1, 0, "test"), Label((0,), 1, 1, "test"))
        write_batch(CircuitBatch(SAME_CHAINS_PAIRS[name], labels), bdir)
        outs = []
        for mode in ("baseline", "pce"):
            outs.append(tmp_path / mode)
            assert main(["run", "--batch", str(bdir), "--mode", mode, "--out", str(outs[-1])]) == 0
        assert tree_bytes(outs[0]) == tree_bytes(outs[1])

    def test_existing_file_as_out_exits_2(self, batch_dir, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        rc = main(["run", "--batch", str(batch_dir), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_missing_batch_exits_2(self, tmp_path):
        rc = main(["run", "--batch", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_capacity_error_exits_3(self, tmp_path):
        # one circuit with 2049 phases on one qubit trips the bank limit during RIP
        from pce.circuits import Circuit, vz

        gates = tuple(vz(0, 0.25) for _ in range(2049))
        batch = CircuitBatch((Circuit(gates, 1, 2),), (Label((0,), 1, 0, "x"),))
        bdir = tmp_path / "fat"
        write_batch(batch, bdir)
        rc = main(["run", "--batch", str(bdir), "--mode", "pce", "--out", str(tmp_path / "o")])
        assert rc == 3

    @pytest.mark.parametrize("mode", ["baseline", "pce"])
    def test_socket_server_fault_exits_2_and_closes(self, tmp_path, capsys, monkeypatch, mode):
        # the server refuses a 9-qubit program (8 banks); the channel still closes
        from pce.circuits import Circuit, measure, x90
        from pce.rpc import SocketChannel

        closes = []
        close = SocketChannel.close

        def counting_close(self):
            closes.append(self)
            close(self)

        monkeypatch.setattr(SocketChannel, "close", counting_close)
        batch = CircuitBatch((Circuit((x90(8), measure(8)), 9, 2),), (Label((8,), 1, 0, "x"),))
        bdir = tmp_path / "wide"
        write_batch(batch, bdir)
        rc = main(
            ["run", "--batch", str(bdir), "--mode", mode, "--socket", "--out", str(tmp_path / "o")]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "9 qubits exceed the 8-bank design" in err
        assert "Traceback" not in err
        assert len(closes) == 1
        assert not closes[0].server_thread.is_alive()

    def test_socket_run_twice_into_one_out(self, batch_dir, tmp_path):
        out = tmp_path / "o"
        argv = ["run", "--batch", str(batch_dir), "--mode", "pce", "--socket", "--out", str(out)]
        assert main(argv) == 0
        assert not (out / "control.sock").exists()
        assert main(argv) == 0

    def test_smaller_run_into_a_reused_out_leaves_only_its_dumps(self, batch_dir, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("kind = RB\nwidths = 0\ndepths = 2\nrandomizations = 1\nshots = 2\n")
        small = tmp_path / "small"
        assert main(["generate", "--config", str(cfg), "--out", str(small)]) == 0
        out = tmp_path / "o"
        for batch, count in ((batch_dir, 12), (small, 3)):
            assert main(["run", "--batch", str(batch), "--mode", "pce", "--out", str(out)]) == 0
            for sub in ("traces", "shotdata"):
                names = sorted(p.name for p in (out / sub).iterdir())
                assert names == [f"c{i:05d}.txt" for i in range(count)]
        assert json.loads((out / "profile.json").read_text())["meta"]["circuits"] == 3

    def test_socket_run_into_a_long_out_path(self, batch_dir, tmp_path):
        # longer than any unix socket path (108 bytes): the socket pair has no path
        loop = self.run_mode(batch_dir, tmp_path, "pce")
        long_dir = tmp_path / ("d" * 60) / ("e" * 60)
        sock = self.run_mode(batch_dir, long_dir, "pce", extra=("--socket",))
        assert len(str(sock)) >= 120
        assert tree_bytes(loop) == tree_bytes(sock)
        made = sorted(p.relative_to(sock).as_posix() for p in sock.rglob("*"))
        assert made == sorted(p.relative_to(loop).as_posix() for p in loop.rglob("*"))
        assert not any(p.is_socket() for p in sock.rglob("*"))

    def test_socket_server_fault_outside_taxonomy_exits_2(
        self, batch_dir, tmp_path, capsys, monkeypatch
    ):
        # a non-PceError in the server thread ends the session with one ERROR frame
        from pce.rpc import ControlServer

        def crash(self, frame):
            raise RuntimeError("server fault")

        monkeypatch.setattr(ControlServer, "handle_frame", crash)
        argv = ["run", "--batch", str(batch_dir), "--mode", "pce", "--socket",
                "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "server fault: RuntimeError('server fault')" in err
        assert "Traceback" not in err

    def test_socket_server_closes_mid_frame_exits_2(self, batch_dir, tmp_path, capsys, monkeypatch):
        # the server answers the first request with half a frame, then hangs up
        from pce.rpc import ControlServer, _read_exact

        def half_reply(self, conn):
            header = _read_exact(conn, 4)
            _read_exact(conn, int.from_bytes(header, "little"))
            conn.sendall(b"\x10\x00\x00\x00\x07\x00")

        monkeypatch.setattr(ControlServer, "serve_socket", half_reply)
        argv = ["run", "--batch", str(batch_dir), "--mode", "pce", "--socket",
                "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "connection closed mid-frame" in err
        assert "Traceback" not in err


class TestValuesNoHeaderFieldHolds:
    """A ``--shots`` outside 1..2^32-1, and a circuit header whose shot or
    qubit count a PCEM or PCEB header cannot hold, exit 2 with an ``error:``
    line, in both modes and over the socket; ``generate`` refuses such a
    shot count, from its config or its flag, before writing a file."""

    def exits_2_naming(self, argv, capsys, named):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "Traceback" not in err

    @pytest.mark.parametrize("transport", [(), ("--socket",)], ids=["loopback", "socket"])
    @pytest.mark.parametrize("mode", ["baseline", "pce"])
    @pytest.mark.parametrize("shots", ["0", "-1", "5000000000"])
    def test_shots_flag(self, batch_dir, tmp_path, capsys, shots, mode, transport):
        argv = ["run", "--batch", str(batch_dir), "--mode", mode, "--shots", shots,
                "--out", str(tmp_path / "o"), *transport]
        self.exits_2_naming(argv, capsys, f"shot count {shots} does not fit")

    @pytest.mark.parametrize("shots", ["5000000000", str(1 << 32)])
    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_generate_refuses_the_shot_count(self, tmp_path, capsys, where, shots):
        # refused before any file is written, as pce run would refuse the batch
        cfg = tmp_path / "spec.cfg"
        spec = "kind = RB\nwidths = 0\ndepths = 2\nrandomizations = 1\nseed = 1\n"
        cfg.write_text(spec + (f"shots = {shots}\n" if where == "config" else ""))
        out = tmp_path / "b"
        argv = ["generate", "--config", str(cfg), "--out", str(out)]
        argv += ["--shots", shots] if where == "flag" else []
        self.exits_2_naming(argv, capsys, f"shot count {shots} does not fit")
        assert not out.exists()

    def test_generate_takes_the_largest_shot_count(self, tmp_path):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text("kind = RB\nwidths = 0\ndepths = 2\nrandomizations = 1\nseed = 1\n")
        argv = ["generate", "--config", str(cfg), "--shots", str(0xFFFFFFFF)]
        assert main([*argv, "--out", str(tmp_path / "b")]) == 0
        assert {c.shots for c in read_batch(tmp_path / "b").circuits} == {0xFFFFFFFF}

    @pytest.mark.parametrize("mode", ["baseline", "pce"])
    @pytest.mark.parametrize(
        "n_qubits, shots", [(70000, 1), (100000000000, 1), (1, 5000000000)]
    )
    def test_circuit_file_header(self, tmp_path, capsys, n_qubits, shots, mode):
        # pce mode meets the qubit count first in the PCEB parameter blob
        from pce.circuits import Circuit, measure, x90

        bdir = tmp_path / "b"
        circuit = Circuit((x90(0), measure(0)), n_qubits, shots)
        write_batch(CircuitBatch((circuit,), (Label((0,), 1, 0, "x"),)), bdir)
        header = (bdir / "circuits" / "c00000.txt").read_text().splitlines()[0]
        assert header == f"qubits {n_qubits} shots {shots}"
        argv = ["run", "--batch", str(bdir), "--mode", mode, "--out", str(tmp_path / "o")]
        named = f"{n_qubits} qubits" if n_qubits > 0xFFFF else f"{shots} shots do not fit"
        self.exits_2_naming(argv, capsys, named)


class TestResetGap:
    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_negative_reset_gap_exits_2(self, batch_dir, tmp_path, capsys, command):
        out = tmp_path / "o"
        argv = [command, "--batch", str(batch_dir), "--reset-ns", "-600"]
        argv += ["--out", str(out)] if command == "run" else []
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "reset gap must be non-negative" in err
        assert not out.exists()

    def test_zero_reset_gap_runs_shots_back_to_back(self, batch_dir, tmp_path):
        last_times = []
        for reset_ns in ("500", "0"):
            out = tmp_path / reset_ns
            argv = ["run", "--batch", str(batch_dir), "--reset-ns", reset_ns, "--shots", "2",
                    "--out", str(out)]
            assert main(argv) == 0
            events = (out / "traces" / "c00000.txt").read_text().splitlines()
            last_times.append(int(events[-1].split()[0].removeprefix("t=")))
        assert last_times[1] == last_times[0] - 500  # one gap between the two shots

    @pytest.mark.parametrize("reset_ns", ["4611686018427387904", "99999999999999999999999"])
    @pytest.mark.parametrize("transport", [(), ("--socket",)], ids=["loopback", "socket"])
    def test_event_times_past_int64_exit_2(self, batch_dir, tmp_path, capsys, reset_ns, transport):
        # 3 shots of 2**62 ns pass 2**63 - 1; a gap past int64 does at once
        argv = ["run", "--batch", str(batch_dir), "--mode", "pce", "--shots", "3",
                "--reset-ns", reset_ns, "--out", str(tmp_path / "o"), *transport]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "int64 event-time limit" in err
        assert "Traceback" not in err


class TestRunArguments:
    """A seed or shot count that ``pce run`` refuses is a usage error in
    ``pce verify`` too: exit 2 with an ``error:`` line, before any check."""

    def argv(self, command, batch_dir, tmp_path, *flags):
        argv = [command, "--batch", str(batch_dir), *flags]
        return argv + ["--out", str(tmp_path / "o")] if command == "run" else argv

    def exits_2(self, argv, capsys, named):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and named in err and "Traceback" not in err
        assert "CHECK" not in out

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_negative_seed(self, batch_dir, tmp_path, capsys, command):
        argv = self.argv(command, batch_dir, tmp_path, "--seed", "-1")
        self.exits_2(argv, capsys, "seed must be non-negative, got -1")

    @pytest.mark.parametrize("shots", ["0", "-1", str(1 << 32)])
    def test_verify_shot_count_outside_u32(self, batch_dir, tmp_path, capsys, shots):
        # pce run's refusals are TestValuesNoHeaderFieldHolds.test_shots_flag
        argv = self.argv("verify", batch_dir, tmp_path, "--shots", shots)
        self.exits_2(argv, capsys, f"shot count {shots} does not fit")


class TestUnreadableBatch:
    """Bad bytes or lines in a batch exit 2 with the file named, for run and verify."""

    COMMANDS = {
        "run": lambda b, o: ["run", "--batch", str(b), "--mode", "pce", "--out", str(o)],
        "verify": lambda b, o: ["verify", "--batch", str(b)],
    }

    def exits_2_naming(self, batch_dir, tmp_path, capsys, command, name):
        assert main(self.COMMANDS[command](batch_dir, tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_non_utf8_circuit_file(self, batch_dir, tmp_path, capsys, command):
        (batch_dir / "circuits" / "c00000.txt").write_bytes(b"qubits 1 shots 5\nX90 q0\xff\n")
        self.exits_2_naming(batch_dir, tmp_path, capsys, command, "circuits/c00000.txt: not UTF-8")

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_non_utf8_manifest(self, batch_dir, tmp_path, capsys, command):
        manifest = batch_dir / "manifest.txt"
        manifest.write_bytes(manifest.read_bytes().replace(b"# circuit", b"# circ\xe9uit", 1))
        self.exits_2_naming(batch_dir, tmp_path, capsys, command, "not UTF-8")

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_bad_gate_line_names_file_and_line(self, batch_dir, tmp_path, capsys, command):
        (batch_dir / "circuits" / "c00003.txt").write_text("qubits 2 shots 4\nCZ q1 q1\n")
        self.exits_2_naming(batch_dir, tmp_path, capsys, command, "circuits/c00003.txt: line 2: ")

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("old, new", [("depth 2 ", "depth 1_0 "), (" rand ", " XXXX ")])
    def test_bad_circuit_entry_names_manifest_and_line(
        self, batch_dir, tmp_path, capsys, command, old, new
    ):
        manifest = batch_dir / "manifest.txt"
        manifest.write_text(manifest.read_text().replace(old, new, 1), "utf-8")
        self.exits_2_naming(batch_dir, tmp_path, capsys, command, "malformed circuit entry")


def one_shot_trace(kinds, phases):
    """The one-shot trace of a program whose event i has the given kind on
    qubit i (a CZ pairs it with the next qubit, DELAYs are 0 ns), played with
    the given phase row."""
    n = max(len(kinds), 2)
    words = [word(kind, i, (i + 1) % n if kind == kernels.OP_TWO_QUBIT else 0)
             for i, kind in enumerate(kinds)]
    skeleton = kernels.shot_skeleton(MachineProgram([*words, word(Opcode.END)], n, 1).words, n)
    return PulseTrace(
        skeleton.events, skeleton.shot_end + 500, np.array([phases], np.uint32), n, 1
    )


class TestFirstTraceMismatch:
    """The message names the first differing event as the dumps write it."""

    def test_equal_traces(self):
        assert first_trace_mismatch(one_shot_trace([1], [7]), one_shot_trace([1], [7])) is None

    def test_kind_is_named(self):
        got = first_trace_mismatch(one_shot_trace([1], [0]), one_shot_trace([5], [0]))
        assert got == "event 0 on qubit 0: kind X90 vs MEASURE"

    def test_phase_word_is_hex(self):
        a = one_shot_trace([1, 1, 1], [3, 42, 9])
        b = one_shot_trace([1, 1, 1], [3, 0xFFFFFFFF, 0])
        assert first_trace_mismatch(a, b) == (
            "event 1 on qubit 1: phase word 0x0000002a vs 0xffffffff"
        )

    def test_first_field_of_first_event_wins(self):
        a = one_shot_trace([1, 6], [0, 0])
        b = one_shot_trace([1, 4], [0, 0])
        assert (a.times.tolist(), b.times.tolist()) == ([0, 0], [0, 16])
        assert first_trace_mismatch(a, b) == "event 1 on qubit 1: kind DELAY vs CZ"

    def test_time_from_the_second_shot_on(self):
        a = replace(one_shot_trace([1, 5], [9, 0]), shots=2)
        b = replace(a, period=a.period + 4)
        assert first_trace_mismatch(a, b) == f"event 2 on qubit 0: time {a.period} vs {b.period}"

    def test_counts_and_metadata(self):
        one, two = one_shot_trace([1], [0]), one_shot_trace([1, 1], [0, 0])
        assert first_trace_mismatch(one, two) == "event counts differ (1 vs 2)"
        wider = replace(one, n_qubits=3)
        assert first_trace_mismatch(one, wider) == "traces differ in metadata"


class TestVerifyAndCompare:
    def test_verify_passes_on_pristine_batch(self, batch_dir, capsys):
        assert main(["verify", "--batch", str(batch_dir), "--shots", "3"]) == 0
        out = capsys.readouterr().out
        assert "trace-equivalence: PASS" in out

    def test_verify_empty_batch_vacuously_passes(self, tmp_path):
        bdir = tmp_path / "empty"
        write_batch(CircuitBatch((), ()), bdir)
        assert main(["verify", "--batch", str(bdir)]) == 0

    def test_verify_detects_corrupted_phase_word(self, batch_dir, tmp_path, capsys):
        batch = read_batch(batch_dir)
        result = rip(batch)
        blob = bytearray(binarize(result.report, result.table))
        # flip one phase word (first circuit, qubit 0) and refresh the checksum
        header = 4 + 12 + 4 * len(batch) + (len(batch) + 7) // 8
        word_at = header + 2  # first circuit, first bank: u16 count then words
        blob[word_at] ^= 0xFF
        blob[-4:] = zlib.crc32(bytes(blob[:-4])).to_bytes(4, "little")
        debinarize(bytes(blob))  # still decodes; only the value changed
        blob_file = tmp_path / "tampered.blob"
        blob_file.write_bytes(bytes(blob))
        rc = main(["verify", "--batch", str(batch_dir), "--shots", "2", "--blob", str(blob_file)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "trace-equivalence: FAIL" in out
        assert "circuit 0" in out and "qubit 0" in out
        assert re.search(r"phase word 0x[0-9a-f]{8} vs 0x[0-9a-f]{8}\)", out)

    def test_verify_given_another_batchs_blob_fails_the_trace_check(
        self, batch_dir, tmp_path, capsys
    ):
        cfg = tmp_path / "other.cfg"
        cfg.write_text(
            "kind = RB\nwidths = 0 | 0,1\ndepths = 2,3\nrandomizations = 3\nshots = 4\nseed = 11\n"
        )
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "other")]) == 0
        capsys.readouterr()
        other = rip(read_batch(tmp_path / "other"))
        blob_file = tmp_path / "other.blob"
        blob_file.write_bytes(binarize(other.report, other.table))
        rc = main(["verify", "--batch", str(batch_dir), "--blob", str(blob_file)])
        out, err = capsys.readouterr()
        assert rc == 1
        assert re.search(r"^CHECK trace-equivalence: FAIL \(.+\)$", out, re.M)
        assert "Traceback" not in out + err

    def test_compare_reports(self, batch_dir, tmp_path, capsys):
        for mode in ("baseline", "pce"):
            rc = main(
                ["run", "--batch", str(batch_dir), "--mode", mode, "--seed", "5",
                 "--shots", "3", "--out", str(tmp_path / mode)]
            )
            assert rc == 0
        rc = main(
            ["compare", str(tmp_path / "baseline" / "profile.json"),
             str(tmp_path / "pce" / "profile.json"), "--out", str(tmp_path / "cmp.txt")]
        )
        assert rc == 0
        text = (tmp_path / "cmp.txt").read_text()
        assert "Compile" in text and "classical reduction" in text

    def test_modeled_assembly_is_the_constant_per_group(self, batch_dir, tmp_path, capsys):
        reports = []
        for mode in ("baseline", "pce"):
            out = tmp_path / mode
            argv = ["run", "--batch", str(batch_dir), "--mode", mode, "--out", str(out)]
            assert main(argv) == 0
            reports.append(out / "profile.json")
        (rec_b, meta_b), (rec_p, meta_p) = (parse_report(r.read_text()) for r in reports)
        assert meta_b["groups"] == meta_b["circuits"] == 12 and meta_p["groups"] == 6
        modeled = (MODELED_ASSEMBLE_NS * meta_b["groups"], MODELED_ASSEMBLE_NS * meta_p["groups"])
        assert compare(rec_b, rec_p).modeled_assembly_ns == modeled
        capsys.readouterr()
        assert main(["compare", *map(str, reports)]) == 0
        line = f"modeled assembly           baseline {modeled[0]} ns, pce {modeled[1]} ns\n"
        assert line in capsys.readouterr().out

    def test_compare_mismatched_batches_errors(self, batch_dir, tmp_path):
        rc = main(
            ["run", "--batch", str(batch_dir), "--mode", "baseline", "--seed", "5",
             "--shots", "3", "--out", str(tmp_path / "a")]
        )
        assert rc == 0
        # second batch with a different seed has a different hash
        cfg = tmp_path / "spec2.cfg"
        cfg.write_text(
            "kind = RB\nwidths = 0\ndepths = 2\nrandomizations = 1\nshots = 4\nseed = 99\n"
        )
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "b2")]) == 0
        rc = main(
            ["run", "--batch", str(tmp_path / "b2"), "--mode", "pce", "--seed", "5",
             "--shots", "3", "--out", str(tmp_path / "b")]
        )
        assert rc == 0
        rc = main(
            ["compare", str(tmp_path / "a" / "profile.json"), str(tmp_path / "b" / "profile.json")]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "damage, named",
        [
            (lambda t: t.replace('"Data Sort"', '"Data Sorted"'), "'Data Sorted'"),
            (lambda t: json.dumps({**json.loads(t), "meta": ["mode"]}), "meta"),
            (lambda t: t.replace('"Get data"', '"Get circuit"'), "'Get circuit' under 'Run Batch'"),
            (duplicate_compile_stage, "'Compile' listed twice under 'Build Run'"),
            (lambda t: with_root(t, ns=0), "pce record has no completed, timed 'Total'"),
            (lambda t: with_root(t, ns=-5), "stage 'Total' has -5 ns"),
            (lambda t: with_root(t, iterations=-1), "over -1 iterations"),
        ],
        ids=[
            "unknown-stage", "meta-not-object", "misplaced-stage", "duplicate-stage",
            "zero-ns-total", "negative-ns", "negative-iterations",
        ],
    )
    def test_compare_damaged_report_exits_2(self, batch_dir, tmp_path, capsys, damage, named):
        rc = main(
            ["run", "--batch", str(batch_dir), "--mode", "baseline", "--seed", "5",
             "--shots", "3", "--out", str(tmp_path / "x")]
        )
        assert rc == 0
        good = tmp_path / "x" / "profile.json"
        damaged = tmp_path / "damaged.json"
        damaged.write_text(damage(good.read_text()))
        capsys.readouterr()
        assert main(["compare", str(good), str(damaged)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "Traceback" not in err

    def test_compare_non_utf8_report_exits_2_naming_it(self, tmp_path, capsys):
        report = tmp_path / "profile.json"
        report.write_bytes(b"\xff{}")
        assert main(["compare", str(report), str(report)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {report}: not UTF-8") and "(at byte offset 0)" in err
        assert "Traceback" not in err

    def test_self_compare_ratio_one(self, batch_dir, tmp_path, capsys):
        rc = main(
            ["run", "--batch", str(batch_dir), "--mode", "baseline", "--seed", "5",
             "--shots", "3", "--out", str(tmp_path / "x")]
        )
        assert rc == 0
        rc = main(
            ["compare", str(tmp_path / "x" / "profile.json"), str(tmp_path / "x" / "profile.json")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "overall speedup            1.00x" in out
        assert "modeled classical speedup  1.00x" in out
