"""The benchmark's golden gate, run as a test.

``perfbench/run.py`` refuses a tree whose default-seed run of a workload
changes a dump byte or an exact count pinned in ``perfbench/golden.json``.
This runs the same check in the suite: it reads ``perfbench/workloads.py``
and ``golden.json`` read-only, writes each workload's batch with
``pce generate --config``, runs ``pce run`` in both modes (over a socket where
the workload asks for one), and compares the untraced counts and the dump
digest, computed as ``run.py``'s ``run_call`` computes them.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from pce.cli import main
from pce.profiling import parse_report

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text("utf-8"))
# the counts a run without the tracer records (run.py's run_call)
UNTRACED_COUNTS = (
    "rip.groups",
    "asm.compile_calls",
    "control.load_circuit_calls",
    "control.stitch_requests",
    "control.events",
    "control.device_ns",
    "rpc.frames",
)


def dump_digest_and_events(out: Path) -> tuple[str, int]:
    digest, events = hashlib.sha256(), 0
    for sub in ("shotdata", "traces"):
        for path in sorted((out / sub).iterdir()):
            data = path.read_bytes()
            digest.update(f"{sub}/{path.name}".encode() + b"\0" + data + b"\0")
            if sub == "traces":
                events += data.count(b"\n")
    return digest.hexdigest(), events


@pytest.fixture(scope="module")
def batches(tmp_path_factory):
    """Each workload's batch at the default seed, generated once."""
    root = tmp_path_factory.mktemp("golden")
    out = {}
    for name, workload in workloads.WORKLOADS.items():
        cfg = root / f"{name}.cfg"
        cfg.write_text(workload.config(workloads.DEFAULT_SEED), "utf-8")
        assert main(["generate", "--config", str(cfg), "--out", str(root / name)]) == 0
        out[name] = root / name
    return out


def test_every_workload_has_a_golden_entry_at_the_default_seed():
    assert set(GOLDEN) == set(workloads.WORKLOADS)
    assert all(entry["seed"] == workloads.DEFAULT_SEED for entry in GOLDEN.values())


@pytest.mark.parametrize("mode", ["baseline", "pce"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_default_seed_run_matches_golden(batches, tmp_path, capsys, name, mode):
    workload, golden = workloads.WORKLOADS[name], GOLDEN[name]
    out = tmp_path / "out"
    argv = ["run", "--batch", str(batches[name]), "--mode", mode,
            "--seed", str(workloads.DEFAULT_SEED), "--out", str(out)]
    if workload.socket:
        argv.append("--socket")
    assert main(argv) == 0
    capsys.readouterr()
    record, meta = parse_report((out / "profile.json").read_text("utf-8"))
    digest, events = dump_digest_and_events(out)
    counts = {
        "rip.groups": meta["groups"],
        "asm.compile_calls": record.iterations("Compile"),
        "control.load_circuit_calls": record.iterations("Load circuit"),
        "control.stitch_requests": meta["stitch_requests"],
        "control.events": events,
        "control.device_ns": meta["sim_time_ns"],
        "rpc.frames": record.iterations("Client/Server"),
    }
    assert counts == {k: golden["counts"][mode][k] for k in UNTRACED_COUNTS}
    assert digest == golden["digest"]
