"""The benchmark's probes and readers name code and records that exist.

``perfbench/tracer.py`` rebinds functions and methods by name, and
``perfbench/run.py`` reads profile stages and meta keys by name, so renaming
one of them breaks the benchmark with no test failing.  This loads the tracer
read-only and resolves every probe, and reads the names ``run.py`` uses from
its source and finds each in a real ``pce run`` profile.
"""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()
PROBES = tracer.PROBES


@pytest.mark.parametrize("probe", PROBES, ids=lambda p: f"{p.module}.{p.attr}")
def test_probe_resolves(probe):
    owner = importlib.import_module(probe.module)
    if "." in probe.attr:
        cls_name, meth = probe.attr.split(".")
        assert meth in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, probe.attr))


def test_op_counter_constant_exists():
    # the run_program probe turns status[5] (cycles) into ops with this constant
    from pce import kernels

    assert kernels.CYCLES_PER_OP > 0


def test_probe_counters_read_real_return_values():
    # the counters read fields of what the probed calls return, so a changed
    # return shape must fail here, not skew the benchmark's counts
    from collections import Counter

    from pce.asm import assemble, compile_circuit
    from pce.circuits import Circuit, measure, x90
    from pce.control import ParameterMemory
    from pce.fileio import circuit_to_text
    from pce.generators import BatchSpec, gen_batch
    from tests.test_kernels import requests_program, run_path

    counts = Counter()
    tracer._count_words(counts, (), assemble(compile_circuit(Circuit((x90(0), measure(0)), 1))))
    assert counts["asm.words"] == 3  # X90, MEASURE, END
    memory = ParameterMemory()
    memory.write_params(0, [5, 6])
    status, _ = run_path(requests_program(2, shots=3), memory.banks, memory.counts, 3)
    tracer._count_ops(counts, (), status)
    assert counts["kernels.ops_issued"] == 4 * 3  # REQ_PARAM, REQ_PARAM, X90, END a shot
    for kind in ("RB", "RC"):  # one gate per gate line of the batch's text
        batch = gen_batch(BatchSpec(kind, ((0, 1), (0, 1, 2)), ((2, 5),), 2, shots=3, seed=4))
        lines = sum(circuit_to_text(c).count("\n") - 1 for c in batch.circuits)
        counts["generators.gates"] = 0
        tracer._count_gates(counts, (), batch)
        assert counts["generators.gates"] == lines > 0


def names_read_by_run_py() -> tuple[set[str], set[str]]:
    """Profile stage names and meta keys ``perfbench/run.py`` reads."""
    source = (PERFBENCH / "run.py").read_text("utf-8")
    stages = set(re.findall(r"record\.(?:duration_ns|iterations)\(\"([^\"]+)\"\)", source))
    meta = set(re.findall(r"meta\[[\"']([^\"']+)[\"']\]", source))
    return stages, meta


def test_run_py_reads_the_pinned_names():
    stages, meta = names_read_by_run_py()
    assert stages == {"Total", "Start Run", "Compile", "Load circuit", "Client/Server"}
    assert meta == {"circuits", "groups", "stitch_requests", "sim_time_ns"}


@pytest.mark.parametrize("mode", ["baseline", "pce"])
def test_a_pce_run_profile_holds_the_names_run_py_reads(tmp_path, mode):
    from pce.cli import main
    from pce.profiling import STAGE_NAMES, parse_report

    cfg = tmp_path / "spec.cfg"
    cfg.write_text("kind = RB\nwidths = 0,1\ndepths = 2\nrandomizations = 2\nshots = 2\nseed = 1\n")
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    out = tmp_path / "out"
    argv = ["run", "--batch", str(tmp_path / "b"), "--mode", mode, "--out", str(out)]
    assert main(argv) == 0
    record, meta = parse_report((out / "profile.json").read_text("utf-8"))
    stages, keys = names_read_by_run_py()
    assert stages <= STAGE_NAMES
    assert all(record.iterations(stage) > 0 for stage in stages)
    assert keys <= set(meta)
