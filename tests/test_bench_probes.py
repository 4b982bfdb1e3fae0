"""The benchmark tracer's probes name code that exists.

``perfbench/tracer.py`` rebinds functions and methods by name, so deleting or
renaming one of them breaks ``perfbench/run.py --trace 1`` with no test
failing.  This loads the tracer read-only and resolves every probe.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


PROBES = load_tracer().PROBES


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
