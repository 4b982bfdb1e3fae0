"""Span recorder installed around the public entry points of every pce layer.

Spans are recorded from outside the package: ``Tracer.install`` rebinds each
probed function (in every ``pce`` module that imported it by name) or method
(on its class) to a wrapper, and ``uninstall`` puts the originals back, so an
untraced run executes exactly the unmodified code.

A span is ``(id, parent, run, name, layer, start_ns, end_ns)``.  The parent
is the innermost open span of the same thread; a span opened on a thread with
no open span (the socket server thread) takes the channel call that is
waiting for it as its parent, so server-side work nests under the client's
RPC like it does on the loopback channel.  ``run`` is the id of the ``pce``
invocation the span belongs to.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

LAYERS = (
    "generators",
    "fileio",
    "rip",
    "asm",
    "rpc",
    "control",
    "kernels",
    "runner",
    "cli",
    "profiling",
)


@dataclass(frozen=True)
class Probe:
    module: str  # e.g. "pce.asm"
    attr: str  # "compile_circuit" or "Class.method"
    span: str  # span name, "<layer>.<entry>"
    count: Callable | None = None  # (counts, args, result) -> None
    remote_parent: bool = False  # spans on other threads nest under this one

    @property
    def layer(self) -> str:
        return self.span.split(".", 1)[0]


def _count_gates(counts, args, batch):
    counts["generators.gates"] += sum(len(c.gates) for c in batch.circuits)


def _count_words(counts, args, program):
    counts["asm.words"] += len(program.words)


def _count_blob(counts, args, blob):
    counts["rip.blob_bytes"] += len(blob)


def _count_frame(counts, args, resp):
    counts["rpc.bytes"] += len(args[1]) + len(resp)


def _count_ops(counts, args, status):
    # run_program returns (status, shot, op, core, events, cycles, clock)
    counts["kernels.ops_issued"] += int(status[5]) // sys.modules["pce.kernels"].CYCLES_PER_OP


PROBES = (
    Probe("pce.generators", "gen_batch", "generators.gen_batch", _count_gates),
    Probe("pce.fileio", "write_batch", "fileio.write_batch"),
    Probe("pce.fileio", "read_batch", "fileio.read_batch"),
    Probe("pce.fileio", "batch_hash", "fileio.batch_hash"),
    Probe("pce.rip", "rip", "rip.rip"),
    Probe("pce.rip", "identify", "rip.identify"),
    Probe("pce.rip", "build_param_table", "rip.build_param_table"),
    Probe("pce.rip", "peel", "rip.peel"),
    Probe("pce.rip", "modify", "rip.modify"),
    Probe("pce.rip", "binarize", "rip.binarize", _count_blob),
    Probe("pce.rip", "debinarize", "rip.debinarize"),
    Probe("pce.asm", "compile_circuit", "asm.compile"),
    Probe("pce.asm", "assemble", "asm.assemble", _count_words),
    Probe("pce.rpc", "rpc_encode", "rpc.encode"),
    Probe("pce.rpc", "rpc_decode", "rpc.decode"),
    Probe("pce.rpc", "LoopbackChannel.call", "rpc.transfer", _count_frame, True),
    Probe("pce.rpc", "SocketChannel.call", "rpc.transfer", _count_frame, True),
    Probe("pce.rpc", "ControlServer.handle_frame", "rpc.handle_frame"),
    Probe("pce.control", "ControlSession.handle_load_circuit", "control.load_circuit"),
    Probe("pce.control", "ControlSession.handle_load_params", "control.load_params"),
    Probe("pce.control", "ControlSession.handle_load_defs", "control.load_defs"),
    Probe("pce.control", "ControlSession.handle_run", "control.run"),
    Probe("pce.control", "ControlSession.handle_get_data", "control.get_data"),
    Probe("pce.control", "execute", "control.start_run"),
    Probe("pce.control", "_sample_bits", "control.sample"),
    Probe("pce.control", "deft_run", "control.deft_run"),
    Probe("pce.kernels", "run_program", "kernels.run_program", _count_ops),
    Probe("pce.runner", "run_experiment", "runner.run_experiment"),
    Probe("pce.runner", "_run_baseline", "runner.run_baseline"),
    Probe("pce.runner", "_run_pce", "runner.run_pce"),
    Probe("pce.runner", "_sort_data", "runner.data_sort"),
    Probe("pce.cli", "_cmd_generate", "cli.generate"),
    Probe("pce.cli", "_cmd_run", "cli.run"),
    Probe("pce.control", "PulseTrace.to_text", "cli.dump_trace"),
    Probe("pce.control", "ShotData.to_text", "cli.dump_shots"),
    Probe("pce.profiling", "report", "profiling.report"),
    Probe("pce.profiling", "parse_report", "profiling.parse_report"),
)


class Tracer:
    """In-memory span store plus per-run counters filled by the probes."""

    def __init__(self, probes=PROBES):
        self.probes = probes
        self.spans: list[tuple] = []
        self.counts: dict[int, defaultdict] = {}
        self.run = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._remote_parent = None
        self._restore: list[tuple] = []

    def begin_run(self) -> int:
        self.run += 1
        self.counts[self.run] = defaultdict(int)
        return self.run

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, probe: Probe):
        tracer, name, layer = self, probe.span, probe.layer
        clock, count, remote = time.perf_counter_ns, probe.count, probe.remote_parent

        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else tracer._remote_parent
            run = tracer.run
            stack.append(sid)
            if remote:
                outer, tracer._remote_parent = tracer._remote_parent, sid
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if remote:
                    tracer._remote_parent = outer
                tracer.spans.append((sid, parent, run, name, layer, t0, t1))
            if count is not None:
                count(tracer.counts[run], args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "pce" or n.startswith("pce.")]
        for probe in self.probes:
            owner = sys.modules[probe.module]
            if "." in probe.attr:
                cls_name, meth = probe.attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, probe))
                continue
            orig = getattr(owner, probe.attr)
            wrapped = self._wrap(orig, probe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path) -> None:
        keys = ("id", "parent", "run", "name", "layer", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _covered(intervals, lo: int, hi: int) -> int:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, end = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def analyse(spans) -> dict[str, float]:
    """Per-layer and per-entry-point seconds for the spans of one run.

    ``<layer>.busy_s``: time inside the layer, counting nested spans of the
    same layer once.  ``<layer>.self_s``: the sum over the layer's spans of
    each span's duration minus what its child spans cover.  ``<span>_s``:
    summed duration of the spans of that name, and ``<span>.self_s`` their
    summed self time.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[1] in by_id:
            children[s[1]].append(s)
    out: dict[str, float] = defaultdict(float)
    for sid, parent, _, name, layer, t0, t1 in spans:
        dur = t1 - t0
        out[f"{name}_s"] += dur
        own = dur - _covered([(c[5], c[6]) for c in children[sid]], t0, t1)
        out[f"{name}.self_s"] += own
        out[f"{layer}.self_s"] += own
        anc = by_id.get(parent)
        while anc is not None and anc[4] != layer:
            anc = by_id.get(anc[1])
        if anc is None:
            out[f"{layer}.busy_s"] += dur
    return {k: v / 1e9 for k, v in out.items()}
