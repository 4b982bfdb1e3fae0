"""End-to-end benchmark of ``pce run``: both modes on three named workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload frc_1shot --seed 3 --seconds 30 --trace 0

One run, in one process:

1. set-up: ``pce generate`` writes the workload's batch for ``--seed``,
   several times; ``setup_s`` is the median;
2. warm-up and golden check: both modes on the batch of the default seed,
   whose dump digest and exact counts must match ``golden.json``;
3. measurement: rounds of ``pce run --mode baseline`` and ``--mode pce`` on
   the seeded batch, alternating which mode goes first, until ``--seconds``
   is used.  Each call goes through ``pce.cli.main`` and is timed by wall
   clock; its ``profile.json`` and dumps are read back and checked.

Every time is also scaled to a fixed machine speed.  On a shared host the
speed of a CPU can change by 2x for seconds to minutes; ``SpeedProbe`` times
a short reference loop before, after and every 10 ms during each call, and
the call's times are multiplied by ``REF_S`` x the time-average of
1 / reference time.  The metrics report the scaled times; the raw wall times
are printed in the table above the result line.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
untraced calls.  With ``--trace 1`` every round also makes one traced call
per mode (spans recorded by ``tracer.py``), and the metrics are the
per-layer ones: times are medians over the traced calls, counts come from
every call and must repeat exactly.  Spans are written to
``perfbench/.out/spans-<workload>.jsonl`` at the end.

Metric names and units are read from ``BENCHMARK.json``; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS, Tracer, analyse  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# relative to ROOT: keeps the unix socket path of --socket runs short
WORK = Path("perfbench") / ".work"
SPANS_DIR = Path("perfbench") / ".out"
GOLDEN = HERE / "golden.json"
MODES = ("baseline", "pce")

SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_BUDGET_S = 3, 25, 2.0
MIN_ROUNDS = 2
# machine-speed sampling: scaled times are seconds on a machine whose
# reference loop (REF_ITERATIONS rounds) takes REF_S
REF_ITERATIONS, REF_S = 60, 0.0001
SAMPLE_EVERY_S, EDGE_SAMPLES = 0.01, 20

# counts only the traced calls see; the others come from profile.json and the dumps
TRACED_COUNTS = ("kernels.ops_issued", "rpc.bytes", "asm.words", "rip.blob_bytes")
ALL = "*"


def _reference_work(np) -> int:
    """Interpreter-bound work in pce's mix: numpy scalar updates on a small
    array (the executor) and text parsed into small objects (reading and
    compiling circuits)."""
    a = np.zeros(64, dtype=np.int64)
    acc, seen = 0, {}
    for i in range(REF_ITERATIONS):
        j = i & 63
        acc = (acc + int(a[j]) + i) & 0xFFFFFFFF
        a[j] = acc
        parts = f"VZ q{j} {acc * 1e-9:.6f}".split()
        seen[parts[1]] = (parts[0], float(parts[2]))
    return acc


class SpeedProbe:
    """Samples the machine's speed before, during and after a measured call.

    While active, a real-time interval timer runs the reference loop every
    ``SAMPLE_EVERY_S`` of wall time, in the main thread between bytecodes;
    ``paused_s`` adds up the time those samples take, so the caller can
    subtract it from its own wall time.  ``scale`` is ``REF_S`` times the
    time-average of 1 / reference time, the factor that turns the call's
    seconds into seconds at the reference speed.
    """

    def __init__(self, np):
        self.np = np
        self.samples: list[float] = []
        self.paused_s = 0.0
        self._previous_handler = None

    def _sample(self) -> float:
        t0 = time.perf_counter()
        _reference_work(self.np)
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed

    def _on_timer(self, signum, frame) -> None:
        self.paused_s += self._sample()

    def __enter__(self):
        self.samples, self.paused_s = [], 0.0
        for _ in range(EDGE_SAMPLES):
            self._sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        for _ in range(EDGE_SAMPLES):
            self._sample()
        return False

    @property
    def scale(self) -> float:
        return REF_S * statistics.fmean(1.0 / r for r in self.samples)


def _scaled(values: dict, scale: float) -> dict:
    return {k: v * scale if k.endswith("_s") else v for k, v in values.items()}


@dataclass
class Call:
    """One ``pce run`` invocation and what was read back from it."""

    mode: str
    seed: int
    traced: bool
    circuits: int
    wall_s: float = 0.0  # raw
    scale: float = 1.0  # SpeedProbe.scale over the call
    classical_s: float = 0.0  # raw
    counts: dict = field(default_factory=dict)
    dump_digests: dict = field(default_factory=dict)  # dump file name -> sha256
    digest: str = ""
    layers: dict = field(default_factory=dict)  # scaled span times and traced counts
    bad: set = field(default_factory=set)  # failed circuit names, ALL for the whole call

    @property
    def ok(self) -> bool:
        return not self.bad

    @property
    def failed(self) -> int:
        return self.circuits if ALL in self.bad else len(self.bad)

    def fail(self, message: str, circuits=(ALL,)) -> None:
        self.bad.update(circuits)
        print(f"check failed: {self.mode} seed {self.seed}: {message}", file=sys.stderr)


@dataclass
class Setup:
    """One ``pce generate`` of the workload's batch."""

    wall_s: float
    scale: float
    layers: dict


def _median(values):
    return statistics.median(values) if values else 0.0


class Bench:
    def __init__(self, pce, workload, seed: int, trace: bool):
        self.pce = pce
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.speed = SpeedProbe(pce.np)
        self.calls: list[Call] = []  # every pce run made, for the failure count
        self.tracer = Tracer() if trace else None
        self.golden = json.loads(GOLDEN.read_text("utf-8")) if GOLDEN.exists() else {}
        self.first_counts: dict[tuple, dict] = {}
        self.first_digest: dict[tuple, str] = {}
        self.expected_requests: dict[int, int] = {}

    # -- set-up ---------------------------------------------------------

    def generate(self, seed: int, out: Path, traced: bool) -> Setup:
        cfg = WORK / f"spec-{seed}.cfg"
        cfg.write_text(self.workload.config(seed), "utf-8")
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        ctx, run_id = self._trace_ctx(traced)
        with contextlib.redirect_stdout(io.StringIO()), self.speed as speed, ctx:
            t0, paused = time.perf_counter(), speed.paused_s
            code = self.pce.cli.main(["generate", "--config", str(cfg), "--out", str(out)])
            wall = time.perf_counter() - t0 - (speed.paused_s - paused)
        if code != 0:
            raise RuntimeError(f"pce generate exited {code} for seed {seed}")
        return Setup(wall, speed.scale, _scaled(self._layer_values(run_id), speed.scale))

    def setup(self) -> tuple[list[Setup], Path]:
        reps: list[Setup] = []
        batch = WORK / "batch"
        while len(reps) < SETUP_MAX_REPS and (
            len(reps) < SETUP_MIN_REPS or sum(r.wall_s for r in reps) < SETUP_BUDGET_S
        ):
            reps.append(self.generate(self.seed, batch, self.trace))
        return reps, batch

    def stitch_count(self, batch: Path) -> int:
        """Independent count of stitched requests: peeled words x shots."""
        circuits = self.pce.fileio.read_batch(batch).circuits
        peel = self.pce.rip.peel
        return sum(len(words) * c.shots for c in circuits for words in peel(c))

    # -- one pce run ----------------------------------------------------

    def _trace_ctx(self, traced: bool):
        if not traced:
            return contextlib.nullcontext(), None
        return self.tracer, self.tracer.begin_run()

    def _layer_values(self, run_id) -> dict:
        if run_id is None:
            return {}
        values = analyse([s for s in self.tracer.spans if s[2] == run_id])
        values.update(self.tracer.counts[run_id])
        return values

    def run_call(self, mode: str, seed: int, batch: Path, traced: bool) -> Call:
        out = WORK / f"out-{mode}"
        shutil.rmtree(out, ignore_errors=True)
        args = ["run", "--batch", str(batch), "--mode", mode, "--seed", str(seed), "--out", str(out)]
        if self.workload.socket:
            args.append("--socket")
        call = Call(mode, seed, traced, len(list((batch / "circuits").iterdir())))
        self.calls.append(call)
        gc.collect()
        ctx, run_id = self._trace_ctx(traced)
        try:
            with contextlib.redirect_stdout(io.StringIO()), self.speed as speed, ctx:
                t0, paused = time.perf_counter(), speed.paused_s
                code = self.pce.cli.main(args)
                call.wall_s = time.perf_counter() - t0 - (speed.paused_s - paused)
                if code != 0:
                    raise RuntimeError(f"pce run exited {code}")
                record, meta = self.pce.profiling.parse_report(
                    (out / "profile.json").read_text("utf-8")
                )
        except Exception:  # a failed call is counted, the benchmark goes on
            call.fail(traceback.format_exc(limit=3))
            return call
        call.scale = speed.scale
        call.layers = _scaled(self._layer_values(run_id), call.scale)
        call.classical_s = (record.duration_ns("Total") - record.duration_ns("Start Run")) / 1e9
        # hold only digests: the dumps would otherwise count in peak_rss_mb
        digest, events = hashlib.sha256(), 0
        for sub in ("shotdata", "traces"):
            for path in sorted((out / sub).iterdir()):
                data = path.read_bytes()
                name = f"{sub}/{path.name}"
                call.dump_digests[name] = hashlib.sha256(data).digest()
                digest.update(name.encode() + b"\0" + data + b"\0")
                if sub == "traces":
                    events += data.count(b"\n")
        call.digest = digest.hexdigest()
        call.counts = {
            "rip.groups": meta["groups"],
            "asm.compile_calls": record.iterations("Compile"),
            "control.load_circuit_calls": record.iterations("Load circuit"),
            "control.stitch_requests": meta["stitch_requests"],
            "control.events": events,
            "control.device_ns": meta["sim_time_ns"],
            "rpc.frames": record.iterations("Client/Server"),
        }
        if traced:
            call.counts.update({k: call.layers.get(k, 0) for k in TRACED_COUNTS})
        self.check_call(call, meta, batch)
        return call

    # -- checks ---------------------------------------------------------

    def check_call(self, call: Call, meta: dict, batch: Path) -> None:
        n = call.circuits
        if meta["circuits"] != n or len(call.dump_digests) != 2 * n:
            call.fail(f"{meta['circuits']} circuits run, {len(call.dump_digests)} dumps for {n}")
            return
        units = meta["groups"] if call.mode == "pce" else n
        for stage in ("asm.compile_calls", "control.load_circuit_calls"):
            if call.counts[stage] != units:
                call.fail(f"{stage} {call.counts[stage]}, expected {units}")
        if call.mode == "pce":
            if call.seed not in self.expected_requests:
                self.expected_requests[call.seed] = self.stitch_count(batch)
            expected = self.expected_requests[call.seed]
            if call.counts["control.stitch_requests"] != expected:
                call.fail(
                    f"{call.counts['control.stitch_requests']} stitch requests, "
                    f"peel x shots gives {expected}"
                )
        # exact counts and digest repeat across every call of one mode on one batch
        key = (call.mode, call.seed)
        first = self.first_counts.setdefault(key, {})
        diff = {k: (first[k], v) for k, v in call.counts.items() if k in first and first[k] != v}
        if diff:
            call.fail(f"counts changed between calls (first, now): {diff}")
        first.update({k: v for k, v in call.counts.items() if k not in first})
        if self.first_digest.setdefault(key, call.digest) != call.digest:
            call.fail("dump digest changed between calls")
        golden = self.golden.get(self.workload.name)
        if golden and call.seed == golden["seed"]:
            if call.digest != golden["digest"]:
                call.fail(f"dump digest {call.digest} differs from golden.json")
            want = golden["counts"][call.mode]
            diff = {k: (v, want[k]) for k, v in call.counts.items() if k in want and want[k] != v}
            if diff:
                call.fail(f"counts differ from golden.json (got, golden): {diff}")

    def check_pair(self, base: Call, fast: Call) -> None:
        """The central invariant: both modes dump identical traces and shot data."""
        if not (base.ok and fast.ok):
            return
        theirs = fast.dump_digests
        bad = {n.split("/")[1] for n, d in base.dump_digests.items() if theirs.get(n) != d}
        if bad:
            fast.fail(f"dumps differ from baseline for {sorted(bad)[:5]}", bad)
        dev_b, dev_p = base.counts["control.device_ns"], fast.counts["control.device_ns"]
        if dev_b != dev_p:
            fast.fail(f"device time {dev_p} ns, baseline {dev_b} ns")

    # -- the run --------------------------------------------------------

    def pair(self, order, seed: int, batch: Path, traced: bool) -> dict[str, Call]:
        calls = {mode: self.run_call(mode, seed, batch, traced) for mode in order}
        self.check_pair(calls["baseline"], calls["pce"])
        return calls

    def golden_check(self, batch: Path) -> dict[str, Call]:
        if self.seed != DEFAULT_SEED:
            batch = WORK / "batch-default"
            self.generate(DEFAULT_SEED, batch, False)
        return self.pair(MODES, DEFAULT_SEED, batch, self.trace)

    def measure(self, batch: Path, seconds: float) -> list[Call]:
        calls: list[Call] = []
        deadline = time.perf_counter() + seconds
        last = 0.0
        k = 0
        while k < MIN_ROUNDS or time.perf_counter() + last <= deadline:
            t0 = time.perf_counter()
            order = MODES if k % 2 == 0 else MODES[::-1]
            calls += self.pair(order, self.seed, batch, False).values()
            if self.trace:
                calls += self.pair(order[::-1], self.seed, batch, True).values()
            last = time.perf_counter() - t0
            k += 1
        return calls


def _untraced(calls, mode):
    return [c for c in calls if c.mode == mode and not c.traced and c.ok]


def end_to_end(calls, setups) -> dict[str, float]:
    out = {"setup_s": _median([r.wall_s * r.scale for r in setups])}
    for mode in MODES:
        mine = _untraced(calls, mode)
        out[f"{mode}_wall_s"] = _median([c.wall_s * c.scale for c in mine])
        out[f"{mode}_classical_s"] = _median([c.classical_s * c.scale for c in mine])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


# per-layer span times, each the summed duration of the spans of that name,
# except where _SPAN_KEY names a self time instead
_RUN_TIMES = (
    "fileio.read_batch_s",
    "rip.identify_s",
    "rip.peel_s",
    "rip.modify_s",
    "rip.binarize_s",
    "rip.debinarize_s",
    "asm.compile_s",
    "asm.assemble_s",
    "rpc.encode_s",
    "rpc.decode_s",
    "rpc.transfer_s",
    "control.load_circuit_s",
    "control.load_params_s",
    "control.start_run_s",
    "control.sample_s",
    "kernels.run_program_s",
    "runner.data_sort_s",
    "cli.dump_s",
)
_SPAN_KEY = {
    "rpc.transfer_s": "rpc.transfer.self_s",  # the wire and the wait, not the server's work
    "cli.dump_s": "cli.self_s",  # what `pce run` does outside the pipeline
}


def per_layer(calls, setups) -> dict[str, float]:
    def setup_med(key):
        return _median([r.layers.get(key, 0.0) for r in setups])

    out = {
        "generators.gen_s": setup_med("generators.gen_batch_s"),
        "generators.gates": setup_med("generators.gates"),
        "generators.busy_s": setup_med("generators.busy_s"),
        "generators.self_s": setup_med("generators.self_s"),
        "fileio.write_batch_s": setup_med("fileio.write_batch_s"),
    }
    for mode in MODES:
        traced = [c for c in calls if c.mode == mode and c.traced and c.ok]

        def med(key):
            return _median([c.layers.get(key, 0.0) for c in traced])

        for layer in LAYERS[1:]:  # generators run only at set-up
            out[f"{layer}.busy_s.{mode}"] = med(f"{layer}.busy_s")
            out[f"{layer}.self_s.{mode}"] = med(f"{layer}.self_s")
        for name in _RUN_TIMES:
            out[f"{name}.{mode}"] = med(_SPAN_KEY.get(name, name))
        counts = traced[0].counts if traced else {}
        for name, value in counts.items():
            out[f"{name}.{mode}"] = value
        groups = counts.get("rip.groups", 0)
        out[f"rip.dedup_ratio.{mode}"] = traced[0].circuits / groups if groups else 0.0
        ops = counts.get("kernels.ops_issued", 0)
        out[f"kernels.ns_per_op.{mode}"] = 1e9 * med("kernels.run_program_s") / ops if ops else 0.0
        out[f"trace.overhead_s.{mode}"] = _median([c.wall_s * c.scale for c in traced]) - _median(
            [c.wall_s * c.scale for c in _untraced(calls, mode)]
        )
    return out


def _print_table(calls, setups, e2e) -> None:
    def row(name, values):
        if not values:
            return
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
        print(
            f"{name:<26} median {statistics.median(values):9.4f}  q1 {q[0]:9.4f}  "
            f"q3 {q[2]:9.4f}  max {max(values):9.4f}  n {len(values)}"
        )
        print(f"{'':<26} {' '.join(f'{v:.4f}' for v in values)}")

    print("times scaled to the reference machine speed (raw wall time in brackets)")
    row("setup_s", [r.wall_s * r.scale for r in setups])
    row("[setup_s]", [r.wall_s for r in setups])
    for mode in MODES:
        mine = _untraced(calls, mode)
        row(f"{mode}_wall_s", [c.wall_s * c.scale for c in mine])
        row(f"[{mode}_wall_s]", [c.wall_s for c in mine])
        row(f"{mode}_classical_s", [c.classical_s * c.scale for c in mine])
        row(f"[{mode}_classical_s]", [c.classical_s for c in mine])
    row("reference_ms", [1000 * REF_S / c.scale for c in calls if c.ok])
    print(
        "with fewer than 20 values no percentile above the median has ten beyond it: "
        "the maximum stands in"
    )
    base, fast = e2e["baseline_wall_s"], e2e["pce_wall_s"]
    cb, cp = e2e["baseline_classical_s"], e2e["pce_classical_s"]
    if fast and cp:
        print(
            f"for information, baseline / pce: overall {base / fast:.3f}x "
            f"({base:.4f} s / {fast:.4f} s), classical {cb / cp:.3f}x ({cb:.4f} s / {cp:.4f} s)"
        )


def _load_pce():
    src = ROOT / "src"
    if not (src / "pce" / "cli.py").is_file():
        raise SystemExit(f"error: no pce sources under {src}")
    sys.path.insert(0, str(src))
    # by module, not package attribute: the package re-exports a function as ``pce.rip``
    names = ("cli", "fileio", "profiling", "rip")
    modules = {n: importlib.import_module(f"pce.{n}") for n in names}
    return SimpleNamespace(np=importlib.import_module("numpy"), **modules)


def _metric_specs(trace: bool) -> list[dict]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return doc["per_layer" if trace else "end_to_end"]


def _write_golden(bench: Bench, calls: dict[str, Call]) -> None:
    golden = bench.golden
    golden[bench.workload.name] = {
        "seed": DEFAULT_SEED,
        "digest": calls["pce"].digest,
        "counts": {mode: calls[mode].counts for mode in MODES},
    }
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", "utf-8")
    print(f"golden entry for {bench.workload.name} written to {GOLDEN}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-golden",
        action="store_true",
        help="record the default-seed digest and counts in golden.json, then stop",
    )
    args = parser.parse_args(argv)

    pce = _load_pce()
    specs = _metric_specs(bool(args.trace))
    workload = WORKLOADS[args.workload]
    os.chdir(ROOT)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        if args.write_golden:
            bench = Bench(pce, workload, DEFAULT_SEED, True)
            bench.golden.pop(workload.name, None)
            bench.generate(DEFAULT_SEED, WORK / "batch", False)
            calls = bench.pair(MODES, DEFAULT_SEED, WORK / "batch", True)
            if any(c.bad for c in bench.calls):
                print("golden not written: the default-seed run failed its checks")
                return 1
            _write_golden(bench, calls)
            return 0
        bench = Bench(pce, workload, args.seed, bool(args.trace))
        setups, batch = bench.setup()
        bench.golden_check(batch)
        calls = bench.measure(batch, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        for t in threading.enumerate():
            if t is not threading.main_thread():
                t.join(timeout=10)

    values = end_to_end(calls, setups)
    _print_table(calls, setups, values)
    if args.trace:
        values = per_layer(calls, setups)
        SPANS_DIR.mkdir(parents=True, exist_ok=True)
        bench.tracer.write(SPANS_DIR / f"spans-{workload.name}.jsonl")
    metrics = {}
    for spec in specs:
        if spec["name"] not in values:
            raise SystemExit(f"error: metric {spec['name']} is not produced by this benchmark")
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
    failed = sum(c.failed for c in bench.calls)
    attempted = sum(c.circuits for c in bench.calls)
    print(f"failed_share {failed / attempted:.6f} ({failed} of {attempted} circuits)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
