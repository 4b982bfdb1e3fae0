"""Command-line front end: generate, run, verify, compare.

``run --socket`` serves the control session over a connected unix socket pair
(``SocketChannel.serving``) instead of the in-process loopback; it writes
nothing to ``--out`` beyond the outputs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .control import TimingConfig
from .errors import PceError
from .fileio import MANIFEST_NAME, parse_batchspec, read_batch, read_utf8, write_batch
from .generators import gen_batch, preset_spec
from .profiling import check_same_batch, compare, parse_report, report
from .rpc import CAPACITY_CODES, SocketChannel, fault_code
from .runner import MODES, run_experiment
from .verify import verify_batch

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2  # any non-capacity fault: usage, config, non-UTF-8 bytes, an OSError on a path
EXIT_RUNTIME = 3  # a capacity fault: its RPC error code (``rpc.fault_code``) is in CAPACITY_CODES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pce",
        description="Batch dedup, phase peeling, and deterministic stitched execution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a circuit batch and its manifest")
    src = p_gen.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", type=Path, help="batch spec config file")
    src.add_argument("--preset", help="built-in reference config: rc20, frc, cb, rb")
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--shots", type=int, default=None)
    p_gen.add_argument("--out", type=Path, required=True)

    # the options of every command that runs a batch
    runs = argparse.ArgumentParser(add_help=False)
    runs.add_argument("--batch", type=Path, required=True, help="batch dir or manifest path")
    runs.add_argument("--seed", type=int, default=0)
    runs.add_argument("--shots", type=int, default=None)
    runs.add_argument("--reset-ns", type=int, default=TimingConfig().reset_ns)

    p_run = sub.add_parser("run", parents=[runs], help="execute a batch in baseline or pce mode")
    p_run.add_argument("--mode", choices=MODES, default="baseline")
    p_run.add_argument("--socket", action="store_true", help="RPC over a local stream socket")
    p_run.add_argument("--out", type=Path, required=True)

    p_ver = sub.add_parser("verify", parents=[runs], help="run the oracle suites against a batch")
    p_ver.add_argument("--blob", type=Path, help="use this parameter blob instead of a fresh one")

    p_cmp = sub.add_parser("compare", help="speedup table from two profile reports")
    p_cmp.add_argument("baseline_report", type=Path)
    p_cmp.add_argument("pce_report", type=Path)
    p_cmp.add_argument("--out", type=Path)

    return parser


def _cmd_generate(args) -> int:
    if args.preset:
        spec = preset_spec(args.preset)
    else:
        spec = parse_batchspec(read_utf8(args.config), str(args.config))
    overrides = {"seed": args.seed, "shots": args.shots}
    spec = replace(spec, **{k: v for k, v in overrides.items() if v is not None})
    batch = gen_batch(spec)
    manifest = write_batch(batch, args.out)
    print(f"wrote {len(batch)} circuits to {args.out} (manifest {manifest.name})")
    return EXIT_OK


def _cmd_run(args) -> int:
    out = args.out
    timing = TimingConfig(reset_ns=args.reset_ns)  # a bad gap fails before --out is made
    out.mkdir(parents=True, exist_ok=True)
    manifest_src = args.batch / MANIFEST_NAME if args.batch.is_dir() else args.batch
    outcome = run_experiment(
        manifest_src,
        args.mode,
        seed=args.seed,
        shots=args.shots,
        timing=timing,
        channel_factory=SocketChannel.serving if args.socket else None,
    )
    (out / MANIFEST_NAME).write_bytes(manifest_src.read_bytes())
    traces_dir = out / "traces"
    data_dir = out / "shotdata"
    for d in (traces_dir, data_dir):
        d.mkdir(exist_ok=True)
        for stale in d.glob("c*.txt"):  # a previous run's dumps into a reused --out
            stale.unlink()
    for i in sorted(outcome.traces):
        (traces_dir / f"c{i:05d}.txt").write_text(outcome.traces[i].to_text(), "utf-8")
        (data_dir / f"c{i:05d}.txt").write_text(outcome.data[i].to_text(), "utf-8")
    meta = {
        "mode": args.mode,
        "batch_hash": outcome.batch_hash,
        "seed": args.seed,
        "circuits": len(outcome.batch),
        "groups": len(outcome.report.groups) if outcome.report else len(outcome.batch),
        "stitch_requests": outcome.stitch_requests,
        "sim_time_ns": outcome.sim_time_ns,
    }
    (out / "profile.json").write_text(report(outcome.record, meta), "utf-8")
    print(
        f"{args.mode}: ran {len(outcome.batch)} circuits "
        f"({meta['groups']} unique), outputs in {out}"
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    batch = read_batch(args.batch)
    blob_override = args.blob.read_bytes() if args.blob else None
    results = verify_batch(
        batch,
        seed=args.seed,
        shots=args.shots,
        timing=TimingConfig(reset_ns=args.reset_ns),
        blob_override=blob_override,
    )
    failed = [r for r in results if not r.ok]
    for r in results:
        print(r.line())
    if failed:
        print(f"verification FAILED: {failed[0].detail}")
        return EXIT_VERIFY_FAILED
    print("verification passed")
    return EXIT_OK


def _cmd_compare(args) -> int:
    rec_base, meta_base = parse_report(read_utf8(args.baseline_report))
    rec_pce, meta_pce = parse_report(read_utf8(args.pce_report))
    check_same_batch(meta_base, meta_pce)
    table = compare(rec_base, rec_pce)
    text = table.to_text()
    if args.out:
        args.out.write_text(text, "utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    handlers = {
        "generate": _cmd_generate,
        "run": _cmd_run,
        "verify": _cmd_verify,
        "compare": _cmd_compare,
    }
    try:
        return handlers[args.command](args)
    except (PceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME if fault_code(exc) in CAPACITY_CODES else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
