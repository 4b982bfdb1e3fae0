"""Command-line front end: generate, run, verify, compare.

Exit codes: 0 success, 1 verification failure, 2 usage/config error (an
operating-system error on a path included), 3 runtime capacity/underflow error.
"""

from __future__ import annotations

import argparse
import contextlib
import socket
import stat
import sys
import threading
from pathlib import Path

from .control import TimingConfig
from .errors import (
    CapacityError,
    ConfigError,
    PceError,
    UnderflowError,
)
from .fileio import parse_batchspec, read_batch, write_batch
from .generators import gen_batch, preset_spec
from .profiling import check_same_batch, compare, parse_report, report
from .rpc import CAPACITY_CODES, ControlServer, RemoteError, SocketChannel
from .runner import run_experiment
from .verify import verify_batch

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


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

    p_run = sub.add_parser("run", help="execute a batch in baseline or pce mode")
    p_run.add_argument("--batch", type=Path, required=True, help="batch dir or manifest path")
    p_run.add_argument("--mode", choices=("baseline", "pce"), default="baseline")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--shots", type=int, default=None)
    p_run.add_argument("--reset-ns", type=int, default=TimingConfig().reset_ns)
    p_run.add_argument("--socket", action="store_true", help="RPC over a local stream socket")
    p_run.add_argument("--out", type=Path, required=True)

    p_ver = sub.add_parser("verify", help="run the oracle suites against a batch")
    p_ver.add_argument("--batch", type=Path, required=True)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--shots", type=int, default=None)
    p_ver.add_argument("--reset-ns", type=int, default=TimingConfig().reset_ns)
    p_ver.add_argument("--blob", type=Path, help="use this parameter blob instead of a fresh one")

    p_cmp = sub.add_parser("compare", help="speedup table from two profile reports")
    p_cmp.add_argument("baseline_report", type=Path)
    p_cmp.add_argument("pce_report", type=Path)
    p_cmp.add_argument("--out", type=Path)

    return parser


def _cmd_generate(args) -> int:
    if args.preset:
        spec = preset_spec(args.preset, seed=args.seed or 0)
    else:
        spec = parse_batchspec(args.config.read_text("utf-8"), str(args.config))
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.shots is not None:
        overrides["shots"] = args.shots
    if overrides:
        from dataclasses import replace

        spec = replace(spec, **overrides)
    batch = gen_batch(spec)
    manifest = write_batch(batch, args.out)
    print(f"wrote {len(batch)} circuits to {args.out} (manifest {manifest.name})")
    return EXIT_OK


class _SocketHarness:
    """One-connection unix-socket server thread plus the matching client channel."""

    def __init__(self, session, sock_dir: Path):
        path = sock_dir / "control.sock"
        with contextlib.suppress(FileNotFoundError):
            if not stat.S_ISSOCK(path.lstat().st_mode):
                raise ConfigError(f"{path} exists and is not a socket")
            path.unlink()  # left behind by a run that was killed
        self.path = str(path)
        server = ControlServer(session)
        self.listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.listener.bind(self.path)
        self.listener.listen(1)

        def serve():
            conn, _ = self.listener.accept()
            with conn:
                server.serve_socket(conn)

        self.thread = threading.Thread(target=serve, daemon=True)
        self.thread.start()
        client_sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        client_sock.connect(self.path)
        self.channel = SocketChannel(client_sock)

    def close(self):
        self.channel.close()
        self.thread.join(timeout=5)
        self.listener.close()
        Path(self.path).unlink(missing_ok=True)  # a later run binds the same path


def _cmd_run(args) -> int:
    batch_path = args.batch
    out = args.out
    timing = TimingConfig(reset_ns=args.reset_ns)
    out.mkdir(parents=True, exist_ok=True)
    harness = None

    def channel_factory(session):
        nonlocal harness
        harness = _SocketHarness(session, out)
        return harness.channel

    manifest_src = batch_path / "manifest.txt" if batch_path.is_dir() else batch_path
    try:
        outcome = run_experiment(
            lambda: manifest_src,
            lambda path: read_batch(path),
            args.mode,
            seed=args.seed,
            shots=args.shots,
            timing=timing,
            channel_factory=channel_factory if args.socket else None,
        )
    finally:
        if harness is not None:
            harness.close()
    (out / "manifest.txt").write_bytes(manifest_src.read_bytes())
    traces_dir = out / "traces"
    data_dir = out / "shotdata"
    traces_dir.mkdir(exist_ok=True)
    data_dir.mkdir(exist_ok=True)
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
    rec_base, meta_base = parse_report(args.baseline_report.read_text("utf-8"))
    rec_pce, meta_pce = parse_report(args.pce_report.read_text("utf-8"))
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
    except (CapacityError, UnderflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except RemoteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME if exc.code in CAPACITY_CODES else EXIT_USAGE
    except PceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # a missing or unreadable path, or one of the wrong kind
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
