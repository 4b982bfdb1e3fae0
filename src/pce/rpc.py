"""Length-prefixed binary RPC between the host runner and the control session.

Frame layout (little-endian): u32 length, u16 type, payload; the length field
counts the type and payload bytes, so an empty-payload frame is 6 bytes long.

Message vocabulary: LOAD_CIRCUIT, LOAD_PARAMS, LOAD_DEFS, RUN, GET_DATA and
the DATA response.  ACK and ERROR are transport-level frames so every request
gets exactly one lock-step reply on both channel flavors (in-process loopback
and local stream socket share this framing byte-for-byte).

A message is encoded from its fields as given, and a frame decodes whole:
``rpc_encode`` refuses a value its slot cannot hold instead of casting it,
and ``rpc_decode`` takes exactly one frame, so ``DeftClient`` and
``ControlServer`` add no check of their own.  LOAD_PARAMS banks obey the
bank-word rule (``rip.bank_words``) through ``rip.encode_words``.

``SocketChannel.serving`` puts a session on a connected unix stream socket
pair: a daemon thread serves one end and the channel owns the other, so no
socket file or path is involved.
"""

from __future__ import annotations

import contextlib
import socket
import struct
import threading
import time
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .asm import MachineProgram, machine_from_bytes, machine_to_bytes
from .circuits import require_int
from .control import ControlSession, ShotData
from .rip import ByteReader, encode_words
from .errors import (
    CapacityError,
    ConfigError,
    DecodeError,
    EncodeError,
    PceError,
    RoutingError,
    SchedulingError,
    UnderflowError,
    ValidationError,
)

FRAME_OVERHEAD = 6  # u32 length + u16 type
MAX_FRAME_BYTES = 64 << 20


class MsgType(IntEnum):
    LOAD_CIRCUIT = 1
    LOAD_PARAMS = 2
    LOAD_DEFS = 3
    RUN = 4
    GET_DATA = 5
    DATA = 6
    ACK = 7
    ERROR = 8


@dataclass(frozen=True)
class LoadCircuit:
    index: int
    program: MachineProgram


@dataclass(frozen=True)
class LoadParams:
    index: int
    words: tuple[np.ndarray, ...]

    def __eq__(self, other):
        if not isinstance(other, LoadParams):
            return NotImplemented
        return (
            self.index == other.index
            and len(self.words) == len(other.words)
            and all(np.array_equal(a, b) for a, b in zip(self.words, other.words))
        )


@dataclass(frozen=True)
class LoadDefs:
    envelope: np.ndarray  # complex
    freq: np.ndarray  # float64

    def __eq__(self, other):
        if not isinstance(other, LoadDefs):
            return NotImplemented
        return np.array_equal(self.envelope, other.envelope) and np.array_equal(
            self.freq, other.freq
        )


@dataclass(frozen=True)
class Run:
    shots: int


@dataclass(frozen=True)
class GetData:
    pass


@dataclass(frozen=True)
class Data:
    data: ShotData


@dataclass(frozen=True)
class Ack:
    pass


@dataclass(frozen=True)
class ErrorMsg:
    code: int
    message: str


class RemoteError(PceError):
    """Server-side failure surfaced through the RPC boundary."""

    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


# error codes carried in ERROR frames
_ERR_GENERIC = 1
_ERR_VALIDATION = 2
_ERR_CAPACITY = 3
_ERR_UNDERFLOW = 4
_ERR_ROUTING = 5
_ERR_SCHEDULING = 6
_ERR_DECODE = 7

_ERROR_CODES = (
    (CapacityError, _ERR_CAPACITY),
    (UnderflowError, _ERR_UNDERFLOW),
    (RoutingError, _ERR_ROUTING),
    (SchedulingError, _ERR_SCHEDULING),
    (DecodeError, _ERR_DECODE),
    (ValidationError, _ERR_VALIDATION),
    (ConfigError, _ERR_VALIDATION),
)

CAPACITY_CODES = (_ERR_CAPACITY, _ERR_UNDERFLOW)


def fault_code(exc: Exception) -> int:
    """A fault's ERROR-frame code; a ``RemoteError`` keeps the code it came with."""
    if isinstance(exc, RemoteError):
        return exc.code
    for cls, code in _ERROR_CODES:
        if isinstance(exc, cls):
            return code
    return _ERR_GENERIC


def _table(values, kinds: str, dtype, what: str) -> np.ndarray:
    """A definition table as ``dtype``, if it is one flat sequence of numbers
    of a dtype kind in ``kinds``."""
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError):  # a ragged table, say
        arr = None
    if arr is None or arr.ndim != 1 or arr.dtype.kind not in kinds:
        raise EncodeError(f"{what} table must be one flat sequence of numbers")
    return arr.astype(dtype, copy=False)


def _encode_payload(msg) -> tuple[MsgType, bytes]:
    if isinstance(msg, LoadCircuit):
        index = require_int(msg.index, "circuit index", EncodeError)
        return MsgType.LOAD_CIRCUIT, struct.pack("<I", index) + machine_to_bytes(msg.program)
    if isinstance(msg, LoadParams):
        index = require_int(msg.index, "circuit index", EncodeError)
        out = bytearray(struct.pack("<IH", index, len(msg.words)))
        for bank, words in enumerate(msg.words):
            out += encode_words(words, bank)
        return MsgType.LOAD_PARAMS, bytes(out)
    if isinstance(msg, LoadDefs):
        env = _table(msg.envelope, "iufc", complex, "envelope")
        frq = _table(msg.freq, "iuf", "<f8", "frequency")
        pairs = np.empty(2 * env.size, dtype="<f8")
        pairs[0::2] = env.real
        pairs[1::2] = env.imag
        return (
            MsgType.LOAD_DEFS,
            struct.pack("<I", env.size)
            + pairs.tobytes()
            + struct.pack("<I", frq.size)
            + frq.tobytes(),
        )
    if isinstance(msg, Run):
        return MsgType.RUN, struct.pack("<I", require_int(msg.shots, "shot count", EncodeError))
    if isinstance(msg, GetData):
        return MsgType.GET_DATA, b""
    if isinstance(msg, Data):
        d = msg.data
        out = bytearray(struct.pack("<H", len(d.measured_qubits)))
        out += struct.pack(f"<{len(d.measured_qubits)}H", *d.measured_qubits)
        out += struct.pack("<I", d.shots)
        out += np.asarray(d.bits, dtype=np.uint8).tobytes()
        return MsgType.DATA, bytes(out)
    if isinstance(msg, Ack):
        return MsgType.ACK, b""
    if isinstance(msg, ErrorMsg):
        raw = msg.message.encode("utf-8")
        return MsgType.ERROR, struct.pack("<HI", msg.code, len(raw)) + raw
    raise ValidationError(f"cannot encode message of type {type(msg).__name__}")


def rpc_encode(msg) -> bytes:
    """One frame for ``msg``, built from its fields as given.

    A field too wide for its wire slot, a shot count or circuit index that
    is not an integer (a float or a bool), or a LOAD_DEFS table that is not
    one flat sequence of numbers is an ``EncodeError``; a LOAD_PARAMS bank
    that breaks the bank-word rule is a ``ValidationError`` naming the bank.
    Nothing is truncated or wrapped."""
    try:
        mtype, payload = _encode_payload(msg)
    except struct.error as exc:
        raise EncodeError(f"{type(msg).__name__} does not fit its frame: {exc}") from None
    return struct.pack("<IH", 2 + len(payload), int(mtype)) + payload


def _check_length(header: bytes) -> int:
    """The frame length a 4-byte prefix declares, checked before reading the body."""
    (length,) = struct.unpack("<I", header)
    if length < 2:
        raise DecodeError(f"frame length {length} below minimum", 0)
    if length > MAX_FRAME_BYTES:
        raise DecodeError(f"frame length {length} exceeds limit", 0)
    return length


def rpc_decode(frame: bytes) -> object:
    """Decode one whole frame: its message; a byte past the declared length
    is a ``DecodeError`` like any other fault."""
    if len(frame) < 4:
        raise DecodeError("frame shorter than its length prefix", 0)
    length = _check_length(frame[:4])
    if len(frame) < 4 + length:
        raise DecodeError(f"frame declares {length} bytes but only {len(frame) - 4} follow", 4)
    if len(frame) > 4 + length:
        raise DecodeError("frame carries trailing bytes", 4 + length)
    (raw_type,) = struct.unpack_from("<H", frame, 4)
    try:
        mtype = MsgType(raw_type)
    except ValueError:
        raise DecodeError(f"unknown message type {raw_type}", 4) from None
    return _decode_payload(mtype, frame[6:])


def _decode_payload(mtype: MsgType, payload: bytes):
    r = ByteReader(payload, FRAME_OVERHEAD)
    if mtype is MsgType.LOAD_CIRCUIT:
        (index,) = r.unpack("<I", "circuit index")
        try:
            return LoadCircuit(index, machine_from_bytes(payload[r.pos :]))
        except DecodeError as exc:  # image offset -> frame offset
            raise DecodeError(exc.detail, r.base + r.pos + exc.offset) from None
    if mtype is MsgType.LOAD_PARAMS:
        index, n_banks = r.unpack("<IH", "parameter header")
        words = tuple(r.words(f"bank {b}") for b in range(n_banks))
        if r.pos != len(payload):
            raise DecodeError("trailing bytes after parameter payload", r.base + r.pos)
        return LoadParams(index, words)
    if mtype is MsgType.LOAD_DEFS:
        (env_len,) = r.unpack("<I", "envelope length")
        pairs = np.frombuffer(r.take(16 * env_len, "envelope table"), dtype="<f8")
        env = pairs[0::2] + 1j * pairs[1::2]
        (freq_len,) = r.unpack("<I", "frequency length")
        frq = np.frombuffer(r.take(8 * freq_len, "frequency table"), dtype="<f8").copy()
        return LoadDefs(env.copy(), frq)
    if mtype is MsgType.RUN:
        (shots,) = r.unpack("<I", "shot count")
        return Run(shots)
    if mtype is MsgType.GET_DATA:
        return GetData()
    if mtype is MsgType.DATA:
        (k,) = r.unpack("<H", "measured-qubit count")
        qubits = r.unpack(f"<{k}H", "measured qubits") if k else ()
        (shots,) = r.unpack("<I", "shot count")
        raw = r.take(shots * k, "bit matrix")
        bits = np.frombuffer(raw, dtype=np.uint8).reshape(shots, k).copy()
        return Data(ShotData(tuple(int(q) for q in qubits), bits))
    if mtype is MsgType.ACK:
        return Ack()
    if mtype is MsgType.ERROR:
        code, msg_len = r.unpack("<HI", "error header")
        msg_off = r.base + r.pos
        raw = r.take(msg_len, "error message")
        try:
            return ErrorMsg(code, raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise DecodeError(f"error message is not UTF-8: {exc.reason}", msg_off) from None
    raise DecodeError(f"unhandled message type {mtype}", 4)


class ControlServer:
    """Dispatches decoded frames onto a control session."""

    def __init__(self, session: ControlSession):
        self.session = session

    def handle_frame(self, frame: bytes) -> bytes:
        try:
            return rpc_encode(self._dispatch(rpc_decode(frame)))
        except PceError as exc:
            return rpc_encode(ErrorMsg(fault_code(exc), str(exc)))

    def _dispatch(self, msg):
        s = self.session
        if isinstance(msg, LoadCircuit):
            s.handle_load_circuit(msg.index, msg.program)
            return Ack()
        if isinstance(msg, LoadParams):
            s.handle_load_params(msg.index, msg.words)
            return Ack()
        if isinstance(msg, LoadDefs):
            s.handle_load_defs(msg.envelope, msg.freq)
            return Ack()
        if isinstance(msg, Run):
            s.handle_run(msg.shots)
            return Ack()
        if isinstance(msg, GetData):
            return Data(s.handle_get_data())
        raise ValidationError(f"server cannot handle {type(msg).__name__}")

    def serve_socket(self, conn: socket.socket) -> None:
        """Serve one connection until EOF; one in-flight request at a time.

        A declared frame length outside ``[2, MAX_FRAME_BYTES]`` gets one ERROR
        reply and ends the session, and so does a fault outside the ``PceError``
        taxonomy (generic code, so the thread never dies with a traceback); a
        peer that closes mid-frame ends it quietly.  The caller owns and closes
        ``conn``.
        """
        while True:
            try:
                header = _read_exact(conn, 4)
                if header is None:
                    return
                try:
                    length = _check_length(header)
                except DecodeError as exc:
                    conn.sendall(rpc_encode(ErrorMsg(_ERR_DECODE, str(exc))))
                    return
                body = _read_exact(conn, length)
                if body is None:
                    return
                conn.sendall(self.handle_frame(header + body))
            except (OSError, DecodeError):
                return  # peer tore the connection down or closed mid-frame
            except Exception as exc:
                with contextlib.suppress(OSError):
                    conn.sendall(rpc_encode(ErrorMsg(_ERR_GENERIC, f"server fault: {exc!r}")))
                return


def _read_exact(conn: socket.socket, n: int) -> bytes | None:
    buf = bytearray()
    while len(buf) < n:
        chunk = conn.recv(n - len(buf))
        if not chunk:
            if buf:
                raise DecodeError(f"connection closed mid-frame after {len(buf)} bytes", len(buf))
            return None
        buf += chunk
    return bytes(buf)


class LoopbackChannel:
    """Default in-process byte channel; frames are still fully encoded/decoded."""

    def __init__(self, server: ControlServer):
        self.server = server
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames = 0
        self.transfer_ns = 0

    def call(self, frame: bytes) -> bytes:
        t0 = time.perf_counter_ns()
        wire = bytes(frame)  # the loopback "wire" is one buffer copy each way
        self.transfer_ns += time.perf_counter_ns() - t0
        resp = self.server.handle_frame(wire)
        t0 = time.perf_counter_ns()
        resp = bytes(resp)
        self.transfer_ns += time.perf_counter_ns() - t0
        self.bytes_sent += len(frame)
        self.bytes_received += len(resp)
        self.frames += 1
        return resp

    def close(self) -> None:
        pass


class SocketChannel:
    """Client side of the local stream-socket transport."""

    def __init__(self, conn: socket.socket, server_thread: threading.Thread | None = None):
        self.conn = conn
        self.server_thread = server_thread
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames = 0
        self.transfer_ns = 0

    @classmethod
    def serving(cls, session: ControlSession) -> SocketChannel:
        """A channel to ``session`` over a connected unix socket pair.

        A daemon thread serves the far end until the channel closes (or the
        server stops on a fault) and then closes that end; ``close`` joins it.
        """
        conn, far = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
        server = ControlServer(session)

        def serve():
            with far:
                server.serve_socket(far)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return cls(conn, thread)

    def call(self, frame: bytes) -> bytes:
        t0 = time.perf_counter_ns()
        self.conn.sendall(frame)
        header = self._read(4)
        length = _check_length(header)
        body = self._read(length)
        self.transfer_ns += time.perf_counter_ns() - t0
        self.bytes_sent += len(frame)
        self.bytes_received += 4 + len(body)
        self.frames += 1
        return header + body

    def _read(self, n: int) -> bytes:
        out = _read_exact(self.conn, n)
        if out is None:
            raise DecodeError("server closed the connection", 0)
        return out

    def close(self) -> None:
        self.conn.close()
        if self.server_thread is not None:
            self.server_thread.join(timeout=5)


class DeftClient:
    """Host-facing handle issuing one lock-step RPC at a time."""

    def __init__(self, channel):
        self.channel = channel

    def _rpc(self, msg, expect):
        resp = rpc_decode(self.channel.call(rpc_encode(msg)))
        if isinstance(resp, ErrorMsg):
            raise RemoteError(resp.code, resp.message)
        if not isinstance(resp, expect):
            raise DecodeError(f"expected {expect.__name__}, got {type(resp).__name__}", 0)
        return resp

    def load_circuit(self, index: int, program: MachineProgram) -> None:
        self._rpc(LoadCircuit(index, program), Ack)

    def load_params(self, index: int, words) -> None:
        self._rpc(LoadParams(index, tuple(words)), Ack)

    def load_defs(self, envelope, freq) -> None:
        self._rpc(LoadDefs(envelope, freq), Ack)

    def run(self, shots: int) -> None:
        self._rpc(Run(shots), Ack)

    def get_data(self) -> ShotData:
        return self._rpc(GetData(), Data).data
