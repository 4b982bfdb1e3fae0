"""Tests for frame encoding, both channel transports, and server dispatch."""

import socket
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pce.asm import MachineProgram, Opcode
from pce.control import ControlSession, ShotData
from pce.errors import DecodeError, EncodeError, PceError
from pce.rpc import (
    MAX_FRAME_BYTES,
    Ack,
    ControlServer,
    Data,
    DeftClient,
    ErrorMsg,
    GetData,
    LoadCircuit,
    LoadDefs,
    LoadParams,
    LoopbackChannel,
    RemoteError,
    Run,
    SocketChannel,
    rpc_decode,
    rpc_encode,
)
from tests.test_asm import word


def small_program(n_qubits=2, shots=3):
    words = [word(Opcode.PULSE_X90), word(Opcode.MEASURE), word(Opcode.END)]
    return MachineProgram(words, n_qubits, shots)


def random_message(rng):
    return message_of_kind(rng.integers(0, 7), rng)


def message_of_kind(k, rng):
    """A random message of kind k: the six request/data messages, then ERROR, then ACK."""
    if k == 0:
        return LoadCircuit(int(rng.integers(0, 1000)), small_program())
    if k == 1:
        words = tuple(
            rng.integers(0, 1 << 32, size=int(rng.integers(0, 6))).astype(np.uint32)
            for _ in range(int(rng.integers(0, 4)))
        )
        return LoadParams(int(rng.integers(0, 1000)), words)
    if k == 2:
        n = int(rng.integers(0, 8))
        return LoadDefs(
            rng.normal(size=n) + 1j * rng.normal(size=n), rng.normal(size=int(rng.integers(0, 5)))
        )
    if k == 3:
        return Run(int(rng.integers(1, 500)))
    if k == 4:
        return GetData()
    if k == 5:
        m = int(rng.integers(0, 4))
        shots = int(rng.integers(1, 6))
        qubits = tuple(sorted(rng.choice(8, size=m, replace=False).tolist()))
        bits = rng.integers(0, 2, size=(shots, m)).astype(np.uint8)
        return Data(ShotData(qubits, bits))
    if k == 6:
        return ErrorMsg(int(rng.integers(0, 10)), "boom " * int(rng.integers(0, 4)))
    return Ack()


@st.composite
def damaged_frames(draw):
    """An encoded frame of any of the eight kinds, truncated or with one bit flipped."""
    kind = draw(st.integers(0, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frame = bytearray(rpc_encode(message_of_kind(kind, rng)))
    if draw(st.booleans()):
        return bytes(frame[: draw(st.integers(0, len(frame) - 1))])
    frame[draw(st.integers(0, len(frame) - 1))] ^= 1 << draw(st.integers(0, 7))
    return bytes(frame)


class TestFraming:
    def test_get_data_is_six_bytes(self):
        frame = rpc_encode(GetData())
        assert len(frame) == 6
        length, mtype = struct.unpack("<IH", frame)
        assert length == 2

    def test_round_trip_all_types(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            msg = random_message(rng)
            frame = rpc_encode(msg)
            decoded, consumed = rpc_decode(frame)
            assert decoded == msg
            assert consumed == len(frame)

    def test_bank_count_over_u16_is_an_encode_error(self):
        msg = LoadParams(0, (np.zeros(70_000, dtype=np.uint32),))
        with pytest.raises(EncodeError, match="70000 words do not fit"):
            rpc_encode(msg)

    @pytest.mark.parametrize(
        "msg",
        [
            LoadParams(-1, ()),
            LoadParams(2**32, ()),
            LoadParams(0, (np.zeros(0, dtype=np.uint32),) * 70_000),
            LoadCircuit(-1, small_program()),
            Data(ShotData(tuple(range(70_000)), np.zeros((1, 70_000), dtype=np.uint8))),
            Data(ShotData((70_000,), np.zeros((1, 1), dtype=np.uint8))),
            ErrorMsg(-1, "boom"),
            Run(-1),
        ],
        ids=[
            "params-index-negative", "params-index-2^32", "params-70000-banks",
            "circuit-index-negative", "data-70000-qubits", "data-qubit-70000",
            "error-code-negative", "run-shots-negative",
        ],
    )
    def test_field_too_wide_is_an_encode_error_naming_the_message(self, msg):
        with pytest.raises(EncodeError, match=f"^{type(msg).__name__} does not fit its frame"):
            rpc_encode(msg)

    def test_widest_fields_still_round_trip(self):
        for msg in (
            LoadParams(2**32 - 1, (np.zeros(0, dtype=np.uint32),) * 3),
            LoadCircuit(2**32 - 1, small_program()),
            Data(ShotData((0, 65_535), np.ones((2, 2), dtype=np.uint8))),
            ErrorMsg(65_535, "boom"),
            Run(2**32 - 1),
        ):
            frame = rpc_encode(msg)
            assert rpc_decode(frame) == (msg, len(frame))

    def test_truncated_frame(self):
        frame = rpc_encode(Run(7))
        for cut in (1, 3, 5, len(frame) - 1):
            with pytest.raises(DecodeError):
                rpc_decode(frame[:cut])

    def test_length_exceeding_buffer(self):
        frame = bytearray(rpc_encode(Run(7)))
        frame[0:4] = struct.pack("<I", 1000)
        with pytest.raises(DecodeError):
            rpc_decode(bytes(frame))

    def test_unknown_type(self):
        frame = struct.pack("<IH", 2, 999)
        with pytest.raises(DecodeError):
            rpc_decode(frame)

    def test_absurd_length_rejected(self):
        frame = struct.pack("<IH", 1 << 30, 4)
        with pytest.raises(DecodeError):
            rpc_decode(frame)

    def test_non_utf8_error_message(self):
        raw = b"bo\xc0m"
        frame = struct.pack("<IHHI", 2 + 6 + len(raw), 8, 1, len(raw)) + raw
        with pytest.raises(DecodeError) as err:
            rpc_decode(frame)
        assert err.value.offset == 12  # the message follows the 6-byte error header

    def test_machine_fault_offset_is_a_frame_offset(self):
        frame = bytearray(rpc_encode(LoadCircuit(0, small_program(n_qubits=1))))
        word0 = 6 + 4 + 24  # frame header, circuit index, PCEM header
        frame[word0 + 6] = 5  # the channel byte of word 0; the program has 1 qubit
        with pytest.raises(DecodeError) as err:
            rpc_decode(bytes(frame))
        assert err.value.offset == 34
        assert "word 0" in str(err.value)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(damaged_frames())
    def test_damaged_frames_raise_only_typed_errors(self, frame):
        try:
            rpc_decode(frame)
        except DecodeError as exc:
            assert 0 <= exc.offset <= len(frame)
        except PceError:
            pass


class TestServerDispatch:
    def test_load_run_get_data_flow(self):
        session = ControlSession(seed=1)
        client = DeftClient(LoopbackChannel(ControlServer(session)))
        client.load_circuit(0, small_program())
        client.run(3)
        data = client.get_data()
        assert data.shots == 3
        assert list(session.results) == [0]

    def test_error_frame_raises_remote_error(self):
        session = ControlSession()
        client = DeftClient(LoopbackChannel(ControlServer(session)))
        with pytest.raises(RemoteError):
            client.run(5)  # no circuit loaded

    def test_malformed_frame_gets_error_reply(self):
        server = ControlServer(ControlSession())
        resp = server.handle_frame(struct.pack("<IH", 2, 999))
        msg, _ = rpc_decode(resp)
        assert isinstance(msg, ErrorMsg)


class TestSocketTransport:
    def test_socketpair_round_trip(self):
        channel = SocketChannel.serving(ControlSession(seed=2))
        client = DeftClient(channel)
        client.load_circuit(0, small_program())
        client.run(2)
        data = client.get_data()
        assert data.shots == 2
        assert channel.frames == 3
        assert channel.bytes_sent > 0 and channel.bytes_received > 0
        channel.close()
        assert not channel.server_thread.is_alive()

    def test_loopback_and_socket_give_identical_bytes(self):
        msgs = [LoadCircuit(4, small_program()), Run(2), GetData()]
        loop = LoopbackChannel(ControlServer(ControlSession(seed=3)))
        sock = SocketChannel.serving(ControlSession(seed=3))
        for msg in msgs:
            frame = rpc_encode(msg)
            assert loop.call(frame) == sock.call(frame)
        sock.close()


def read_to_eof(conn):
    out = b""
    while chunk := conn.recv(4096):
        out += chunk
    return out


class TestSocketPeerFaults:
    # every socket gets a timeout, so a transport that waits for a body the
    # peer never sends fails the test instead of hanging it

    @pytest.mark.parametrize("cut", [2, 5, 9])
    def test_peer_closing_mid_frame_ends_serving_quietly(self, cut):
        left, right = socket.socketpair()
        right.settimeout(2)
        left.sendall(rpc_encode(Run(3))[:cut])
        left.close()
        ControlServer(ControlSession()).serve_socket(right)  # returns, raises nothing
        right.close()

    @pytest.mark.parametrize("length", [0, 1, MAX_FRAME_BYTES + 1])
    def test_server_answers_bad_length_with_error_and_stops(self, length):
        left, right = socket.socketpair()
        left.settimeout(2)
        right.settimeout(2)
        left.sendall(struct.pack("<I", length))
        ControlServer(ControlSession()).serve_socket(right)
        right.close()
        reply = read_to_eof(left)
        left.close()
        msg, consumed = rpc_decode(reply)
        assert consumed == len(reply)
        assert isinstance(msg, ErrorMsg)
        assert msg.code == 7  # decode error

    @pytest.mark.parametrize("length", [0, 1, MAX_FRAME_BYTES + 1])
    def test_client_rejects_bad_reply_length(self, length):
        left, right = socket.socketpair()
        left.settimeout(2)
        right.sendall(struct.pack("<I", length))
        with pytest.raises(DecodeError):
            SocketChannel(left).call(rpc_encode(GetData()))
        left.close()
        right.close()
