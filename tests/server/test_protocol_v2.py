"""Protocol v2: negotiation, framing equivalence, pipelining, routing.

The acceptance bar for the binary framing is *byte-identical*
predictions: the same event stream, pushed over length-prefixed JSON,
over binary frames, and over the pipelined binary path, must produce
exactly the predictions the in-process oracle produces.
"""

from __future__ import annotations

import socket
import struct
import threading

import pytest

from repro.core.oracle import Pythia
from repro.experiments.harness import mpi_record_run
from repro.server import OracleServer, PythiaClient, TraceStore
from repro.server.client import OracleServiceError
from repro.server.daemon import OracleServer as _Server
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.obs.metrics import LATENCY_BUCKETS_S
from repro.server.protocol import (
    BIN_OPS,
    BIN_REQ,
    F_UNKNOWN_EVENT,
    OP_OBSERVE_PREDICT,
    OP_REPLY_ERROR,
    decode_bin_error,
    encode_bin_frame,
    encode_json_body,
    encode_json_frame,
    read_frame,
    read_frame_any,
    write_frame,
)
from repro.server.supervisor import OracleSupervisor


@pytest.fixture(scope="session")
def npb_trace(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("npb-v2") / "bt.pythia")
    mpi_record_run("bt", "small", path, ranks=2, seed=0, timestamps=True)
    return path


def event_stream(trace_path: str, thread: int = 0, limit: int = 300):
    trace = Pythia(trace_path, mode="predict").reference
    registry = trace.registry
    return [
        (registry.event(t).name, registry.event(t).payload)
        for t in trace.threads[thread].grammar.unfold()
    ][:limit]


@pytest.fixture
def server(eventloop, tmp_path):
    sock = str(tmp_path / "oracle.sock")
    with OracleServer(sock, store=TraceStore(capacity=4)) as srv:
        yield srv


def predictions(client_or_oracle, events, *, with_time=True):
    """The full (matched, prediction) stream one consumer produces."""
    out = []
    for name, payload in events:
        out.append(
            client_or_oracle.event_and_predict(name, payload, with_time=with_time)
        )
    return out


class TestHelloNegotiation:
    def test_auto_client_negotiates_binary(self, npb_trace, server):
        with PythiaClient(npb_trace, socket=server.socket_path) as client:
            client.event("warmup")
            assert client._proto_state == "binary"

    def test_json_client_never_negotiates(self, npb_trace, server):
        with PythiaClient(
            npb_trace, socket=server.socket_path, protocol="json"
        ) as client:
            client.event("warmup")
            assert client._proto_state == "json"

    def test_hello_reply_advertises_v2(self, npb_trace, server):
        conn = socket.socket(socket.AF_UNIX)
        conn.connect(server.socket_path)
        conn.settimeout(5.0)
        write_frame(conn, {"op": "hello", "proto": 2})
        reply = read_frame(conn)
        conn.close()
        assert reply["ok"] is True
        assert reply["binary"] is True and reply["pipeline"] is True

    def test_auto_client_pins_json_against_old_daemon(
        self, npb_trace, server, monkeypatch
    ):
        # an old daemon has no "hello" handler and answers unknown_op
        monkeypatch.delitem(_Server._HANDLERS, "hello")
        with PythiaClient(npb_trace, socket=server.socket_path) as client:
            matched = client.event("warmup")
            assert client._proto_state == "json"
            assert matched is False  # served fine, over JSON

    def test_binary_demand_fails_loud_against_old_daemon(
        self, npb_trace, server, monkeypatch
    ):
        monkeypatch.delitem(_Server._HANDLERS, "hello")
        client = PythiaClient(
            npb_trace, socket=server.socket_path, protocol="binary"
        )
        with pytest.raises(OracleServiceError) as err:
            client.event("warmup")
        assert err.value.code == "protocol"
        client.finish()

    def test_invalid_protocol_argument_rejected(self, npb_trace):
        with pytest.raises(ValueError):
            PythiaClient(npb_trace, socket="/tmp/nope.sock", protocol="carrier")


class TestFramingEquivalence:
    """Acceptance: prediction streams byte-identical across framings."""

    def test_json_binary_and_pipelined_match_in_process(
        self, npb_trace, server
    ):
        events = event_stream(npb_trace)
        local = predictions(Pythia(npb_trace, mode="predict"), events)

        json_client = PythiaClient(
            npb_trace, socket=server.socket_path, protocol="json"
        )
        over_json = predictions(json_client, events)

        bin_client = PythiaClient(
            npb_trace, socket=server.socket_path, protocol="binary"
        )
        over_binary = predictions(bin_client, events)

        pipe_client = PythiaClient(npb_trace, socket=server.socket_path)
        with pipe_client.pipeline(window=32) as pipe:
            for name, payload in events:
                pipe.submit(name, payload, with_time=True)
            pipelined = pipe.drain()

        for i, (lm, lp) in enumerate(local):
            for om, op_ in (over_json[i], over_binary[i], pipelined[i]):
                assert om == lm, i
                if lp is None:
                    assert op_ is None, i
                    continue
                # field-by-field, floats bit-for-bit
                assert op_.terminal == lp.terminal, i
                assert op_.probability == lp.probability, i
                assert op_.eta == lp.eta, i
                assert op_.distribution == lp.distribution, i
        for client in (json_client, bin_client, pipe_client):
            client.finish()

    def test_stats_agree_across_framings(self, npb_trace, server):
        events = event_stream(npb_trace, limit=120)
        local = Pythia(npb_trace, mode="predict")
        predictions(local, events)
        remote = PythiaClient(npb_trace, socket=server.socket_path)
        predictions(remote, events)
        assert remote.stats() == local.stats()
        remote.finish()

    def test_unknown_event_equivalent(self, npb_trace, server):
        events = event_stream(npb_trace, limit=40)
        local = Pythia(npb_trace, mode="predict")
        remote = PythiaClient(npb_trace, socket=server.socket_path)
        for i, (name, payload) in enumerate(events):
            if i % 7 == 3:  # splice in events absent from the registry
                lr = local.event_and_predict(f"not_recorded_{i}", None)
                rr = remote.event_and_predict(f"not_recorded_{i}", None)
                assert lr == rr
            lr = local.event_and_predict(name, payload)
            rr = remote.event_and_predict(name, payload)
            assert lr[0] == rr[0]
        assert remote.stats() == local.stats()
        remote.finish()


class TestErrorParity:
    """The same bad hot request gets the same answer and the same
    accounting in either framing: one request path serves both."""

    OPCODES = {op: code for code, op in BIN_OPS.items()}
    CASES = [
        ("observe", "unknown_session"),
        ("observe_predict", "unknown_session"),
        ("predict", "unknown_session"),
        ("observe_predict", "distance_0"),
        ("predict", "distance_0"),
        ("observe", "unknown_event"),
        ("observe_predict", "unknown_event"),
        ("observe", "terminal_outside_registry"),
        ("observe_predict", "terminal_outside_registry"),
    ]

    @staticmethod
    def _json(op, case, opened, name, payload):
        request = {"op": op, "session": opened["session"]}
        if op != "predict":
            request.update(name=name, payload=payload)
        if case == "unknown_session":
            request["session"] = "s999"
        elif case == "distance_0":
            request["distance"] = 0
        elif case == "unknown_event":
            request["name"] = "never_recorded"
        else:  # the pre-resolved spelling, as a binary frame carries it
            del request["name"], request["payload"]
            request["terminal"] = 10**6
        return encode_json_frame(request)

    @classmethod
    def _binary(cls, op, case, opened):
        snum, terminal, distance, flags = opened["snum"], 0, 1, 0
        if case == "unknown_session":
            snum = 999
        elif case == "distance_0":
            distance = 0
        elif case == "unknown_event":
            flags = F_UNKNOWN_EVENT
        else:
            terminal = 10**6
        return encode_bin_frame(cls.OPCODES[op], flags, BIN_REQ.pack(snum, terminal, distance))

    @pytest.mark.parametrize("op,case", CASES)
    def test_same_error_and_accounting_both_ways(self, npb_trace, server, op, case):
        first = Pythia(npb_trace, mode="predict").reference.registry.event(0)
        outcomes = {}
        for proto in ("json", "binary"):
            conn = socket.socket(socket.AF_UNIX)
            conn.settimeout(5.0)
            conn.connect(server.socket_path)
            try:
                write_frame(conn, {"op": "open_session", "trace": npb_trace})
                opened = read_frame(conn)
                frame = (
                    self._json(op, case, opened, first.name, first.payload)
                    if proto == "json" else self._binary(op, case, opened)
                )
                # the {op,proto} histogram lives in the process registry
                hist = obs_metrics.get_registry().histogram(
                    "pythia_server_request_seconds", {"op": op, "proto": proto},
                    buckets=LATENCY_BUCKETS_S,
                )
                count0 = hist.snapshot()["count"]
                failed0 = server.counters["requests_failed"]
                with obs_spans.span_recording() as rec:
                    conn.sendall(frame)
                    reply = read_frame_any(conn)
                response = (
                    reply[1] if reply[0] == "json"
                    else PythiaClient._bin_decode_reply(reply)
                )
                outcomes[proto] = (
                    response["ok"], response.get("code"),
                    server.counters["requests_failed"] - failed0,
                )
                assert hist.snapshot()["count"] == count0 + 1
                spans = [sp for sp in rec.spans() if sp.name == f"server.{op}"]
                assert [sp.attrs["proto"] for sp in spans] == [proto]
            finally:
                conn.close()
        assert outcomes["json"] == outcomes["binary"], outcomes
        ok, code, failed = outcomes["json"]
        assert (ok, failed) == ((True, 0) if case == "unknown_event" else (False, 1))


class TestPipeline:
    def test_results_in_submit_order(self, npb_trace, server):
        events = event_stream(npb_trace, limit=64)
        with PythiaClient(npb_trace, socket=server.socket_path) as client:
            with client.pipeline(window=8) as pipe:
                indexes = [pipe.submit(n, p) for n, p in events]
                results = pipe.drain()
        assert indexes == list(range(len(events)))
        assert len(results) == len(events)

    def test_daemon_side_error_is_positional_not_fatal(
        self, npb_trace, server
    ):
        events = event_stream(npb_trace, limit=10)
        with PythiaClient(npb_trace, socket=server.socket_path) as client:
            with client.pipeline(window=4) as pipe:
                for i, (n, p) in enumerate(events):
                    # distance=0 is a bad_request the daemon refuses
                    # per-op; the stream keeps going
                    pipe.submit(n, p, distance=0 if i == 3 else 1)
                results = pipe.drain()
        assert isinstance(results[3], OracleServiceError)
        assert results[3].code == "bad_request"
        for i, r in enumerate(results):
            if i != 3:
                assert isinstance(r, tuple), (i, r)

    def test_window_flushes_do_not_reorder(self, npb_trace, server):
        events = event_stream(npb_trace, limit=100)
        local = predictions(Pythia(npb_trace, mode="predict"), events,
                            with_time=False)
        with PythiaClient(npb_trace, socket=server.socket_path) as client:
            with client.pipeline(window=3) as pipe:  # many tiny windows
                for n, p in events:
                    pipe.submit(n, p)
                results = pipe.drain()
        assert [m for m, _ in results] == [m for m, _ in local]

    def test_degraded_client_serves_pipeline_inline(self, npb_trace, tmp_path):
        client = PythiaClient(
            npb_trace, socket=str(tmp_path / "never-listening.sock"),
        )
        with client.pipeline(window=8) as pipe:
            for n, p in event_stream(npb_trace, limit=20):
                pipe.submit(n, p)
            results = pipe.drain()
        assert client.degraded
        assert len(results) == 20
        local = predictions(Pythia(npb_trace, mode="predict"),
                            event_stream(npb_trace, limit=20),
                            with_time=False)
        assert [m for m, _ in results] == [m for m, _ in local]
        client.finish()


class TestSupervisorPeekBothFramings:
    """The MSG_PEEK router must classify both framings without
    consuming bytes (unit-level: no workers spawned)."""

    @pytest.fixture
    def router(self):
        sup = OracleSupervisor.__new__(OracleSupervisor)
        sup.peek_deadline = 2.0
        return sup

    @pytest.fixture
    def pair(self):
        a, b = socket.socketpair()
        yield a, b
        a.close()
        b.close()

    def test_json_frame_peeked(self, router, pair):
        a, b = pair
        request = {"op": "stats"}
        a.sendall(encode_json_frame(request))
        assert router._peek_first_frame(b) == request
        # nothing consumed: the worker re-reads from the pristine start
        b.settimeout(1.0)
        assert read_frame(b) == request

    def test_opcode_zero_gets_unknown_op(self, router, pair, tmp_path):
        """Opcode 0x00 is not a request: even with a JSON body the router
        reads no session id from it, and a daemon answers ``unknown_op``
        like any other unknown opcode, keeping the connection."""
        a, b = pair
        request = {"op": "observe", "session": "s1", "ctx": {"sid": "c1", "rid": 9}}
        frame = encode_bin_frame(0x00, 0, encode_json_body(request))
        a.sendall(frame)
        assert router._peek_first_frame(b) is None
        sockp = str(tmp_path / "oracle.sock")
        with OracleServer(sockp, store=TraceStore(capacity=1)), \
                socket.socket(socket.AF_UNIX) as conn:
            conn.settimeout(5.0)
            conn.connect(sockp)
            conn.sendall(frame)
            _kind, opcode, _flags, body = read_frame_any(conn)
            assert opcode == OP_REPLY_ERROR
            assert decode_bin_error(body)[0] == "unknown_op"
            write_frame(conn, {"op": "ping"})
            assert read_frame(conn)["ok"] is True

    def test_too_deeply_nested_frame_routes_blind(self, router, pair):
        a, b = pair
        body = b"[" * 5000 + b"]" * 5000
        a.sendall(struct.pack(">I", len(body)) + body)
        assert router._peek_first_frame(b) is None

    def test_bare_binary_frame_routes_blind(self, router, pair):
        a, b = pair
        a.sendall(encode_bin_frame(OP_OBSERVE_PREDICT, 0, BIN_REQ.pack(1, 2, 1)))
        assert router._peek_first_frame(b) is None
        # the frame itself is untouched for the worker
        b.settimeout(1.0)
        assert b.recv(16, socket.MSG_PEEK)[0] == 0xA7


class TestMultiWorkerBinary:
    """End-to-end: a binary-negotiating client through the supervisor."""

    def test_pipelined_binary_through_supervisor(self, npb_trace, tmp_path):
        sockp = str(tmp_path / "sup.sock")
        sup = OracleSupervisor(sockp, workers=2)
        sup.start()
        try:
            events = event_stream(npb_trace, limit=150)
            local = predictions(Pythia(npb_trace, mode="predict"), events)
            client = PythiaClient(npb_trace, socket=sockp)
            with client.pipeline(window=16) as pipe:
                for n, p in events:
                    pipe.submit(n, p, with_time=True)
                results = pipe.drain()
            assert client._proto_state == "binary"
            for i, (lm, lp) in enumerate(local):
                rm, rp = results[i]
                assert rm == lm, i
                if lp is None:
                    assert rp is None, i
                else:
                    assert (rp.terminal, rp.probability, rp.eta) == (
                        lp.terminal, lp.probability, lp.eta
                    ), i
            client.finish()
        finally:
            sup.stop()
