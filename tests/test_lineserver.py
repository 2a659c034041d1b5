"""Framing and connection lifecycle of the line server, run against
both servers built on it: one daemon and a 2-shard fleet router.

The request-level protocol is covered per server in test_serve.py and
test_fleet.py; this file pins what the shared line server owns — the
line-length limit, the connection counters, and the drain after a
client vanished.
"""

import time

import pytest

from repro.serve import (
    DaemonThread,
    FleetConfig,
    FleetThread,
    ServeClient,
    ServeConfig,
    protocol,
)


@pytest.fixture(params=["daemon", "router"])
def server(request):
    config = ServeConfig(max_batch=8, max_delay=0.01)
    if request.param == "daemon":
        handle = DaemonThread(config)
    else:
        handle = FleetThread(FleetConfig(shards=2, shard=config))
    with handle:
        yield handle


def counter(server, name):
    """One of the front end's request counters (the router nests its
    own under ``router``)."""
    with ServeClient(server.address) as probe:
        snapshot = probe.stats()
    return snapshot.get("router", snapshot)["requests"][name]


class TestLineServer:
    def test_oversized_line_answers_once_then_hangs_up(self, server):
        before = counter(server, "protocol_errors")
        with ServeClient(server.address) as client:
            # one byte past the limit, no newline: the whole line is
            # read before the limit trips, so the hang-up is a clean EOF
            client.send_raw(b"x" * (protocol.MAX_LINE_BYTES + 1))
            response = client.recv()
            assert response["id"] is None and not response["ok"]
            assert response["error"]["code"] == "oversized"
            assert client._rfile.readline() == b""
        assert counter(server, "protocol_errors") == before + 1
        with ServeClient(server.address) as fresh:
            assert fresh.ping()["ok"]
            name, source = "after", "u64 after(u8* ctx) { return 3; }"
            answer = fresh.request(
                {"op": "compile", "name": name, "source": source,
                 "entry": name, "prog_type": "tracepoint",
                 "ctx_size": 64}, check=True)
            assert answer["result"]["name"] == name

    def test_client_gone_before_reading_then_drain(self, server):
        before = counter(server, "disconnects")
        client = ServeClient(server.address)
        for i in range(4):
            name = f"gone{i}"
            client.send({"op": "compile", "name": name,
                         "source": f"u64 {name}(u8* ctx) "
                                   f"{{ return {i} + 5; }}",
                         "entry": name, "prog_type": "tracepoint",
                         "ctx_size": 64})
        client.close()
        deadline = time.monotonic() + 30
        while counter(server, "disconnects") == before:
            assert time.monotonic() < deadline, "disconnect not counted"
            time.sleep(0.05)
        assert counter(server, "disconnects") == before + 1
        server.stop(drain=True)
        assert server.join(timeout=0)
