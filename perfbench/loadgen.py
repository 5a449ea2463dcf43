"""Open-loop HTTP load generator for the serve-http workload.

Request ``i`` is due at ``t0 + i / rate``. Two sender threads, each with
its own keep-alive connection, take requests in order, sleep until each
is due and send it; a request both threads are too busy to send on time
goes out late, and that lateness is part of its latency, which is timed
from the due time. Responses are kept as bytes and parsed after the run.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
from dataclasses import dataclass

#: Sender threads and connections: one per core of the machine measured.
SENDERS = 2
START_DELAY_S = 0.05


@dataclass
class Result:
    rid: int
    due: float
    sent: float
    done: float
    status: int
    body: bytes

    def labels(self):
        if self.status != 200:
            return None
        return json.loads(self.body.decode("utf-8")).get("labels")


def _connect(server) -> http.client.HTTPConnection:
    return http.client.HTTPConnection(server.host, server.port, timeout=60)


def post(server, path: str, body: bytes) -> "tuple[int, bytes]":
    conn = _connect(server)
    try:
        conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def batcher_stats(server) -> dict:
    conn = _connect(server)
    try:
        conn.request("GET", "/info")
        response = conn.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()
    return payload["server"]["batcher"]


def run(server, bodies, rate: float, *, recorder=None, rid_offset: int = 0):
    """Send ``bodies`` at ``rate`` per second; one :class:`Result` each.

    With a ``recorder``, each request becomes a ``request`` root span
    starting at its due time, with a ``load.lag`` child (due to sent) and
    a ``serve.http`` child (sent to answered) carrying the request id the
    server side is linked by.
    """
    n = len(bodies)
    results: "list[Result | None]" = [None] * n
    lock = threading.Lock()
    cursor = [0]
    t0 = time.perf_counter() + START_DELAY_S
    senders = min(SENDERS, os.cpu_count() or 1)

    def sender():
        conn = _connect(server)
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= n:
                    return
                rid = rid_offset + i
                due = t0 + i / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                if recorder is not None:
                    root = recorder.open("request", start=due)
                    lag = recorder.open("load.lag", "load", start=due)
                    recorder.close(lag)
                    http_span = recorder.open("serve.http", "serve")
                    http_span.attrs["rid"] = str(rid)
                    sent = http_span.start
                else:
                    sent = time.perf_counter()
                try:
                    conn.request(
                        "POST",
                        f"/predict?rid={rid}",
                        body=bodies[i],
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    status, body = response.status, response.read()
                except (OSError, http.client.HTTPException) as exc:
                    status, body = 0, repr(exc).encode()
                    conn.close()
                    conn = _connect(server)
                done = time.perf_counter()
                if recorder is not None:
                    recorder.close(http_span, end=done)
                    recorder.close(root, end=done)
                results[i] = Result(rid, due, sent, done, status, body)
        finally:
            conn.close()

    threads = [
        threading.Thread(target=sender, name=f"loadgen-{k}", daemon=True)
        for k in range(senders)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results
