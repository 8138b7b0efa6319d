"""Open-loop load over the sweep server's NDJSON protocol.

Requests go out on a fixed schedule whatever the server does: a sender
thread writes each line at its due time, pipelined on one connection,
and a reader thread takes the answers off in order (the server answers
one connection's requests in order).  Latency is measured from the due
time, so a stall also counts against every request queued behind it;
lateness is how far the sender itself ran behind the schedule.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.serve.protocol import MAX_LINE_BYTES, encode

def submit_line(spec_doc: dict) -> bytes:
    return encode({"op": "submit", "spec": spec_doc, "wait": True,
                   "include_result": False})


@dataclass
class Stream:
    """One connection's schedule and what happened to it."""

    #: (offset from the load's start in seconds, request line, tag)
    schedule: Sequence[Tuple[float, bytes, object]]
    sent: List[float] = field(default_factory=list)
    done: List[float] = field(default_factory=list)
    responses: List[Optional[dict]] = field(default_factory=list)
    error: Optional[str] = None

    def run(self, host: str, port: int, t0: float) -> List[threading.Thread]:
        """Start the sender and reader threads; join them to finish."""
        n = len(self.schedule)
        self.sent = [0.0] * n
        self.done = [0.0] * n
        self.responses = [None] * n
        sock = socket.create_connection((host, port), timeout=120)
        rfile = sock.makefile("rb")
        clock = time.perf_counter

        def send() -> None:
            try:
                for i, (offset, line, _) in enumerate(self.schedule):
                    delay = t0 + offset - clock()
                    if delay > 0:
                        time.sleep(delay)
                    sock.sendall(line)
                    self.sent[i] = clock()
            except OSError as exc:
                self.error = f"send: {exc}"

        def receive() -> None:
            try:
                for i in range(n):
                    line = rfile.readline(MAX_LINE_BYTES)
                    self.done[i] = clock()
                    if not line:
                        self.error = "server closed the connection"
                        return
                    self.responses[i] = json.loads(line)
            except (OSError, ValueError) as exc:
                self.error = f"receive: {exc}"
            finally:
                rfile.close()
                sock.close()

        threads = [threading.Thread(target=send), threading.Thread(target=receive)]
        for th in threads:
            th.start()
        return threads

    def latency(self, i: int, t0: float) -> float:
        """Seconds from request ``i``'s due time to its answer."""
        return self.done[i] - (t0 + self.schedule[i][0])

    def lateness(self, i: int, t0: float) -> float:
        return self.sent[i] - (t0 + self.schedule[i][0])


def run_streams(host: str, port: int, streams: Sequence[Stream], lead_s: float = 0.2) -> float:
    """Run every stream against one shared start time; returns it."""
    t0 = time.perf_counter() + lead_s
    threads = [th for s in streams for th in s.run(host, port, t0)]
    for th in threads:
        th.join(timeout=600)
    return t0
