"""A real ``repro serve`` daemon and the closed-loop HTTP client.

:class:`Children` owns every process the benchmark starts and stops
them all on the way out, whatever the way out is (normal return, the
run's watchdog, SIGTERM).  Each child also asks the kernel to send it
SIGTERM if the benchmark itself dies without cleaning up.

The client is ``http.client`` — what a Python user of the service would
use — driven in a closed loop: each connection sends its next request
only after the previous answer arrived.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import measure

HOST = "127.0.0.1"
_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")
_PR_SET_PDEATHSIG = 1

try:  # loaded up front: the child must not import between fork and exec
    import ctypes

    _prctl = ctypes.CDLL(None, use_errno=True).prctl
except (OSError, AttributeError):
    _prctl = None


def _die_with_parent() -> None:
    """Runs in the child between fork and exec: ask the kernel for
    SIGTERM should the benchmark die without stopping its children."""
    if _prctl is not None:
        _prctl(_PR_SET_PDEATHSIG, int(signal.SIGTERM))


class Children:
    """Every child process of one benchmark run."""

    def __init__(self) -> None:
        self._procs: List[subprocess.Popen] = []

    def spawn(self, argv: Sequence[str], **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(
            list(argv), preexec_fn=_die_with_parent, **kwargs
        )
        self._procs.append(proc)
        return proc

    @staticmethod
    def stop(proc: subprocess.Popen) -> None:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5)

    def stop_all(self) -> None:
        for proc in self._procs:
            self.stop(proc)
        self._procs.clear()


def repro_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


class Daemon:
    """One ``python -m repro serve`` process on an ephemeral port."""

    def __init__(self, children: Children, root: str, flags: Sequence[str]):
        self.children = children
        self.root = root
        self.flags = list(flags)
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.spawned_at = 0.0
        self.tracebacks = 0
        self._port_ready = threading.Event()
        self._drain: Optional[threading.Thread] = None

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def start(self, timeout: float = 60.0) -> None:
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        self.spawned_at = time.perf_counter()
        self.proc = self.children.spawn(
            argv + self.flags,
            cwd=self.root,
            env=repro_env(self.root),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()
        if not self._port_ready.wait(timeout):
            raise RuntimeError("repro serve did not start listening")
        if self.port is None:
            raise RuntimeError("repro serve exited during start-up")

    def _read_stderr(self) -> None:
        assert self.proc is not None and self.proc.stderr is not None
        for line in self.proc.stderr:
            if self.port is None:
                match = _LISTENING.search(line)
                if match:
                    self.port = int(match.group(1))
                    self._port_ready.set()
            elif line.startswith("Traceback"):
                self.tracebacks += 1
        self._port_ready.set()

    def stop(self) -> None:
        if self.proc is not None:
            Children.stop(self.proc)
            if self._drain is not None:
                self._drain.join(timeout=5)

    # -- scraping -------------------------------------------------------

    def get(self, path: str) -> str:
        conn = http.client.HTTPConnection(HOST, self.port, timeout=30)
        try:
            conn.request("GET", path)
            return conn.getresponse().read().decode("utf-8")
        finally:
            conn.close()

    def scrape(self) -> "Scrape":
        return Scrape(
            parse_exposition(self.get("/metrics")),
            json.loads(self.get("/healthz")),
        )


# -- Prometheus text exposition -------------------------------------------

_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")
_LABEL = re.compile(r'(\w+)="([^"]*)"')


def parse_exposition(text: str) -> Dict[Tuple[str, Tuple], float]:
    """``{(name, ((label, value), ...)): sample}`` for every sample."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            continue
        labels = tuple(sorted(_LABEL.findall(match.group(2) or "")))
        samples[(match.group(1), labels)] = float(match.group(3))
    return samples


@dataclass
class Scrape:
    metrics: Dict[Tuple[str, Tuple], float]
    health: dict


# -- the client -----------------------------------------------------------

_HEADERS = {"Content-Type": "application/json"}
_DROPPED = (http.client.HTTPException, ConnectionError, socket.timeout)


@dataclass
class Record:
    """One request as the client saw it."""

    index: int  # into the pool
    start: float
    end: float
    status: Optional[int]  # None: connection dropped
    raw: Optional[bytes]
    traced: bool = False
    connect: Optional[float] = None  # seconds, traced fresh connections
    probe: Optional[float] = None  # seconds, host-speed probe just before


class Client:
    """One closed-loop connection (keep-alive or fresh per request)."""

    def __init__(self, port: int, keepalive: bool) -> None:
        self.port = port
        self.keepalive = keepalive
        self._conn: Optional[http.client.HTTPConnection] = None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def send(
        self, index: int, body: bytes, traced: bool = False,
        probe: bool = False,
    ) -> Record:
        """One request; with ``probe``, time the host-speed probe
        first, outside the request's own time."""
        probe_s = measure.probe_seconds() if probe else None
        start = time.perf_counter()
        connect = None
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(HOST, self.port, timeout=60)
                self._conn.connect()
                if traced:
                    connect = time.perf_counter() - start
            self._conn.request("POST", "/eval", body, _HEADERS)
            resp = self._conn.getresponse()
            raw = resp.read()
            status: Optional[int] = resp.status
            if not self.keepalive or resp.will_close:
                self.close()
        except _DROPPED:
            self.close()
            status, raw = None, None
        return Record(
            index, start, time.perf_counter(), status, raw, traced, connect,
            probe_s,
        )


def closed_loop(
    ports: Sequence[int],
    bodies: Sequence[bytes],
    connections: int,
    keepalive: bool,
    seconds: Optional[float] = None,
    per_connection: Optional[int] = None,
    slice_s: float = 1.0,
    offset: int = 0,
    probe: bool = False,
) -> Tuple[List[Record], float, float]:
    """Drive ``connections`` closed loops for ``seconds``, or for
    ``per_connection`` requests each.

    Connection ``c`` walks the pool from ``offset + c * len/connections``.
    With two ports (an untraced and a traced daemon), the run alternates
    between them in slices of ``slice_s`` seconds, so both see the same
    host states; each daemon gets its own walk of the pool, so each sees
    the workload's cache behaviour.  Requests to the second port are
    marked ``traced``.  With ``probe``, each request is preceded by a
    host-speed probe (see :meth:`Client.send`).
    Returns the records, the phase start and the last answer's time."""
    records: List[List[Record]] = [[] for _ in range(connections)]
    started = time.perf_counter()
    stop_at = started + seconds if seconds is not None else None
    errors: List[BaseException] = []

    def worker(c: int) -> None:
        clients = [Client(port, keepalive) for port in ports]
        cursors = [offset + c * len(bodies) // connections] * len(ports)
        mine = records[c]
        try:
            while True:
                now = time.perf_counter()
                if stop_at is not None and now >= stop_at:
                    break
                if per_connection is not None and len(mine) >= per_connection:
                    break
                side = int((now - started) / slice_s) % len(ports)
                index = cursors[side] % len(bodies)
                mine.append(
                    clients[side].send(index, bodies[index], side == 1, probe)
                )
                cursors[side] += 1
        except BaseException as err:  # surfaced to the caller below
            errors.append(err)
        finally:
            for client in clients:
                client.close()

    threads = [
        threading.Thread(target=worker, args=(c,), daemon=True)
        for c in range(connections)
    ]
    for t in threads:
        t.start()
    for t in threads:
        while t.is_alive():
            t.join(timeout=0.5)
    if errors:
        raise errors[0]
    flat = sorted((r for rs in records for r in rs), key=lambda r: r.start)
    last = max((r.end for r in flat), default=started)
    return flat, started, last


def read_trace_log(path: str) -> Dict[str, dict]:
    """``trace_id -> root span`` from a daemon's ``--trace-log`` JSONL."""
    traces = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record.get("event") == "trace":
                traces[record["trace_id"]] = record["spans"]
    return traces


def span_seconds(root: dict, name: str) -> List[float]:
    """Durations of every span called ``name`` in one span tree."""
    found, stack = [], [root]
    while stack:
        span = stack.pop()
        if span["name"] == name:
            found.append(span["duration_seconds"])
        stack.extend(span.get("children", ()))
    return found


def connect_probe_ms(port: int, count: int = 20) -> List[float]:
    """Fresh TCP connects to the daemon, each timed, then closed."""
    out = []
    for _ in range(count):
        started = time.perf_counter()
        sock = socket.create_connection((HOST, port), timeout=30)
        out.append((time.perf_counter() - started) * 1000.0)
        sock.close()
    return out


def decode(record: Record) -> Optional[dict]:
    if record.raw is None:
        return None
    try:
        return json.loads(record.raw)
    except ValueError:
        return {"status": "unparseable"}
