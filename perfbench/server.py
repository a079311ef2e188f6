"""The server under test, started as a separate process, and a load client.

The client sends bodies the caller encoded beforehand, so JSON encoding
in the load generator is not part of any timed call, and it logs every
request's duration and body sizes.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

TERMINAL = {"done", "failed", "cancelled", "timed_out"}


@dataclass(frozen=True)
class Poll:
    """Status-poll schedule: ``first_s``, doubling up to ``cap_s``."""

    first_s: float = 0.002
    cap_s: float = 0.02

    def header(self) -> dict:
        return {"first_s": self.first_s, "growth": 2, "cap_s": self.cap_s}


@dataclass
class Request:
    """One HTTP exchange as the client saw it."""

    start_s: float
    end_s: float
    sent: int
    received: int


@dataclass
class JobOutcome:
    """A submit followed to its parsed result (or to its failure)."""

    start_s: float
    end_s: float
    ok: bool
    snapshot: dict = field(default_factory=dict)
    result: dict | None = None
    error: str | None = None
    submit_s: float = 0.0
    result_s: float = 0.0

    @property
    def latency_s(self) -> float:
        return self.end_s - self.start_s


class Client:
    """One keep-alive HTTP connection; not shared between threads."""

    def __init__(self, host: str, port: int, poll: Poll):
        self._conn = http.client.HTTPConnection(host, port, timeout=120)
        self.poll = poll
        self.log: list[Request] = []

    def close(self) -> None:
        self._conn.close()

    def call(self, method: str, path: str, body: bytes | None = None) -> tuple[int, dict]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        t0 = time.perf_counter()
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        data = response.read()
        payload = json.loads(data)
        self.log.append(
            Request(t0, time.perf_counter(), len(body) if body else 0, len(data))
        )
        return response.status, payload

    def job(self, body: bytes) -> JobOutcome:
        """POST /jobs, poll the snapshot until terminal, GET the result."""
        t0 = time.perf_counter()
        status, snap = self.call("POST", "/jobs", body)
        submit_s = time.perf_counter() - t0
        if status not in (200, 202):
            return JobOutcome(t0, time.perf_counter(), False, snap,
                              error=f"submit HTTP {status}: {snap.get('code')}")
        job_id = snap["job_id"]
        delay = self.poll.first_s
        while snap["state"] not in TERMINAL:
            time.sleep(delay)
            delay = min(self.poll.cap_s, delay * 2)
            status, snap = self.call("GET", f"/jobs/{job_id}")
        if snap["state"] != "done":
            return JobOutcome(t0, time.perf_counter(), False, snap,
                              error=f"job {snap['state']}: {snap.get('error')}")
        t1 = time.perf_counter()
        status, result = self.call("GET", f"/results/{job_id}")
        t2 = time.perf_counter()
        if status != 200:
            return JobOutcome(t0, t2, False, snap, error=f"result HTTP {status}")
        return JobOutcome(t0, t2, True, snap, result, submit_s=submit_s, result_s=t2 - t1)


def _read_line(fd: int, timeout_s: float) -> str:
    """One line from a pipe, or ``""`` once ``timeout_s`` passes."""
    deadline = time.monotonic() + timeout_s
    data = b""
    while not data.endswith(b"\n"):
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            return ""
        chunk = os.read(fd, 1)
        if not chunk:
            return ""
        data += chunk
    return data.decode("utf-8", "replace").strip()


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` host CPU ticks from ``/proc/stat``; steal is time
    the hypervisor gave this VM's CPUs to someone else."""
    with open("/proc/stat") as fh:
        ticks = [int(x) for x in fh.readline().split()[1:]]
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def _group_pids(pgid: int) -> list[int]:
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after its ")"
        state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            pids.append(int(name))
    return pids


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Server:
    """``repro serve`` in its own process group, bound to an ephemeral port.

    ``traced`` starts it through ``perfbench/traced_server.py`` instead of
    ``python -m repro``; the flags are the same.
    """

    def __init__(self, root: str, flags: list[str], traced: bool):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["PYTHONUNBUFFERED"] = "1"
        entry = (
            [os.path.join(root, "perfbench", "traced_server.py")]
            if traced
            else ["-m", "repro"]
        )
        self.launched_s = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *entry, "serve", *flags],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            start_new_session=True,
        )
        banner = _read_line(self.proc.stdout.fileno(), 60.0)
        url = next((tok for tok in banner.split() if tok.startswith("http://")), None)
        if url is None:
            self.stop()
            raise RuntimeError(f"server did not start (banner {banner!r})")
        host, port = url.removeprefix("http://").rstrip("/").rsplit(":", 1)
        self.host, self.port = host, int(port)

    def client(self, poll: Poll) -> Client:
        return Client(self.host, self.port, poll)

    def metrics(self) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request("GET", "/metrics")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def start_trace(self) -> None:
        self.proc.send_signal(signal.SIGUSR1)

    def dump_trace(self) -> dict:
        self.proc.send_signal(signal.SIGUSR2)
        line = _read_line(self.proc.stdout.fileno(), 30.0)
        if not line:
            raise RuntimeError("traced server returned no ledger")
        return json.loads(line)

    def cpu_s(self) -> float:
        """CPU seconds used so far by the server and its worker processes
        (reaped workers included).  Time the hypervisor gave to other
        tenants is not in it, unlike in wall time."""
        ticks = 0
        for pid in _group_pids(self.proc.pid):
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            # utime, stime, cutime, cstime
            ticks += sum(int(x) for x in fields[11:15])
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the server and every worker it spawned."""
        return sum(_peak_rss_kb(pid) for pid in _group_pids(self.proc.pid)) / 1024.0

    def stop(self) -> None:
        """Stop the whole process group and wait until the server has ended."""
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGTERM)
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait(timeout=10)
            except ProcessLookupError:
                pass
        # workers the server spawned share its group and may outlive it
        for pid in _group_pids(self.proc.pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 10
        while _group_pids(self.proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
