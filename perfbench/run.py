"""The served-mining benchmark: one workload, one seed, one run.

Usage, from the repository root::

    python3 perfbench/run.py --workload dense-cold --seed 1 --seconds 40 --trace 0

It starts ``repro serve`` with the planner on (one shard behind the
router) as a separate process, sets it up several times, drives one
workload over HTTP for ``--seconds``, checks every answer against an
oracle, and prints a report line and then, last, one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` starts the
server through ``perfbench/traced_server.py`` and measures two halves of
``--seconds``: untraced, then traced.  It reports the per-layer metrics of
the traced half and the tracing overhead between the two.

The exit code is 1 when an answer was wrong and 2 when the repository
is not there to benchmark.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: server setups per run; setup_s is their median
SETUPS = 3


def git_commit(root: str) -> str:
    """``git rev-parse HEAD``; in a checkout that is not a git repository,
    a sha256 over the ``src/repro`` sources names the code instead."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    base = os.path.join(root, "src", "repro")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return f"none (not a git checkout); src/repro sha256 {h.hexdigest()}"


def header(args, workload, flags, poll) -> dict:
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": workload.scale(),
        "server": [sys.executable, "-m", "repro", "serve", *flags],
        "setups": SETUPS,
        "poll": poll.header(),
        "load": "one load-generator process; one connection per client thread",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("dense-cold", "sparse-cold", "stream-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its server (the finally blocks below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no src/repro under {ROOT}: nothing to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import report
    from server import Poll, Server, cpu_ticks
    from workloads import Phase, make

    workload = make(args.workload, args.seed)
    workload.prepare()
    poll = Poll()
    workers = min(2, os.cpu_count() or 1)
    flags = ["--host", "127.0.0.1", "--port", "0", "--workers", str(workers),
             "--planner", "--quiet"]
    traced = bool(args.trace)

    setup_s = []
    server = client = None
    for i in range(SETUPS):
        server = Server(ROOT, flags, traced=traced)
        try:
            client = server.client(poll)
            status, _ = client.call("GET", "/healthz")
            if status != 200:
                raise RuntimeError("healthz failed")
            workload.setup(server, client)
            setup_s.append(time.perf_counter() - server.launched_s)
        except BaseException:
            server.stop()
            raise
        if i < SETUPS - 1:
            client.close()
            server.stop()

    phases, snapshots, ledger = [], [], None
    try:
        halves = [False, True] if traced else [False]
        for tracing in halves:
            before = report.counters(server.metrics())
            if tracing:
                server.start_trace()
            phase = Phase(start_s=time.perf_counter())
            logged = len(client.log)
            steal, ticks = cpu_ticks()
            workload.measure(server, client, args.seconds / len(halves), phase)
            steal_end, ticks_end = cpu_ticks()
            phase.steal_frac = (steal_end - steal) / max(1, ticks_end - ticks)
            phase.requests.extend(client.log[logged:])
            if tracing:
                ledger = server.dump_trace()
            snapshots.append((before, report.counters(server.metrics())))
            phases.append(phase)
        peak_rss_mb = server.peak_rss_mb()
    finally:
        client.close()
        server.stop()

    problems = workload.verify(phases)
    named = [report.end_to_end(workload, p, setup_s, peak_rss_mb) for p in phases]
    guard = report.guards(phases)
    attempted = sum(len(p.ops) for p in phases)
    failed = sum(1 for p in phases for op in p.ops if not op.ok)
    errors = sorted({op.error for p in phases for op in p.ops if op.error})
    doc = {
        "header": header(args, workload, flags, poll),
        "metrics": named[0],
        "guards": guard,
        "warmup": getattr(workload, "warmup", None),
        "problems": problems,
        "errors": errors[:20],
    }
    if traced:
        untraced = report.gated(args.workload, named[0])
        traced_e2e = report.gated(args.workload, named[1])
        layers, notes = report.per_layer(
            args.workload, ledger, phases[1], *snapshots[1],
            untraced, traced_e2e, guard,
        )
        doc["traced_metrics"] = named[1]
        doc["per_layer_notes"] = notes
        metrics = {k: {"value": v, "unit": report.unit_of(k)} for k, v in layers.items()}
    else:
        metrics = report.gated(args.workload, named[0])
    print(json.dumps(doc))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except Exception:  # noqa: BLE001 - report and fail without a result line
        traceback.print_exc()
        raise SystemExit(3) from None
