"""Start ``repro serve`` with timing wrappers around each layer's public calls.

Usage (from the repository root)::

    PYTHONPATH=src python3 perfbench/traced_server.py serve --port 0 ...

The arguments after the script name are exactly those of ``python -m repro``.
The wrappers live here, outside ``src/``: they replace module attributes
before the server starts, and the program itself is unchanged.

Recording starts switched off.  Signals drive it from the load generator:

* ``SIGUSR1`` clears the ledger and switches recording on;
* ``SIGUSR2`` switches recording off and prints the ledger as one JSON line
  on standard output.

A span's self time is its duration minus the time of the spans it
encloses on the same thread.  Counts the program already returns (the
per-level ``IterationStats``, ``ApproxResult`` provenance, an
``IncrementalUpdate``, the engine's own trace spans) are read from the
returned objects, not re-derived.
"""

from __future__ import annotations

import functools
import json
import signal
import sys
import threading
import time


class Ledger:
    """Per-name span totals and per-job values, kept in memory."""

    def __init__(self):
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: dict[str, list] = {}
        self.values: dict[str, list] = {}

    def reset(self, enabled: bool) -> None:
        with self._lock:
            self.spans = {}
            self.values = {}
            self.enabled = enabled

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn):
        """``fn`` wrapped so each call adds a span ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                self.add_span(name, duration, duration - children)

        return wrapper

    def timed_generator(self, name: str, fn):
        """Like :meth:`timed` for a generator function: the span is the time
        spent inside the generator's own steps, not the consumer's."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not self.enabled:
                yield from gen
                return
            inside = 0.0
            while True:
                t0 = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    inside += time.perf_counter() - t0
                    break
                inside += time.perf_counter() - t0
                yield item
            self.add_span(name, inside, inside)

        return wrapper

    def add_span(self, name: str, duration: float, self_time: float) -> None:
        with self._lock:
            entry = self.spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_time

    def add_value(self, name: str, value: float) -> None:
        with self._lock:
            entry = self.values.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += value

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "spans": {
                    k: {"count": c, "total_s": t, "self_s": s}
                    for k, (c, t, s) in self.spans.items()
                },
                "values": {
                    k: {"count": c, "sum": s} for k, (c, s) in self.values.items()
                },
            }


def _record_run(ledger: Ledger, result, wall_s: float, ctx) -> None:
    """Read one finished run's own accounting into the ledger."""
    iterations = list(getattr(result, "iterations", None) or [])
    if hasattr(result, "verified_exact"):
        # an ApproxResult records two passes: sample mining, then verification
        sample, verify = iterations[0], iterations[-1]
        ledger.add_value("approx.runs", 1)
        ledger.add_value("approx.sample_s", sample.seconds)
        ledger.add_value("approx.verify_s", verify.seconds)
        ledger.add_value("store.bytes", verify.broadcast_bytes)
        ledger.add_value("approx.candidates_verified", result.candidates_verified)
        ledger.add_value("approx.frequent", len(result.itemsets))
        ledger.add_value("approx.verified_exact", 1.0 if result.verified_exact else 0.0)
    elif iterations and result.algorithm == "yafim":
        levels = [it for it in iterations if it.k >= 2]
        ledger.add_value("yafim.runs", 1)
        ledger.add_value("yafim.phase1_s", iterations[0].seconds)
        ledger.add_value("yafim.levels_s", sum(it.seconds for it in levels))
        ledger.add_value(
            "yafim.k2_s", sum(it.seconds for it in levels if it.k == 2)
        )
        ledger.add_value("yafim.levels", len(levels))
        ledger.add_value(
            "yafim.compaction_s",
            sum(it.compaction.seconds for it in iterations if it.compaction),
        )
        ledger.add_value("yafim.candidates", sum(it.n_candidates for it in levels))
        ledger.add_value("yafim.frequent", sum(it.n_frequent for it in levels))
        ledger.add_value("store.bytes", sum(it.broadcast_bytes for it in levels))
    metrics = getattr(result, "engine_metrics", None)
    if metrics is None:
        return
    workers = getattr(getattr(ctx, "executor", None), "parallelism", 1) or 1
    ledger.add_value("engine.runs", 1)
    ledger.add_value("engine.task_busy_s", metrics.total_task_seconds)
    ledger.add_value("engine.capacity_s", wall_s * workers)
    ledger.add_value("engine.shipped_bytes", metrics.total_shipped_bytes)
    ledger.add_value("engine.shuffle_records", sum(it.shuffle_records for it in iterations))
    ledger.add_value("engine.shuffle_bytes", sum(it.shuffle_bytes for it in iterations))
    ratios = [it.straggler_ratio for it in iterations if it.straggler_ratio]
    if ratios:
        ledger.add_value("engine.straggler_ratio", max(ratios))
    trace = getattr(result, "trace", None)
    spans = list(getattr(trace, "spans", None) or [])
    ledger.add_value(
        "engine.broadcast_s",
        sum(s.duration_s for s in spans if s.category == "broadcast"),
    )
    ledger.add_value(
        "engine.task_retries", sum(1 for s in spans if s.name.startswith("task-failed"))
    )
    backend = getattr(ctx, "backend", None)
    if backend is not None:
        ledger.add_value(f"engine.backend.{backend}", 1)


def install(ledger: Ledger) -> None:
    """Wrap each layer's public entry points in place."""
    import repro.core.approx as approx
    import repro.core.counting as counting
    import repro.core.incremental as incremental
    import repro.core.yafim as yafim
    import repro.serve.cache as cache
    import repro.serve.datasets as datasets
    import repro.serve.http as http
    import repro.serve.planner as planner
    import repro.serve.router as router
    import repro.serve.service as service

    t = ledger.timed

    # serve.router: every call the HTTP handler makes into the router
    for name in (
        "submit", "get", "create_dataset", "append_dataset",
        "dataset_changes", "dataset_info",
    ):
        setattr(router.ShardRouter, name, t(f"router.{name}", getattr(router.ShardRouter, name)))
    router.dataset_fingerprint = t("router.fingerprint", router.dataset_fingerprint)
    http.result_payload = t("http.result_payload", http.result_payload)

    # serve.planner
    planner.CostPlanner.plan = t("planner.plan", planner.CostPlanner.plan)
    planner.CostPlanner.stats_for = t("planner.stats", planner.CostPlanner.stats_for)

    # serve.service
    service.MiningService.submit = t("service.submit", service.MiningService.submit)

    # serve.cache
    cache.DatasetCache.add = t("cache.dataset_add", cache.DatasetCache.add)
    cache.ResultCache.get_first = t("cache.result_get", cache.ResultCache.get_first)
    cache.ResultCache.invalidate_dataset = t(
        "cache.invalidate", cache.ResultCache.invalidate_dataset
    )
    cache.ContextPool.acquire = t("cache.ctx_acquire", cache.ContextPool.acquire)
    cache.ContextPool.release = t("cache.ctx_release", cache.ContextPool.release)

    # serve.datasets
    datasets.ManagedDataset.append = t("datasets.append", datasets.ManagedDataset.append)
    datasets.ManagedDataset.changes_since = t(
        "datasets.changes", datasets.ManagedDataset.changes_since
    )

    # core.registry: the service's call into the miners
    run_algorithm = service.run_algorithm
    timed_run = t("core.run", run_algorithm)

    @functools.wraps(run_algorithm)
    def traced_run_algorithm(transactions, config, *, ctx=None):
        if not ledger.enabled:
            return run_algorithm(transactions, config, ctx=ctx)
        t0 = time.perf_counter()
        result = timed_run(transactions, config, ctx=ctx)
        _record_run(ledger, result, time.perf_counter() - t0, ctx)
        return result

    service.run_algorithm = traced_run_algorithm
    service.MiningService._run_incremental_warm = t(
        "core.run_warm", service.MiningService._run_incremental_warm
    )

    # core.candidates / core.candidatestore, at every miner that calls them
    for module in (yafim, incremental):
        module.apriori_gen = t("candidates.gen", module.apriori_gen)
    for module in (yafim, approx, incremental):
        module.make_store = t("store.build", module.make_store)
    counting.CandidateCounter.__call__ = ledger.timed_generator(
        "store.count", counting.CandidateCounter.__call__
    )
    approx.VerifyCounter.__call__ = t("store.count", approx.VerifyCounter.__call__)
    incremental._count_rows = t("store.count", incremental._count_rows)

    # core.incremental: time the call, read what the update reports
    for kind in ("append", "retire"):
        original = getattr(incremental.IncrementalMiner, kind)
        timed = t(f"incremental.{kind}", original)

        def traced(self, *args, _timed=timed, _kind=kind, **kwargs):
            update = _timed(self, *args, **kwargs)
            if ledger.enabled:
                ledger.add_value(f"incremental.{_kind}.levels_remined", update.levels_remined)
                ledger.add_value(
                    f"incremental.{_kind}.full_rebuilds", 1.0 if update.full_rebuild else 0.0
                )
                ledger.add_value(
                    f"incremental.{_kind}.delta_candidates", update.delta_candidates
                )
            return update

        setattr(incremental.IncrementalMiner, kind, functools.wraps(original)(traced))


def main(argv: list[str]) -> int:
    from repro.cli import main as repro_main

    ledger = Ledger()
    install(ledger)

    def on_start(_signum, _frame):
        ledger.reset(enabled=True)

    def on_dump(_signum, _frame):
        ledger.enabled = False
        sys.stdout.write(json.dumps(ledger.snapshot()) + "\n")
        sys.stdout.flush()

    signal.signal(signal.SIGUSR1, on_start)
    signal.signal(signal.SIGUSR2, on_dump)
    return repro_main(argv)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
