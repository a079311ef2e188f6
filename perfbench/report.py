"""Turn measured operations and the traced ledger into named metrics."""

from __future__ import annotations

import math
import statistics

from workloads import APPEND_PERIOD_S

#: the end-to-end metrics BENCHMARK.json gates are named by role, since
#: every workload must report each of them: "main" is the operation the
#: workload is named for, "alt" a second view of it or its second
#: operation class.  Each role names the report-line metric it gates: on
#: the cold workloads the median server CPU seconds of an exact job and
#: the mean over every job of both tiers, on stream-mix the median
#: resubmit and the mean fresh result.  Why these: perfbench/README.md,
#: End-to-end metrics.
ROLES = {
    "dense-cold": ("exact_cpu_p50_s", "job_cpu_mean_s"),
    "sparse-cold": ("exact_cpu_p50_s", "job_cpu_mean_s"),
    "stream-mix": ("repeat_p50_s", "fresh_mean_s"),
}
JOB_KINDS = ("exact", "approx", "repeat", "fresh")
#: host CPU steal share above which a run is flagged (wall times then
#: carry other tenants' load)
STEAL_FLAG = 0.10


def percentile(values: list, q: float) -> float:
    """Linear-interpolated ``q``-quantile of ``values``."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values: list) -> tuple[float, str]:
    """``(value, label)``: the highest percentile with at least ten samples
    beyond it.  Up to twenty samples no percentile above the median has
    ten beyond it, so the tail is the mean, which still moves when the
    slowest samples get slower."""
    n = len(values)
    if n <= 20:
        return statistics.fmean(values), "mean (20 samples or fewer)"
    q = math.floor(100 * (1 - 10 / n)) / 100
    return percentile(values, q), f"p{round(q * 100)}"


def latency(prefix: str, values: list) -> dict:
    """``<prefix>_p50_s``, ``<prefix>_tail_s`` and ``<prefix>_mean_s`` with
    their sample count."""
    if not values:
        return {}
    tail_s, label = tail(values)
    return {
        f"{prefix}_mean_s": {"value": statistics.fmean(values), "unit": "s",
                             "samples": len(values)},
        f"{prefix}_p50_s": {"value": statistics.median(values), "unit": "s",
                            "percentile": "p50", "samples": len(values)},
        f"{prefix}_tail_s": {"value": tail_s, "unit": "s",
                             "percentile": label, "samples": len(values)},
    }


def end_to_end(workload, phase, setup_s: list, peak_rss_mb: float) -> dict:
    """Every end-to-end metric of one measured phase, each under its own name."""
    out = {"setup_s": {"value": statistics.median(setup_s), "unit": "s",
                       "samples": len(setup_s), "all": setup_s}}
    for kind, values in workload.end_to_end(phase).items():
        out.update(latency(kind, values))
    jobs = sum(1 for op in phase.ops if op.ok and op.kind in JOB_KINDS)
    failed = sum(1 for op in phase.ops if not op.ok)
    out["jobs_per_s"] = {"value": jobs / phase.wall_s, "unit": "1/s", "samples": jobs}
    out["fail_frac"] = {"value": failed / max(1, len(phase.ops)), "unit": "frac",
                        "samples": len(phase.ops)}
    out["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    return out


def gated(name: str, named: dict) -> dict:
    """The BENCHMARK.json end-to-end metrics, from the named ones."""
    main, alt = ROLES[name]
    pick = {
        "setup_s": "setup_s",
        "main_s": main,
        "alt_s": alt,
        "peak_rss_mb": "peak_rss_mb",
    }
    return {k: {"value": named[v]["value"], "unit": named[v]["unit"]}
            for k, v in pick.items()}


def guards(phases: list) -> dict:
    """Steadiness guards: planned-knob changes and producer lateness."""
    plans: dict[str, set] = {}
    for phase in phases:
        for op in phase.ops:
            planned = op.snapshot.get("planned")
            if op.kind in JOB_KINDS and planned is not None:
                plans.setdefault(op.kind, set()).add(tuple(sorted(planned.items())))
    late = [x for phase in phases for x in phase.lateness_s]
    flags = []
    for kind, tuples in sorted(plans.items()):
        if len(tuples) > 1:
            flags.append(f"planned knobs changed during the measured phase: "
                         f"{len(tuples)} distinct plans for {kind} jobs")
    max_late = max(late, default=0.0)
    if max_late > APPEND_PERIOD_S:
        flags.append(f"producer fell {max_late:.3f}s behind (more than one period)")
    steal = max(phase.steal_frac for phase in phases)
    if steal > STEAL_FLAG:
        flags.append(f"the hypervisor took {steal:.0%} of host CPU time while measuring")
    return {
        "planner.decisions": {kind: len(t) for kind, t in sorted(plans.items())},
        "planner.plans": {kind: [dict(t) for t in sorted(tuples)]
                          for kind, tuples in sorted(plans.items())},
        "bench.generator_late_s": {"max": max_late,
                                   "p50": statistics.median(late) if late else 0.0,
                                   "samples": len(late)},
        "host.steal_frac": [round(phase.steal_frac, 4) for phase in phases],
        "flags": flags,
    }


def counters(metrics: dict) -> dict:
    """The program's own counters from a routed ``/metrics`` body."""
    service = metrics["shards"][0]["service"]
    return {
        "rejected": metrics["router"]["jobs_rejected"],
        "hits": service["result_cache"]["hits"],
        "misses": service["result_cache"]["misses"],
        "flushes": service["dataset_registry"]["flushes"],
        "retired": service["dataset_registry"]["retired_transactions"],
    }


def unit_of(metric: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if metric.startswith("trace.overhead_frac") or metric.endswith(("_frac", "_ratio", "_rate")):
        return "ratio"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes") or metric == "store.bytes":
        return "B"
    return "count"


def per_layer(name: str, ledger: dict, phase, before: dict, after: dict,
              untraced: dict, traced: dict, guard: dict) -> tuple[dict, dict]:
    """Every per-layer metric of the traced phase, plus why any reads 0.

    Span times are means per call for the serve layers; the core and
    engine layers report seconds per mining run (or per append, on
    stream-mix, whose watched miner does its counting on the append path).
    """
    spans, values = ledger["spans"], ledger["values"]
    notes: dict[str, str] = {}

    def ratio(num, den):
        return num / den if den else 0.0

    def total(span):
        return spans.get(span, {}).get("total_s", 0.0)

    def calls(span):
        return spans.get(span, {}).get("count", 0)

    def per_call(span):
        return ratio(total(span), calls(span))

    def v_sum(key):
        return values.get(key, {}).get("sum", 0.0)

    def v_mean(key):
        return ratio(v_sum(key), values.get(key, {}).get("count", 0))

    def mean(xs):
        xs = list(xs)
        return statistics.fmean(xs) if xs else 0.0

    jobs = [op for op in phase.ops if op.kind in JOB_KINDS and op.ok]
    runs = [op for op in jobs if op.snapshot.get("via") == "run"]
    appends = [op for op in phase.ops if op.kind == "append" and op.ok]
    work = len(runs) + len(appends)

    def per_work(span):
        return ratio(total(span), work)

    requests = phase.requests
    router_s = sum(total(s) for s in spans
                   if s.startswith("router.") and s != "router.fingerprint")
    client_s = sum(r.end_s - r.start_s for r in requests)

    core_run = ratio(total("core.run") + total("core.run_warm"), len(runs))
    # from the submit POST: a fresh op's latency starts at its append's due time
    run_latency = mean(op.end_s - op.submit_start_s for op in runs)

    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    engine_runs = values.get("engine.runs", {}).get("count", 0)

    out = {
        "http.self_s": ratio(client_s - router_s, len(requests)),
        "http.result_payload_s": per_call("http.result_payload"),
        "http.request_bytes": mean(r.sent for r in requests),
        "http.response_bytes": mean(r.received for r in requests),
        "router.submit_self_s": ratio(spans.get("router.submit", {}).get("self_s", 0.0),
                                      calls("router.submit")),
        "router.fingerprint_s": per_call("router.fingerprint"),
        "router.rejected": after["rejected"] - before["rejected"],
        "planner.plan_s": per_call("planner.plan"),
        "planner.stats_s": per_call("planner.stats"),
        "planner.decisions": max(guard["planner.decisions"].values(), default=0),
        "service.submit_s": per_call("service.submit"),
        "service.queue_wait_s": mean(op.snapshot["queued_seconds"] for op in runs),
        "service.run_s": mean(op.snapshot["run_seconds"] for op in runs),
        "service.memoized_frac": mean(op.snapshot.get("via") == "memoized" for op in jobs),
        "cache.dataset_add_s": per_call("cache.dataset_add"),
        "cache.result_get_s": per_call("cache.result_get"),
        "cache.invalidate_s": per_call("cache.invalidate"),
        "cache.result_hit_rate": ratio(hits, lookups),
        "cache.ctx_acquire_s": per_call("cache.ctx_acquire"),
        "cache.ctx_release_s": per_call("cache.ctx_release"),
        "datasets.append_s": per_call("datasets.append"),
        "datasets.changes_s": per_call("datasets.changes"),
        "datasets.flushes": after["flushes"] - before["flushes"],
        "datasets.rows_retired": after["retired"] - before["retired"],
        "core.run_s": core_run,
        "serve_overhead_s": run_latency - core_run,
        "yafim.phase1_s": v_mean("yafim.phase1_s"),
        "yafim.levels_s": v_mean("yafim.levels_s"),
        "yafim.k2_s": v_mean("yafim.k2_s"),
        "yafim.levels": v_mean("yafim.levels"),
        "yafim.compaction_s": v_mean("yafim.compaction_s"),
        "yafim.candidates": v_mean("yafim.candidates"),
        "yafim.frequent": v_mean("yafim.frequent"),
        "yafim.useful_ratio": ratio(v_sum("yafim.frequent"), v_sum("yafim.candidates")),
        "candidates.gen_s": per_work("candidates.gen"),
        "store.build_s": per_work("store.build"),
        "store.count_s": per_work("store.count"),
        "store.bytes": v_mean("store.bytes"),
        "approx.sample_s": v_mean("approx.sample_s"),
        "approx.verify_s": v_mean("approx.verify_s"),
        "approx.candidates_verified": v_mean("approx.candidates_verified"),
        "approx.useful_ratio": ratio(v_sum("approx.frequent"),
                                     v_sum("approx.candidates_verified")),
        "approx.verified_exact_frac": v_mean("approx.verified_exact"),
        "incremental.append_s": per_call("incremental.append"),
        "incremental.retire_s": per_call("incremental.retire"),
        "incremental.levels_remined": v_mean("incremental.append.levels_remined")
        + v_mean("incremental.retire.levels_remined"),
        "incremental.full_rebuilds": v_sum("incremental.append.full_rebuilds")
        + v_sum("incremental.retire.full_rebuilds"),
        "incremental.delta_candidates": v_mean("incremental.append.delta_candidates")
        + v_mean("incremental.retire.delta_candidates"),
        "engine.task_busy_s": v_mean("engine.task_busy_s"),
        "engine.task_busy_frac": ratio(v_sum("engine.task_busy_s"), v_sum("engine.capacity_s")),
        "engine.shuffle_records": v_mean("engine.shuffle_records"),
        "engine.shuffle_bytes": v_mean("engine.shuffle_bytes"),
        "engine.broadcast_s": v_mean("engine.broadcast_s"),
        "engine.shipped_bytes": v_mean("engine.shipped_bytes"),
        "engine.straggler_ratio": v_mean("engine.straggler_ratio"),
        "engine.task_retries": v_sum("engine.task_retries"),
        "bench.generator_late_s": guard["bench.generator_late_s"]["max"],
    }
    if runs:
        out["unattributed_s"] = run_latency - (
            mean(op.submit_s for op in runs)
            + out["service.queue_wait_s"]
            + core_run
            + (total("cache.ctx_acquire") + total("cache.ctx_release")) / len(runs)
            + mean(op.result_s for op in runs)
        )
    else:
        out["unattributed_s"] = 0.0
        notes["unattributed_s"] = "no job ran in the traced phase"
    for metric in (m for m in untraced if m.startswith(("main_", "alt_"))):
        out[f"trace.overhead_frac.{metric}"] = (
            traced[metric]["value"] / untraced[metric]["value"] - 1.0
        )

    if values.get("engine.backend.processes"):
        notes["store.count_s"] = notes["engine.task_busy_s"] = (
            "some runs used the processes backend: spawned workers do not "
            "inherit the wrappers, so task-side time there is only in "
            "engine.task_busy_s, read from the task records the runs return"
        )
    else:
        notes["engine.shipped_bytes"] = "tasks ran in the server (no processes backend)"
    if not engine_runs:
        for key in out:
            if key.startswith("engine."):
                notes[key] = "no engine run in the traced phase"
    if not values.get("yafim.runs"):
        for key in out:
            if key.startswith("yafim."):
                notes[key] = "no exact YAFIM run in the traced phase"
    if not values.get("approx.runs"):
        for key in out:
            if key.startswith("approx."):
                notes[key] = "no approx job ran in the traced phase"
    if name != "stream-mix":
        for key in ("datasets.append_s", "datasets.changes_s", "datasets.flushes",
                    "datasets.rows_retired", "cache.invalidate_s",
                    "incremental.append_s", "incremental.retire_s",
                    "incremental.levels_remined", "incremental.full_rebuilds",
                    "incremental.delta_candidates", "bench.generator_late_s"):
            notes[key] = "this workload has no named dataset, appends or producer"
    if name == "stream-mix":
        for key in ("candidates.gen_s", "store.build_s", "store.count_s"):
            notes[key] = "per run job or append: the watched miner counts on the append path"
        notes["store.bytes"] = "the incremental tier keeps its stores in the miner"
    return out, notes
