"""The three workloads: what each sends, how it paces, how it is checked.

Every input is drawn from the workload seed.  A cold job mines one fixed
dataset with every item label shifted by a multiple of ``LABEL_STRIDE``
that no other job of the run uses: the server has never seen it, so the
job is cold, yet its work is the same item for item (the planner's
statistics, YAFIM's frequency-ordered dictionary and the hash tree's
``item % fanout`` buckets do not change under the shift).  The fixed
datasets are row samples drawn with seed 0 from ``mushroom_like(scale=1,
seed=0)``, the 8,124-row MushRoom analogue, and ``t10i4d100k_like(
scale=0.1, seed=0)``, 10,000 rows; the run's seed picks the shifts.  A
fresh row sample per job changes its cost by up to a third, and a fresh
generator seed by 1.6x, so a run would otherwise measure which datasets
it drew as much as how fast the server mined them.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field

from check import (
    check_approx,
    check_changes,
    digest,
    itemsets_of,
    oracle,
    parse_changes,
)
from server import Client, JobOutcome, Server

DENSE_ROWS, DENSE_SUPPORT = 400, 0.35
SPARSE_ROWS, SPARSE_SUPPORT = 1000, 0.0025
#: cold jobs shift item labels by multiples of this: it is above every
#: label of both populations and a multiple of the hash tree's fanout
LABEL_STRIDE = 1 << 16
#: stream-mix: the named window, the producer's appends, the reader's mix
WINDOW_ROWS = 500
APPEND_ROWS = 5  # 1% of the window
APPEND_PERIOD_S = 1.5
POPULAR_DATASETS, POPULAR_ROWS = 3, 300
#: warm-up resubmit cycles allowed for the result cache to settle
SETTLE_CYCLES = 5
FEED = "feed"


def job_body(transactions=None, min_support=0.35, *, approx=False,
             incremental=False, dataset=None) -> bytes:
    """A ``POST /jobs`` body carrying only what docs/serving.md has callers send."""
    config = {"min_support": min_support}
    if incremental:
        config["incremental"] = True
    body: dict = {"config": config}
    if dataset is not None:
        body["dataset"] = dataset
    else:
        body["transactions"] = transactions
    if approx:
        body["approx"] = True
    return json.dumps(body).encode()


@dataclass
class Op:
    """One measured operation."""

    kind: str
    start_s: float
    end_s: float
    ok: bool
    error: str | None = None
    snapshot: dict = field(default_factory=dict)
    latency_s: float = 0.0
    check: object = None  # what verify() needs to judge the answer
    submit_start_s: float = 0.0  # jobs: when the submit POST went out
    submit_s: float = 0.0  # jobs: the submit POST alone
    result_s: float = 0.0  # jobs: the result GET alone
    cpu_s: float = 0.0  # cold jobs: server CPU seconds from submit to result


@dataclass
class Phase:
    """One measured window: its operations and the client's request log."""

    start_s: float
    end_s: float = 0.0
    ops: list = field(default_factory=list)
    requests: list = field(default_factory=list)
    lateness_s: list = field(default_factory=list)
    steal_frac: float = 0.0  # share of host CPU time the hypervisor took

    @property
    def wall_s(self) -> float:
        return self.end_s - self.start_s


def _population(kind: str) -> list:
    from repro.datasets import mushroom_like, t10i4d100k_like

    if kind == "dense":
        return [list(t) for t in mushroom_like(scale=1.0, seed=0).transactions]
    return [list(t) for t in t10i4d100k_like(scale=0.1, seed=0).transactions]


def unshift(payload: dict, shift: int) -> dict:
    """A result body with ``shift`` taken off every item label."""
    itemsets = [[[item - shift for item in items], count]
                for items, count in payload["itemsets"]]
    return {**payload, "itemsets": itemsets}


def _op_from_job(kind: str, job: JobOutcome, check=None) -> Op:
    return Op(kind, job.start_s, job.end_s, job.ok, job.error, job.snapshot,
              job.latency_s, check, job.start_s, job.submit_s, job.result_s)


class ColdWorkload:
    """Closed loop, one client: each job mines a dataset the server never saw.

    Every job sends the workload's fixed dataset with its labels shifted
    (see the module docstring).  ``approx_every`` makes every n-th job
    ``"approx": true``, starting with the first measured job (zero keeps
    the loop exact).  A measured phase runs past its deadline to the end
    of the cycle of n jobs it is in, so every run holds the same mix: an
    exact job's plan and cost depend on how many exact jobs ran since the
    last approx one (finding e).  It also runs on until it holds a job of
    each kind, so every end-to-end metric exists even in the halves of a
    traced run.
    """

    def __init__(self, name: str, seed: int, kind: str, rows: int,
                 min_support: float, approx_every: int):
        self.name = name
        self.rng = random.Random(seed)
        pool = _population(kind)
        self.population_rows = len(pool)
        self.base = [sorted(t) for t in random.Random(0).sample(pool, rows)]
        self.min_support = min_support
        self.approx_every = approx_every
        # unshifted and half size: a dataset no measured job sends, which
        # only has to load code and start a context
        self.warmup_rows = self.base[: rows // 2]
        self.first_shift = self.rng.randrange(1, 1 << 20)
        self.jobs = 0
        self.expected: dict = {}

    def scale(self) -> dict:
        return {"population_rows": self.population_rows, "job_rows": len(self.base),
                "min_support": self.min_support, "label_stride": LABEL_STRIDE,
                "first_shift": self.first_shift}

    def setup(self, server: Server, client: Client) -> None:
        job = client.job(job_body(self.warmup_rows, self.min_support))
        if not job.ok:
            raise RuntimeError(f"warm-up job failed: {job.error}")

    def prepare(self) -> None:
        """The oracle of the fixed dataset; a job's is it, shifted."""
        self.expected = oracle(self.base, self.min_support)

    def _next(self):
        approx = bool(self.approx_every) and self.jobs % self.approx_every == 0
        shift = LABEL_STRIDE * (self.first_shift + self.jobs)
        self.jobs += 1
        txns = [[item + shift for item in t] for t in self.base]
        return ("approx" if approx else "exact"), shift, txns

    def measure(self, server: Server, client: Client, seconds: float,
                phase: Phase) -> None:
        deadline = phase.start_s + seconds
        wanted = {"exact", "approx"} if self.approx_every else {"exact"}
        while (time.perf_counter() < deadline
               or (self.approx_every and self.jobs % self.approx_every)
               or wanted - {op.kind for op in phase.ops}):
            kind, shift, txns = self._next()
            body = job_body(txns, self.min_support, approx=kind == "approx")
            cpu_s = server.cpu_s()
            job = client.job(body)
            cpu_s = server.cpu_s() - cpu_s
            answer = None
            if job.ok:
                answer = (unshift(job.result, shift) if kind == "approx"
                          else digest(itemsets_of(unshift(job.result, shift))))
            op = _op_from_job(kind, job, answer)
            op.cpu_s = cpu_s
            phase.ops.append(op)
        phase.end_s = time.perf_counter()

    def verify(self, phases: list) -> list[str]:
        problems = []
        expected_digest = digest(self.expected)
        for op in [op for phase in phases for op in phase.ops if op.ok]:
            if op.kind == "approx":
                found = check_approx(op.check, self.expected)
            elif op.check != expected_digest:
                found = ["exact answer differs from the oracle"]
            else:
                found = []
            if found:
                op.ok, op.error = False, "; ".join(found)
                problems.append(f"{op.kind} job {op.snapshot.get('job_id')}: {op.error}")
        return problems

    def end_to_end(self, phase: Phase) -> dict:
        exact = [op for op in phase.ops if op.ok and op.kind == "exact"]
        return {
            "exact": [op.latency_s for op in exact],
            "approx": [op.latency_s for op in phase.ops if op.ok and op.kind == "approx"],
            "submit": [op.submit_s for op in exact],
            "exact_cpu": [op.cpu_s for op in exact],
            # both tiers; a run holds whole cycles, so the mix is fixed
            "job_cpu": [op.cpu_s for op in phase.ops if op.ok],
        }


class StreamWorkload:
    """stream-mix: an open-loop producer and a closed-loop reader at once.

    The producer appends ``APPEND_ROWS`` rows to the named dataset every
    ``APPEND_PERIOD_S`` and then mines it with ``incremental: true``; the
    window is capped at its initial size, so every append also retires
    rows.  The reader resubmits a few popular datasets inline (each should
    be answered from the result cache) and reads the change feed.

    Like the cold jobs, every seed streams the same rows (drawn with seed
    0) under its own label shift: which rows arrive decides how often an
    append crosses a border and re-mines a level.
    """

    name = "stream-mix"

    def __init__(self, seed: int):
        self.rng = random.Random(0)
        self.shift = LABEL_STRIDE * random.Random(seed).randrange(1, 1 << 20)
        self.pool = _population("dense")
        self.min_support = DENSE_SUPPORT
        self.window = self._draw(WINDOW_ROWS)
        self.popular = [self._draw(POPULAR_ROWS) for _ in range(POPULAR_DATASETS)]
        self.popular_bodies = [job_body(t, self.min_support) for t in self.popular]
        self.incremental_body = job_body(min_support=self.min_support,
                                         incremental=True, dataset=FEED)
        self.appends: list[list] = []  # rows of version 2, 3, ...
        self.popular_oracles: list[dict] = []
        self.version_seen = 1

    def _draw(self, rows: int) -> list:
        return [[item + self.shift for item in t] for t in self.rng.sample(self.pool, rows)]

    def scale(self) -> dict:
        return {"population_rows": len(self.pool), "label_shift": self.shift,
                "window_rows": WINDOW_ROWS,
                "append_rows": APPEND_ROWS, "append_period_s": APPEND_PERIOD_S,
                "popular_datasets": POPULAR_DATASETS, "popular_rows": POPULAR_ROWS,
                "min_support": self.min_support}

    def prepare(self) -> None:
        self.popular_oracles = [oracle(t, self.min_support) for t in self.popular]

    def setup(self, server: Server, client: Client) -> None:
        body = json.dumps({"transactions": self.window, "max_window": WINDOW_ROWS})
        status, info = client.call("POST", f"/datasets/{FEED}", body.encode())
        if status != 201:
            raise RuntimeError(f"dataset create failed: {info}")
        status, _ = client.call("GET", self._changes_path(1))
        if status != 200:
            raise RuntimeError("change-feed watch failed")
        for body in [self.incremental_body, *self.popular_bodies]:
            job = client.job(body)
            if not job.ok:
                raise RuntimeError(f"warm-up job failed: {job.error}")
        # Let the result cache fill: resubmit the popular datasets until a
        # whole cycle is memoized.  A resubmit re-runs while the planner's
        # calibration still moves its planned knobs, which are part of the
        # cache key; those re-runs are counted and paid for in setup_s.
        self.warmup = {"cycles": 0, "reruns": 0, "settled": False}
        while self.warmup["cycles"] < SETTLE_CYCLES and not self.warmup["settled"]:
            vias = []
            for body in self.popular_bodies:
                job = client.job(body)
                if not job.ok:
                    raise RuntimeError(f"warm-up job failed: {job.error}")
                vias.append(job.snapshot.get("via"))
            self.warmup["cycles"] += 1
            self.warmup["reruns"] += sum(via == "run" for via in vias)
            self.warmup["settled"] = all(via == "memoized" for via in vias)
        self.appends = []
        self.version_seen = 1

    def _changes_path(self, since: int) -> str:
        return f"/datasets/{FEED}/changes?since={since}&min_support={self.min_support}"

    def measure(self, server: Server, client: Client, seconds: float,
                phase: Phase) -> None:
        reader_client = server.client(client.poll)
        lock = threading.Lock()
        deadline = phase.start_s + seconds
        errors: list[BaseException] = []

        def record(op: Op) -> None:
            with lock:
                phase.ops.append(op)

        def producer() -> None:
            due = phase.start_s
            while due < deadline:
                rows = self._draw(APPEND_ROWS)
                body = json.dumps({"transactions": rows}).encode()
                time.sleep(max(0.0, due - time.perf_counter()))
                start = time.perf_counter()
                phase.lateness_s.append(max(0.0, start - due))
                status, _ = client.call("POST", f"/datasets/{FEED}/append", body)
                appended = time.perf_counter()
                record(Op("append", start, appended, status == 200,
                          None if status == 200 else f"append HTTP {status}",
                          latency_s=appended - start))
                if status == 200:
                    self.appends.append(rows)
                    job = client.job(self.incremental_body)
                    answer = digest(itemsets_of(job.result)) if job.ok else None
                    op = _op_from_job("fresh", job, answer)
                    op.start_s, op.latency_s = due, job.end_s - due
                    record(op)
                due += APPEND_PERIOD_S

        def reader() -> None:
            cycle = 0
            while time.perf_counter() < deadline:
                index = cycle % (POPULAR_DATASETS + 1)
                cycle += 1
                if index < POPULAR_DATASETS:
                    job = reader_client.job(self.popular_bodies[index])
                    answer = digest(itemsets_of(job.result)) if job.ok else None
                    record(_op_from_job("repeat", job, (index, answer)))
                    continue
                since = self.version_seen
                start = time.perf_counter()
                status, payload = reader_client.call("GET", self._changes_path(since))
                end = time.perf_counter()
                if status != 200:
                    record(Op("changes", start, end, False, f"changes HTTP {status}"))
                    continue
                self.version_seen = payload["version"]
                record(Op("changes", start, end, True, latency_s=end - start,
                          check=(since, payload["version"], parse_changes(payload))))

        def guarded(fn):
            def run():
                try:
                    fn()
                except BaseException as err:  # noqa: BLE001 - re-raised on the caller
                    errors.append(err)
            return run

        threads = [threading.Thread(target=guarded(fn)) for fn in (producer, reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.end_s = time.perf_counter()
        phase.requests.extend(reader_client.log)
        reader_client.close()
        if errors:
            raise errors[0]

    def _window_at(self, version: int) -> list:
        window = list(self.window)
        for rows in self.appends[: version - 1]:
            window.extend(rows)
        return window[-WINDOW_ROWS:]

    def verify(self, phases: list) -> list[str]:
        versions = sorted(
            {op.snapshot["dataset_version"] for p in phases for op in p.ops
             if op.ok and op.kind == "fresh"}
            | {v for p in phases for op in p.ops if op.ok and op.kind == "changes"
               for v in op.check[:2]}
        )
        families = {v: oracle(self._window_at(v), self.min_support) for v in versions}
        family = families.__getitem__
        popular = [digest(f) for f in self.popular_oracles]
        problems = []
        for phase in phases:
            for op in phase.ops:
                if not op.ok or op.kind == "append":
                    continue
                if op.kind == "repeat":
                    index, answer = op.check
                    found = ([] if answer == popular[index]
                             else [f"repeat answer for popular dataset {index} "
                                   "differs from the oracle"])
                elif op.kind == "fresh":
                    version = op.snapshot["dataset_version"]
                    found = ([] if op.check == digest(family(version))
                             else [f"fresh answer at v{version} differs from the oracle"])
                else:
                    since, version, parsed = op.check
                    found = check_changes(parsed, family(since), family(version))
                if found:
                    op.ok, op.error = False, "; ".join(found)
                    problems.append(f"{op.kind}: {op.error}")
        return problems

    def end_to_end(self, phase: Phase) -> dict:
        def ok(kind):
            return [op.latency_s for op in phase.ops if op.ok and op.kind == kind]

        return {"repeat": ok("repeat"), "fresh": ok("fresh"), "append": ok("append")}


def make(name: str, seed: int):
    if name == "dense-cold":
        return ColdWorkload(name, seed, "dense", DENSE_ROWS, DENSE_SUPPORT, approx_every=10)
    if name == "sparse-cold":
        return ColdWorkload(name, seed, "sparse", SPARSE_ROWS, SPARSE_SUPPORT, approx_every=0)
    if name == "stream-mix":
        return StreamWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("dense-cold", "sparse-cold", "stream-mix")
