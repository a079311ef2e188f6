"""Self-test of the benchmark's answer checks: corrupted answers must be caught.

Usage, from the repository root::

    python3 perfbench/selftest.py

Exits 0 when every corruption below is reported as a wrong answer and
every right answer passes, and 1 (naming the case) otherwise.  No server
is started.
"""

from __future__ import annotations

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from check import (  # noqa: E402 - needs the path above
    check_approx,
    check_changes,
    check_exact,
    diff_between,
    digest,
    itemsets_of,
    oracle,
)
from workloads import ColdWorkload, Op, Phase, StreamWorkload, unshift  # noqa: E402


def _payload(family: dict, approx: dict | None = None) -> dict:
    body = {"itemsets": [[list(k), v] for k, v in family.items()]}
    if approx is not None:
        body["approx"] = approx
    return body


def _cold_job():
    """A dense-cold workload, one job's label shift and the right answer
    to that job, as the server would send it (labels shifted)."""
    cold = ColdWorkload("dense-cold", 1, "dense", 60, 0.35, approx_every=0)
    cold.prepare()
    _, shift, txns = cold._next()
    return cold, shift, _payload(oracle(txns, 0.35))


def cases():
    """``(name, problems)`` for each corrupted answer; each must be non-empty."""
    rng = random.Random(7)
    txns = [sorted(rng.sample(range(12), 5)) for _ in range(60)]
    truth = oracle(txns, 0.3)
    some = next(iter(truth))
    infrequent = tuple(range(12))

    miscount = dict(truth)
    miscount[some] += 1
    yield "exact: one count off", check_exact(miscount, truth)
    dropped = dict(truth)
    del dropped[some]
    yield "exact: one itemset missing", check_exact(dropped, truth)

    extra = {**truth, infrequent: 1}
    yield "approx: an infrequent itemset", check_approx(
        _payload(extra, {"verified_exact": False}), truth)
    yield "approx: a wrong count", check_approx(
        _payload(miscount, {"verified_exact": False}), truth)
    yield "approx: verified_exact with an itemset missing", check_approx(
        _payload(dropped, {"verified_exact": True}), truth)

    later = oracle(txns[5:] + txns[:5][::-1], 0.25)
    added, removed, changed = diff_between(truth, later)
    added = {**added, infrequent: 1}
    yield "changes: a spurious addition", check_changes(
        (added, removed, changed), truth, later)

    # the workloads' own verify(), which judges answers kept as digests
    cold, shift, served = _cold_job()
    wrong = itemsets_of(served)
    wrong[next(iter(wrong))] += 1
    phase = Phase(start_s=0.0)
    phase.ops.append(Op("exact", 0.0, 1.0, True,
                        check=digest(itemsets_of(unshift(_payload(wrong), shift)))))
    yield "dense-cold: corrupted exact answer", cold.verify([phase])
    extra = {**itemsets_of(served), (shift + 200, shift + 201): 1}
    phase = Phase(start_s=0.0)
    phase.ops.append(Op("approx", 0.0, 1.0, True,
                        check=unshift(_payload(extra, {"verified_exact": False}), shift)))
    yield "dense-cold: corrupted approx answer", cold.verify([phase])

    stream = StreamWorkload(1)
    stream.appends = [stream.rng.sample(stream.pool, 5)]
    right = oracle(stream._window_at(2), stream.min_support)
    corrupted = {k: v for k, v in right.items() if len(k) > 1}
    phase = Phase(start_s=0.0)
    phase.ops.append(Op("fresh", 0.0, 1.0, True, snapshot={"dataset_version": 2},
                        check=digest(corrupted)))
    yield "stream-mix: corrupted fresh answer", stream.verify([phase])

    # a stale or wrong memoized answer to an identical resubmit
    stream.prepare()
    stale = dict(stream.popular_oracles[1])
    del stale[next(iter(stale))]
    phase = Phase(start_s=0.0)
    phase.ops.append(Op("repeat", 0.0, 1.0, True, check=(1, digest(stale))))
    yield "stream-mix: corrupted repeat answer", stream.verify([phase])


def clean():
    """``(name, problems)`` for right answers; each must be empty."""
    rng = random.Random(7)
    txns = [sorted(rng.sample(range(12), 5)) for _ in range(60)]
    truth = oracle(txns, 0.3)
    later = oracle(txns[5:] + txns[:5][::-1], 0.25)
    subset = dict(list(truth.items())[: len(truth) // 2])
    yield "exact: the oracle itself", check_exact(dict(truth), truth)
    yield "approx: a subset with exact counts", check_approx(
        _payload(subset, {"verified_exact": False}), truth)
    yield "changes: the true diff", check_changes(diff_between(truth, later), truth, later)

    cold, shift, served = _cold_job()
    phase = Phase(start_s=0.0)
    phase.ops.append(Op("exact", 0.0, 1.0, True,
                        check=digest(itemsets_of(unshift(served, shift)))))
    phase.ops.append(Op("approx", 0.0, 1.0, True,
                        check=unshift({**served, "approx": {"verified_exact": True}}, shift)))
    yield "dense-cold: right exact and approx answers", cold.verify([phase])

    stream = StreamWorkload(1)
    stream.prepare()
    phase = Phase(start_s=0.0)
    phase.ops.append(Op("repeat", 0.0, 1.0, True,
                        check=(2, digest(stream.popular_oracles[2]))))
    yield "stream-mix: a right repeat answer", stream.verify([phase])


def main() -> int:
    missed = [name for name, problems in cases() if not problems]
    missed += [f"{name} (flagged though right)" for name, problems in clean() if problems]
    for name in missed:
        print(f"NOT CAUGHT: {name}")
    if missed:
        return 1
    print("selftest: every corrupted answer was caught")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
