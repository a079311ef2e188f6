"""Answer checks: every served answer against an independent oracle.

The oracle is ``fpgrowth`` from ``repro.algorithms``, a sequential
FP-tree miner that shares no code with the engine, the candidate stores
or the Apriori tiers under test.  Each check returns a list of problems;
an empty list means the answer is right.
"""

from __future__ import annotations

import hashlib


def oracle(transactions: list, min_support: float) -> dict:
    from repro.algorithms import fpgrowth

    return {tuple(sorted(k)): v for k, v in fpgrowth(transactions, min_support).items()}


def itemsets_of(payload: dict) -> dict:
    """``{itemset: count}`` from a ``GET /results/<id>`` body."""
    return {tuple(sorted(items)): count for items, count in payload["itemsets"]}


def digest(family: dict) -> str:
    """Order-free fingerprint of an itemset family, for answers kept until
    their oracle exists."""
    h = hashlib.sha256()
    for itemset, count in sorted(family.items()):
        h.update(repr((itemset, count)).encode())
    return h.hexdigest()


def check_exact(family: dict, expected: dict) -> list[str]:
    """An exact (or memoized) answer must equal the oracle."""
    if family == expected:
        return []
    missing = expected.keys() - family.keys()
    extra = family.keys() - expected.keys()
    wrong = sum(1 for k in family.keys() & expected.keys() if family[k] != expected[k])
    return [f"exact answer differs: {len(missing)} missing, {len(extra)} extra, "
            f"{wrong} wrong counts"]


def check_approx(payload: dict, expected: dict) -> list[str]:
    """An approximate answer: precision 1 with exact counts, and recall 1
    whenever it claims ``verified_exact``.  A result without an ``approx``
    block was answered from the exact twin and must be exact."""
    family = itemsets_of(payload)
    provenance = payload.get("approx")
    if provenance is None:
        return check_exact(family, expected)
    problems = []
    false_hits = [k for k in family if k not in expected]
    miscounted = [k for k in family if k in expected and family[k] != expected[k]]
    if false_hits:
        problems.append(f"approx answer holds {len(false_hits)} infrequent itemset(s)")
    if miscounted:
        problems.append(f"approx answer has {len(miscounted)} wrong count(s)")
    if provenance.get("verified_exact") and family.keys() != expected.keys():
        problems.append(
            f"verified_exact but {len(expected.keys() - family.keys())} itemset(s) missing"
        )
    return problems


def diff_between(old: dict, new: dict) -> tuple[dict, dict, dict]:
    """``(added, removed, changed)`` taking family ``old`` to ``new``."""
    added = {k: v for k, v in new.items() if k not in old}
    removed = {k: v for k, v in old.items() if k not in new}
    changed = {k: (old[k], new[k]) for k in old.keys() & new.keys() if old[k] != new[k]}
    return added, removed, changed


def parse_changes(payload: dict) -> tuple[dict, dict, dict] | dict:
    """A change-feed body as ``(added, removed, changed)``, or the full
    family when the server answered ``reset``."""
    if payload.get("reset"):
        return {tuple(sorted(i)): c for i, c in payload["family"]}
    return (
        {tuple(sorted(i)): c for i, c in payload["added"]},
        {tuple(sorted(i)): c for i, c in payload["removed"]},
        {tuple(sorted(i)): (old, new) for i, old, new in payload["changed"]},
    )


def check_changes(parsed, old: dict, new: dict) -> list[str]:
    """A change-feed answer must compose to the set difference between the
    families at its two versions (or, on reset, be the new family)."""
    if isinstance(parsed, dict):
        return check_exact(parsed, new)
    if tuple(parsed) == diff_between(old, new):
        return []
    return ["change-feed diff does not match the oracle families"]
