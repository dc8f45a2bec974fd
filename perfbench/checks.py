"""Output checks and failure accounting.

Every operation a workload runs is checked and counted here.  An
operation fails when its payload differs from the seed-generated
pattern, when a PowerLLEL rank reports an impossible time, or when the
repetition it belongs to raised, warned :class:`repro.UnrSyncWarning`,
or (on the default seed) produced simulated outputs that differ from
the references stored in ``references.json``.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, Dict, List, Mapping

import numpy as np

__all__ = [
    "DEFAULT_SEED",
    "Checker",
    "check_metric_names",
    "compare_reference",
]

#: The seed whose simulated outputs are stored as references; other
#: seeds get the self-checks only.
DEFAULT_SEED = 0

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
METRIC_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

_MAX_ERRORS = 5


class Checker:
    """Counts attempted and failed operations of one repetition."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: the first few failure descriptions, for the run record
        self.errors: List[str] = []

    def op(self, ok: bool, what: str) -> None:
        """Record one checked operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self._note(what)

    def payload(self, actual: np.ndarray, expected: np.ndarray, what: str) -> None:
        """One operation whose received bytes must equal ``expected``."""
        self.op(np.array_equal(actual, expected), f"{what}: payload mismatch")

    def powerllel(self, res: Mapping[str, Any], n_ranks: int, what: str) -> None:
        """One operation per rank of a PowerLLEL result: each rank must
        report a positive finite time and finite non-negative phases
        that do not exceed it; missing ranks fail too."""
        ranks = res["ranks"]
        for rank in range(n_ranks):
            info = ranks.get(rank)
            ok = info is not None and _rank_ok(info)
            self.op(ok, f"{what} rank {rank}: bad or missing result")

    def fail_all(self, planned: int, why: str) -> None:
        """Fail the whole repetition (at least ``planned`` operations)."""
        self.attempted = max(self.attempted, planned)
        self.failed = self.attempted
        self._note(why)

    def _note(self, what: str) -> None:
        if len(self.errors) < _MAX_ERRORS:
            self.errors.append(what)


def _rank_ok(info: Mapping[str, Any]) -> bool:
    t = info["time"]
    if not (math.isfinite(t) and t > 0):
        return False
    phases = info["phases"]
    return all(math.isfinite(v) and v >= 0 for v in phases.values()) and (
        phases["total"] <= t * (1 + 1e-12)
    )


def compare_reference(outputs: Mapping[str, Any], reference: Mapping[str, Any]) -> List[str]:
    """Names of the simulated outputs that differ from ``reference``.

    Outputs are compared exactly after a JSON round trip: the simulator
    is deterministic, so any drift is a behaviour change."""
    got = json.loads(json.dumps(outputs))
    bad = [key for key, want in reference.items() if got.get(key) != want]
    bad.extend(sorted(set(got) - set(reference)))
    return bad


def check_metric_names(declared: List[Dict[str, Any]], values: Mapping[str, float]) -> None:
    """Raise unless ``values`` names exactly the ``declared`` metrics,
    each name and unit well formed."""
    names = [m["name"] for m in declared]
    for m in declared:
        if not METRIC_NAME.fullmatch(m["name"]):
            raise ValueError(f"bad metric name {m['name']!r}")
        if not METRIC_UNIT.fullmatch(m["unit"]):
            raise ValueError(f"bad unit {m['unit']!r} for {m['name']}")
    if len(set(names)) != len(names):
        raise ValueError("duplicate metric names")
    if set(names) != set(values):
        raise ValueError(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(names) - set(values))}, extra {sorted(set(values) - set(names))}"
        )
