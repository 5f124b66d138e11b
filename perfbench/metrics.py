"""Metric names, units, the failure tally and the per-layer roll-up.

The names here are the ones ``BENCHMARK.json`` declares; the self
tests check the two agree.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import spans as spanlib

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "qps": "1/s",
    "peak_rss_mb": "MB",
}

# Span names whose self time is reported as ``<name>_s``.
SELF_TIME = [
    "import.repro", "accuracy.proxy_accuracy", "space.sample",
    "hardware.lut_build", "hardware.calibrate_bias", "hardware.predict_many",
    "core.shrink", "core.ea", "core.nsga2", "parallel.map",
    "serve.request", "serve.resolve", "serve.bundle_build",
    "runstate.atomic_write", "resilience.admission_wait",
    "tabular.tabulate", "tabular.save_artifact", "tabular.load_artifact",
    "tabular.sweep",
]
# Span names whose call count is reported; ``hardware.measure`` is
# reported as ``hardware.measure_calls`` (one call = one session).
CALLS = [
    "accuracy.proxy_accuracy", "space.sample", "hardware.measure",
    "hardware.predict_many", "parallel.map", "runstate.atomic_write",
]
COUNTERS = {
    "hardware.predict_many_archs": "count",
    "core.quality_evaluations": "count",
    "core.ea_evaluations": "count",
    "core.nsga2_evaluations": "count",
    "parallel.map_items": "count",
    "serve.coalesced": "count",
    "runstate.atomic_write_bytes": "bytes",
    "resilience.shed": "count",
    "tabular.artifact_bytes": "bytes",
}
RATES = {
    "core.cache_hit_rate": "core.cache",
    "serve.front_cache_hit_rate": "serve.front_cache",
}
DERIVED = {
    "serve.transport_ms": "ms",
    "trace.attributed_share": "ratio",
    "trace.overhead_share": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    units = {f"{name}_s": "s" for name in SELF_TIME}
    units.update({f"{name}_calls": "count" for name in CALLS})
    units.update(COUNTERS)
    units.update({name: "ratio" for name in RATES})
    units.update(DERIVED)
    return units


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``p`` percent of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> Tuple[float, str]:
    """The highest of p99, p90 and p50 with at least 100 samples beyond
    it (the median when none has); returns the value and which
    percentile it is. Ten samples beyond a p99 were too few here: it
    moved with the host's noise from run to run."""
    for p, need in ((99, 10000), (90, 1000)):
        if len(values) >= need:
            return percentile(values, p), f"p{p}"
    return statistics.median(values), "p50"


@dataclass
class Tally:
    """Attempts, failures and wrong outputs of one benchmark run.

    A failure is a non-zero exit, a timeout, a non-200 reply or a
    wrong output; a wrong output also makes the run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    wrong: List[str] = field(default_factory=list)

    def attempt(self, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
        return ok

    def check(self, ok: bool, what: str) -> bool:
        """A correctness check on an output already counted as attempted."""
        if not ok:
            self.wrong.append(what)
            self.failed += 1
        return ok

    @property
    def correct(self) -> bool:
        return not self.wrong and self.failed == 0

    def result(self, metrics: Dict[str, float], units: Dict[str, str]) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": metrics[name], "unit": units[name]}
                for name in units
            },
        }


@dataclass
class TracedProcess:
    """The spans of one traced child and the windows a user waited on.

    ``windows`` are ``(start_ns, end_ns, request_id)``; with a request
    id only that request's spans cover the window.
    """

    spans: List[spanlib.Span]
    counters: Dict[str, float]
    windows: List[Tuple[int, int, Optional[str]]]
    label: str = ""


def per_layer(
    procs: Sequence[TracedProcess],
    overhead_share: float,
    transport_ms: float = 0.0,
) -> Dict[str, float]:
    """Roll the traced processes of one run up into per-layer metrics."""
    selfs: Dict[str, List[int]] = {}
    counters: Dict[str, float] = {}
    covered = waited = 0
    for proc in procs:
        for name, (calls, ns) in spanlib.self_times(proc.spans).items():
            entry = selfs.setdefault(name, [0, 0])
            entry[0] += calls
            entry[1] += ns
        for name, value in proc.counters.items():
            counters[name] = counters.get(name, 0) + value
        for start, end, rid in proc.windows:
            covered += spanlib.covered_ns(proc.spans, start, end, rid)
            waited += end - start
    out = {f"{n}_s": selfs.get(n, [0, 0])[1] / 1e9 for n in SELF_TIME}
    out.update({f"{n}_calls": selfs.get(n, [0, 0])[0] for n in CALLS})
    out.update({name: counters.get(name, 0) for name in COUNTERS})
    for name, prefix in RATES.items():
        hits = counters.get(f"{prefix}_hits", 0)
        total = hits + counters.get(f"{prefix}_misses", 0)
        out[name] = hits / total if total else 0.0
    out["serve.transport_ms"] = transport_ms
    out["trace.attributed_share"] = covered / waited if waited else 0.0
    out["trace.overhead_share"] = overhead_share
    return out
