"""Shared pieces of the benchmark: metric tables, statistics, the run
record, host stamps and the ledger-to-metrics reduction."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: The checkout the benchmark runs in (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for stores, span dumps and run records (git-ignored).
WORK = ROOT / ".perfbench_work"

#: End-to-end metrics: name -> (unit, better, bound).  Every workload
#: reports every one of them with tracing off; README.md gives what
#: each means on each workload.
END_TO_END: Dict[str, tuple] = {
    "setup_s": ("s", "lower", 0.25),
    "ok_share": ("ratio", "higher", 0.02),
    "peak_rss_mb": ("MB", "lower", 0.15),
    "throughput_per_s": ("1/s", "higher", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "degree_ratio": ("ratio", "lower", 0.2),
    "buffers_bytes": ("bytes", "lower", 0.25),
}

#: The workload-specific names of the same measurements (and a few
#: more), printed in the run record: name -> (unit, better, workload).
NAMED: Dict[str, tuple] = {
    "failed_share": ("ratio", "lower", None),
    "campaign_seeds_per_s": ("1/s", "higher", "campaign"),
    "os_wall_s": ("s", "lower", "synth160"),
    "or_wall_s": ("s", "lower", "synth160"),
    "os_degree": ("ratio", "lower", "synth160"),
    "or_total_buffers": ("bytes", "lower", "synth160"),
    "topo_os_wall_s": ("s", "lower", "topology"),
    "serve_rps": ("1/s", "higher", "serve"),
    "serve_latency_p50_ms": ("ms", "lower", "serve"),
    "serve_latency_p99_ms": ("ms", "lower", "serve"),
    "serve_bulk_seeds_per_s": ("1/s", "higher", "serve"),
}

#: Layers timed by the ledger (see ledger.REPRO_LAYERS), and the metric
#: prefix each reports under.  ``multicluster.loop`` keeps the short
#: ``multicluster.calls`` count name.
TIMED_LAYERS = (
    "synth.generate", "schedule.static", "kernel.compile", "kernel.update",
    "kernel.solve", "multicluster.loop", "multihop.solve", "session.evaluate",
    "sim.compile", "sim.replay", "conformance.classify", "store.get",
    "store.put", "serve.journal_append",
)

#: Per-layer metrics that are not a layer's time/calls/failures triple.
_EXTRA_PER_LAYER: Dict[str, tuple] = {
    "session.memo_hit_ratio": ("ratio", "higher"),
    "optim.os_evaluations": ("count", "lower"),
    "optim.or_evaluations": ("count", "lower"),
    "optim.os_wall_s": ("s", "lower"),
    "optim.or_wall_s": ("s", "lower"),
    "sim.events": ("count", "higher"),
    "unattributed_s": ("s", "lower"),
    "unit_wall_s": ("s", "lower"),
    "tracing.overhead_ratio": ("ratio", "lower"),
    "serve.submit_ms_p50": ("ms", "lower"),
    "serve.result_wait_ms_p50": ("ms", "lower"),
    "serve.queue_wait_ms_avg": ("ms", "lower"),
    "serve.unit_compute_ms_avg": ("ms", "lower"),
    "serve.direct_eval_ms": ("ms", "lower"),
    "serve.overhead_ratio": ("ratio", "lower"),
    "serve.hit_latency_p50_ms": ("ms", "lower"),
    "serve.computed_latency_p50_ms": ("ms", "lower"),
    "serve.computed": ("count", "lower"),
    "serve.store_hits": ("count", "higher"),
    "serve.dedup_hits": ("count", "higher"),
    "serve.errors": ("count", "lower"),
    "serve.refused": ("count", "lower"),
    "serve.retry_ratio": ("ratio", "lower"),
    "serve.wasted_hedge_ratio": ("ratio", "lower"),
    "serve.latency_p99_ms": ("ms", "lower"),
    "serve.bulk_seeds_per_s": ("1/s", "higher"),
}


def _layer_metric_names() -> Dict[str, tuple]:
    out: Dict[str, tuple] = {}
    for layer in TIMED_LAYERS:
        out[f"{layer}_s"] = ("s", "lower")
        calls = "multicluster.calls" if layer == "multicluster.loop" else (
            f"{layer}_calls"
        )
        out[calls] = ("count", "lower")
        out[f"{layer}_failures"] = ("count", "lower")
    return out


#: Per-layer metrics: name -> (unit, better).  Printed with tracing on.
PER_LAYER: Dict[str, tuple] = {**_layer_metric_names(), **_EXTRA_PER_LAYER}


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def degree_ratio(system, degree: float) -> float:
    """``1 + δΓ / Σ D_G``: the degree of schedulability per unit of
    deadline.  For a schedulable result this is ``Σ R_G / Σ D_G`` -- in
    (0, 1], lower is better -- so it is positive and comparable across
    systems of different size, where the raw (negative) δΓ is not."""
    deadlines = sum(g.deadline for g in system.app.graphs.values())
    return 1.0 + degree / deadlines


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def digest(obj: Any) -> str:
    """Stable content hash of a JSON-compatible object."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


@dataclass
class RunOutcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Messages of output checks that did not hold.
    check_failures: List[str] = field(default_factory=list)
    #: Workload shapes (processes, messages, CAN messages, clusters).
    shapes: Dict[str, Any] = field(default_factory=dict)
    #: Workload-specific metrics (see ``NAMED``).
    named: Dict[str, float] = field(default_factory=dict)
    #: Everything else worth keeping in the run record.
    detail: Dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        self.check_failures.append(message)
        self.failed += count


def system_shape(system) -> Dict[str, int]:
    """The shape fields a result is stamped with."""
    return {
        "processes": system.app.process_count(),
        "messages": system.app.message_count(),
        "can_messages": len(system.can_messages()),
        "clusters": len(system.topology.clusters),
        "gateways": len(system.arch.gateways()),
    }


def source_digest() -> str:
    """Hash of the program's source files: identifies the code measured
    when the checkout carries no version-control metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without leaving the
    checkout (``None`` where the checkout is not a git repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        return None
    return None


def stamp(workload: str, seed: int, trace: bool, shapes) -> Dict[str, Any]:
    """Host and input identity of one result."""
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit(),
        "source_digest": source_digest(),
        "shapes": shapes,
        "argv": sys.argv[1:],
    }


def layer_metrics(ledger, units: int, unit_wall_s: float) -> Dict[str, float]:
    """Per-layer metrics from a ledger, per unit of traced work.

    ``units`` is how many work units the traced section ran (campaign
    blocks, synthesized systems, serve phases) and ``unit_wall_s`` the
    traced wall per unit.  Layers with no span report zero.
    """
    totals = ledger.totals()
    per = 1.0 / max(1, units)
    out: Dict[str, float] = {}
    self_sum = 0.0
    for layer in TIMED_LAYERS:
        row = totals.get(layer, {"self_s": 0.0, "calls": 0, "failures": 0})
        calls = "multicluster.calls" if layer == "multicluster.loop" else (
            f"{layer}_calls"
        )
        out[f"{layer}_s"] = row["self_s"] * per
        out[calls] = row["calls"] * per
        out[f"{layer}_failures"] = row["failures"]
        self_sum += row["self_s"]
    out["sim.events"] = ledger.counts.get("sim.events", 0) * per
    out["unit_wall_s"] = unit_wall_s
    out["unattributed_s"] = max(0.0, unit_wall_s - self_sum * per)
    return out


def layer_shares(metrics: Dict[str, float]) -> Dict[str, float]:
    """Each layer's self time as a share of the traced unit wall."""
    wall = metrics.get("unit_wall_s") or 0.0
    if wall <= 0:
        return {}
    shares = {
        layer: metrics[f"{layer}_s"] / wall for layer in TIMED_LAYERS
    }
    shares["unattributed"] = metrics["unattributed_s"] / wall
    return shares
