"""The ``serve`` workload: a closed-loop client against ``repro serve``.

Phase A: two client threads each submit one evaluation of a 16-process
configuration, wait for its result, then submit the next (a closed
loop, the traffic model of the service's own callers).  About 30% of
submissions repeat an earlier configuration, so store-hit reads run
beside compute-and-put writes.  Phase B submits bulk conformance
campaigns with ``run_campaign_via_server``.

With tracing off the daemon is a ``repro serve --workers 2`` subprocess
on a fresh store.  The traced run hosts the daemon in this process so
the ledger can wrap its store and journal calls; its worker processes
are forked before the ledger is installed and stay untraced.
"""

from __future__ import annotations

import os
import queue
import random
import shutil
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from repro.api.session import Session
from repro.conformance import run_campaign
from repro.conformance.campaign import conformance_configuration
from repro.io.serialize import config_from_dict, config_to_dict, system_to_dict
from repro.serve import ServeClient, ServerError, run_campaign_via_server
from repro.synth import WorkloadSpec, generate_workload

from .common import (
    WORK,
    RunOutcome,
    degree_ratio,
    digest,
    layer_metrics,
    mean,
    median,
    percentile,
    system_shape,
)
from .ledger import Ledger
from .workloads import campaign_spec, mean_shape, memo_hit_ratio, traced_ledger

#: Share of submissions that repeat an earlier configuration.
REPEAT_SHARE = 0.3
#: Phase A runs at least this many requests, so p99 has >= 10 beyond it.
MIN_REQUESTS = 1010
#: Share of ``--seconds`` given to phase A (phase B takes the rest).
PHASE_A_SHARE = 0.7
#: Phase B: campaign blocks submitted through the server (the first,
#: right after phase A, runs slower and is not timed), and how many
#: seeds of the first block are compared with a local campaign.
BULK_BLOCKS = 3
BULK_SEEDS = 300
BULK_CHECKED_SEEDS = 150
BULK_BASE = 20_000_000
#: Seeds of the bulk campaign run as warm-up during set-up.
WARMUP_BULK_SEEDS = 20
#: Requests of each (untraced, traced) phase A of the traced run.
TRACE_REQUESTS = 300
#: Sequential warm-up evaluations after the daemon is healthy.
WARMUP_REQUESTS = 8
#: Distinct TDMA round counts the configurations are built on.
ROUND_CHOICES = 12
CLIENTS = 2
#: 16-process systems the configurations are spread over (more than
#: a worker's 4 warm sessions, so some units open a session first).
SERVE_SYSTEMS = 32
WORKERS = 2
REQUEST_TIMEOUT_S = 60.0


class RequestPlan:
    """The seeded request stream: which configuration each submission
    carries.

    Configuration ``u`` belongs to system ``u % 32``: that system's
    canonical configuration (``4 + (u // 32) % 12`` TDMA rounds per
    period) with one seeded swap of process priorities and two of
    message priorities, redrawn until it differs from every earlier
    configuration -- so the only repeats are the planned ones, which
    name an earlier ``u``.
    """

    def __init__(self, systems, seed: int) -> None:
        self.seed = seed
        self.bases = [
            [
                config_to_dict(conformance_configuration(system, 4 + r))
                for r in range(ROUND_CHOICES)
            ]
            for system in systems
        ]
        self._rng = random.Random(seed)
        self._issued: List[int] = []
        self._configs: Dict[int, Dict[str, Any]] = {}
        self._seen: set = set()
        self._lock = threading.Lock()

    def system_of(self, u: int) -> int:
        return u % len(self.bases)

    def config(self, u: int) -> Dict[str, Any]:
        with self._lock:
            return self._config(u)

    def _config(self, u: int) -> Dict[str, Any]:
        config = self._configs.get(u)
        if config is not None:
            return config
        base = self.bases[self.system_of(u)][
            (u // len(self.bases)) % ROUND_CHOICES
        ]
        for attempt in range(1000):
            rng = random.Random(f"{self.seed}/{u}/{attempt}")
            config = {
                **base,
                "process_priorities": _swapped(
                    base["process_priorities"], rng, 1
                ),
                "message_priorities": _swapped(
                    base["message_priorities"], rng, 2
                ),
            }
            key = digest(config)
            if key not in self._seen:
                break
        self._seen.add(key)
        self._configs[u] = config
        return config

    def draw(self) -> int:
        with self._lock:
            if self._issued and self._rng.random() < REPEAT_SHARE:
                return self._rng.choice(self._issued)
            u = len(self._issued)
            self._issued.append(u)
            self._config(u)
            return u


def _swapped(priorities: Dict[str, int], rng, swaps: int) -> Dict[str, int]:
    """``priorities`` with ``swaps`` seeded pairwise exchanges."""
    out = dict(priorities)
    names = sorted(out)
    if len(names) < 2:
        return out
    for _ in range(swaps):
        a, b = rng.sample(names, 2)
        out[a], out[b] = out[b], out[a]
    return out


class _Daemon:
    """A ``repro serve`` subprocess and the thread draining its output."""

    def __init__(self, store_dir: str) -> None:
        from .common import ROOT

        tmp = WORK / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp))
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--store", store_dir,
                "--workers", str(WORKERS), "--port", "0",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            cwd=str(ROOT), env=env,
        )
        self.lines: "queue.Queue[str]" = queue.Queue()
        self.tail: List[str] = []
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.url = self._await_url()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.tail = (self.tail + [line.rstrip()])[-20:]
            self.lines.put(line)

    def _await_url(self) -> str:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                line = self.lines.get(timeout=0.5)
            except queue.Empty:
                if self.proc.poll() is not None:
                    break
                continue
            if "serving on " in line:
                return line.strip().split("serving on ", 1)[1]
        self.proc.kill()
        self.proc.wait(timeout=30)
        self._reader.join(timeout=10)
        self.proc.stdout.close()
        raise RuntimeError(f"daemon did not start: {self.tail}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                ServeClient(self.url, timeout=30, retries=0).shutdown()
            except ServerError:
                self.proc.terminate()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self._reader.join(timeout=10)
        self.proc.stdout.close()


class _InProcessDaemon:
    """The service hosted in this process (traced runs only)."""

    def __init__(self, store_dir: str) -> None:
        from repro.serve import EvaluationService, serve

        self.service = EvaluationService(store_dir, workers=WORKERS)
        ready = threading.Event()
        announced: Dict[str, str] = {}
        self._thread = threading.Thread(
            target=serve, args=(self.service,),
            kwargs=dict(
                port=0, ready=ready,
                announce=lambda msg: announced.setdefault("line", msg),
            ),
            daemon=True,
        )
        self._thread.start()
        if not ready.wait(timeout=60):
            raise RuntimeError("in-process daemon did not start")
        self.url = announced["line"].split("serving on ", 1)[1]

    def stop(self) -> None:
        ServeClient(self.url, timeout=30, retries=0).shutdown()
        self._thread.join(timeout=60)


class _Record:
    __slots__ = (
        "key", "system", "config", "latency", "submit", "wait", "kind",
        "result", "error",
    )

    def __init__(self, plan: RequestPlan, u: int) -> None:
        #: Identity of the configuration (repeats share it).
        self.key = (plan.seed, u)
        self.system = plan.system_of(u)
        self.config = plan.config(u)
        self.latency = self.submit = self.wait = 0.0
        self.kind = ""
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None


class ServeWorkload:
    name = "serve"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.in_process = False
        self.daemon = None
        self._setups = 0

    # -- set-up -----------------------------------------------------------------

    def make_systems(self) -> List[Any]:
        return [
            generate_workload(WorkloadSpec(
                nodes=2, processes_per_node=8,
                seed=self.seed * SERVE_SYSTEMS + index,
            ))
            for index in range(SERVE_SYSTEMS)
        ]

    def setup(self) -> None:
        self.systems = self.make_systems()
        self.system_dicts = [system_to_dict(s) for s in self.systems]
        self.plan = RequestPlan(self.systems, self.seed)
        self._setups += 1
        self.store_dir = str(
            WORK / f"serve-{os.getpid()}-{self._setups}" / "store"
        )
        os.makedirs(os.path.dirname(self.store_dir), exist_ok=True)
        daemon_cls = _InProcessDaemon if self.in_process else _Daemon
        self.daemon = daemon_cls(self.store_dir)
        client = ServeClient(self.daemon.url, timeout=REQUEST_TIMEOUT_S)
        deadline = time.monotonic() + 30
        while not client.healthy():
            if time.monotonic() > deadline:
                raise RuntimeError("daemon never reported healthy")
            time.sleep(0.05)
        warm = RequestPlan(self.systems, self.seed + 7_919)
        for u in range(WARMUP_REQUESTS):
            envelope = client.evaluate(
                self.system_dicts[warm.system_of(u)],
                warm.config(1_000_000 + u),
            )
            client.result(envelope["id"], timeout=REQUEST_TIMEOUT_S)
        # The bulk path too: workers import and warm the campaign code.
        run_campaign_via_server(
            campaign_spec(BULK_BASE - WARMUP_BULK_SEEDS, WARMUP_BULK_SEEDS),
            self.daemon.url, timeout=120,
        )

    def teardown(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None
            shutil.rmtree(os.path.dirname(self.store_dir), ignore_errors=True)

    def shapes(self) -> Dict[str, Any]:
        return {
            **mean_shape(
                [system_shape(s) for s in self.make_systems()], SERVE_SYSTEMS
            ),
            "clients": CLIENTS, "workers": WORKERS,
            "repeat_share": REPEAT_SHARE, "bulk_seeds": BULK_SEEDS,
        }

    # -- phases -------------------------------------------------------------------

    def _phase_a(self, plan: RequestPlan, stop) -> tuple:
        """Closed loop over ``plan`` until ``stop(elapsed, completed)``;
        returns the request records and the phase wall."""
        url = self.daemon.url
        records: List[_Record] = []
        lock = threading.Lock()
        started = time.perf_counter()

        def client_loop() -> None:
            client = ServeClient(url, timeout=REQUEST_TIMEOUT_S, retries=0)
            while True:
                with lock:
                    if stop(time.perf_counter() - started, len(records)):
                        return
                record = _Record(plan, plan.draw())
                t0 = time.perf_counter()
                try:
                    envelope = client.evaluate(
                        self.system_dicts[record.system], record.config
                    )
                    t1 = time.perf_counter()
                    payload = client.result(
                        envelope["id"], timeout=REQUEST_TIMEOUT_S
                    )
                    t2 = time.perf_counter()
                    record.kind = (
                        "hit" if envelope["store_hit"]
                        else "dedup" if envelope["deduplicated"]
                        else "computed"
                    )
                    record.submit, record.wait = t1 - t0, t2 - t1
                    record.latency = t2 - t0
                    if payload["status"] == "done":
                        record.result = payload["result"]
                    else:
                        record.error = str(payload.get("error"))
                except ServerError as exc:
                    record.error = str(exc)
                except Exception as exc:  # a failed request, not a lost thread
                    record.error = f"{type(exc).__name__}: {exc}"
                with lock:
                    records.append(record)

        # Daemon threads: an interrupted run exits without waiting for them.
        threads = [
            threading.Thread(target=client_loop, daemon=True)
            for _ in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return records, time.perf_counter() - started

    def _phase_b(self, blocks: int, out: RunOutcome, local_check: int):
        """Bulk campaigns through the server; seeds/s per block."""
        rates = []
        for block in range(blocks):
            spec = campaign_spec(
                BULK_BASE + (self.seed * BULK_BLOCKS + block) * BULK_SEEDS,
                BULK_SEEDS,
            )
            started = time.perf_counter()
            out.attempted += BULK_SEEDS
            try:
                report = run_campaign_via_server(
                    spec, self.daemon.url, timeout=120
                )
            except ServerError as exc:
                out.fail(f"bulk block {block}: {exc}", BULK_SEEDS)
                continue
            rates.append(BULK_SEEDS / (time.perf_counter() - started))
            bad = len(report.errored) + len(report.violating)
            bad += BULK_SEEDS - len(report.outcomes)
            if bad:
                out.fail(f"bulk block {block}: {report.counts}", bad)
            if block < local_check:
                checked = min(BULK_CHECKED_SEEDS, BULK_SEEDS)
                head = campaign_spec(spec.seed0, checked)
                served = digest(
                    [o.to_dict() for o in report.outcomes[:checked]]
                )
                local = digest(
                    [o.to_dict() for o in run_campaign(head).outcomes]
                )
                if served != local:
                    out.fail(f"bulk block {block}: differs from local run")
        return rates

    def _check_records(self, records, out: RunOutcome) -> float:
        """Every response equals a direct ``Session.evaluate`` of its
        configuration; returns the mean direct evaluation time (ms)."""
        from repro.io.serialize import run_result_to_dict

        sessions = [Session(system) for system in self.systems]
        direct: Dict[int, Dict[str, Any]] = {}
        spent = 0.0
        for record in records:
            out.attempted += 1
            if record.error is not None:
                out.failed += 1
                out.check_failures.append(
                    f"request {record.key}: {record.error}"
                )
                continue
            if record.key not in direct:
                config = config_from_dict(record.config)
                started = time.perf_counter()
                run = sessions[record.system].evaluate(
                    config, backend="analysis"
                )
                spent += time.perf_counter() - started
                direct[record.key] = (record.system, run_result_to_dict(run))
            if record.result != direct[record.key][1]:
                out.fail(f"request {record.key}: response != direct evaluation")
        self._quality(direct, out)
        return 1000.0 * spent / max(1, len(direct))

    def _quality(self, results: Dict[Any, tuple], out) -> None:
        """Mean degree ratio and buffer need of the schedulable results."""
        good = [
            (system, r) for system, r in results.values()
            if r.get("schedulable")
        ]
        out.metrics["degree_ratio"] = median(
            degree_ratio(self.systems[system], r["degree"])
            for system, r in good
        )
        out.metrics["buffers_bytes"] = mean(
            r["total_buffers"] for _, r in good
        )

    def _check_counters(self, before, after, records, out: RunOutcome):
        delta = {
            key: after["counters"][key] - before["counters"][key]
            for key in after["counters"]
        }
        unique = len({r.key for r in records})
        if delta["computed"] > unique:
            out.fail(
                f"computed {delta['computed']} > unique configurations "
                f"{unique}"
            )
        return delta

    # -- measurement ----------------------------------------------------------------

    def measure(self, seconds: float, out: RunOutcome) -> None:
        client = ServeClient(self.daemon.url, timeout=REQUEST_TIMEOUT_S)
        phase_a = seconds * PHASE_A_SHARE
        before = client.stats()
        records, wall = self._phase_a(
            self.plan,
            lambda elapsed, done: (
                elapsed >= phase_a and done >= MIN_REQUESTS
            ) or elapsed >= 3 * phase_a
        )
        after = client.stats()
        rates = self._phase_b(BULK_BLOCKS, out, local_check=1)
        delta = self._check_counters(before, after, records, out)
        self._check_records(records, out)
        ok = [r.latency for r in records if r.error is None]
        if ok:
            p50 = percentile(ok, 50)
            out.metrics["latency_p50_ms"] = 1000 * p50
            # The closed loop's completion rate at the median request.
            # Its plain rate (serve_rps) is two over the *mean* latency,
            # which the slowest requests set; see README.md.
            out.metrics["throughput_per_s"] = CLIENTS / p50
            out.named.update({
                "serve_rps": len(ok) / wall,
                "serve_latency_p50_ms": 1000 * percentile(ok, 50),
                "serve_latency_p99_ms": 1000 * percentile(ok, 99),
            })
        if len(rates) > 1:
            out.named["serve_bulk_seeds_per_s"] = median(rates[1:])
        out.detail.update({
            "requests": len(records),
            "beyond_p99": len(ok) - int(len(ok) * 0.99 + 0.999999),
            "phase_a_wall_s": wall,
            "kinds": _kinds(records),
            "counters_delta": delta,
            "bulk_rates": rates,
        })

    def trace(self, seconds: float, out: RunOutcome) -> Ledger:
        client = ServeClient(self.daemon.url, timeout=REQUEST_TIMEOUT_S)
        # Both halves draw the same request mix from their own plan, so
        # neither half's repeats hit the other's results.
        plain, wall_plain = self._phase_a(
            RequestPlan(self.systems, self.seed + 1_000_001),
            lambda elapsed, done: done >= TRACE_REQUESTS,
        )
        before = client.stats()
        ledger = traced_ledger()
        with ledger:
            traced, wall_traced = self._phase_a(
                self.plan, lambda elapsed, done: done >= TRACE_REQUESTS
            )
            middle = client.stats()
            started = time.perf_counter()
            bulk = self._phase_b(1, out, local_check=0)
            wall_bulk = time.perf_counter() - started
        after = client.stats()
        delta = self._check_counters(before, middle, traced, out)
        computed_total = (
            after["counters"]["computed"] - before["counters"]["computed"]
        )
        self._check_records(plain, out)
        direct_ms = self._check_records(traced, out)
        metrics = layer_metrics(ledger, 1, wall_traced + wall_bulk)
        metrics["session.memo_hit_ratio"] = memo_hit_ratio(ledger)
        metrics["tracing.overhead_ratio"] = wall_traced / wall_plain
        ok = [r for r in traced if r.error is None]
        computed = [r.latency for r in ok if r.kind == "computed"]
        hits = [r.latency for r in ok if r.kind == "hit"]
        supervisor = {
            key: after["supervisor"].get(key, 0)
            - before["supervisor"].get(key, 0)
            for key in after["supervisor"]
        }
        dispatched = max(1, supervisor.get("dispatched", 0))
        metrics.update({
            "serve.submit_ms_p50": 1000 * _p50([r.submit for r in ok]),
            "serve.result_wait_ms_p50": 1000 * _p50([r.wait for r in ok]),
            "serve.queue_wait_ms_avg": 1000 * after["timings"][
                "queue_wait_s_avg"
            ],
            "serve.unit_compute_ms_avg": 1000 * after["timings"][
                "unit_compute_s_avg"
            ],
            "serve.direct_eval_ms": direct_ms,
            "serve.overhead_ratio": (
                1000 * _p50(computed) / direct_ms if direct_ms else 0.0
            ),
            "serve.hit_latency_p50_ms": 1000 * _p50(hits),
            "serve.latency_p99_ms": 1000 * (
                percentile([r.latency for r in ok], 99) if ok else 0.0
            ),
            "serve.bulk_seeds_per_s": median(bulk) if bulk else 0.0,
            "serve.computed_latency_p50_ms": 1000 * _p50(computed),
            "serve.computed": delta["computed"],
            "serve.store_hits": delta["store_hits"],
            "serve.dedup_hits": delta["dedup_hits"],
            "serve.errors": delta["errors"],
            "serve.refused": sum(
                1 for r in traced
                if r.error is not None and "overload" in r.error
            ),
            "serve.retry_ratio": supervisor.get("retries", 0) / dispatched,
            "serve.wasted_hedge_ratio": (
                supervisor.get("hedge_wasted", 0) / dispatched
            ),
        })
        out.metrics.update(metrics)
        out.detail.update({
            "kinds": _kinds(traced), "supervisor_delta": supervisor,
            "reconcile": {
                "store_put_calls": {
                    "ledger": ledger.totals().get("store.put", {}).get(
                        "calls", 0
                    ),
                    "computed": computed_total,
                },
            },
        })
        return ledger


def _p50(values: List[float]) -> float:
    return percentile(values, 50) if values else 0.0


def _kinds(records) -> Dict[str, int]:
    kinds: Dict[str, int] = {}
    for record in records:
        key = record.kind if record.error is None else "error"
        kinds[key] = kinds.get(key, 0) + 1
    return kinds
