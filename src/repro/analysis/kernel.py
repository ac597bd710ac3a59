"""Compiled analysis kernel: the optimizer hot path of the holistic
response-time analysis, on every topology.

An interpreted holistic solver (the route-aware oracle
:func:`repro.analysis.multihop.multihop_response_time_analysis`)
rebuilds its full O(n²) interference structure — string-keyed dicts,
per-pair ancestor queries, relative phases — on **every** call, while
the Fig. 5 multi-cluster loop runs the analysis up to 30 times per
evaluation and the synthesis heuristics run thousands of evaluations.
Everything but the jitters is structurally invariant across those calls
(the classic observation behind Tindell & Clark's holistic analysis and
Palencia & Harbour's offset refinement), which is exactly what a
compiled kernel exploits.  The oracle stays as the readable reference
the kernel is tested against; production code never calls it.

The kernel solves the oracle's per-leg equations.  The routing plan
(``system.routing_for(routes)``) splits every message into legs: a
**CAN leg** arbitrates on one ET cluster's bus and is disturbed only by
legs on that bus; a **FIFO leg** waits in one gateway's ``Out_TTP`` and
competes, priority-blind, with that gateway's other FIFO users.  A
leg's queueing jitter follows from its upstream stage by one of four
entry rules (ET source, TT-sourced via a gateway, after a CAN leg,
after a FIFO transit).  The canonical two-cluster system is the
one-leg case: CAN leg ``i`` is CAN message ``i``.

:class:`AnalysisContext` splits the work into three tiers:

* **compile** (once per :class:`~repro.system.System` and routing
  plan): intern every activity — ET process, CAN leg, FIFO leg — to an
  integer id and record the id-indexed constants (periods, WCETs,
  frame times, sizes, entry rules, precedence arcs).
* **update** (once per ``(π, β)``): flatten the priority-dependent
  interference sets into parallel index/value rows.  When only a few
  activities changed priority (an OptimizeResources swap, an
  OptimizeSchedule slot candidate) only the rows whose *membership*
  could have changed are rebuilt — O(n·|changed|) instead of O(n²) —
  and a ``β`` change touches nothing but a handful of scalars (gateway
  slots, round length, divergence horizon).  A route change recompiles.
* **solve** (once per offsets ``φ``): run the global monotone fixed
  point entirely over list indices — no string-dict lookups anywhere on
  the inner loops — optionally **warm-started** from a previous
  solution.  A busy-window row whose inputs (its own jitter, its
  interferers' jitters and residencies) did not move since its last
  sweep is skipped: it would return its previous result again.

Warm starts come in two flavours:

* *Within one solve*, each activity's busy-window equation is seeded
  with its window from the previous outer iteration.  This is exact:
  the outer Gauss-Seidel state ratchets monotonically upward from
  bottom, so the previous window is ≤ the new least fixed point, and a
  monotone busy-window iteration started anywhere at or below its least
  fixed point converges to exactly that fixed point.
* *Across solves* (``warm=``), the previous solution seeds the whole
  state vector.  This is **not** exact in general: re-scheduling can
  move offsets so that an activity's true least fixed point shrinks,
  and a seed above the least fixed point converges to *a* fixed point
  of the same monotone equations — a safe (possibly pessimistic) upper
  bound, never an unsound one.  It is therefore opt-in
  (``multi_cluster_scheduling(warm_start=True)``); the default path is
  parity-tested bit for bit against the multi-hop oracle.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..buses.ttp import TTPBusConfig
from ..exceptions import AnalysisError
from ..model.architecture import GATEWAY_TRANSFER_PROCESS, MessageRoute
from ..model.configuration import OffsetTable, PriorityAssignment
from ..obs import metrics as _obs_metrics
from ..obs import state as _obs_state
from ..obs import trace as _obs_trace
from ..semantics import (
    ettt_queue_instant,
    fifo_competitors,
    fifo_drain_rounds,
    gateway_transfer_delay,
)
from ..system import System
from .can_analysis import TIE_EPSILON, can_error_term
from .holistic import _MAX_INNER_ITERATIONS, _MAX_OUTER_ITERATIONS
from .timing import ActivityTiming, ResponseTimes

__all__ = ["AnalysisContext", "KernelStats", "SolveState"]

_INF = math.inf


@dataclass
class KernelStats:
    """Counters describing how a kernel earned its keep.

    ``compiles`` counts full interference-table builds, ``updates`` the
    incremental row rebuilds that replaced one, ``solves`` the fixed
    points run and ``warm_starts`` the solves seeded from a previous
    solution instead of from zero jitter.
    """

    compiles: int = 0
    updates: int = 0
    rows_recompiled: int = 0
    solves: int = 0
    warm_starts: int = 0


@dataclass
class SolveState:
    """One solved fixed point, in kernel (id-indexed) coordinates.

    Pass it back into :meth:`AnalysisContext.solve` to warm-start the
    next solve.  All vectors are parallel to the kernel's interned
    activity lists: ``proc_*`` per ET process, ``msg_*`` per CAN leg
    and ``ttp_*`` per FIFO leg.
    """

    proc_jitter: List[float]
    proc_window: List[float]
    proc_resp: List[float]
    msg_jitter: List[float]
    msg_queue: List[float]
    msg_resp: List[float]
    ttp_jitter: List[float]
    ttp_queue: List[float]
    ttp_ahead: List[float]

    def finite(self) -> bool:
        """Whether every component converged (safe to warm-start from)."""
        for vec in (
            self.proc_jitter, self.proc_window, self.msg_jitter,
            self.msg_queue, self.ttp_jitter, self.ttp_queue,
        ):
            for value in vec:
                if value == _INF:
                    return False
        return True


def _solve_row(
    base: float,
    own_jitter: float,
    row: List[tuple],
    jitters: List[float],
    residencies: List[float],
    epsilon: float,
    bound: float,
    start: float,
) -> float:
    """Least fixed point of one busy-window equation over an id row.

    Mirrors :func:`repro.analysis.holistic._solve_window` operation for
    operation (same expressions, same summation order) so results are
    bit-identical; ``start`` seeds the iteration anywhere in
    ``[base, lfp]`` without changing the result (see module docstring).
    """
    if not row:
        return base
    if base == _INF or own_jitter == _INF:
        return _INF
    for entry in row:
        if jitters[entry[0]] == _INF:
            return _INF
    floor = math.floor
    ceil = math.ceil
    w = start
    for _ in range(_MAX_INNER_ITERATIONS):
        total = base
        for k, rel, period, cost, lck, anc in row:
            if lck:
                k_max = floor((own_jitter + w - rel) / period + 1e-9)
                k_min = ceil(
                    (-(jitters[k] + residencies[k]) - rel) / period - 1e-9
                )
                if anc and k_min < 0:
                    k_min = 0
                hits = k_max - k_min + 1
                if hits < 0:
                    hits = 0
            else:
                x = w + jitters[k] + epsilon
                hits = ceil(x / period - 1e-12) if x > 0 else 0
            total += hits * cost
        if total == w:
            return w
        if total > bound:
            return _INF
        w = total
    return _INF


#: Entry-jitter rule of a CAN leg: how its queueing jitter follows from
#: the upstream stage (the per-leg rules of
#: :mod:`repro.analysis.multihop`).  Each leg carries ``(rule, arg, add)``.
_ET_SOURCE = 0  # J = r_S - C_S of the ET sender (arg: process id)
_TT_SOURCE = 1  # J = C_T(via): the MBI arrival is the offset
_AFTER_CAN = 2  # J = r_prev + C_T(via) (arg: previous CAN leg)
_AFTER_FIFO = 3  # J = J_f + w_f + slot(g_f) + C_T(via) (arg: FIFO leg)


def _route_key(routes) -> tuple:
    """Hashable form of a route-override mapping (``()`` for none)."""
    if not routes:
        return ()
    return tuple(sorted((name, tuple(r)) for name, r in routes.items()))


def _columns(rows: List[tuple], width: int) -> List[list]:
    """Transpose equal-width tuples into ``width`` parallel lists."""
    if not rows:
        return [[] for _ in range(width)]
    return [list(col) for col in zip(*rows)]


def _users(rows: List[List[tuple]]) -> List[List[int]]:
    """Reverse dependencies: the rows each id appears in.  The extra
    last slot collects the rows of the virtual CAN error process, whose
    jitter is constant, so it is never read."""
    users: List[List[int]] = [[] for _ in range(len(rows) + 1)]
    for i, row in enumerate(rows):
        for entry in row:
            users[entry[0]].append(i)
    return users


class AnalysisContext:
    """A holistic analysis compiled once per ``(System, routes, π, β)``.

    See the module docstring for the compile/update/solve split.  The
    context is deliberately *not* thread-safe: a :class:`Session` owns
    one and serializes access.
    """

    def __init__(
        self,
        system: System,
        priorities: PriorityAssignment,
        bus: TTPBusConfig,
        faults=None,
        routes=None,
    ) -> None:
        self.system = system
        self.stats = KernelStats()
        # Modeled CAN error process: one virtual unlocked interferer
        # (see repro.analysis.can_analysis.can_error_term) appended to
        # every CAN leg row.  Its id is the virtual slot len(can_legs);
        # its jitter is a constant held in the extra msg_jitter slot.
        # Degradation factors (node_slow / bus_slow) are *not* handled
        # here — callers derate the System before compiling a context.
        self.faults = faults
        self._can_error: Optional[Tuple[float, float, float]] = None
        term = can_error_term(system, faults)
        if term is not None:
            self._can_error = (term.period, term.cost, term.jitter)
        self._route_key = _route_key(routes)
        self._compile_static(system.routing_for(routes))
        self._compiled = False
        self._proc_prio: List[int] = []
        self._leg_prio: List[int] = []
        self._bus: Optional[TTPBusConfig] = None
        self.update(priorities, bus, routes=routes)

    # -- static (per System and routing plan) compile -----------------------

    def _compile_static(self, plan) -> None:
        """Intern every activity of the System under routing ``plan``.

        One id per ET process, per CAN leg and per FIFO leg, numbered
        message-sorted then by position along the route.  On the
        canonical topology every CAN message has exactly one CAN leg
        (leg ``i`` is message ``i``) and every ET->TT message one FIFO
        leg.
        """
        system = self.system
        app = system.app
        arch = system.arch
        topo = system.topology
        # Route-aware records (per-leg hops, per-gateway transfer
        # processes) off the canonical single-hop conventions.
        self._leg_records = system.multi_topology or bool(self._route_key)

        self.et_procs: List[str] = system.et_processes()
        self.proc_index: Dict[str, int] = {
            name: i for i, name in enumerate(self.et_procs)
        }
        self.can_msgs: List[str] = system.can_messages()
        self.msg_index: Dict[str, int] = {
            name: i for i, name in enumerate(self.can_msgs)
        }
        proc_graphs = [app.graph_of_process(p) for p in self.et_procs]
        procs = [
            g.processes[p] for g, p in zip(proc_graphs, self.et_procs)
        ]
        self._wcet = [q.wcet for q in procs]
        self._proc_period = [g.period for g in proc_graphs]
        self._proc_node = [q.node for q in procs]

        # Gateways with a slot on the (single) TT bus, and C_T of every
        # gateway crossed.
        self._tt_gateways: List[str] = topo.gateways_on(
            topo.tt_clusters()[0]
        )
        gw_index = {g: i for i, g in enumerate(self._tt_gateways)}
        transfer = {g: arch.transfer_wcet_of(g) for g in arch.gateways()}
        self._transfer_wcet = gateway_transfer_delay(system)

        # -- legs -------------------------------------------------------------
        # Per CAN leg: (message name, message id, period, frame time,
        # entry rule, relay, cluster).  The relay is the gateway that
        # brings the leg in from the TT side (TT-sourced or transit), else
        # None: two legs relayed by the same gateway at equal offsets are
        # enqueued atomically.
        legs_info: List[tuple] = []
        self.fifo_msgs: List[str] = []
        # Per FIFO leg: (gateway, previous CAN leg, C_T, size, period).
        fifo_info: List[tuple] = []
        # The CAN leg reported as can[m] (and feeding m's receiver): the
        # delivering leg, or the source leg of a message ending in a FIFO.
        self._msg_leg: List[int] = []
        self._hop_legs: List[Tuple[str, Tuple[Tuple[bool, int], ...]]] = []
        proc_index = self.proc_index
        for mid, m in enumerate(self.can_msgs):
            legs = plan.legs_of(m)
            graph = app.graph_of_message(m)
            msg = graph.messages[m]
            period = graph.period
            frame = system.can_frame_time(m)
            first = len(legs_info)
            fifo = -1
            hops: List[Tuple[bool, int]] = []
            for pos, leg in enumerate(legs):
                via = leg.via
                if leg.is_fifo:
                    fifo = len(fifo_info)
                    self.fifo_msgs.append(m)
                    fifo_info.append((
                        gw_index[via], len(legs_info) - 1, transfer[via],
                        float(msg.size), period,
                    ))
                    hops.append((True, fifo))
                    continue
                relay = None
                if via is None:
                    entry = (_ET_SOURCE, proc_index[msg.src], 0.0)
                elif pos == 0:
                    entry = (_TT_SOURCE, -1, transfer[via])
                    relay = via
                elif legs[pos - 1].is_fifo:
                    entry = (_AFTER_FIFO, fifo, transfer[via])
                    relay = via
                else:
                    entry = (_AFTER_CAN, len(legs_info) - 1, transfer[via])
                hops.append((False, len(legs_info)))
                legs_info.append(
                    (m, mid, period, frame, entry, relay, leg.cluster)
                )
            self._msg_leg.append(
                first if legs[-1].is_fifo else len(legs_info) - 1
            )
            if len(hops) > 1:
                self._hop_legs.append((m, tuple(hops)))
        (
            self._leg_name, self._leg_msg, self._leg_period,
            self._leg_frame, self._leg_entry, self._leg_relay,
            self._leg_cluster,
        ) = _columns(legs_info, 7)
        (
            self._fifo_gw, self._fifo_prev, self._fifo_transfer,
            self._fifo_size, self._fifo_period,
        ) = _columns(fifo_info, 5)
        self._bus_legs: Dict[str, List[int]] = {}
        for i, cluster in enumerate(self._leg_cluster):
            self._bus_legs.setdefault(cluster, []).append(i)

        # Incoming arcs of every ET process, for release jitter
        # propagation: (CAN leg id, -1, "") for message arcs (the
        # delivering leg), (-1, ET predecessor id, "") for same-cluster
        # precedence, and (-1, -1, name) for a TT predecessor (fixed
        # response = WCET).
        msg_leg = self._msg_leg
        msg_index = self.msg_index
        self._proc_arcs: List[List[Tuple[int, int, str]]] = []
        for p, graph in zip(self.et_procs, proc_graphs):
            arcs: List[Tuple[int, int, str]] = []
            for pred, msg_name in graph.predecessors(p):
                if msg_name is not None:
                    arcs.append((msg_leg[msg_index[msg_name]], -1, ""))
                elif pred in proc_index:
                    arcs.append((-1, proc_index[pred], ""))
                else:
                    arcs.append((-1, -1, pred))
            self._proc_arcs.append(arcs)
        self._tt_pred_wcet = {
            p: app.process(p).wcet for p in system.tt_processes()
        }

        self._procs_on_node: Dict[str, List[int]] = {}
        for i, node in enumerate(self._proc_node):
            self._procs_on_node.setdefault(node, []).append(i)
        self._max_graph_period = max(
            (g.period for g in app.graphs.values()), default=0.0
        )

        # Ancestor flags are priority-independent; precompute the pair
        # tables once so row rebuilds never re-query the System.  CAN
        # legs only interfere on their own bus, so each leg's flags run
        # parallel to its bus's member list.
        leg_name = self._leg_name
        bus_names = {
            cluster: [leg_name[k] for k in members]
            for cluster, members in self._bus_legs.items()
        }
        self._leg_anc: List[List[bool]] = []
        for name, cluster in zip(leg_name, self._leg_cluster):
            anc = system.message_ancestors(name)
            self._leg_anc.append([j in anc for j in bus_names[cluster]])
        et_procs = self.et_procs
        self._proc_anc_rows: Dict[int, List[bool]] = {}
        for members in self._procs_on_node.values():
            names = [et_procs[j] for j in members]
            for i in members:
                anc = system.process_ancestors(et_procs[i])
                self._proc_anc_rows[i] = [q in anc for q in names]

        # Out_TTP FIFO competitor rows are priority-*independent* — the
        # FIFO drains in arrival order (repro.semantics contract), so the
        # row of every FIFO leg is all other users of the same gateway's
        # FIFO and is compiled once per plan, never rebuilt on a (π, β)
        # re-target.
        fifo_index = {m: f for f, m in enumerate(self.fifo_msgs)}
        self._ttp_rows = []
        for f, m in enumerate(self.fifo_msgs):
            period_f = self._fifo_period[f]
            row = []
            anc = system.message_ancestors(m)
            for other in fifo_competitors(system, m, plan):
                k = fifo_index[other]
                period = self._fifo_period[k]
                row.append((k, 0.0, period, self._fifo_size[k],
                            period == period_f, other in anc))
            self._ttp_rows.append(row)
        # Largest frame (own message included) pending per FIFO row —
        # the fragmentation term of the whole-frame drain bound.
        self._ttp_max_size = [
            max(
                [self._fifo_size[f]]
                + [entry[3] for entry in self._ttp_rows[f]]
            )
            for f in range(len(self.fifo_msgs))
        ]

    # -- (π, β) compile and incremental update ------------------------------

    def _build_can_row(self, i: int, prio: List[int]) -> List[tuple]:
        """Higher-priority interferer row of CAN leg ``i``.

        ``prio`` is per leg (its message's priority).  Entries are
        ``(id, rel, period, cost, locked, ancestor)`` over the other legs
        on the same bus — each of another message, since a route is a
        simple path — in the oracle's iteration order (sorted message
        names); ``rel`` is filled by :meth:`_refresh_offsets` (it
        depends on ``φ``).
        """
        own = prio[i]
        period_i = self._leg_period[i]
        anc = self._leg_anc[i]
        row = [
            (k, 0.0, self._leg_period[k], self._leg_frame[k],
             self._leg_period[k] == period_i, anc[pos])
            for pos, k in enumerate(self._bus_legs[self._leg_cluster[i]])
            if k != i and prio[k] <= own
        ]
        if self._can_error is not None:
            # Error process interferes with every leg regardless of
            # priority; appended last so the oracle's summation order
            # (real interferers first, error term last) is preserved.
            period, cost, _ = self._can_error
            row.append((len(self._leg_msg), 0.0, period, cost, False, False))
        return row

    def _build_can_blocking(self, i: int, prio: List[int]) -> tuple:
        """Blocking structure of CAN leg ``i``.

        ``B`` is the largest lower-priority frame on the same bus that
        can already be on the wire.  The part contributed by
        different-period legs is a constant; the equal-period candidates
        depend on offsets and on the leg's evolving jitter, so they are
        kept as a candidate list that :meth:`_refresh_offsets` turns
        into a sorted offset/prefix-max table (the per-iteration query
        is then a binary search instead of a scan).
        """
        own = prio[i]
        period_i = self._leg_period[i]
        diff_const = 0.0
        same: List[int] = []
        for k in self._bus_legs[self._leg_cluster[i]]:
            if k == i or prio[k] <= own:
                continue
            if self._leg_period[k] == period_i:
                same.append(k)
            elif self._leg_frame[k] > diff_const:
                diff_const = self._leg_frame[k]
        return (diff_const, same)

    def _build_proc_row(self, i: int, prio: List[int]) -> List[tuple]:
        """Same-node higher-priority interferer row of ET process ``i``."""
        own = prio[i]
        period_i = self._proc_period[i]
        members = self._procs_on_node[self._proc_node[i]]
        anc = self._proc_anc_rows[i]
        return [
            (j, 0.0, self._proc_period[j], self._wcet[j],
             self._proc_period[j] == period_i, anc[pos])
            for pos, j in enumerate(members)
            if j != i and prio[j] < own
        ]

    def _refresh_users(self) -> None:
        """Rebuild the reverse dependencies of the CAN and process rows."""
        self._can_users = _users(self._can_rows)
        self._proc_users = _users(self._proc_rows)

    def _snapshot_bus(self, bus: TTPBusConfig) -> None:
        # Validate before assigning anything: a bus without a gateway
        # slot must not leave half-updated scalars behind (a retry with
        # the same object would then skip re-validation entirely).
        slots = [bus.slot_of(g) for g in self._tt_gateways]
        self._bus = bus
        self._round_length = bus.round_length
        self._gw_capacity = [slot.capacity for slot in slots]
        self._gw_slot_time = [slot.duration for slot in slots]
        self._horizon = (
            4.0 * max(self._max_graph_period, bus.round_length) + 1.0e4
        )

    def update(
        self,
        priorities: PriorityAssignment,
        bus: TTPBusConfig,
        routes=None,
    ) -> str:
        """Re-target the kernel at a new ``(π, β)`` and route overrides.

        Returns ``"compiled"`` on a full build (the first one, or after
        a route change, which re-derives every leg), ``"incremental"``
        when only the rows mentioning changed activities were rebuilt,
        and ``"cached"`` when nothing changed.  A ``β`` change alone
        never rebuilds a row — the TDMA round only enters the analysis
        through the gateway slot scalars and the divergence horizon.
        """
        key = _route_key(routes)
        if key != self._route_key:
            self._route_key = key
            self._compile_static(self.system.routing_for(routes))
            self._compiled = False
        proc_prio = [
            priorities.process_priority(p) for p in self.et_procs
        ]
        msg_prio = [
            priorities.message_priority(m) for m in self.can_msgs
        ]
        n_leg = len(self._leg_msg)
        leg_prio = [msg_prio[m] for m in self._leg_msg]
        if not self._compiled:  # full build
            self._can_rows = [
                self._build_can_row(i, leg_prio) for i in range(n_leg)
            ]
            self._can_blocking = [
                self._build_can_blocking(i, leg_prio)
                for i in range(n_leg)
            ]
            self._proc_rows = [
                self._build_proc_row(i, proc_prio)
                for i in range(len(self.et_procs))
            ]
            self._proc_prio = proc_prio
            self._leg_prio = leg_prio
            self._refresh_users()
            self._snapshot_bus(bus)
            self._compiled = True
            self.stats.compiles += 1
            return "compiled"

        changed = False
        changed_legs = [
            k for k in range(n_leg) if leg_prio[k] != self._leg_prio[k]
        ]
        if changed_legs:
            old = self._leg_prio
            for cluster, members in self._bus_legs.items():
                peers = [
                    k for k in changed_legs
                    if self._leg_cluster[k] == cluster
                ]
                if not peers:
                    continue
                for i in members:
                    if i in peers or any(
                        (old[k] <= old[i]) != (leg_prio[k] <= leg_prio[i])
                        for k in peers
                        if k != i
                    ):
                        self._can_rows[i] = self._build_can_row(
                            i, leg_prio
                        )
                        self._can_blocking[i] = self._build_can_blocking(
                            i, leg_prio
                        )
                        self.stats.rows_recompiled += 1
            # Out_TTP FIFO rows are priority-blind (built once in
            # _compile_static) — a π change never touches them.
            self._leg_prio = leg_prio
            changed = True

        changed_procs = [
            j for j in range(len(self.et_procs))
            if proc_prio[j] != self._proc_prio[j]
        ]
        if changed_procs:
            old = self._proc_prio
            touched_nodes = {self._proc_node[j] for j in changed_procs}
            for node in touched_nodes:
                peers = [
                    j for j in changed_procs if self._proc_node[j] == node
                ]
                for i in self._procs_on_node[node]:
                    if i in peers or any(
                        (old[j] < old[i]) != (proc_prio[j] < proc_prio[i])
                        for j in peers
                        if j != i
                    ):
                        self._proc_rows[i] = self._build_proc_row(
                            i, proc_prio
                        )
                        self.stats.rows_recompiled += 1
            self._proc_prio = proc_prio
            changed = True
        if changed:
            self._refresh_users()

        if self._bus is not bus:
            same = (
                self._bus is not None
                and len(self._bus.slots) == len(bus.slots)
                and all(
                    a.node == b.node
                    and a.capacity == b.capacity
                    and a.duration == b.duration
                    for a, b in zip(self._bus.slots, bus.slots)
                )
            )
            self._snapshot_bus(bus)
            if not same:
                changed = True

        if changed:
            self.stats.updates += 1
            return "incremental"
        return "cached"

    # -- per-solve (φ-dependent) refresh ------------------------------------

    def _refresh_offsets(self, offsets: OffsetTable) -> None:
        """Fill the offset-dependent pieces: relative phases and the
        equal-period blocking tables.  O(row entries), no priority or
        ancestor queries."""
        proc_off_map = offsets.process_offsets
        msg_off_map = offsets.message_offsets
        self._proc_off = [
            proc_off_map.get(p, 0.0) for p in self.et_procs
        ]
        self._leg_off = [
            msg_off_map.get(m, 0.0) for m in self._leg_name
        ]
        self._fifo_off = [
            msg_off_map.get(m, 0.0) for m in self.fifo_msgs
        ]
        self._proc_off_map = proc_off_map
        self._msg_off_map = msg_off_map

        leg_off = self._leg_off
        fifo_off = self._fifo_off
        proc_off = self._proc_off

        def _rel(off_j: float, off_i: float, period: float) -> float:
            return (off_j - off_i) % period

        self._can_rows_z: List[List[tuple]] = []
        for i, row in enumerate(self._can_rows):
            off_i = leg_off[i]
            self._can_rows_z.append([
                (k,
                 _rel(leg_off[k], off_i, period) if lck else 0.0,
                 period, cost, lck, anc)
                for k, _, period, cost, lck, anc in row
            ])
        self._ttp_rows_z: List[List[tuple]] = []
        for i, row in enumerate(self._ttp_rows):
            off_i = fifo_off[i]
            self._ttp_rows_z.append([
                (k,
                 _rel(fifo_off[k], off_i, period) if lck else 0.0,
                 period, cost, lck, anc)
                for k, _, period, cost, lck, anc in row
            ])
        self._proc_rows_z: List[List[tuple]] = []
        for i, row in enumerate(self._proc_rows):
            off_i = proc_off[i]
            self._proc_rows_z.append([
                (k,
                 _rel(proc_off[k], off_i, period) if lck else 0.0,
                 period, cost, lck, anc)
                for k, _, period, cost, lck, anc in row
            ])

        # Equal-period blocking candidates, sorted by offset with a
        # running prefix maximum of frame times.  A candidate blocks a
        # leg exactly when its offset lies strictly before O_m + J_m, so
        # the worst blocker among the first bisect(offsets, O_m + J_m)
        # candidates is one prefix-max lookup.  Atomic gateway frames
        # (both relayed in from the TT side by the same gateway at the
        # same offset — enqueued together by its transfer process) can
        # never block and are dropped here.
        relay = self._leg_relay
        frame_time = self._leg_frame
        self._blk_offsets: List[List[float]] = []
        self._blk_prefmax: List[List[float]] = []
        for i, (_, same) in enumerate(self._can_blocking):
            pairs = []
            own_relay = relay[i]
            off_i = leg_off[i]
            for j in same:
                if (
                    own_relay is not None
                    and relay[j] == own_relay
                    and leg_off[j] == off_i
                ):
                    continue
                pairs.append((leg_off[j], frame_time[j]))
            pairs.sort()
            offs = [p[0] for p in pairs]
            pref: List[float] = []
            worst = 0.0
            for _, cost in pairs:
                if cost > worst:
                    worst = cost
                pref.append(worst)
            self._blk_offsets.append(offs)
            self._blk_prefmax.append(pref)

    def _blocking(self, i: int, own_jitter: float) -> float:
        """``B`` of CAN leg ``i`` at the current jitter."""
        worst = self._can_blocking[i][0]
        offs = self._blk_offsets[i]
        if offs:
            bound = self._leg_off[i] + own_jitter
            count = bisect_left(offs, bound)
            if count:
                pref = self._blk_prefmax[i][count - 1]
                if pref > worst:
                    worst = pref
        return worst

    # -- the fixed point -----------------------------------------------------

    def solve(
        self,
        offsets: OffsetTable,
        warm: Optional[SolveState] = None,
    ) -> Tuple[ResponseTimes, SolveState]:
        """Run the holistic fixed point for one offset table ``φ``.

        ``warm`` seeds the state vector from a previous solution (see
        the module docstring for the soundness argument); a seed with
        non-converged entries is ignored.  Returns the packaged
        :class:`ResponseTimes` and the raw :class:`SolveState` to pass
        back in next time.
        """
        if _obs_state.enabled:
            import time as _time

            started = _time.perf_counter()
            with _obs_trace.span(
                "kernel.solve", warm=warm is not None
            ):
                out = self._solve_impl(offsets, warm)
            _obs_metrics.observe(
                "repro_kernel_solve_seconds",
                _time.perf_counter() - started,
            )
            return out
        return self._solve_impl(offsets, warm)

    def _solve_impl(
        self,
        offsets: OffsetTable,
        warm: Optional[SolveState] = None,
    ) -> Tuple[ResponseTimes, SolveState]:
        self._refresh_offsets(offsets)
        self.stats.solves += 1

        n_proc = len(self.et_procs)
        n_leg = len(self._leg_msg)
        n_fifo = len(self.fifo_msgs)
        wcet = self._wcet
        frame_time = self._leg_frame
        horizon = self._horizon
        bus = self._bus
        round_length = self._round_length
        gw_names = self._tt_gateways
        gw_capacity = self._gw_capacity
        gw_slot_time = self._gw_slot_time
        fifo_gw = self._fifo_gw
        fifo_prev = self._fifo_prev
        fifo_transfer = self._fifo_transfer
        fifo_off = self._fifo_off
        leg_off = self._leg_off
        leg_entry = self._leg_entry
        proc_off = self._proc_off

        if warm is not None and warm.finite():
            self.stats.warm_starts += 1
            pj = list(warm.proc_jitter)
            pw = list(warm.proc_window)
            pr = list(warm.proc_resp)
            mj = list(warm.msg_jitter)
            mq = list(warm.msg_queue)
            mr = list(warm.msg_resp)
            tj = list(warm.ttp_jitter)
            tq = list(warm.ttp_queue)
            ta = list(warm.ttp_ahead)
        else:
            pj = [0.0] * n_proc
            pw = list(wcet)
            pr = list(wcet)
            mj = [0.0] * n_leg
            mq = [0.0] * n_leg
            mr = list(frame_time)
            tj = [0.0] * n_fifo
            tq = [0.0] * n_fifo
            ta = [0.0] * n_fifo

        if self._can_error is not None:
            # Virtual error slot: constant jitter at index n_leg.  The
            # step-1 jitter sweep only writes indices < n_leg, so the
            # slot survives every outer iteration; slicing first makes
            # warm states valid whichever shape they were saved with.
            mj = mj[:n_leg] + [self._can_error[2]]

        can_rows = self._can_rows_z
        ttp_rows = self._ttp_rows_z
        proc_rows = self._proc_rows_z
        fifo_size = self._fifo_size
        floor = math.floor
        ceil = math.ceil

        # Exact row skipping: a busy-window row is a pure function of its
        # own jitter, its interferers' jitters and their residencies, and
        # it restarts from its previous result (a fixed point of the
        # same equation), so a row none of whose inputs moved since its
        # last sweep would return that result again.  Rows are marked
        # dirty when one of their inputs changes; every row is dirty at
        # the start of a solve (the offsets, and with them the phases,
        # are new), and a diverged row stays dirty (it restarts from its
        # base, not from its previous result).
        can_users = self._can_users
        proc_users = self._proc_users
        can_dirty = [True] * n_leg
        proc_dirty = [True] * n_proc
        res_can = [
            (mq[i] if mq[i] != _INF else horizon) + frame_time[i]
            for i in range(n_leg)
        ]
        res_proc = [
            pw[i] if pw[i] != _INF else horizon for i in range(n_proc)
        ]

        for _ in range(_MAX_OUTER_ITERATIONS):
            changed = False

            # 1. CAN leg queueing jitters from their upstream stages.
            for i in range(n_leg):
                rule, arg, add = leg_entry[i]
                if rule == _ET_SOURCE:
                    j = pr[arg] - wcet[arg]
                    if j < 0.0:
                        j = 0.0
                elif rule == _TT_SOURCE:
                    j = add
                elif rule == _AFTER_CAN:
                    j = mr[arg] + add
                else:  # transit: heard at the carrying slot's end
                    j = (
                        tj[arg] + tq[arg] + gw_slot_time[fifo_gw[arg]]
                        + add
                    )
                if j != mj[i]:
                    mj[i] = j
                    changed = True
                    can_dirty[i] = True
                    for u in can_users[i]:
                        can_dirty[u] = True

            # 2. Per-bus CAN queueing delays.  Residency of an interferer
            # on the wire: its own queueing delay plus its frame time,
            # as of the end of the previous sweep.
            moved = []
            for i in range(n_leg):
                if not can_dirty[i]:
                    continue
                base = self._blocking(i, mj[i])
                prev = mq[i]
                start = prev if base < prev < _INF else base
                w = _solve_row(
                    base, mj[i], can_rows[i], mj, res_can,
                    TIE_EPSILON, horizon, start,
                )
                can_dirty[i] = w == _INF
                if w != prev:
                    mq[i] = w
                    changed = True
                    moved.append(i)
                mr[i] = mj[i] + w + frame_time[i]
            for k in moved:
                res_can[k] = (
                    (mq[k] if mq[k] != _INF else horizon) + frame_time[k]
                )
                for u in can_users[k]:
                    can_dirty[u] = True

            # 3. Per-gateway Out_TTP FIFOs.
            for i in range(n_fifo):
                j = mr[fifo_prev[i]] + fifo_transfer[i]
                if j != tj[i]:
                    tj[i] = j
                    changed = True
            for i in range(n_fifo):
                instant = ettt_queue_instant(fifo_off[i], tj[i])
                if instant == _INF:
                    if tq[i] != _INF:
                        changed = True
                    tq[i] = _INF
                    ta[i] = _INF
                    continue
                gw = fifo_gw[i]
                blocking = bus.waiting_time(gw_names[gw], instant)
                row = ttp_rows[i]
                diverged = False
                for entry in row:
                    if tj[entry[0]] == _INF:
                        diverged = True
                        break
                if diverged:
                    if tq[i] != _INF:
                        changed = True
                    tq[i] = _INF
                    ta[i] = _INF
                    continue
                own_j = tj[i]
                max_size = self._ttp_max_size[i]
                capacity = gw_capacity[gw]
                w = blocking
                ahead = 0.0
                for _inner in range(_MAX_INNER_ITERATIONS):
                    ahead = 0.0
                    count = 0
                    for k, rel, period, cost, lck, anc in row:
                        if lck:
                            k_max = floor(
                                (own_j + w - rel) / period + 1e-9
                            )
                            resid = tq[k] if tq[k] != _INF else horizon
                            k_min = ceil(
                                (-(tj[k] + resid) - rel) / period - 1e-9
                            )
                            if anc and k_min < 0:
                                k_min = 0
                            hits = k_max - k_min + 1
                            if hits < 0:
                                hits = 0
                        else:
                            x = w + tj[k]
                            hits = (
                                ceil(x / period - 1e-12) if x > 0 else 0
                            )
                        ahead += hits * cost
                        count += hits
                    # Whole-frame drain bound (repro.semantics): mirrors
                    # the oracle's pass operation for operation.
                    rounds = fifo_drain_rounds(
                        fifo_size[i], ahead, count, capacity, max_size,
                    )
                    w_next = blocking + (rounds - 1) * round_length
                    if w_next == w:
                        break
                    if w_next > horizon:
                        w = _INF
                        break
                    w = w_next
                else:
                    w = _INF
                if w != tq[i]:
                    tq[i] = w
                    ta[i] = ahead
                    changed = True

            # 4. Release jitters of ET processes from incoming arcs.
            for i in range(n_proc):
                own_offset = proc_off[i]
                jitter = 0.0
                for leg, pred_idx, pred_name in self._proc_arcs[i]:
                    if leg >= 0:
                        arrival = leg_off[leg] + mr[leg]
                    elif pred_idx >= 0:
                        arrival = proc_off[pred_idx] + pr[pred_idx]
                    else:
                        arrival = self._proc_off_map.get(
                            pred_name, 0.0
                        ) + self._tt_pred_wcet[pred_name]
                    if arrival - own_offset > jitter:
                        jitter = arrival - own_offset
                if jitter != pj[i]:
                    pj[i] = jitter
                    changed = True
                    proc_dirty[i] = True
                    for u in proc_users[i]:
                        proc_dirty[u] = True

            # 5. Busy windows of ET processes.  Residency of an
            # interfering process: its whole busy window (as of the end
            # of the previous sweep, as in the oracle's pass).
            moved = []
            for i in range(n_proc):
                if not proc_dirty[i]:
                    continue
                base = wcet[i]
                prev = pw[i]
                start = prev if base < prev < _INF else base
                window = _solve_row(
                    base, pj[i], proc_rows[i], pj, res_proc,
                    0.0, horizon, start,
                )
                proc_dirty[i] = window == _INF
                if window != prev:
                    pw[i] = window
                    changed = True
                    moved.append(i)
                pr[i] = pj[i] + window
            for k in moved:
                res_proc[k] = pw[k] if pw[k] != _INF else horizon
                for u in proc_users[k]:
                    proc_dirty[u] = True

            if not changed:
                break
        else:
            raise AnalysisError(
                "holistic analysis did not stabilize within "
                f"{_MAX_OUTER_ITERATIONS} iterations"
            )

        state = SolveState(
            proc_jitter=pj, proc_window=pw, proc_resp=pr,
            msg_jitter=mj, msg_queue=mq, msg_resp=mr,
            ttp_jitter=tj, ttp_queue=tq, ttp_ahead=ta,
        )
        return self._package(state), state

    # -- packaging -----------------------------------------------------------

    def _package(self, state: SolveState) -> ResponseTimes:
        """Translate a solved state back into the named ``ρ`` record.

        ``can[m]`` is the delivering CAN leg (the source leg of a
        message ending in a FIFO), ``ttp[m]`` the FIFO leg.  Off the
        canonical single-hop conventions the record also carries every
        multi-leg message's ``hops`` and one transfer process per
        gateway, as the oracle does.
        """
        system = self.system
        app = system.app
        arch = system.arch
        proc_off_map = self._proc_off_map
        result = ResponseTimes()
        proc_index = self.proc_index
        for proc in app.all_processes():
            name = proc.name
            if arch.is_tt_node(proc.node):
                result.processes[name] = ActivityTiming(
                    offset=proc_off_map.get(name, 0.0),
                    jitter=0.0,
                    queuing=0.0,
                    duration=proc.wcet,
                )
            else:
                i = proc_index[name]
                window = state.proc_window[i]
                jitter = state.proc_jitter[i]
                converged = window != _INF and jitter != _INF
                result.processes[name] = ActivityTiming(
                    offset=self._proc_off[i],
                    jitter=jitter if converged else _INF,
                    queuing=window - proc.wcet if converged else _INF,
                    duration=proc.wcet,
                    converged=converged,
                )
        result.processes[GATEWAY_TRANSFER_PROCESS] = ActivityTiming(
            offset=0.0, jitter=0.0, queuing=0.0,
            duration=self._transfer_wcet,
        )
        if self._leg_records:
            for g in arch.gateways():
                result.processes[f"{GATEWAY_TRANSFER_PROCESS}@{g}"] = (
                    ActivityTiming(
                        offset=0.0, jitter=0.0, queuing=0.0,
                        duration=arch.transfer_wcet_of(g),
                    )
                )

        leg_off = self._leg_off
        leg_queue = state.msg_queue
        leg_jitter = state.msg_jitter

        def can_record(i: int) -> ActivityTiming:
            converged = leg_queue[i] != _INF and leg_jitter[i] != _INF
            return ActivityTiming(
                offset=leg_off[i],
                jitter=leg_jitter[i] if converged else _INF,
                queuing=leg_queue[i] if converged else _INF,
                duration=self._leg_frame[i],
                converged=converged,
            )

        def fifo_record(f: int) -> ActivityTiming:
            converged = (
                state.ttp_queue[f] != _INF and state.ttp_jitter[f] != _INF
            )
            return ActivityTiming(
                offset=self._fifo_off[f],
                jitter=state.ttp_jitter[f] if converged else _INF,
                queuing=state.ttp_queue[f] if converged else _INF,
                duration=self._gw_slot_time[self._fifo_gw[f]],
                converged=converged,
            )

        for i, m in enumerate(self.can_msgs):
            result.can[m] = can_record(self._msg_leg[i])
        for f, m in enumerate(self.fifo_msgs):
            result.ttp[m] = fifo_record(f)
        if self._leg_records:
            for m, hops in self._hop_legs:
                result.hops[m] = tuple(
                    fifo_record(k) if is_fifo else can_record(k)
                    for is_fifo, k in hops
                )
        route = system.route
        msg_off_map = self._msg_off_map
        for msg in app.all_messages():
            if route(msg.name) is MessageRoute.TT_TO_TT:
                result.tt_arrival[msg.name] = msg_off_map.get(
                    msg.name, 0.0
                )
        return result
