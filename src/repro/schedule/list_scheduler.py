"""Static list scheduling of the time-triggered cluster.

Implements the ``StaticScheduling`` step of the multi-cluster loop
(Fig. 5), using the list-scheduling approach of the paper's reference [5]:

* TT processes are placed non-preemptively on their node's timeline, in
  order of a critical-path priority (longest remaining WCET path to a
  sink), as soon as their precedence constraints allow;
* outgoing cross-node messages of a TT process are packed into the
  earliest frame of the sender's TDMA slot that starts after the sender
  completes and still has capacity;
* a TT process that receives a message from the ETC may not start before
  the message's worst-case arrival — the constraint that closes the loop
  with the response-time analysis ("offsets on the TTC are set such that
  all the necessary messages are present at the process invocation").

The scheduler also derives the offsets of ET-side activities by forward
propagation (earliest activation), producing the complete offset table
``φ``.  Per-activity extra delays (``tt_delays`` in the system
configuration) implement the OptimizeResources move "move a TT process or
message inside its [ASAP, ALAP] interval".

Everything that depends on the System alone — the critical-path
urgencies, each TT process's predecessor arcs, outgoing TTP messages and
TT successors, the ET offset-propagation steps in topological order and
the message-offset sources — is compiled once into a
:class:`SchedulePlan`, cached on the System (``system.schedule_plan()``).
A :func:`static_schedule` call then only walks the plan: the ready list
is a heap keyed ``(-urgency, name)``, which pops exactly the sequence a
re-sorted list would, and node timelines insert busy intervals with
``bisect`` instead of re-sorting.  The System is treated as immutable
once scheduled, as for its routing plan.
"""

from __future__ import annotations

from bisect import insort
from heapq import heapify, heappop, heappush
from typing import Dict, List, Mapping, Optional, Tuple

from ..buses.ttp import TTPBusConfig
from ..exceptions import SchedulingError
from ..model.application import ProcessGraph
from ..model.architecture import MessageRoute
from ..model.configuration import OffsetTable
from ..semantics import et_to_tt_constraint
from ..system import System
from ..analysis.timing import ResponseTimes
from .schedule_table import FrameSlot, ScheduleEntry, StaticSchedule

__all__ = ["SchedulePlan", "static_schedule", "downstream_urgency"]

#: Safety horizon: how many TDMA rounds past the estimated makespan a frame
#: search may scan before the schedule is declared infeasible.
_ROUND_SEARCH_MARGIN = 10_000

# Predecessor-arc kinds of a SchedulePlan.
_AFTER_PROCESS = 0  # same-node dependency: the predecessor's completion
_TTP_FRAME = 1  # a TTP frame: its statically fixed arrival
_ET_TO_TT = 2  # an ET->TT message: the Fig. 5 arrival constraint
_CAN_FRAME = 3  # an ET->ET message: earliest send plus one CAN frame


def downstream_urgency(graph: ProcessGraph) -> Dict[str, float]:
    """Longest WCET path from each process to a sink (inclusive).

    Used as the list-scheduling priority: processes with more work after
    them are scheduled first, the classic critical-path heuristic of [5].
    """
    urgency: Dict[str, float] = {}
    for proc_name in reversed(graph.topological_order()):
        best_tail = 0.0
        for succ, _msg in graph.successors(proc_name):
            best_tail = max(best_tail, urgency[succ])
        urgency[proc_name] = graph.processes[proc_name].wcet + best_tail
    return urgency


class SchedulePlan:
    """The call-invariant part of :func:`static_schedule` for one System.

    * ``processes`` — per TT process: ``(node, wcet, release, preds,
      outgoing, tt_successors)``.  ``preds`` are ``(kind, name)`` arcs in
      graph order; ``outgoing`` the TTP-borne messages with their sizes in
      sorted-successor order (the frame packing order); ``tt_successors``
      the successors on the TTC, one entry per arc.
    * ``pred_counts`` / ``ready`` — TT predecessor counts and the heap of
      initially ready ``(-urgency, name)`` keys; ``ready_key`` the key of
      every TT process.
    * ``et_steps`` — per ET process in graph and topological order:
      ``(name, release, arcs)`` with ``(kind, pred, pred_wcet, message,
      frame_time)`` arcs.
    * ``message_sources`` — per message in application order: ``(name,
      on_ttp, sender, sender_wcet)``.
    * ``et_fed_messages`` — the messages ``et_steps`` reads, whose
      multi-leg transit is added on general topologies.
    """

    def __init__(self, system: System) -> None:
        app = system.app
        self.tt_nodes: List[str] = system.arch.tt_node_names()
        urgency: Dict[str, float] = {}
        for graph in app.graphs.values():
            urgency.update(downstream_urgency(graph))
        tt_names = system.tt_processes()
        tt_procs = set(tt_names)
        ttp_routes = (MessageRoute.TT_TO_TT, MessageRoute.TT_TO_ET)

        self.processes: Dict[str, tuple] = {}
        self.pred_counts: Dict[str, int] = {}
        self.ready_key: Dict[str, Tuple[float, str]] = {}
        for name in tt_names:
            graph = app.graph_of_process(name)
            proc = graph.processes[name]
            preds = []
            count = 0
            for pred, msg_name in graph.predecessors(name):
                if pred in tt_procs:
                    count += 1
                if msg_name is None:
                    preds.append((_AFTER_PROCESS, pred))
                    continue
                route = system.route(msg_name)
                if route is MessageRoute.TT_TO_TT:
                    preds.append((_TTP_FRAME, msg_name))
                elif route is MessageRoute.ET_TO_TT:
                    preds.append((_ET_TO_TT, msg_name))
            outgoing = tuple(
                (msg_name, graph.messages[msg_name].size)
                for _succ, msg_name in sorted(graph.successors(name))
                if msg_name is not None
                and system.route(msg_name) in ttp_routes
            )
            successors = tuple(
                succ for succ, _msg in graph.successors(name)
                if succ in tt_procs
            )
            self.processes[name] = (
                proc.node, proc.wcet, system.release_of(name),
                tuple(preds), outgoing, successors,
            )
            self.pred_counts[name] = count
            self.ready_key[name] = (-urgency[name], name)
        self.ready: List[Tuple[float, str]] = [
            self.ready_key[name] for name in tt_names
            if self.pred_counts[name] == 0
        ]
        heapify(self.ready)

        self.et_steps: List[tuple] = []
        et_fed = set()
        for graph in app.graphs.values():
            for proc_name in graph.topological_order():
                if proc_name in tt_procs:
                    continue
                arcs = []
                for pred, msg_name in graph.predecessors(proc_name):
                    pred_wcet = graph.processes[pred].wcet
                    if msg_name is None:
                        arcs.append((_AFTER_PROCESS, pred, pred_wcet, None, 0.0))
                        continue
                    et_fed.add(msg_name)
                    if system.route(msg_name) is MessageRoute.TT_TO_ET:
                        arcs.append((_TTP_FRAME, pred, pred_wcet, msg_name, 0.0))
                    else:  # ET_TO_ET
                        arcs.append((
                            _CAN_FRAME, pred, pred_wcet, msg_name,
                            system.can_frame_time(msg_name),
                        ))
                self.et_steps.append(
                    (proc_name, system.release_of(proc_name), tuple(arcs))
                )
        self.et_fed_messages: List[str] = sorted(et_fed)

        self.message_sources: List[tuple] = [
            (
                msg.name, system.route(msg.name) in ttp_routes, msg.src,
                app.process(msg.src).wcet,
            )
            for msg in app.all_messages()
        ]


class _NodeTimeline:
    """Busy intervals of one TT node, with first-fit gap search."""

    def __init__(self) -> None:
        self._busy: List[Tuple[float, float]] = []

    def earliest_start(self, est: float, duration: float) -> float:
        """First start >= est such that [start, start+duration) is free."""
        start = est
        for begin, end in self._busy:
            if start + duration <= begin + 1e-12:
                break
            if end > start:
                start = end
        return start

    def reserve(self, start: float, end: float) -> None:
        insort(self._busy, (start, end))


def _downstream_min_transit(
    system: System, bus: TTPBusConfig, msg_name: str, legs
) -> float:
    """Earliest extra transit of every leg after the first.

    Per additional leg the message pays the entry gateway's transfer
    (the simulator charges exactly ``C_T``) plus the leg's minimal wire
    time: a full CAN frame, or — for a FIFO leg — the carrying TDMA
    slot's duration (delivery is at the slot's *end*; zero queue wait
    is the earliest case).  Used as a sound earliest-arrival offset for
    downstream consumers; the per-leg jitter chain of the analysis
    covers everything later than this.
    """
    extra = 0.0
    for leg in legs[1:]:
        extra += system.arch.transfer_wcet_of(leg.via)
        if leg.is_fifo:
            extra += bus.slot_of(leg.sender).duration
        else:
            extra += system.can_frame_time(msg_name)
    return extra


def static_schedule(
    system: System,
    bus: TTPBusConfig,
    rho: Optional[ResponseTimes] = None,
    tt_delays: Optional[Mapping[str, float]] = None,
    arrival_floors: Optional[Mapping[str, float]] = None,
    routing=None,
) -> StaticSchedule:
    """Build schedule tables, the MEDL and the full offset table ``φ``.

    ``rho`` is read only through the shared ET->TT arrival constraint
    (:func:`repro.semantics.et_to_tt_constraint`), merged with
    ``arrival_floors``.  ``routing`` (a
    :class:`repro.semantics.routing.RoutingPlan`) supplies the leg list
    of every inter-cluster message on general topologies; canonical
    two-cluster systems ignore it (their single-hop conventions are
    hard-wired below, byte-identical to the paper calibration).
    """
    plan = system.schedule_plan()
    delays = dict(tt_delays or {})
    if routing is None and system.multi_topology:
        routing = system.default_routing()

    timelines: Dict[str, _NodeTimeline] = {
        node: _NodeTimeline() for node in plan.tt_nodes
    }
    tables: Dict[str, List[ScheduleEntry]] = {
        node: [] for node in plan.tt_nodes
    }
    medl: Dict[Tuple[str, int], FrameSlot] = {}
    message_arrival: Dict[str, float] = {}
    proc_start: Dict[str, float] = {}
    proc_end: Dict[str, float] = {}

    def frame_for(node: str, msg_name: str, size: int, ready: float) -> FrameSlot:
        """Earliest frame of ``node`` with capacity, starting at/after ready."""
        slot = bus.slot_of(node)
        if size > slot.capacity:
            raise SchedulingError(
                f"message {msg_name} ({size} B) exceeds the capacity of "
                f"{node}'s slot ({slot.capacity} B)"
            )
        round_index, start = bus.next_slot_start(node, ready)
        for _ in range(_ROUND_SEARCH_MARGIN):
            frame = medl.get((node, round_index))
            if frame is None:
                frame = FrameSlot(
                    node=node,
                    round_index=round_index,
                    start=bus.slot_start(node, round_index),
                    end=bus.slot_end(node, round_index),
                    capacity=slot.capacity,
                )
                medl[(node, round_index)] = frame
            if frame.free_bytes >= size:
                return frame
            round_index += 1
        raise SchedulingError(
            f"no frame with {size} free bytes found for {msg_name} within "
            f"{_ROUND_SEARCH_MARGIN} rounds — TTP slot of {node} overloaded"
        )

    # -- schedule the TT processes, graph set jointly -----------------------
    processes = plan.processes
    ready_key = plan.ready_key
    remaining_preds = dict(plan.pred_counts)
    ready = list(plan.ready)
    while ready:
        current = heappop(ready)[1]
        node, wcet, release, preds, outgoing, successors = processes[current]
        est = release + delays.get(current, 0.0)
        for kind, name in preds:
            if kind == _AFTER_PROCESS:
                bound = proc_end.get(name, 0.0)
            elif kind == _TTP_FRAME:
                bound = message_arrival[name]
            else:
                # Shared dispatch-eligibility contract: the consumer may
                # not start before the message's worst-case availability
                # (repro.semantics; the floors are the Fig. 5 ratchet).
                bound = et_to_tt_constraint(name, rho, arrival_floors)
            if bound > est:
                est = bound
        timeline = timelines[node]
        start = timeline.earliest_start(est, wcet)
        end = start + wcet
        timeline.reserve(start, end)
        tables[node].append(ScheduleEntry(current, start, end))
        proc_start[current] = start
        proc_end[current] = end

        # Pack this process's outgoing cross-node messages into frames.
        for msg_name, size in outgoing:
            ready_time = end + delays.get(msg_name, 0.0)
            frame = frame_for(node, msg_name, size, ready_time)
            frame.messages.append(msg_name)
            frame.used_bytes += size
            message_arrival[msg_name] = frame.end

        for succ in successors:
            remaining_preds[succ] -= 1
            if remaining_preds[succ] == 0:
                heappush(ready, ready_key[succ])
    if len(proc_end) != len(processes):
        raise SchedulingError(
            "static scheduler could not order all TT processes (cycle "
            "through the ETC is not supported by list scheduling)"
        )

    for node_table in tables.values():
        node_table.sort(key=lambda entry: entry.start)

    # -- propagate ET-side offsets (earliest activations) -------------------
    # Conventions (calibrated against the paper's Fig. 4/ section 4.2
    # example; see DESIGN.md):
    #   * ET-sent message:   O_m = O_S + C_S  (earliest sender completion);
    #   * ET process fed by a TT->ET message: O_D = frame arrival at the
    #     gateway MBI (the jitter J_D = r_m covers transfer + CAN);
    #   * ET process fed by an ET->ET message: O_D = O_m + C_m (earliest
    #     possible arrival over CAN);
    #   * same-node dependency: O_D = earliest completion of the
    #     predecessor, O_S + C_S.
    # Multi-hop routes: the canonical anchor covers the first leg only;
    # every further leg adds its minimal transit (still a lower bound on
    # the true arrival — the analysis jitter covers the rest).
    transit: Dict[str, float] = {}
    if routing is not None:
        for msg_name in plan.et_fed_messages:
            legs = routing.legs_of(msg_name)
            if legs is not None and len(legs) > 1:
                transit[msg_name] = _downstream_min_transit(
                    system, bus, msg_name, legs
                )
    process_offsets: Dict[str, float] = dict(proc_start)
    for proc_name, earliest, arcs in plan.et_steps:
        for kind, pred, pred_wcet, msg_name, frame_time in arcs:
            if kind == _AFTER_PROCESS:
                arrival = process_offsets.get(pred, 0.0) + pred_wcet
            else:
                if kind == _TTP_FRAME:
                    arrival = message_arrival[msg_name]
                else:
                    sent = process_offsets.get(pred, 0.0) + pred_wcet
                    arrival = sent + frame_time
                if msg_name in transit:
                    arrival += transit[msg_name]
            if arrival > earliest:
                earliest = arrival
        process_offsets[proc_name] = earliest
    message_offsets: Dict[str, float] = {}
    for msg_name, on_ttp, src, src_wcet in plan.message_sources:
        if on_ttp:
            message_offsets[msg_name] = message_arrival[msg_name]
        else:
            message_offsets[msg_name] = process_offsets[src] + src_wcet

    makespan = max(proc_end.values(), default=0.0)
    offsets = OffsetTable(process_offsets, message_offsets)
    return StaticSchedule(
        offsets=offsets,
        tables=tables,
        medl=medl,
        message_arrival=message_arrival,
        makespan=makespan,
    )
