"""TDMA slot construction helpers shared by the synthesis heuristics.

Builds ``β`` candidates: slot sequences with per-node byte capacities,
durations derived from the system's :class:`TTPBusSpec`, and the
"recommended slot lengths" of OptimizeSchedule (Fig. 8) — the candidate
capacities worth trying for a node, derived from the sizes of the messages
the node actually transmits on the TTP bus (reference [5] generates these
from a scheduling pass; cumulative sums of the frame contents are the
useful break points).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from ..buses.ttp import Slot, TTPBusConfig
from ..model.architecture import MessageRoute
from ..model.validation import minimum_slot_capacity
from ..system import System

__all__ = [
    "messages_sent_over_ttp",
    "recommended_capacities",
    "build_bus",
    "default_capacities",
]


def messages_sent_over_ttp(system: System, node: str) -> List[int]:
    """Sizes of the messages ``node`` transmits in its TDMA slot.

    For a TTC node: its TT->TT and TT->ET messages.  For the gateway: the
    relayed ET->TT messages.
    """
    sizes: List[int] = []
    plan = system.default_routing() if system.multi_topology else None
    for msg in system.app.all_messages():
        route = system.route(msg.name)
        if route in (MessageRoute.TT_TO_TT, MessageRoute.TT_TO_ET):
            if system.app.process(msg.src).node == node:
                sizes.append(msg.size)
        elif plan is not None:
            # A relayed message occupies the slot of the gateway that
            # holds its FIFO leg (the TDMA transmitter on its route).
            leg = plan.fifo_leg(msg.name)
            if leg is not None and leg.via == node:
                sizes.append(msg.size)
        elif route is MessageRoute.ET_TO_TT and node == system.arch.gateway:
            sizes.append(msg.size)
    return sizes


def recommended_capacities(
    system: System, node: str, max_candidates: int = 6
) -> List[int]:
    """Candidate slot capacities for ``node`` (ascending, deduplicated).

    The smallest legal capacity (largest single message) plus the
    cumulative sums of the message sizes in descending-size order — the
    capacities at which one more message fits into the same frame.
    ``max_candidates=1`` keeps only the floor.
    """
    if max_candidates < 1:
        raise ValueError(
            f"max_candidates must be at least 1, got {max_candidates}"
        )
    sizes = sorted(messages_sent_over_ttp(system, node), reverse=True)
    floor = minimum_slot_capacity(system.app, system.arch, node)
    candidates = {floor}
    running = 0
    for size in sizes:
        running += size
        candidates.add(max(running, floor))
    ordered = sorted(candidates)
    if len(ordered) > max_candidates:
        if max_candidates == 1:
            return [floor]
        # Keep the floor, the total, and evenly spaced interior points.
        keep = {ordered[0], ordered[-1]}
        step = (len(ordered) - 1) / (max_candidates - 1)
        for i in range(1, max_candidates - 1):
            keep.add(ordered[round(i * step)])
        ordered = sorted(keep)
    return ordered


def default_capacities(system: System) -> Dict[str, int]:
    """Minimal legal capacity per TTP transmitter (the SF/initial choice)."""
    return {
        node: minimum_slot_capacity(system.app, system.arch, node)
        for node in system.arch.ttp_slot_owners()
    }


def build_bus(
    system: System, node_order: Sequence[str], capacities: Dict[str, int]
) -> TTPBusConfig:
    """Assemble a ``β`` from a slot order and per-node capacities."""
    slots = []
    for node in node_order:
        capacity = capacities[node]
        duration = system.ttp_spec.slot_duration(capacity)
        slots.append(Slot(node=node, capacity=capacity, duration=duration))
    return TTPBusConfig(slots)
