"""Timing records produced by the schedulability analysis.

The analysis characterizes every activity (process or message) by the
quadruple of the paper's section 4.1:

* ``offset`` — ``O``: earliest activation / transmission, measured from the
  start of the process graph;
* ``jitter`` — ``J``: worst-case delay between the activation instant and
  the earliest one (for a receiving process this is the response time of
  the incoming message);
* ``queuing`` — ``w``: worst-case interference/queueing delay;
* ``duration`` — ``C``: WCET for a process, worst-case wire time for a
  message.

The response time is ``r = J + w + C`` and the worst-case *absolute* end
(completion or arrival) is ``O + r``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from ..model.architecture import MessageRoute

__all__ = ["ActivityTiming", "ResponseTimes", "INFEASIBLE"]

#: Sentinel response value for activities whose analysis diverged
#: (utilization at or above 100%); compares larger than any real time.
INFEASIBLE = math.inf


@dataclass(frozen=True)
class ActivityTiming:
    """Worst-case timing of one activity (see module docstring)."""

    offset: float
    jitter: float
    queuing: float
    duration: float
    converged: bool = True

    @property
    def response(self) -> float:
        """``r = J + w + C`` (relative to the offset)."""
        if not self.converged:
            return INFEASIBLE
        return self.jitter + self.queuing + self.duration

    @property
    def worst_end(self) -> float:
        """Worst-case absolute completion/arrival ``O + r``."""
        return self.offset + self.response


class ResponseTimes:
    """The ``ρ`` produced by the multi-cluster analysis.

    Holds per-activity :class:`ActivityTiming` records:

    * ``processes`` — every application process (TT processes have
      ``J = w = 0``) plus the gateway transfer process ``T``;
    * ``can`` — the CAN leg of every CAN-borne message (ET->ET, ET->TT
      first leg, TT->ET second leg);
    * ``ttp`` — the TTP leg of every ET->TT message (``J`` includes the CAN
      response and the gateway transfer, ``w`` is the Out_TTP FIFO wait,
      ``C`` the gateway slot length);
    * ``tt_arrival`` — arrival times of TT->TT messages, fixed by the
      static schedule (no queueing analysis applies).
    """

    def __init__(self) -> None:
        self.processes: Dict[str, ActivityTiming] = {}
        self.can: Dict[str, ActivityTiming] = {}
        self.ttp: Dict[str, ActivityTiming] = {}
        self.tt_arrival: Dict[str, float] = {}
        # Per-leg records of multi-hop routes, in traversal order; only
        # populated for messages with more than one leg (canonical
        # two-cluster results never carry entries, keeping every legacy
        # artefact byte-identical).  ``can``/``ttp`` keep their classic
        # meaning: the delivering CAN leg and the unique FIFO leg.
        self.hops: Dict[str, tuple] = {}

    def process_response(self, name: str) -> float:
        """Response time ``r_i`` of a process."""
        return self.processes[name].response

    def message_arrival(self, name: str, route: MessageRoute) -> float:
        """Worst-case absolute arrival of a message at its destination."""
        if route is MessageRoute.TT_TO_TT:
            return self.tt_arrival[name]
        if route is MessageRoute.ET_TO_TT:
            return self.ttp[name].worst_end
        return self.can[name].worst_end

    def all_converged(self) -> bool:
        """True when every analysed activity reached a fixed point."""
        records = list(self.processes.values())
        records += list(self.can.values())
        records += list(self.ttp.values())
        return all(t.converged for t in records)

    def max_abs_delta(self, other: "ResponseTimes") -> float:
        """Largest absolute per-field difference against ``other``.

        The structural-parity companion of
        :meth:`OffsetTable.max_abs_delta`: returns 0.0 when the two
        records are bit-identical, ``math.inf`` when they differ
        structurally (key sets, hop counts, convergence flags, TT
        arrivals) or one side diverged where the other did not.  The
        kernel parity tests and benchmarks assert
        ``a.max_abs_delta(b) == 0.0``.
        """
        worst = 0.0
        if set(self.hops) != set(other.hops):
            return math.inf
        pairs = []
        for mine, theirs in (
            (self.processes, other.processes),
            (self.can, other.can),
            (self.ttp, other.ttp),
        ):
            if set(mine) != set(theirs):
                return math.inf
            pairs.extend((t, theirs[k]) for k, t in mine.items())
        for name, legs in self.hops.items():
            if len(legs) != len(other.hops[name]):
                return math.inf
            pairs.extend(zip(legs, other.hops[name]))
        for timing, against in pairs:
            if timing.converged != against.converged:
                return math.inf
            for a, b in (
                (timing.offset, against.offset),
                (timing.jitter, against.jitter),
                (timing.queuing, against.queuing),
                (timing.duration, against.duration),
            ):
                if math.isinf(a) and math.isinf(b):
                    continue
                delta = abs(a - b)
                if delta > worst:
                    worst = delta
        if self.tt_arrival != other.tt_arrival:
            return math.inf
        return worst

    def copy(self) -> "ResponseTimes":
        """Shallow-record copy (records are immutable)."""
        out = ResponseTimes()
        out.processes = dict(self.processes)
        out.can = dict(self.can)
        out.ttp = dict(self.ttp)
        out.tt_arrival = dict(self.tt_arrival)
        out.hops = dict(self.hops)
        return out

    def __repr__(self) -> str:
        return (
            f"ResponseTimes({len(self.processes)} processes, "
            f"{len(self.can)} CAN legs, {len(self.ttp)} TTP legs)"
        )
