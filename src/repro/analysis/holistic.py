"""Holistic ETC response-time analysis (the ``ResponseTimeAnalysis`` of
Fig. 5, detailed in section 4.1).

Given offsets ``φ`` (from the static scheduler), priorities ``π`` and the
TDMA configuration ``β``, this computes worst-case response times for:

* every ET process (busy-window analysis with offsets and jitter),
* the CAN leg of every CAN-borne message,
* the TTP leg (gateway FIFO + slot) of every ET->TT message.

The couplings form a cyclic dependency — a receiver's jitter is the
response time of its incoming message, message jitter is the sender's
response time, and interference depends on everyone's jitter — so the
whole system is iterated as one monotone fixed point starting from zero
jitter, converging to the least solution (the standard holistic-analysis
argument of Tindell & Clark, which the paper extends).

Jitter propagation rules (section 4.1, calibrated on the Fig. 4/6 worked
example; see DESIGN.md):

* TT process: activated exactly at its offset; ``J = 0``, ``w = 0``,
  ``r = C``.
* Message sent by an ET process ``P_S``: ``O_m = O_S + C_S`` (earliest
  completion) and ``J_m = r_S - C_S``.
* TT->ET message: ``O_m`` is the frame's arrival at the gateway MBI (set
  by the static schedule/MEDL) and ``J_m = r_T`` (the gateway transfer
  process moves it into ``Out_CAN``).
* ET->TT message: enters ``Out_TTP`` with jitter ``J'_m = r_m^CAN + r_T``.
* ET process receiving message ``m``: ``J_D = (O_m + r_m) - O_D`` — the
  release jitter equals the message's worst-case arrival relative to the
  receiver's offset (``J_D(m) = r_m`` when offsets coincide, as in the
  paper).

Two implementations solve these equations.  The compiled
:class:`~repro.analysis.kernel.AnalysisContext` is the only production
solver, behind :func:`response_time_analysis` and on every topology;
the interpreted, route-aware
:func:`repro.analysis.multihop.multihop_response_time_analysis` is the
readable oracle it is checked against, bit for bit.  This module keeps the thin wrapper plus the
busy-window helpers and iteration caps that the oracle and the buffer
bounds (:mod:`repro.analysis.buffers`) share.
"""

from __future__ import annotations

import math
from typing import List, Mapping

from ..buses.ttp import TTPBusConfig
from ..exceptions import AnalysisError
from ..model.configuration import OffsetTable, PriorityAssignment
from ..system import System
from .timing import ResponseTimes

__all__ = ["response_time_analysis"]

_MAX_OUTER_ITERATIONS = 1_000
_MAX_INNER_ITERATIONS = 50_000


def response_time_analysis(
    system: System,
    offsets: OffsetTable,
    priorities: PriorityAssignment,
    bus: TTPBusConfig,
    kernel=None,
    faults=None,
) -> ResponseTimes:
    """Run the holistic analysis; see module docstring.

    Since the compiled kernel (:mod:`repro.analysis.kernel`) became the
    hot path this is a thin wrapper: it compiles (or re-targets) an
    :class:`~repro.analysis.kernel.AnalysisContext` and solves once.
    Pass ``kernel`` to reuse a compiled context across calls.  The
    parity suite (``tests/test_kernel_parity.py::TestKernelMatchesOracle``)
    asserts the kernel agrees with the interpreted multi-hop oracle.

    ``faults`` folds a modeled CAN error process into every bus window
    (:func:`repro.analysis.can_analysis.can_error_term`).  Degradation
    factors (slow node / slow bus) are *not* interpreted here: derate
    the ``system`` first (``FaultSpec.derate_system``).
    """
    from .kernel import AnalysisContext

    if kernel is None:
        kernel = AnalysisContext(system, priorities, bus, faults=faults)
    else:
        if kernel.system is not system:
            raise AnalysisError(
                "analysis kernel was compiled for a different System"
            )
        if kernel.faults != faults:
            raise AnalysisError(
                "analysis kernel was compiled for a different FaultSpec"
            )
        kernel.update(priorities, bus)
    rho, _ = kernel.solve(offsets)
    return rho


def phase_locked_hits(
    window: float,
    own_jitter: float,
    rel: float,
    period: float,
    j_jitter: float,
    j_residency: float,
    is_ancestor: bool,
) -> int:
    """Activations of a phase-locked interferer overlapping a busy window.

    The activity under analysis starts its busy window of length
    ``window`` at ``t in [O_m, O_m + own_jitter]``; the interferer's k-th
    activation arrives at phase ``rel + k*T + [0, j_jitter]`` (relative to
    ``O_m``) and remains present for ``j_residency`` after arrival
    (queueing + service).  The worst-case number of overlapping
    activations is the count of integers ``k`` with

        -(j_jitter + j_residency) <= rel + k*T <= own_jitter + window

    (closed bounds: a simultaneous higher-priority arrival wins
    non-preemptive arbitration, so ties count).

    For *ancestors* of the analysed activity all ``k < 0`` instances are
    excluded: the same-instance execution of an upstream activity
    causally precedes its descendant's activation and has already
    completed — the precedence-aware refinement in the spirit of
    Palencia & Harbour, without which chains would charge themselves
    their own upstream work.
    """
    hi = own_jitter + window
    k_max = math.floor((hi - rel) / period + 1e-9)
    lo = -(j_jitter + j_residency)
    k_min = math.ceil((lo - rel) / period - 1e-9)
    if is_ancestor and k_min < 0:
        k_min = 0
    return max(0, k_max - k_min + 1)


def _solve_window(
    base: float,
    own_jitter: float,
    names: List[str],
    rels: List[float],
    periods: List[float],
    costs: List[float],
    locked: List[bool],
    ancestor: List[bool],
    jitters: Mapping[str, float],
    residencies: Mapping[str, float],
    epsilon: float,
    bound: float,
) -> float:
    """Least fixed point of the busy-window equation.

    Phase-locked interferers are counted with :func:`phase_locked_hits`
    (offset-, jitter- and residency-aware); unlocked interferers use the
    classic ``ceil((w + J_j)/T_j)`` criterion with the non-preemptive tie
    epsilon.  Returns ``math.inf`` on divergence.
    """
    if not names:
        return base
    if (
        math.isinf(base)
        or math.isinf(own_jitter)
        or any(math.isinf(jitters[n]) for n in names)
    ):
        return math.inf
    w = base
    for _ in range(_MAX_INNER_ITERATIONS):
        total = base
        for i in range(len(names)):
            j = names[i]
            if locked[i]:
                n = phase_locked_hits(
                    w,
                    own_jitter,
                    rels[i],
                    periods[i],
                    jitters[j],
                    residencies.get(j, 0.0),
                    ancestor[i],
                )
            else:
                x = w + jitters[j] + epsilon
                n = math.ceil(x / periods[i] - 1e-12) if x > 0 else 0
            total += n * costs[i]
        if total == w:
            return w
        if total > bound or math.isinf(total):
            return math.inf
        w = total
    return math.inf


def _rel_offset(offset_j: float, offset_i: float, period: float, locked: bool) -> float:
    """Phase of activity j relative to i (0 when not phase-locked)."""
    if not locked:
        return 0.0
    return (offset_j - offset_i) % period
