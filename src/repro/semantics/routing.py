"""Route resolution and the hop ("leg") iterator.

PR 3 centralized the *per-hop* timing rules (readiness, transfer delay,
FIFO competition) in :mod:`repro.semantics.contract`; this module owns
the *path* those rules are applied along.  A message's **route** is the
tuple of gateway names it crosses (see
:meth:`repro.model.topology.Topology.routes_between`); its **legs** are
the queue-and-bus stages the route induces:

* a ``can`` leg — the message waits in a priority-ordered queue
  (``Out_<node>`` at its source, ``Out_CAN`` at a gateway) and then
  arbitrates on one ET cluster's CAN bus;
* a ``fifo`` leg — the message waits in a gateway's arrival-ordered
  ``Out_TTP`` queue and departs in that gateway's TDMA slot, becoming
  available to every TT node *and every other gateway on the TT bus* at
  the slot's end (TTP is a broadcast bus).

Every gateway crossing pays that gateway's transfer WCET ``C_T`` once,
*before* entering the next leg's queue (``Leg.via`` names the gateway
charged).  A TT-sourced message has no leg for its first hop — the MEDL
frame is placed by the static schedule — so its leg list starts at the
first gateway's ``Out_CAN``.

With one TT cluster (the engine scope) a route contains at most one
``fifo`` leg, which is why the classic ``rho.ttp[m]`` record stays
single-valued under the generalization.

Queue naming: single-gateway topologies keep the paper's bare
``Out_CAN`` / ``Out_TTP`` names (every existing trace, report and store
artefact depends on them); multi-gateway topologies qualify the queue
with its owner, ``Out_CAN@NG1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..exceptions import ConfigurationError, ModelError
from ..model.architecture import MessageRoute
from ..system import System

__all__ = [
    "Leg",
    "RoutingPlan",
    "out_can_queue",
    "out_ttp_queue",
    "resolve_routes",
]


@dataclass(frozen=True)
class Leg:
    """One queue-and-bus stage of a message's route (see module doc).

    ``kind`` is ``"can"`` or ``"fifo"``; ``cluster`` names the cluster
    whose bus carries the leg; ``sender`` is the node transmitting on
    that bus (the application's source node for a first ``can`` leg, a
    gateway otherwise); ``via`` is the gateway whose transfer process
    ``C_T`` is paid immediately before this leg's queue (``None`` for a
    source leg — the sender enqueues directly); ``queue`` is the output
    queue drained for the leg.
    """

    kind: str
    cluster: str
    sender: str
    via: Optional[str]
    queue: str

    @property
    def is_fifo(self) -> bool:
        return self.kind == "fifo"


def _qualify(system: System, base: str, gateway: str) -> str:
    """Gateway queue name: bare on single-gateway topologies."""
    if len(system.arch.topology.gateways) == 1:
        return base
    return f"{base}@{gateway}"


def out_can_queue(system: System, gateway: str) -> str:
    """Name of a gateway's priority-ordered CAN-bound queue."""
    return _qualify(system, "Out_CAN", gateway)


def out_ttp_queue(system: System, gateway: str) -> str:
    """Name of a gateway's arrival-ordered TTP-bound FIFO."""
    return _qualify(system, "Out_TTP", gateway)


def resolve_routes(
    system: System,
    overrides: Optional[Mapping[str, Tuple[str, ...]]] = None,
) -> Dict[str, Tuple[str, ...]]:
    """Effective route of every inter-cluster message.

    Merges per-message overrides (the ``routes`` component of a
    :class:`repro.model.configuration.SystemConfiguration`) over the
    topology's default shortest routes, validating each override
    against the cluster graph.  Intra-cluster messages never appear.
    """
    topo = system.arch.topology
    routes: Dict[str, Tuple[str, ...]] = {}
    defaults: Dict[Tuple[str, str], Tuple[str, ...]] = {}
    overrides = overrides or {}
    for name in sorted(overrides):
        if name not in {m.name for m in system.app.all_messages()}:
            raise ConfigurationError(
                f"route override names unknown message {name}"
            )
    for msg in system.app.all_messages():
        src, dst = system.clusters_of_message(msg.name)
        if src == dst:
            if msg.name in overrides and tuple(overrides[msg.name]):
                raise ConfigurationError(
                    f"message {msg.name} is intra-cluster; it cannot "
                    "carry a gateway route"
                )
            continue
        if msg.name in overrides:
            route = tuple(overrides[msg.name])
            try:
                topo.validate_route(src, dst, route)
            except ModelError as exc:
                raise ConfigurationError(
                    f"invalid route for message {msg.name}: {exc}"
                ) from None
        else:
            route = defaults.get((src, dst))
            if route is None:
                route = defaults[(src, dst)] = topo.default_route(src, dst)
        routes[msg.name] = route
    return routes


class RoutingPlan:
    """Resolved routes plus every per-leg index the engines consume.

    Construction is cheap (linear in messages × hops) and deterministic;
    a :class:`repro.system.System` caches the all-defaults plan
    (:meth:`repro.system.System.default_routing`).
    """

    def __init__(
        self,
        system: System,
        overrides: Optional[Mapping[str, Tuple[str, ...]]] = None,
    ) -> None:
        self.system = system
        self.routes = resolve_routes(system, overrides)
        self.legs: Dict[str, Tuple[Leg, ...]] = {}
        topo = system.arch.topology
        app = system.app
        # Legs depend only on (source node, destination cluster, route):
        # messages sharing all three share one (immutable) leg tuple.
        built: Dict[tuple, Tuple[Leg, ...]] = {}
        for name, route in self.routes.items():
            src_node = app.process(app.message(name).src).node
            key = (src_node, system.clusters_of_message(name)[1], route)
            legs = built.get(key)
            if legs is None:
                legs = built[key] = self._build_legs(name, route)
            self.legs[name] = legs
        # Intra-cluster ET->ET messages have a single source CAN leg.
        for name in system.can_messages():
            if name not in self.legs:
                src_node = app.process(app.message(name).src).node
                key = (src_node,)
                legs = built.get(key)
                if legs is None:
                    legs = built[key] = (
                        Leg(
                            kind="can",
                            cluster=system.arch.cluster_of_node(src_node),
                            sender=src_node,
                            via=None,
                            queue=f"Out_{src_node}",
                        ),
                    )
                self.legs[name] = legs
        # -- indexes -----------------------------------------------------
        #: messages resident in each gateway's Out_TTP FIFO, sorted.
        self.fifo_users: Dict[str, List[str]] = {
            gw: [] for gw in topo.gateway_names()
        }
        #: (message, leg position) pairs per ET cluster bus, sorted by
        #: message name then leg position — the CAN arbitration domains.
        self.can_legs_on: Dict[str, List[Tuple[str, int]]] = {
            c: [] for c in topo.et_clusters()
        }
        for name in sorted(self.legs):
            for pos, leg in enumerate(self.legs[name]):
                if leg.is_fifo:
                    self.fifo_users[leg.sender].append(name)
                else:
                    self.can_legs_on[leg.cluster].append((name, pos))

    def _build_legs(self, name: str, route: Tuple[str, ...]) -> Tuple[Leg, ...]:
        system = self.system
        topo = system.arch.topology
        msg = system.app.message(name)
        src_node = system.app.process(msg.src).node
        here, dst_cluster = system.clusters_of_message(name)
        legs: List[Leg] = []
        if not topo.clusters[here].is_tt:
            legs.append(
                Leg(
                    kind="can",
                    cluster=here,
                    sender=src_node,
                    via=None,
                    queue=f"Out_{src_node}",
                )
            )
        for gateway in route:
            gw = topo.gateways[gateway]
            nxt = gw.other(here)
            if topo.clusters[nxt].is_tt:
                legs.append(
                    Leg(
                        kind="fifo",
                        cluster=nxt,
                        sender=gateway,
                        via=gateway,
                        queue=out_ttp_queue(system, gateway),
                    )
                )
            else:
                legs.append(
                    Leg(
                        kind="can",
                        cluster=nxt,
                        sender=gateway,
                        via=gateway,
                        queue=out_can_queue(system, gateway),
                    )
                )
            here = nxt
        if here != dst_cluster:
            raise ConfigurationError(
                f"route of message {name} ends at cluster {here}, "
                f"expected {dst_cluster}"
            )
        return tuple(legs)

    # -- queries ----------------------------------------------------------

    def route_of(self, name: str) -> Tuple[str, ...]:
        """Gateways crossed by a message (empty for intra-cluster)."""
        return self.routes.get(name, ())

    def legs_of(self, name: str) -> Tuple[Leg, ...]:
        """The message's legs in traversal order (empty for TT->TT/local)."""
        return self.legs.get(name, ())

    def fifo_leg(self, name: str) -> Optional[Leg]:
        """The unique FIFO leg of a message, if its route has one."""
        for leg in self.legs.get(name, ()):
            if leg.is_fifo:
                return leg
        return None

    def final_leg(self, name: str) -> Optional[Leg]:
        """The leg that delivers to the destination cluster."""
        legs = self.legs.get(name, ())
        return legs[-1] if legs else None

    def is_default(self) -> bool:
        """True when every message takes its topology-default route."""
        topo = self.system.arch.topology
        for name, route in self.routes.items():
            src, dst = self.system.clusters_of_message(name)
            if route != topo.default_route(src, dst):
                return False
        return True

    def key(self) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
        """Canonical hashable form (for kernel/cache invalidation)."""
        return tuple(sorted(self.routes.items()))

    def __repr__(self) -> str:
        multi = sum(1 for legs in self.legs.values() if len(legs) > 1)
        return (
            f"RoutingPlan({len(self.routes)} routed messages, "
            f"{multi} multi-leg)"
        )
