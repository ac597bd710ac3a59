"""The :class:`System` context: application + architecture + bus physics.

Bundles everything that is *given* to the synthesis problem (section 3):
the application ``Γ``, the two-cluster architecture, and the physical bus
parameters.  The synthesis variables ``ψ = <φ, β, π>`` are **not** part of
the system — they are passed around separately so optimizers can mutate
them freely.

The class pre-computes and caches the derived facts every analysis needs:
message routes, the set of CAN-borne messages, per-node ET process lists,
and worst-case CAN frame times ``C_m``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from .buses.can import CanBusSpec
from .buses.ttp import TTPBusSpec
from .exceptions import ModelError
from .model.application import Application, Message
from .model.architecture import Architecture, MessageRoute
from .model.validation import validate_system

__all__ = ["System"]


class System:
    """An analysis/synthesis problem instance.

    Parameters
    ----------
    app:
        The application ``Γ``.  If graphs have different periods, combine
        them first (:func:`repro.model.hypergraph.combine`) — the static
        cyclic schedule of the TTC is built over one common period.
    arch:
        The two-cluster architecture.
    can_spec:
        Physical CAN bus parameters (frame time model).
    ttp_spec:
        Physical TTP parameters used when deriving slot durations from
        capacities (optimizers use it when resizing slots).
    releases:
        Optional earliest-release table for process instances (produced by
        the hyper-graph transform); missing entries mean release at 0.
    """

    def __init__(
        self,
        app: Application,
        arch: Architecture,
        can_spec: Optional[CanBusSpec] = None,
        ttp_spec: Optional[TTPBusSpec] = None,
        releases: Optional[Mapping[str, float]] = None,
    ) -> None:
        validate_system(app, arch)
        self.app = app
        self.arch = arch
        self.can_spec = can_spec if can_spec is not None else CanBusSpec()
        self.ttp_spec = ttp_spec if ttp_spec is not None else TTPBusSpec()
        self.releases: Dict[str, float] = dict(releases or {})

        # -- caches --------------------------------------------------------
        self._route: Dict[str, MessageRoute] = {}
        for msg in app.all_messages():
            self._route[msg.name] = arch.route_of(app, msg)
        self._can_frame_time: Dict[str, float] = {}
        for msg in app.all_messages():
            if self._route[msg.name] in (
                MessageRoute.ET_TO_ET,
                MessageRoute.TT_TO_ET,
                MessageRoute.ET_TO_TT,
            ):
                self._can_frame_time[msg.name] = self.can_spec.frame_time(msg.size)
        self._et_procs_by_node: Dict[str, List[str]] = {}
        for proc in app.all_processes():
            if arch.is_et_node(proc.node):
                self._et_procs_by_node.setdefault(proc.node, []).append(proc.name)
        for names in self._et_procs_by_node.values():
            names.sort()
        # Sorted activity lists, cached at construction: the analysis
        # kernel and the queue analyses iterate them inside hot loops,
        # so they must not be re-derived (and re-sorted) per call.
        self._sorted_can = sorted(self._can_frame_time)
        self._sorted_ettt = sorted(
            name
            for name, route in self._route.items()
            if route is MessageRoute.ET_TO_TT
        )
        self._sorted_ttet = sorted(
            name
            for name, route in self._route.items()
            if route is MessageRoute.TT_TO_ET
        )
        self._sorted_et_procs = sorted(
            p.name for p in app.all_processes() if arch.is_et_node(p.node)
        )
        self._sorted_tt_procs = sorted(
            p.name for p in app.all_processes() if arch.is_tt_node(p.node)
        )
        self._outgoing_by_node: Dict[str, List[str]] = {}
        for name, route in sorted(self._route.items()):
            if route not in (MessageRoute.ET_TO_ET, MessageRoute.ET_TO_TT):
                continue
            node = app.process(app.message(name).src).node
            self._outgoing_by_node.setdefault(node, []).append(name)
        # Transitive ancestors, for precedence-aware interference: the
        # same-instance execution of an ancestor always precedes its
        # descendant's activation, so it can never overlap it.
        self._proc_ancestors: Dict[str, frozenset] = {}
        self._msg_ancestors: Dict[str, frozenset] = {}
        for graph in app.graphs.values():
            proc_anc: Dict[str, set] = {}
            msg_anc: Dict[str, set] = {}
            for proc_name in graph.topological_order():
                procs: set = set()
                msgs: set = set()
                for pred, msg_name in graph.predecessors(proc_name):
                    procs.add(pred)
                    procs |= proc_anc[pred]
                    msgs |= msg_anc[pred]
                    if msg_name is not None:
                        msgs.add(msg_name)
                proc_anc[proc_name] = procs
                msg_anc[proc_name] = msgs
            for proc_name in graph.processes:
                self._proc_ancestors[proc_name] = frozenset(proc_anc[proc_name])
            for msg_name, msg in graph.messages.items():
                # Ancestors of a message: everything upstream of its sender
                # (including the messages that deliver into the sender).
                self._msg_ancestors[msg_name] = frozenset(msg_anc[msg.src])
        # Endpoint clusters per message (the routing layer's vocabulary;
        # gateways host no application processes, so both endpoints have
        # a unique home cluster).
        self._msg_clusters: Dict[str, Tuple[str, str]] = {}
        topo = arch.topology
        for msg in app.all_messages():
            src = topo.cluster_of_node(app.process(msg.src).node)
            dst = topo.cluster_of_node(app.process(msg.dst).node)
            self._msg_clusters[msg.name] = (src, dst)
        self._default_routing = None

    # -- topology -----------------------------------------------------------

    @property
    def topology(self):
        """The architecture's cluster/gateway graph."""
        return self.arch.topology

    @property
    def multi_topology(self) -> bool:
        """True off the canonical one-TTC/one-ETC/one-gateway shape.

        Canonical systems take the exact pre-generalization code paths
        (bit-for-bit); only multi-cluster/multi-gateway systems pay for
        the per-leg machinery.
        """
        return not self.arch.topology.is_canonical

    def clusters_of_message(self, msg_name: str) -> Tuple[str, str]:
        """(source cluster, destination cluster) of a message."""
        try:
            return self._msg_clusters[msg_name]
        except KeyError:
            raise ModelError(f"unknown message {msg_name}") from None

    def is_intercluster(self, msg_name: str) -> bool:
        """True when the message's endpoints live on different clusters."""
        src, dst = self.clusters_of_message(msg_name)
        return src != dst

    def default_route(self, msg_name: str) -> Tuple[str, ...]:
        """Topology-default (shortest) gateway route of a message."""
        src, dst = self.clusters_of_message(msg_name)
        if src == dst:
            return ()
        return self.arch.topology.default_route(src, dst)

    def default_routing(self):
        """The cached all-defaults :class:`~repro.semantics.routing.RoutingPlan`."""
        if self._default_routing is None:
            from .semantics.routing import RoutingPlan

            self._default_routing = RoutingPlan(self)
        return self._default_routing

    def routing_for(self, overrides=None):
        """A routing plan for a configuration's ``routes`` overrides.

        Falls back to the cached default plan when there are no
        overrides, which is every canonical evaluation.
        """
        if not overrides:
            return self.default_routing()
        from .semantics.routing import RoutingPlan

        return RoutingPlan(self, overrides)

    # -- routing ------------------------------------------------------------

    def route(self, msg_name: str) -> MessageRoute:
        """Cached route classification of a message."""
        try:
            return self._route[msg_name]
        except KeyError:
            raise ModelError(f"unknown message {msg_name}") from None

    def can_messages(self) -> List[str]:
        """Names of all messages that travel on the CAN bus, sorted.

        This is the arbitration domain of the CAN analysis: ET->ET and
        ET->TT messages (sent by ETC nodes) plus TT->ET messages (relayed
        by the gateway from the Out_CAN queue) all compete on the same bus.
        """
        return list(self._sorted_can)

    def et_to_tt_messages(self) -> List[str]:
        """Messages that traverse the gateway's Out_TTP FIFO, sorted."""
        return list(self._sorted_ettt)

    def tt_to_et_messages(self) -> List[str]:
        """Messages that traverse the gateway's Out_CAN queue, sorted."""
        return list(self._sorted_ttet)

    def et_to_et_messages_from(self, node: str) -> List[str]:
        """ET->ET and ET->TT messages enqueued in ``Out_node``, sorted.

        Both kinds leave the node through its CAN controller queue.
        """
        return list(self._outgoing_by_node.get(node, []))

    def can_frame_time(self, msg_name: str) -> float:
        """Worst-case CAN transmission time ``C_m`` of a message."""
        try:
            return self._can_frame_time[msg_name]
        except KeyError:
            raise ModelError(
                f"message {msg_name} does not travel on the CAN bus"
            ) from None

    # -- processes ----------------------------------------------------------

    def et_processes_on(self, node: str) -> List[str]:
        """Priority-scheduled application processes on an ET node."""
        return list(self._et_procs_by_node.get(node, []))

    def et_nodes_with_processes(self) -> List[str]:
        """ET nodes that host at least one application process."""
        return sorted(self._et_procs_by_node)

    def tt_processes(self) -> List[str]:
        """Statically scheduled processes (on TTC nodes), sorted."""
        return list(self._sorted_tt_procs)

    def et_processes(self) -> List[str]:
        """Priority-scheduled processes (on ETC nodes), sorted."""
        return list(self._sorted_et_procs)

    def release_of(self, proc_name: str) -> float:
        """Earliest release of a process instance (0 unless hyper-graph)."""
        return self.releases.get(proc_name, 0.0)

    def process_is_ancestor(self, ancestor: str, of: str) -> bool:
        """True when ``ancestor`` transitively precedes ``of`` (same graph)."""
        return ancestor in self._proc_ancestors.get(of, frozenset())

    def process_ancestors(self, of: str) -> frozenset:
        """Every process that transitively precedes ``of``."""
        return self._proc_ancestors.get(of, frozenset())

    def message_is_ancestor(self, ancestor: str, of: str) -> bool:
        """True when message ``ancestor`` is upstream of message ``of``.

        Upstream means the ancestor delivers into the (transitive) past of
        ``of``'s sender, so its same-instance transmission always precedes
        ``of``'s queueing.
        """
        return ancestor in self._msg_ancestors.get(of, frozenset())

    def message_ancestors(self, of: str) -> frozenset:
        """Every message upstream of message ``of``."""
        return self._msg_ancestors.get(of, frozenset())

    def __repr__(self) -> str:
        return f"System({self.app!r}, {self.arch!r})"
