"""Network throughput evaluation: the objective Y(F) = Σ X_i.

Combines the substrate layers: each AP's clients get their
goodput-optimal MCS on the AP's channel width (link layer), per-client
delays and the performance anomaly give the cell throughput (MAC layer),
and the channel-conditioned contention share M = 1/(|con|+1) accounts
for co-channel neighbours (interference graph). This evaluator is used
both as the "ground truth" of the simulated testbed and as ACORN's own
throughput estimator — which is faithful to the paper, where the
estimation pipeline (SNR → BER → PER → X = M/ATD) is exactly the model
the system believes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import networkx as nx

from ..config import DEFAULT_PACKET_SIZE_BYTES
from ..errors import AllocationError
from ..link.adaptation import RateController
from ..mac.airtime import client_delay_s, medium_share
from ..mac.dcf import DEFAULT_TIMINGS, MacTimings
from ..mcs.selection import RateDecision
from .channels import Channel
from .interference import contenders
from .topology import Network

__all__ = [
    "UdpTraffic",
    "NetworkReport",
    "ThroughputModel",
    "WeightedThroughputModel",
]


class UdpTraffic:
    """Saturated UDP: every delivered packet is goodput."""

    name = "udp"

    def goodput_factor(self, per: float) -> float:
        """No loss sensitivity beyond the MAC retransmissions."""
        return 1.0


@dataclass(frozen=True)
class NetworkReport:
    """Evaluated throughput of one network configuration."""

    per_ap_mbps: Mapping[str, float]
    per_client_mbps: Mapping[str, float]
    assignment: Mapping[str, Channel]
    associations: Mapping[str, str]

    @property
    def total_mbps(self) -> float:
        """Aggregate network throughput Y (the paper's objective, Eq. 5)."""
        return sum(self.per_ap_mbps.values())


@dataclass
class ThroughputModel:
    """Evaluates Y(F) for a network under a channel assignment.

    Parameters
    ----------
    controller:
        Rate/MCS selection used for every link.
    timings:
        MAC overhead model.
    packet_bytes:
        Downlink packet size.
    traffic:
        Object with a ``goodput_factor(per)`` method; defaults to
        saturated UDP. :class:`repro.sim.traffic.TcpTraffic` models the
        paper's TCP experiments.
    """

    controller: RateController = field(default_factory=RateController)
    timings: MacTimings = DEFAULT_TIMINGS
    packet_bytes: int = DEFAULT_PACKET_SIZE_BYTES
    traffic: UdpTraffic = field(default_factory=UdpTraffic)

    def __post_init__(self) -> None:
        self._decision_cache: Dict[Tuple[float, str], RateDecision] = {}

    # ------------------------------------------------------------------
    def decision_from_snr(self, snr: float, params) -> RateDecision:
        """Cached rate decision from a per-subcarrier SNR and numerology.

        This is the exact cache used by :meth:`link_decision`. It is
        keyed on the exact SNR float, and the search is a pure function
        of it, so a decision never depends on which links were looked
        up before or in what order.
        """
        key = (snr, params.name)
        decision = self._decision_cache.get(key)
        if decision is None:
            decision = self.controller.decide_from_snr(snr, params)
            self._decision_cache[key] = decision
        return decision

    def decisions_from_snrs(
        self, snrs: Sequence[float], params
    ) -> List[RateDecision]:
        """Cached rate decisions for many SNRs, in order.

        Element ``i`` equals ``decision_from_snr(snrs[i], params)``;
        the compiled-state rate tables (:mod:`repro.net.state`) fill
        from here. Every cache miss is searched in one kernel call;
        with no misses, no array is built.
        """
        cache = self._decision_cache
        name = params.name
        decisions = [cache.get((snr, name)) for snr in snrs]
        missing = list(
            dict.fromkeys(
                snr for snr, decision in zip(snrs, decisions) if decision is None
            )
        )
        if not missing:
            return decisions
        for snr, decision in zip(
            missing, self.controller.decide_from_snrs(missing, params)
        ):
            cache[(snr, name)] = decision
        return [cache[(snr, name)] for snr in snrs]

    def link_decision(
        self, network: Network, ap_id: str, client_id: str, channel: Channel
    ) -> RateDecision:
        """Cached goodput-optimal rate decision for one link and width."""
        budget = network.link_budget(ap_id, client_id)
        snr = budget.subcarrier_snr_db(channel.params)
        return self.decision_from_snr(snr, channel.params)

    def client_delay(
        self, network: Network, ap_id: str, client_id: str, channel: Channel
    ) -> float:
        """d_cl: expected airtime per delivered packet for one client."""
        decision = self.link_decision(network, ap_id, client_id, channel)
        return client_delay_s(
            decision.nominal_rate_mbps,
            decision.per,
            self.packet_bytes,
            self.timings,
        )

    # ------------------------------------------------------------------
    def contention_weight(self, own: Channel, other: Channel) -> float:
        """Airtime cost one neighbour on ``other`` imposes on ``own``.

        The base model is binary: 1.0 when the colours conflict, else
        0.0, so that ``1/(1 + Σ weights)`` reproduces the paper's
        ``M = 1/(|con|+1)``. The delta engine's structural fast path
        assumes ``medium_share_of`` equals exactly this form; subclasses
        overriding one should override the other consistently (and may
        set ``delta_structural = True`` to keep the fast path).
        """
        return 1.0 if own.conflicts_with(other) else 0.0

    def medium_share_of(
        self,
        graph: nx.Graph,
        ap_id: str,
        assignment: Mapping[str, Channel],
    ) -> float:
        """M for one AP: 1/(|con|+1) over conflicting IG neighbours.

        Subclasses may refine this — e.g. the weighted partial-overlap
        model of :class:`WeightedThroughputModel`.
        """
        n_contenders = len(contenders(graph, ap_id, assignment))
        return medium_share(n_contenders)

    # ------------------------------------------------------------------
    def ap_throughput_mbps(
        self,
        network: Network,
        graph: nx.Graph,
        ap_id: str,
        assignment: Mapping[str, Channel],
        associations: Mapping[str, str],
    ) -> Tuple[float, Dict[str, float]]:
        """Cell throughput X_a and the per-client breakdown."""
        channel = assignment.get(ap_id)
        if channel is None:
            raise AllocationError(f"AP {ap_id!r} has no channel in the assignment")
        client_ids = [
            client for client, ap in associations.items() if ap == ap_id
        ]
        if not client_ids:
            return 0.0, {}
        m_share = self.medium_share_of(graph, ap_id, assignment)
        delays = {}
        factors = {}
        for client_id in client_ids:
            decision = self.link_decision(network, ap_id, client_id, channel)
            delays[client_id] = client_delay_s(
                decision.nominal_rate_mbps,
                decision.per,
                self.packet_bytes,
                self.timings,
            )
            factors[client_id] = self.traffic.goodput_factor(decision.per)
        atd = sum(delays.values())
        if atd == float("inf"):
            return 0.0, {client: 0.0 for client in client_ids}
        packet_mbits = 8 * self.packet_bytes / 1e6
        base_packets_per_s = m_share / atd
        per_client = {
            client: base_packets_per_s * packet_mbits * factors[client]
            for client in client_ids
        }
        return sum(per_client.values()), per_client

    def evaluate(
        self,
        network: Network,
        graph: nx.Graph,
        assignment: Optional[Mapping[str, Channel]] = None,
        associations: Optional[Mapping[str, str]] = None,
    ) -> NetworkReport:
        """Full-network report; overrides allow what-if evaluation."""
        merged_assignment: Dict[str, Channel] = dict(network.channel_assignment)
        if assignment:
            merged_assignment.update(assignment)
        merged_associations: Dict[str, str] = dict(network.associations)
        if associations is not None:
            merged_associations = dict(associations)
        per_ap: Dict[str, float] = {}
        per_client: Dict[str, float] = {}
        for ap_id in network.ap_ids:
            if ap_id not in merged_assignment:
                # An AP that has not been configured yet carries no traffic.
                per_ap[ap_id] = 0.0
                continue
            cell, clients = self.ap_throughput_mbps(
                network, graph, ap_id, merged_assignment, merged_associations
            )
            per_ap[ap_id] = cell
            per_client.update(clients)
        return NetworkReport(
            per_ap_mbps=per_ap,
            per_client_mbps=per_client,
            assignment=dict(merged_assignment),
            associations=merged_associations,
        )

    def aggregate_mbps(
        self,
        network: Network,
        graph: nx.Graph,
        assignment: Optional[Mapping[str, Channel]] = None,
        associations: Optional[Mapping[str, str]] = None,
    ) -> float:
        """Shortcut for the scalar objective Y."""
        return self.evaluate(network, graph, assignment, associations).total_mbps

    # ------------------------------------------------------------------
    def isolated_ap_throughput_mbps(
        self,
        network: Network,
        ap_id: str,
        channel: Channel,
        associations: Optional[Mapping[str, str]] = None,
    ) -> float:
        """X_isol: the AP's throughput with no contention (M = 1)."""
        merged = dict(network.associations if associations is None else associations)
        client_ids = [c for c, ap in merged.items() if ap == ap_id]
        if not client_ids:
            return 0.0
        delays = []
        factors = []
        for client_id in client_ids:
            decision = self.link_decision(network, ap_id, client_id, channel)
            delays.append(
                client_delay_s(
                    decision.nominal_rate_mbps,
                    decision.per,
                    self.packet_bytes,
                    self.timings,
                )
            )
            factors.append(self.traffic.goodput_factor(decision.per))
        atd = sum(delays)
        if atd == float("inf"):
            return 0.0
        packet_mbits = 8 * self.packet_bytes / 1e6
        return sum(packet_mbits / atd * factor for factor in factors)

    def best_isolated_throughput_mbps(
        self,
        network: Network,
        ap_id: str,
        plan_channels: Tuple[Channel, ...],
        associations: Optional[Mapping[str, str]] = None,
    ) -> float:
        """max(X_isol-20, X_isol-40): one term of the Y* upper bound."""
        widths_seen = set()
        best = 0.0
        for channel in plan_channels:
            if channel.width_mhz in widths_seen:
                continue  # same-width channels are equivalent (Fig 8)
            widths_seen.add(channel.width_mhz)
            best = max(
                best,
                self.isolated_ap_throughput_mbps(
                    network, ap_id, channel, associations
                ),
            )
        return best


@dataclass
class WeightedThroughputModel(ThroughputModel):
    """Throughput under partially-overlapped-channel contention.

    The paper's binary colour conflicts are exact on the orthogonal
    5 GHz plan it evaluates; on plans with partial spectral overlap
    (the 2.4 GHz band of its reference [7]) a neighbour costs airtime
    in proportion to how much of the AP's band it covers:
    ``M = 1/(1 + Σ overlap)``. Reduces to the base model whenever all
    overlaps are 0 or 1.
    """

    def contention_weight(self, own: Channel, other: Channel) -> float:
        """Fractional spectral overlap instead of the binary conflict."""
        from .overlap import spectral_overlap_fraction

        return spectral_overlap_fraction(own, other)

    def medium_share_of(
        self,
        graph: nx.Graph,
        ap_id: str,
        assignment: Mapping[str, Channel],
    ) -> float:
        """M = 1/(1 + sum of neighbour overlap fractions)."""
        from .overlap import weighted_contention_share

        own = assignment.get(ap_id)
        if own is None:
            raise AllocationError(f"AP {ap_id!r} has no channel assigned")
        neighbour_channels = [
            assignment[neighbour]
            for neighbour in graph.neighbors(ap_id)
            if neighbour in assignment
        ]
        return weighted_contention_share(own, neighbour_channels)
