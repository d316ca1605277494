"""The ACORN controller: joint association + allocation orchestration.

Ties Algorithms 1 and 2 together the way the paper's Click-based
implementation does: APs start on random channels, arriving clients run
the Eq. 4 association, and the channel allocator runs (with periodicity
T = 30 min chosen from the CRAWDAD association-duration analysis). The
controller also implements the *opportunistic width* mode used in the
mobility experiment: an AP holding a bonded allocation may fall back to
its primary 20 MHz channel whenever its current clients are better
served narrow — without changing the interference it projects on
neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import networkx as nx
import numpy as np

from ..config import ACORN_EPSILON, ACORN_PERIOD_SECONDS, make_rng
from ..errors import AllocationError, AssociationError
from ..graph.components import ComponentDecomposition, ShardDelta
from ..net.channels import Channel, ChannelPlan
from ..net.evaluator import DeltaEvaluator
from ..net.interference import build_interference_graph
from ..net.state import CompiledNetwork, ShardView, supports_compiled
from ..net.throughput import NetworkReport, ThroughputModel
from ..net.topology import Network
from ..obs.tracer import active_tracer
from .allocation import AllocationResult, allocate_channels, random_assignment
from .association import choose_ap

__all__ = ["Acorn", "AcornResult"]


@dataclass
class _DerivedState:
    """Every cache derived from the live network, dropped as one unit.

    The controller used to hold a loose ``(_graph, _compiled)`` pair;
    the shard layer adds the component decomposition and per-shard
    warm-start assignments on top, and a partial invalidation (clearing
    some fields but not others) would let the allocator score against a
    graph that no longer matches its shards. Binding them in one holder
    makes :meth:`Acorn.invalidate_graph` atomic by construction — the
    old holder is replaced wholesale, never edited field by field.
    """

    graph: Optional[nx.Graph] = None
    compiled: Optional[CompiledNetwork] = None
    decomposition: Optional[ComponentDecomposition] = None
    # Per-shard last-committed assignment: the warm start a shard-scoped
    # reconfiguration resumes from. Invalidation is per shard id — churn
    # in one component never cools another component's start.
    shard_assignments: Dict[int, Dict[str, Channel]] = field(
        default_factory=dict
    )


@dataclass
class AcornResult:
    """Outcome of one full ACORN configuration pass."""

    report: NetworkReport
    allocation: AllocationResult
    association_order: List[str] = field(default_factory=list)

    @property
    def total_mbps(self) -> float:
        """Aggregate network throughput of the final configuration."""
        return self.report.total_mbps


class Acorn:
    """Auto-configuration controller for one enterprise WLAN.

    Parameters
    ----------
    network:
        The WLAN to configure (mutated in place).
    plan:
        Available channels.
    model:
        Throughput model (ground truth *and* estimator, as in the paper).
    epsilon:
        Algorithm 2 stopping factor.
    period_s:
        Re-allocation periodicity (informational; driven externally by
        the mobility/long-run simulations).
    seed:
        Seed for the random initial channel draw.
    engine_mode:
        Evaluation engine for allocation and refinement passes:
        ``"auto"`` (default) batches candidate evaluation on the
        compiled core when the model supports it; ``"batched"``,
        ``"compiled"`` and ``"delta"`` force one path. All modes are
        bit-identical.
    """

    def __init__(
        self,
        network: Network,
        plan: ChannelPlan,
        model: Optional[ThroughputModel] = None,
        epsilon: float = ACORN_EPSILON,
        period_s: float = ACORN_PERIOD_SECONDS,
        seed: "int | np.random.Generator | None" = 2010,
        min_snr20_db: "float | None" = None,
        engine_mode: str = "auto",
    ) -> None:
        self.network = network
        self.plan = plan
        self.model = model if model is not None else ThroughputModel()
        self.epsilon = epsilon
        self.period_s = period_s
        self.engine_mode = engine_mode
        if min_snr20_db is None:
            # Admission floor: below this even MCS 0 cannot deliver
            # and an associated client would zero out its cell.
            from ..link.adaptation import serviceability_floor_db

            min_snr20_db = serviceability_floor_db(self.model.packet_bytes)
        self.min_snr20_db = min_snr20_db
        self._rng = make_rng(seed)
        self._derived = _DerivedState()

    # ------------------------------------------------------------------
    @property
    def graph(self) -> nx.Graph:
        """The current interference graph (rebuilt on demand)."""
        tracer = active_tracer()
        derived = self._derived
        if derived.graph is None:
            if tracer.enabled:
                tracer.metrics.counter("controller.graph_builds").inc()
            derived.graph = build_interference_graph(self.network)
        elif tracer.enabled:
            tracer.metrics.counter("controller.graph_cache_hits").inc()
        return derived.graph

    @property
    def compiled(self) -> CompiledNetwork:
        """The current network frozen into compiled arrays (on demand).

        Shares the graph cache's lifetime: any change that invalidates
        the interference graph (association churn moves footnote-5
        edges) also drops the compiled snapshot, so the arrays can never
        go stale relative to the graph the allocator scores against.
        """
        tracer = active_tracer()
        derived = self._derived
        if derived.compiled is None:
            if tracer.enabled:
                tracer.metrics.counter("controller.compile_builds").inc()
            derived.compiled = CompiledNetwork.compile(
                self.network, self.graph, self.plan
            )
        elif tracer.enabled:
            tracer.metrics.counter("controller.compile_cache_hits").inc()
        return derived.compiled

    @property
    def decomposition(self) -> ComponentDecomposition:
        """Interference components of the current graph, with stable ids.

        Built lazily from the cached graph; across client churn the
        instance is *updated* (:meth:`ComponentDecomposition.update`)
        rather than rebuilt, so shard ids survive merges and splits and
        the per-shard warm-start caches stay addressable. A full
        :meth:`invalidate_graph` resets the id space along with every
        other derived cache.
        """
        tracer = active_tracer()
        derived = self._derived
        if derived.decomposition is None:
            if tracer.enabled:
                tracer.metrics.counter("controller.shard_builds").inc()
            derived.decomposition = ComponentDecomposition.from_graph(
                self.graph, ap_ids=self.network.ap_ids
            )
        elif tracer.enabled:
            tracer.metrics.counter("controller.shard_cache_hits").inc()
        return derived.decomposition

    def shard_of(self, ap_id: str) -> int:
        """The shard id of one AP (see :attr:`decomposition`)."""
        return self.decomposition.shard_of(ap_id)

    def shard_view(self, sid: int) -> ShardView:
        """A compiled per-shard view (cached on the compiled snapshot)."""
        return self.compiled.shard_view(sid, decomposition=self.decomposition)

    def shard_assignment(self, sid: int) -> Optional[Dict[str, Channel]]:
        """The warm-start assignment cached for one shard, if still valid."""
        cached = self._derived.shard_assignments.get(sid)
        return dict(cached) if cached is not None else None

    def invalidate_graph(self) -> None:
        """Force an interference-graph rebuild (topology/assoc changed).

        Atomic over *every* derived cache: the graph, the compiled
        snapshot, the component decomposition and the per-shard
        warm-start assignments are replaced as one holder, so no code
        path can observe a fresh graph next to stale shards (pinned by
        ``tests/test_core_controller.py``).
        """
        derived = self._derived
        if (
            derived.graph is not None
            or derived.compiled is not None
            or derived.decomposition is not None
            or derived.shard_assignments
        ):
            tracer = active_tracer()
            if tracer.enabled:
                tracer.metrics.counter("controller.cache_invalidations").inc()
        self._derived = _DerivedState()

    def apply_churn(
        self,
        added_clients: Sequence[str] = (),
        removed_clients: Sequence[str] = (),
    ) -> Optional[ShardDelta]:
        """Patch cached state after client churn instead of dropping it.

        The incremental counterpart of :meth:`invalidate_graph`: when a
        compiled snapshot is live, it is patched in place via
        :meth:`CompiledNetwork.apply_churn` (bit-identical to a fresh
        compile of the mutated network) and the graph cache is replaced
        by the incrementally rebuilt graph — per-event cost near
        ``compiled_ms`` instead of ``compile_ms``. Without a live
        snapshot there is nothing to patch, so this degrades to plain
        invalidation.

        When a decomposition is live it is merged/split against the new
        graph and the returned :class:`~repro.graph.components.ShardDelta`
        says which shards changed; their warm-start assignments are
        dropped (per-shard invalidation — untouched components keep
        theirs). Returns ``None`` when no decomposition was live.
        """
        derived = self._derived
        if derived.compiled is None:
            self.invalidate_graph()
            return None
        tracer = active_tracer()
        if tracer.enabled:
            tracer.metrics.counter("controller.churn_patches").inc()
        derived.graph = derived.compiled.apply_churn(
            self.network,
            added_clients=added_clients,
            removed_clients=removed_clients,
        )
        if derived.decomposition is None:
            return None
        delta = derived.decomposition.update(
            derived.graph, ap_ids=self.network.ap_ids
        )
        stale = set(delta.invalidated) | set(delta.retired)
        if stale:
            if tracer.enabled:
                tracer.metrics.counter("controller.shard_invalidations").inc(
                    len(stale)
                )
            for sid in stale:
                derived.shard_assignments.pop(sid, None)
        return delta

    def engine(
        self,
        assignment: Optional[Mapping[str, Channel]] = None,
        associations: Optional[Mapping[str, str]] = None,
    ) -> DeltaEvaluator:
        """An incremental evaluator over the controller's current state.

        The returned :class:`~repro.net.evaluator.DeltaEvaluator`
        snapshots the network's assignment and associations (or the
        overrides given) and answers channel/association what-ifs by
        recomputing only the touched interference neighbourhood —
        ``allocate_channels`` and ``refine_associations`` build the same
        engine internally.
        """
        return DeltaEvaluator(
            self.network,
            self.graph,
            model=self.model,
            assignment=assignment,
            associations=associations,
        )

    # ------------------------------------------------------------------
    def assign_initial_channels(
        self, initial: Optional[Mapping[str, Channel]] = None
    ) -> Dict[str, Channel]:
        """Give every AP a starting colour (random unless provided)."""
        if initial is None:
            initial = random_assignment(self.network.ap_ids, self.plan, self._rng)
        for ap_id, channel in initial.items():
            self.network.set_channel(ap_id, channel)
        return dict(initial)

    def admit_client(self, client_id: str, incremental: bool = False) -> str:
        """Algorithm 1 for one arriving client; associates and returns the AP.

        With ``incremental=True`` the cached compiled snapshot is
        patched via :meth:`apply_churn` instead of being invalidated —
        the timeline simulator's per-event path. The arrival is patched
        *in* before the Eq. 4 scan so beacons read the client's delays
        from the (just-extended) rate tables instead of re-deriving the
        PHY mathematics per candidate; the association itself is then
        resynced with a second, cheaper patch. If the scan rejects the
        client, the caller owns the cleanup: remove it from the network
        and call ``apply_churn(removed_clients=...)``.
        """
        compiled = None
        if incremental:
            self.apply_churn(added_clients=(client_id,))
            if self._derived.compiled is not None and supports_compiled(
                self.model
            ):
                compiled = self._derived.compiled
        ap_id = self._associate(client_id, compiled)
        if incremental:
            self.apply_churn()
        else:
            self.invalidate_graph()
        return ap_id

    def _associate(
        self, client_id: str, compiled: Optional[CompiledNetwork]
    ) -> str:
        """Run the Eq. 4 scan for one client and associate it."""
        ap_id, _ = choose_ap(
            self.network,
            self.graph,
            self.model,
            client_id,
            min_snr20_db=self.min_snr20_db,
            compiled=compiled,
        )
        self.network.associate(client_id, ap_id)
        return ap_id

    def admit_clients(self, order: Optional[Sequence[str]] = None) -> List[str]:
        """Admit clients one by one (the paper activates them randomly).

        Returns the arrival order used. Clients with no candidate AP are
        skipped (they stay unassociated), mirroring a client that hears
        no beacon.

        Every scan reads its delays from one compiled snapshot taken
        before the loop, so the whole population's rate decisions are
        made in one batched table build. The snapshot only freezes
        topology: each scan still reads the live associations and the
        current interference graph.
        """
        if order is None:
            order = list(self.network.client_ids)
            self._rng.shuffle(order)
        compiled = self.compiled if supports_compiled(self.model) else None
        for client_id in order:
            try:
                self._associate(client_id, compiled)
            except AssociationError:
                continue
            self.invalidate_graph()
        return list(order)

    def allocate(
        self,
        initial: Optional[Mapping[str, Channel]] = None,
        shard: Optional[int] = None,
        warm_start: bool = False,
        sharded: bool = False,
        restarts: int = 1,
    ) -> AllocationResult:
        """Algorithm 2 over the current associations; applies the result.

        Parameters
        ----------
        shard:
            Reallocate only this interference component (a shard id from
            :attr:`decomposition`); every AP outside it keeps its
            committed channel but still contributes to the scored
            aggregate. The service front-end's per-request path.
        warm_start:
            Resume from the previous allocation (the shard's cached
            assignment when scoped and still valid, else the network's
            current channels) as the single start — no random draws, no
            multi-start. Requires ``restarts == 1``.
        sharded:
            Run the full allocation shard-major over the decomposition:
            the same commits as the monolithic scan (assignment and
            aggregate bit-identical) at a fraction of the evaluations.
        restarts:
            Forwarded to :func:`allocate_channels`.
        """
        if shard is not None and sharded:
            raise AllocationError(
                "shard= reallocates one component; sharded=True scans "
                "them all — pick one"
            )
        scope: Optional[Sequence[str]] = None
        warm: Optional[Dict[str, Channel]] = None
        if shard is not None:
            scope = self.decomposition.members(shard)
        if warm_start:
            warm = None if shard is None else self.shard_assignment(shard)
            if warm is None:
                warm = dict(self.network.channel_assignment)
            missing = [
                ap
                for ap in (scope if scope is not None else self.network.ap_ids)
                if ap not in warm
            ]
            if missing:
                raise AllocationError(
                    f"warm start requires committed channels; APs {missing} "
                    "have none — allocate cold first"
                )
        result = allocate_channels(
            self.network,
            self.graph,
            self.plan,
            self.model,
            initial=(
                initial
                if initial is not None or warm is not None
                else self.network.channel_assignment
            ),
            epsilon=self.epsilon,
            rng=self._rng,
            restarts=restarts,
            engine_mode=self.engine_mode,
            compiled=self.compiled if supports_compiled(self.model) else None,
            scope=scope,
            warm_start=warm,
            decomposition=self.decomposition if sharded else None,
        )
        for ap_id, channel in result.assignment.items():
            self.network.set_channel(ap_id, channel)
        self._cache_shard_assignments(result.assignment, shard=shard)
        return result

    def _cache_shard_assignments(
        self,
        assignment: Mapping[str, Channel],
        shard: Optional[int] = None,
    ) -> None:
        """Record the committed allocation as per-shard warm starts."""
        decomposition = self._derived.decomposition
        if decomposition is None:
            return
        sids = (shard,) if shard is not None else decomposition.shard_ids
        for sid in sids:
            members = decomposition.members(sid)
            if all(ap in assignment for ap in members):
                self._derived.shard_assignments[sid] = {
                    ap: assignment[ap] for ap in members
                }

    def configure(
        self,
        client_order: Optional[Sequence[str]] = None,
        joint_rounds: int = 2,
        initial: Optional[Mapping[str, Channel]] = None,
        refine: bool = False,
    ) -> AcornResult:
        """One full auto-configuration pass.

        1. Random initial channels.
        2. Clients arrive one by one and associate (Algorithm 1).
        3. Channel allocation (Algorithm 2).
        4. Because association and allocation are coupled under CB,
           steps 2-3 repeat up to ``joint_rounds`` times or until the
           associations stabilise — this is the periodic re-run the
           paper schedules every T = 30 min, compressed in time.

        ``refine=True`` adds the post-pass association local search
        (:func:`repro.core.refinement.refine_associations`) followed by
        one more allocation — an extension beyond the paper that
        escapes the sequential-greedy basins documented in
        EXPERIMENTS.md. The default keeps the paper-faithful pipeline.
        """
        tracer = active_tracer()
        if not tracer.enabled:
            return self._configure(client_order, joint_rounds, initial, refine)
        with tracer.span("controller.configure"):
            return self._configure(client_order, joint_rounds, initial, refine)

    def _configure(
        self,
        client_order: Optional[Sequence[str]] = None,
        joint_rounds: int = 2,
        initial: Optional[Mapping[str, Channel]] = None,
        refine: bool = False,
    ) -> AcornResult:
        """The :meth:`configure` body, free of tracing scaffolding."""
        self.assign_initial_channels(initial)
        order = self.admit_clients(client_order)
        allocation = self.allocate()
        for _ in range(max(0, joint_rounds - 1)):
            previous = dict(self.network.associations)
            self.network.associations.clear()
            self.invalidate_graph()
            self.admit_clients(order)
            allocation = self.allocate()
            if self.network.associations == previous:
                break
        if refine:
            from .refinement import refine_associations

            refinement = refine_associations(
                self.network,
                self.graph,
                self.model,
                min_snr20_db=self.min_snr20_db,
                engine_mode=self.engine_mode,
                compiled=(
                    self.compiled if supports_compiled(self.model) else None
                ),
            )
            if refinement.n_moves:
                self.invalidate_graph()
                allocation = self.allocate()
        report = self.model.evaluate(self.network, self.graph)
        return AcornResult(
            report=report,
            allocation=allocation,
            association_order=list(order),
        )

    # ------------------------------------------------------------------
    def opportunistic_width(
        self,
        ap_id: str,
        current: Optional[Channel] = None,
        hysteresis: float = 0.0,
    ) -> Channel:
        """The mobility-mode width decision for one AP.

        If the AP holds a bonded colour, compare its isolated cell
        throughput using the full 40 MHz against the primary 20 MHz
        alone and return the better channel. Neighbours are unaffected:
        both options occupy (a subset of) the same allocated spectrum.

        Parameters
        ----------
        current:
            The width currently in use (must be the allocation or its
            primary). With ``hysteresis > 0``, switching away from it
            requires the alternative to win by that relative margin —
            suppressing width flapping when the link quality hovers at
            the crossover.
        """
        if hysteresis < 0:
            raise AssociationError(
                f"hysteresis must be non-negative, got {hysteresis}"
            )
        assigned = self.network.channel_assignment.get(ap_id)
        if assigned is None:
            raise AssociationError(f"AP {ap_id!r} has no channel to adapt")
        if not assigned.is_bonded:
            return assigned
        narrow_channel = assigned.primary_only()
        if current is not None and current not in (assigned, narrow_channel):
            raise AssociationError(
                f"current channel {current} is not part of AP {ap_id!r}'s "
                f"allocation {assigned}"
            )
        wide = self.model.isolated_ap_throughput_mbps(self.network, ap_id, assigned)
        narrow = self.model.isolated_ap_throughput_mbps(
            self.network, ap_id, narrow_channel
        )
        if current is not None and hysteresis > 0:
            staying_wide = current == assigned
            if staying_wide:
                return narrow_channel if narrow > wide * (1 + hysteresis) else assigned
            return assigned if wide > narrow * (1 + hysteresis) else narrow_channel
        return assigned if wide >= narrow else narrow_channel
