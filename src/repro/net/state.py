"""Compiled array-backed network state: the index fast path.

A built :class:`~repro.net.topology.Network` is a web of string-keyed
dicts — ideal for construction and inspection, but every hot path
(delta rescoring, greedy sweeps, fleet workers) pays dict hashing and
object traversal per candidate. :class:`CompiledNetwork` freezes a
network into contiguous arrays with stable integer ids:

* ``ap_ids`` / ``client_ids`` record the id↔name mapping — integer id
  ``i`` *is* position ``i`` in those tuples (insertion order, the same
  order every dict walk in the legacy engine uses);
* dense AP×client SNR matrices (20 and 40 MHz, computed through the
  exact :meth:`~repro.net.topology.Network.link_budget` pipeline);
* CSR-style interference adjacency in ``graph.neighbors`` order, so
  sequential load sums replay the dict engine's addition order;
* precomputed channel-conflict/overlap tables for the palette and
  per-model MCS rate tables (:class:`RateTables`).

**Contract.** ``compile()`` snapshots; later mutations of the source
``Network`` are *not* reflected — recompile after topology, link,
association or conflict changes (the controller invalidates its cached
compile together with the interference graph). ``thaw()`` reconstructs
an equivalent mutable ``Network`` from the frozen state, and
``fingerprint()`` digests everything that affects evaluation so a
payload can be verified end-to-end.

:class:`CompiledEvaluator` is the engine riding on this state: an
index-based mirror of the :class:`~repro.net.evaluator.DeltaEvaluator`
structural tier that replays its floating-point operation order exactly
— same sequential sums, same memoised pure-function cells — so
committed aggregates and every trial value are bit-identical to the
legacy dict engine (enforced by the equivalence test suite). It applies
only to models that :func:`supports_compiled`; anything exotic stays on
the legacy engines.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import AllocationError, TopologyError
from ..graph.components import ComponentDecomposition
from ..mac.airtime import client_delay_s
from ..phy.ofdm import OFDM_20MHZ, OFDM_40MHZ
from .channels import Channel, ChannelPlan
from .evaluator import EngineStats
from .interference import (
    adjacency_arrays,
    ap_hearing_columns,
    ap_hearing_square,
    build_interference_graph,
    graph_from_hearing,
)
from .overlap import spectral_overlap_fraction
from .throughput import ThroughputModel, WeightedThroughputModel
from .topology import Network

__all__ = [
    "CompiledEvaluator",
    "CompiledNetwork",
    "RateTables",
    "ShardView",
    "network_fingerprint",
    "supports_compiled",
]

# Width index 0 is 20 MHz, 1 is 40 MHz — everywhere in this module.
_WIDTH_PARAMS = (OFDM_20MHZ, OFDM_40MHZ)

_FINGERPRINT_VERSION = 1


def _hex(value: float) -> str:
    return float(value).hex()


def _hex_position(position) -> "Optional[List[str]]":
    if position is None:
        return None
    return [_hex(position[0]), _hex(position[1])]


def network_fingerprint(network: Network) -> str:
    """Stable digest of everything that affects evaluation results.

    Covers devices (in insertion order — it shapes summation order),
    link overrides, explicit conflicts, associations, channels and the
    simulation config. Floats are hashed via ``float.hex`` so the digest
    is exact, platform-independent and insensitive to repr formatting.
    Equal fingerprints ⇒ bit-identical evaluation on both engines.
    """
    config = network.config
    payload = {
        "version": _FINGERPRINT_VERSION,
        "config": {
            "seed": int(config.seed),
            "noise_figure_db": _hex(config.noise_figure_db),
            "max_tx_power_dbm": _hex(config.max_tx_power_dbm),
            "packet_size_bytes": int(config.packet_size_bytes),
            "path_loss": {
                "pl0_db": _hex(config.path_loss.pl0_db),
                "exponent": _hex(config.path_loss.exponent),
                "reference_m": _hex(config.path_loss.reference_m),
                "shadowing_sigma_db": _hex(config.path_loss.shadowing_sigma_db),
            },
        },
        "aps": [
            [
                ap_id,
                _hex_position(network.ap(ap_id).position),
                _hex(network.ap(ap_id).tx_power_dbm),
            ]
            for ap_id in network.ap_ids
        ],
        "clients": [
            [client_id, _hex_position(network.client(client_id).position)]
            for client_id in network.client_ids
        ],
        "links": sorted(
            [ap_id, client_id, _hex(value)]
            for (ap_id, client_id), value in network._snr_overrides.items()
        ),
        "conflicts": (
            None
            if network.explicit_conflicts is None
            else sorted(sorted(pair) for pair in network.explicit_conflicts)
        ),
        "associations": sorted(
            [client_id, ap_id]
            for client_id, ap_id in network.associations.items()
        ),
        "channels": sorted(
            [ap_id, channel.primary, channel.secondary]
            for ap_id, channel in network.channel_assignment.items()
        ),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def supports_compiled(model: ThroughputModel) -> bool:
    """Whether the compiled fast path reproduces ``model`` bit-for-bit.

    True for the stock binary-conflict and weighted-overlap models (and
    subclasses that only change *data* fields like packet size, traffic
    or controller). Overriding any evaluation hook — ``evaluate``,
    ``ap_throughput_mbps``, ``link_decision``, or an inconsistent
    ``medium_share_of``/``contention_weight`` pair — opts the model out;
    such models must use :class:`~repro.net.evaluator.DeltaEvaluator`.
    """
    cls = type(model)
    if cls.evaluate is not ThroughputModel.evaluate:
        return False
    if cls.ap_throughput_mbps is not ThroughputModel.ap_throughput_mbps:
        return False
    if cls.link_decision is not ThroughputModel.link_decision:
        return False
    binary = (
        cls.medium_share_of is ThroughputModel.medium_share_of
        and cls.contention_weight is ThroughputModel.contention_weight
    )
    weighted = (
        cls.medium_share_of is WeightedThroughputModel.medium_share_of
        and cls.contention_weight is WeightedThroughputModel.contention_weight
    )
    return binary or weighted


class RateTables:
    """Per-(width, AP, client) delay and goodput-factor lookup tables.

    Entry ``delay[w][a][c]`` is the exact float the dict engine derives
    via ``link_decision`` + ``client_delay_s`` for AP ``a``, client
    ``c`` on width ``w`` (0 = 20 MHz, 1 = 40 MHz); ``factor[w][a][c]``
    is the matching traffic goodput factor. Undefined links hold NaN and
    are never read (associations require a link). Built once per
    (compiled network, model) — after that no link-budget, SNR or rate
    mathematics remains on any hot path.
    """

    def __init__(self, compiled: "CompiledNetwork", model: ThroughputModel) -> None:
        """Precompute both width tables for every defined link."""
        nan = float("nan")
        self.delay: List[List[List[float]]] = []
        self.factor: List[List[List[float]]] = []
        for width, snr_matrix in enumerate((compiled.snr20_db, compiled.snr40_db)):
            delay_rows = [[nan] * compiled.n_clients for _ in range(compiled.n_aps)]
            factor_rows = [[nan] * compiled.n_clients for _ in range(compiled.n_aps)]
            _fill_rate_rows(
                model, width, snr_matrix, compiled.has_link, delay_rows, factor_rows
            )
            self.delay.append(delay_rows)
            self.factor.append(factor_rows)


def _fill_rate_rows(
    model: ThroughputModel,
    width: int,
    snr_matrix: np.ndarray,
    linked: np.ndarray,
    delay_rows: List[List[float]],
    factor_rows: List[List[float]],
) -> None:
    """Write delay and goodput factor for every ``linked`` (AP, client).

    One batched rate lookup per call
    (:meth:`~repro.net.throughput.ThroughputModel.decisions_from_snrs`),
    then the same ``client_delay_s`` and ``goodput_factor`` floats the
    dict engine derives per link.
    """
    aps, clients = np.nonzero(linked)
    if not aps.size:
        return
    decisions = model.decisions_from_snrs(
        snr_matrix[aps, clients].tolist(), _WIDTH_PARAMS[width]
    )
    packet_bytes = model.packet_bytes
    timings = model.timings
    goodput_factor = model.traffic.goodput_factor
    for ap, client, decision in zip(aps.tolist(), clients.tolist(), decisions):
        delay_rows[ap][client] = client_delay_s(
            decision.nominal_rate_mbps, decision.per, packet_bytes, timings
        )
        factor_rows[ap][client] = goodput_factor(decision.per)


class CompiledNetwork:
    """A :class:`Network` frozen into contiguous arrays and integer ids.

    Integer AP id ``i`` is position ``i`` of :attr:`ap_ids` (insertion
    order); likewise for clients. The snapshot is immutable by
    convention: it records topology, link SNRs, adjacency, the channel
    palette, and the association/channel state at compile time. Use
    :meth:`thaw` to get back a mutable ``Network`` and
    :meth:`fingerprint` to verify integrity across process boundaries.
    """

    def __init__(
        self,
        network: Network,
        graph=None,
        plan: Optional[ChannelPlan] = None,
    ) -> None:
        """Freeze ``network`` — prefer the :meth:`compile` classmethod."""
        if graph is None:
            graph = build_interference_graph(network)
        self.config = network.config
        self.ap_ids: Tuple[str, ...] = network.ap_ids
        self.client_ids: Tuple[str, ...] = network.client_ids
        self.ap_index: Dict[str, int] = {
            ap_id: index for index, ap_id in enumerate(self.ap_ids)
        }
        self.client_index: Dict[str, int] = {
            client_id: index for index, client_id in enumerate(self.client_ids)
        }
        n_aps = len(self.ap_ids)
        n_clients = len(self.client_ids)
        self.tx_power_dbm = np.array(
            [network.ap(ap_id).tx_power_dbm for ap_id in self.ap_ids],
            dtype=np.float64,
        )
        self.ap_positions = tuple(
            network.ap(ap_id).position for ap_id in self.ap_ids
        )
        self.client_positions = tuple(
            network.client(client_id).position for client_id in self.client_ids
        )
        # Dense link matrices. -inf marks "no link" (never a valid SNR
        # and safely below any serviceability floor).
        self.has_link = np.zeros((n_aps, n_clients), dtype=bool)
        self.snr20_db = np.full((n_aps, n_clients), -np.inf, dtype=np.float64)
        self.snr40_db = np.full((n_aps, n_clients), -np.inf, dtype=np.float64)
        for ap, ap_id in enumerate(self.ap_ids):
            for client, client_id in enumerate(self.client_ids):
                if not network.has_link(ap_id, client_id):
                    continue
                budget = network.link_budget(ap_id, client_id)
                self.has_link[ap, client] = True
                self.snr20_db[ap, client] = budget.subcarrier_snr_db(OFDM_20MHZ)
                self.snr40_db[ap, client] = budget.subcarrier_snr_db(OFDM_40MHZ)
        self.snr_overrides: Tuple[Tuple[str, str, float], ...] = tuple(
            (ap_id, client_id, value)
            for (ap_id, client_id), value in network._snr_overrides.items()
        )
        self.adj_indptr, self.adj_indices, self.in_graph = adjacency_arrays(
            graph, self.ap_ids
        )
        flat = [int(j) for j in self.adj_indices]
        self.neighbor_lists: Tuple[Optional[Tuple[int, ...]], ...] = tuple(
            tuple(flat[self.adj_indptr[ap] : self.adj_indptr[ap + 1]])
            if self.in_graph[ap]
            else None
            for ap in range(n_aps)
        )
        conflicts = network.explicit_conflicts
        self.explicit_conflicts: Optional[Tuple[Tuple[str, str], ...]] = (
            None
            if conflicts is None
            else tuple(sorted(tuple(sorted(pair)) for pair in conflicts))
        )
        if plan is not None:
            self.channels: Tuple[Channel, ...] = plan.all_channels()
            self.channel_numbers: Tuple[int, ...] = plan.channel_numbers
            self.bonded_pairs: Tuple[Tuple[int, int], ...] = plan.bonded_pairs
        else:
            self.channels = ()
            self.channel_numbers = ()
            self.bonded_pairs = ()
        self.channel_index: Dict[Channel, int] = {
            channel: index for index, channel in enumerate(self.channels)
        }
        n_channels = len(self.channels)
        self.conflict = np.zeros((n_channels, n_channels), dtype=bool)
        self.overlap = np.zeros((n_channels, n_channels), dtype=np.float64)
        for i, own in enumerate(self.channels):
            for j, other in enumerate(self.channels):
                self.conflict[i, j] = own.conflicts_with(other)
                self.overlap[i, j] = spectral_overlap_fraction(own, other)
        self.associations: Tuple[Tuple[str, str], ...] = tuple(
            network.associations.items()
        )
        self.channel_assignment: Tuple[Tuple[str, Channel], ...] = tuple(
            network.channel_assignment.items()
        )
        self._rate_tables: Dict[int, tuple] = {}
        # Lazily-built carrier-sense cache for incremental graph rebuilds
        # on geometric networks (see apply_churn); process-local.
        self._hearing_cache: Optional[dict] = None
        # Per-shard slices keyed by (sid, member tuple); process-local,
        # dropped whenever churn rebinds the underlying arrays.
        self._shard_views: Dict[tuple, "ShardView"] = {}
        self._decomposition: Optional[ComponentDecomposition] = None

    # ------------------------------------------------------------------
    @classmethod
    def compile(
        cls,
        network: Network,
        graph=None,
        plan: Optional[ChannelPlan] = None,
    ) -> "CompiledNetwork":
        """Snapshot ``network`` (and optionally its palette) into arrays.

        ``graph`` defaults to a freshly built interference graph. The
        result is decoupled from the source network: later mutations are
        not reflected — recompile instead.
        """
        return cls(network, graph=graph, plan=plan)

    @property
    def n_aps(self) -> int:
        """Number of APs (integer ids are ``range(n_aps)``)."""
        return len(self.ap_ids)

    @property
    def n_clients(self) -> int:
        """Number of clients (integer ids are ``range(n_clients)``)."""
        return len(self.client_ids)

    # ------------------------------------------------------------------
    def thaw(self) -> Network:
        """Reconstruct an equivalent mutable :class:`Network`.

        Devices, raw SNR overrides, explicit conflicts, associations and
        channels are replayed in their recorded insertion order, so the
        thawed network evaluates bit-identically to the original.
        """
        network = Network(self.config)
        for ap, ap_id in enumerate(self.ap_ids):
            network.add_ap(
                ap_id,
                position=self.ap_positions[ap],
                tx_power_dbm=float(self.tx_power_dbm[ap]),
            )
        for client, client_id in enumerate(self.client_ids):
            network.add_client(client_id, position=self.client_positions[client])
        for ap_id, client_id, value in self.snr_overrides:
            network.set_link_snr(ap_id, client_id, value)
        if self.explicit_conflicts is not None:
            network.set_explicit_conflicts(list(self.explicit_conflicts))
        for client_id, ap_id in self.associations:
            network.associate(client_id, ap_id)
        for ap_id, channel in self.channel_assignment:
            network.set_channel(ap_id, channel)
        return network

    def fingerprint(self) -> str:
        """Digest of the frozen state (``network_fingerprint`` of a thaw)."""
        return network_fingerprint(self.thaw())

    def candidate_aps(
        self, client_id: str, min_snr20_db: float = -5.0
    ) -> Tuple[str, ...]:
        """The serving set A_u, identical to ``Network.candidate_aps``.

        Vectorised over the SNR matrix; the comparison floats are the
        same ones the legacy per-call path derives, so the returned
        tuple matches exactly (AP insertion order).
        """
        client = self.client_index.get(client_id)
        if client is None:
            raise TopologyError(f"unknown client {client_id!r}")
        mask = self.has_link[:, client] & (
            self.snr20_db[:, client] >= min_snr20_db
        )
        return tuple(self.ap_ids[int(ap)] for ap in np.nonzero(mask)[0])

    def rate_tables(self, model: ThroughputModel) -> RateTables:
        """Per-model :class:`RateTables`, cached by model identity."""
        key = id(model)
        cached = self._rate_tables.get(key)
        if cached is not None:
            ref, tables = cached
            if ref() is model:
                return tables
        tables = RateTables(self, model)
        self._rate_tables[key] = (weakref.ref(model), tables)
        return tables

    def decomposition(self) -> ComponentDecomposition:
        """Components of the compiled interference graph (cached).

        Ids are fresh ``0..k-1`` for *this* snapshot. A controller that
        needs ids stable across churn keeps its own
        :class:`~repro.graph.components.ComponentDecomposition` and
        calls :meth:`~repro.graph.components.ComponentDecomposition.update`
        — this accessor is the anonymous, snapshot-local view.
        """
        if self._decomposition is None:
            adjacency: Dict[str, Tuple[str, ...]] = {}
            for ap, ap_id in enumerate(self.ap_ids):
                neighbours = self.neighbor_lists[ap]
                if neighbours is None:
                    raise TopologyError(
                        f"AP {ap_id!r} is outside the compiled interference "
                        "graph; compile with the full graph to decompose"
                    )
                adjacency[ap_id] = tuple(self.ap_ids[j] for j in neighbours)
            self._decomposition = ComponentDecomposition.from_adjacency(
                self.ap_ids, adjacency
            )
        return self._decomposition

    def shard_view(
        self,
        sid: int,
        decomposition: Optional[ComponentDecomposition] = None,
    ) -> "ShardView":
        """A :class:`ShardView` slicing this snapshot to one shard.

        ``decomposition`` supplies the id→members mapping (defaults to
        the snapshot-local :meth:`decomposition`); views are cached by
        ``(sid, members)`` so churn-stable ids from a controller-owned
        decomposition and snapshot-local ids can coexist.
        """
        source = decomposition if decomposition is not None else self.decomposition()
        members = source.members(sid)
        key = (sid, members)
        view = self._shard_views.get(key)
        if view is None:
            view = ShardView(self, sid, members)
            self._shard_views[key] = view
        return view

    def __getstate__(self) -> dict:
        """Pickle without the process-local per-model table cache."""
        state = dict(self.__dict__)
        state["_rate_tables"] = {}
        state["_hearing_cache"] = None
        state["_shard_views"] = {}
        state["_decomposition"] = None
        return state

    # ------------------------------------------------------------------
    # Incremental recompilation
    # ------------------------------------------------------------------
    def apply_churn(
        self,
        network: Network,
        added_clients: "Tuple[str, ...] | List[str]" = (),
        removed_clients: "Tuple[str, ...] | List[str]" = (),
    ):
        """Patch the snapshot in place after client arrival/departure.

        ``network`` is the already-mutated source network (clients added
        via :meth:`Network.add_client` / removed via
        :meth:`Network.remove_client`, associations updated). The AP set,
        AP geometry/power, existing client positions, the channel
        palette and the config must be unchanged — anything else needs a
        fresh :meth:`compile`. Kept SNR columns and rate-table entries
        are gathered by index; fresh columns run through the exact same
        scalar ``link_budget`` pipeline as :meth:`compile`, so the
        patched state is bit-identical to a fresh compile of ``network``
        (equal :meth:`fingerprint`, equal evaluation results — enforced
        by the timeline differential suite). Dense arrays are *rebound*,
        not mutated, so evaluators built earlier stay internally
        consistent — but they describe the pre-churn network; build new
        engines after patching. Returns the rebuilt interference graph.

        Cost is O(APs × changed clients) plus a cheap column gather —
        near ``compiled_ms`` instead of ``compile_ms`` — which is what
        makes per-event reconfiguration affordable in
        :mod:`repro.sim.timeline`.
        """
        if network.ap_ids != self.ap_ids:
            raise TopologyError(
                "apply_churn only patches client churn; the AP set changed "
                "— recompile instead"
            )
        added = frozenset(added_clients)
        removed = frozenset(removed_clients)
        new_ids = network.client_ids
        new_index = {cid: k for k, cid in enumerate(new_ids)}
        for cid in removed:
            if cid not in self.client_index:
                raise TopologyError(
                    f"removed client {cid!r} was not in the snapshot"
                )
            if cid in new_index and cid not in added:
                raise TopologyError(
                    f"removed client {cid!r} is still in the network"
                )
        for cid in added:
            if cid not in new_index:
                raise TopologyError(
                    f"added client {cid!r} is not in the network"
                )
        col_src: List[int] = []
        for cid in new_ids:
            if cid in added:
                col_src.append(-1)
                continue
            src = self.client_index.get(cid)
            if src is None:
                raise TopologyError(
                    f"client {cid!r} appeared without being declared in "
                    "added_clients"
                )
            col_src.append(src)
        for cid in self.client_ids:
            if cid not in removed and cid not in new_index:
                raise TopologyError(
                    f"client {cid!r} disappeared without being declared in "
                    "removed_clients"
                )

        n_aps = len(self.ap_ids)
        n_clients = len(new_ids)
        fresh_cols = [k for k, src in enumerate(col_src) if src < 0]
        # Identity churn (association/channel resync only): the client
        # axis is unchanged, so the SNR matrices and every rate table
        # stay valid — only the graph and the state tuples move.
        identity = not fresh_cols and new_ids == self.client_ids
        if not identity:
            src_arr = np.asarray(col_src, dtype=np.int64)
            kept = src_arr >= 0
            has_link = np.zeros((n_aps, n_clients), dtype=bool)
            snr20_db = np.full((n_aps, n_clients), -np.inf, dtype=np.float64)
            snr40_db = np.full((n_aps, n_clients), -np.inf, dtype=np.float64)
            if n_clients and kept.any():
                gather = src_arr[kept]
                has_link[:, kept] = self.has_link[:, gather]
                snr20_db[:, kept] = self.snr20_db[:, gather]
                snr40_db[:, kept] = self.snr40_db[:, gather]
            for k in fresh_cols:
                client_id = new_ids[k]
                for ap, ap_id in enumerate(self.ap_ids):
                    if not network.has_link(ap_id, client_id):
                        continue
                    budget = network.link_budget(ap_id, client_id)
                    has_link[ap, k] = True
                    snr20_db[ap, k] = budget.subcarrier_snr_db(OFDM_20MHZ)
                    snr40_db[ap, k] = budget.subcarrier_snr_db(OFDM_40MHZ)

        graph = self._churn_graph(network, new_ids, new_index, added, removed)

        # Point of no return: rebind everything atomically-ish (pure
        # python, single-threaded contract).
        self.client_ids = new_ids
        self.client_index = new_index
        self.client_positions = tuple(
            network.client(cid).position for cid in new_ids
        )
        if not identity:
            self.has_link = has_link
            self.snr20_db = snr20_db
            self.snr40_db = snr40_db
        self.snr_overrides = tuple(
            (ap_id, client_id, value)
            for (ap_id, client_id), value in network._snr_overrides.items()
        )
        self.associations = tuple(network.associations.items())
        self.channel_assignment = tuple(network.channel_assignment.items())
        conflicts = network.explicit_conflicts
        self.explicit_conflicts = (
            None
            if conflicts is None
            else tuple(sorted(tuple(sorted(pair)) for pair in conflicts))
        )
        self.adj_indptr, self.adj_indices, self.in_graph = adjacency_arrays(
            graph, self.ap_ids
        )
        flat = [int(j) for j in self.adj_indices]
        self.neighbor_lists = tuple(
            tuple(flat[self.adj_indptr[ap] : self.adj_indptr[ap + 1]])
            if self.in_graph[ap]
            else None
            for ap in range(n_aps)
        )
        if not identity:
            self._patch_rate_tables(col_src, fresh_cols)
        # Shard structure may have merged/split (footnote-5 edges moved)
        # and the views hold references to the pre-churn arrays.
        self._shard_views = {}
        self._decomposition = None
        return graph

    def _churn_graph(
        self,
        network: Network,
        new_ids: Tuple[str, ...],
        new_index: Dict[str, int],
        added: frozenset,
        removed: frozenset,
    ):
        """Interference graph of the churned network, incrementally.

        Explicit-conflicts scenarios rebuild through the (cheap)
        early-return path of :func:`build_interference_graph`. Geometric
        scenarios reassemble the footnote-5 edge set from cached
        carrier-sense hearing matrices: the AP×AP square never changes
        under client churn and AP×client columns only change for
        arriving clients, so the per-event cost is O(APs × arrivals)
        scalar propagation tests instead of O(APs² × clients).
        """
        if network.explicit_conflicts is not None:
            return build_interference_graph(network)
        cache = getattr(self, "_hearing_cache", None)
        if cache is None:
            cache = {"square": ap_hearing_square(network), "columns": {}}
            self._hearing_cache = cache
        columns: Dict[str, np.ndarray] = cache["columns"]
        for cid in removed:
            columns.pop(cid, None)
        fresh = [
            cid for cid in new_ids if cid in added or cid not in columns
        ]
        if fresh:
            fresh_matrix = ap_hearing_columns(network, fresh)
            for k, cid in enumerate(fresh):
                columns[cid] = np.ascontiguousarray(fresh_matrix[:, k])
        n_aps = len(self.ap_ids)
        hears_client = np.zeros((n_aps, len(new_ids)), dtype=bool)
        for k, cid in enumerate(new_ids):
            hears_client[:, k] = columns[cid]
        association = np.zeros((n_aps, len(new_ids)), dtype=bool)
        for cid, ap_id in network.associations.items():
            association[self.ap_index[ap_id], new_index[cid]] = True
        return graph_from_hearing(
            self.ap_ids, cache["square"], hears_client, association
        )

    def _patch_rate_tables(
        self, col_src: List[int], fresh_cols: List[int]
    ) -> None:
        """Re-key live per-model rate tables to the churned client axis.

        Kept entries are gathered (they are the exact floats a fresh
        build would recompute); fresh clients' columns are filled by the
        same batched lookup as :meth:`RateTables.__init__`. Dead model
        weakrefs are dropped.
        """
        if not self._rate_tables:
            return
        nan = float("nan")
        fresh = np.zeros_like(self.has_link)
        fresh[:, fresh_cols] = self.has_link[:, fresh_cols]
        patched_cache: Dict[int, tuple] = {}
        for key, (ref, tables) in self._rate_tables.items():
            model = ref()
            if model is None:
                continue
            patched = RateTables.__new__(RateTables)
            patched.delay = []
            patched.factor = []
            for width, snr_matrix in enumerate((self.snr20_db, self.snr40_db)):
                delay_rows = [
                    [old[src] if src >= 0 else nan for src in col_src]
                    for old in tables.delay[width]
                ]
                factor_rows = [
                    [old[src] if src >= 0 else nan for src in col_src]
                    for old in tables.factor[width]
                ]
                _fill_rate_rows(
                    model, width, snr_matrix, fresh, delay_rows, factor_rows
                )
                patched.delay.append(delay_rows)
                patched.factor.append(factor_rows)
            patched_cache[key] = (ref, patched)
        self._rate_tables = patched_cache


class ShardView:
    """A read-only per-shard slice of a :class:`CompiledNetwork`.

    The local AP axis holds one interference component's members in
    global AP order; the local client axis holds every client with a
    link to a member AP, in global client order. SNR/link matrices are
    fancy-index *copies* (the parent rebinds its arrays under churn —
    a view must not alias a snapshot that moves underneath it), the
    CSR adjacency is re-indexed into the local id space, and the id
    maps translate both directions. Components are closed under
    interference adjacency, so the slice loses no edges — construction
    verifies that.

    The service front-end routes requests, batches beacon updates and
    reports stats through these views; the allocation hot path stays on
    the *global* engine with a shard scope, which is what makes the
    sharded results bit-identical to the unsharded ones.
    """

    def __init__(
        self,
        parent: CompiledNetwork,
        sid: int,
        members: "Tuple[str, ...] | List[str]",
    ) -> None:
        self.parent = parent
        self.sid = sid
        self.ap_ids: Tuple[str, ...] = tuple(members)
        if not self.ap_ids:
            raise TopologyError(f"shard {sid} has no members")
        missing = [a for a in self.ap_ids if a not in parent.ap_index]
        if missing:
            raise TopologyError(
                f"shard {sid} members {missing} are not in the snapshot"
            )
        self.ap_rows = np.asarray(
            [parent.ap_index[ap_id] for ap_id in self.ap_ids], dtype=np.int64
        )
        self.ap_index: Dict[str, int] = {
            ap_id: index for index, ap_id in enumerate(self.ap_ids)
        }
        member_set = frozenset(self.ap_ids)
        if parent.n_clients:
            mask = parent.has_link[self.ap_rows, :].any(axis=0)
            for client_id, ap_id in parent.associations:
                if ap_id in member_set:
                    mask[parent.client_index[client_id]] = True
            self.client_cols = np.nonzero(mask)[0]
        else:
            self.client_cols = np.zeros(0, dtype=np.int64)
        self.client_ids: Tuple[str, ...] = tuple(
            parent.client_ids[int(col)] for col in self.client_cols
        )
        self.client_index: Dict[str, int] = {
            client_id: index for index, client_id in enumerate(self.client_ids)
        }
        grid = np.ix_(self.ap_rows, self.client_cols)
        self.has_link = parent.has_link[grid]
        self.snr20_db = parent.snr20_db[grid]
        self.snr40_db = parent.snr40_db[grid]
        indptr: List[int] = [0]
        indices: List[int] = []
        for ap_id, row in zip(self.ap_ids, self.ap_rows):
            neighbours = parent.neighbor_lists[int(row)]
            if neighbours is None:
                raise TopologyError(
                    f"AP {ap_id!r} is outside the compiled interference graph"
                )
            for global_index in neighbours:
                neighbour_id = parent.ap_ids[global_index]
                local = self.ap_index.get(neighbour_id)
                if local is None:
                    raise TopologyError(
                        f"shard {sid} is not closed under interference "
                        f"adjacency: {ap_id!r} hears {neighbour_id!r}"
                    )
                indices.append(local)
            indptr.append(len(indices))
        self.adj_indptr = np.asarray(indptr, dtype=np.int64)
        self.adj_indices = np.asarray(indices, dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def n_aps(self) -> int:
        """Member APs (local integer ids are ``range(n_aps)``)."""
        return len(self.ap_ids)

    @property
    def n_clients(self) -> int:
        """Clients linked into the shard."""
        return len(self.client_ids)

    def to_global_ap(self, local: int) -> int:
        """Local AP index → parent AP index."""
        return int(self.ap_rows[local])

    def to_local_ap(self, ap_id: str) -> int:
        """AP name → local index (members only)."""
        try:
            return self.ap_index[ap_id]
        except KeyError:
            raise TopologyError(
                f"AP {ap_id!r} is not a member of shard {self.sid}"
            ) from None

    def to_global_client(self, local: int) -> int:
        """Local client index → parent client index."""
        return int(self.client_cols[local])

    def to_local_client(self, client_id: str) -> int:
        """Client name → local index (linked clients only)."""
        try:
            return self.client_index[client_id]
        except KeyError:
            raise TopologyError(
                f"client {client_id!r} is not linked into shard {self.sid}"
            ) from None

    # ------------------------------------------------------------------
    @property
    def channel_assignment(self) -> Dict[str, Channel]:
        """The members' slice of the snapshot's channel assignment."""
        members = frozenset(self.ap_ids)
        return {
            ap_id: channel
            for ap_id, channel in self.parent.channel_assignment
            if ap_id in members
        }

    @property
    def associations(self) -> Dict[str, str]:
        """Client→AP pairs served inside this shard."""
        members = frozenset(self.ap_ids)
        return {
            client_id: ap_id
            for client_id, ap_id in self.parent.associations
            if ap_id in members
        }

    def candidate_aps(
        self, client_id: str, min_snr20_db: float = -5.0
    ) -> Tuple[str, ...]:
        """The serving set A_u restricted to this shard's members.

        Same floats, same AP order as the parent's
        :meth:`CompiledNetwork.candidate_aps`, filtered to members.
        """
        local = self.to_local_client(client_id)
        mask = self.has_link[:, local] & (
            self.snr20_db[:, local] >= min_snr20_db
        )
        return tuple(self.ap_ids[int(ap)] for ap in np.nonzero(mask)[0])

    def rate_tables(self, model: ThroughputModel) -> RateTables:
        """The members×linked-clients slice of the parent's rate tables.

        Entries are the parent's exact floats (gathered, not
        recomputed), indexed by local ids.
        """
        tables = self.parent.rate_tables(model)
        rows = [int(row) for row in self.ap_rows]
        cols = [int(col) for col in self.client_cols]
        sliced = RateTables.__new__(RateTables)
        sliced.delay = [
            [[tables.delay[width][ap][client] for client in cols] for ap in rows]
            for width in range(len(_WIDTH_PARAMS))
        ]
        sliced.factor = [
            [[tables.factor[width][ap][client] for client in cols] for ap in rows]
            for width in range(len(_WIDTH_PARAMS))
        ]
        return sliced

    def fingerprint(self) -> str:
        """Canonical digest of the slice (ids, links, SNRs, adjacency)."""
        payload = {
            "version": _FINGERPRINT_VERSION,
            "sid": self.sid,
            "ap_ids": list(self.ap_ids),
            "client_ids": list(self.client_ids),
            "has_link": self.has_link.astype(int).ravel().tolist(),
            "snr20": [_hex(v) for v in self.snr20_db.ravel().tolist()],
            "snr40": [_hex(v) for v in self.snr40_db.ravel().tolist()],
            "indptr": self.adj_indptr.tolist(),
            "indices": self.adj_indices.tolist(),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardView(sid={self.sid}, n_aps={self.n_aps}, "
            f"n_clients={self.n_clients})"
        )


class CompiledEvaluator:
    """Index-based incremental evaluator over a :class:`CompiledNetwork`.

    A drop-in replacement for the structural tier of
    :class:`~repro.net.evaluator.DeltaEvaluator` — same ``trial`` /
    ``commit`` / ``rollback`` / ``reset`` / ``trial_move`` /
    ``commit_move`` surface plus integer-id fast variants
    (:meth:`trial_index`, :meth:`commit_index`) for allocator hot loops.
    Every float it produces replays the legacy engine's operation order,
    so results are bit-identical; construction fails for models that
    :func:`supports_compiled` rejects.

    When all contention weights are integer-valued (the stock binary
    model), neighbour loads update incrementally — exact, because sums
    of small integers are closed under float arithmetic — and cell
    values memoise in flat lists indexed by load. Non-integer weights
    (partial spectral overlap) fall back to order-preserving fresh load
    sums per trial.
    """

    def __init__(
        self,
        compiled: CompiledNetwork,
        model: Optional[ThroughputModel] = None,
        assignment: Optional[Mapping[str, Channel]] = None,
        associations: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Build the engine; defaults mirror the compiled snapshots."""
        self._compiled = compiled
        self._model = model if model is not None else ThroughputModel()
        if not supports_compiled(self._model):
            raise AllocationError(
                "model overrides evaluation hooks the compiled engine cannot "
                "replay; use DeltaEvaluator instead"
            )
        self.stats = EngineStats()
        self._tables = compiled.rate_tables(self._model)
        self._packet_mbits = 8 * self._model.packet_bytes / 1e6
        self._ap_ids = compiled.ap_ids
        self._client_ids = compiled.client_ids
        self._ap_index = compiled.ap_index
        self._client_index = compiled.client_index
        self._nbr = compiled.neighbor_lists
        n_aps = len(self._ap_ids)
        self._channels: List[Channel] = []
        self._channel_index: Dict[Channel, int] = {}
        self._weight_rows: List[List[float]] = []
        self._widths: List[int] = []
        self._int_weights = True
        assoc_items = (
            compiled.associations
            if associations is None
            else tuple(associations.items())
        )
        self._assoc: Dict[int, int] = {}
        for client_id, ap_id in assoc_items:
            client = self._client_index.get(client_id)
            owner = self._ap_index.get(ap_id)
            if client is None or owner is None:
                raise AllocationError(
                    f"association {client_id!r}->{ap_id!r} names an unknown device"
                )
            self._assoc[client] = owner
        assignment_items = (
            compiled.channel_assignment
            if assignment is None
            else tuple(assignment.items())
        )
        self._chan: List[int] = [-1] * n_aps
        for ap_id, channel in assignment_items:
            owner = self._ap_index.get(ap_id)
            if owner is None:
                raise AllocationError(f"unknown AP {ap_id!r} in assignment")
            if channel is not None:
                self._chan[owner] = self._intern(channel)
        self._profiles: List[List[Optional[tuple]]] = [
            [None, None] for _ in range(n_aps)
        ]
        self._cells_fast: List[List[List[Optional[float]]]] = [
            [[], []] for _ in range(n_aps)
        ]
        self._cells: List[Dict[tuple, float]] = [{} for _ in range(n_aps)]
        self._clients_of: List[Optional[List[int]]] = [None] * n_aps
        self._loads: List[Optional[float]] = [None] * n_aps
        self._x: List[float] = [0.0] * n_aps
        self._aggregate = 0.0
        self._undo: Optional[tuple] = None
        self._rebuild()

    # ------------------------------------------------------------------
    # Introspection facade (mirrors DeltaEvaluator)
    # ------------------------------------------------------------------
    @property
    def aggregate_mbps(self) -> float:
        """The current committed aggregate throughput Y."""
        return self._aggregate

    @property
    def assignment(self) -> Dict[str, Channel]:
        """A copy of the current committed assignment (string-keyed)."""
        channels = self._channels
        return {
            self._ap_ids[ap]: channels[index]
            for ap, index in enumerate(self._chan)
            if index >= 0
        }

    @property
    def associations(self) -> Dict[str, str]:
        """A copy of the current committed associations (string-keyed)."""
        return {
            self._client_ids[client]: self._ap_ids[owner]
            for client, owner in self._assoc.items()
        }

    @property
    def tier(self) -> str:
        """Always ``"compiled"`` — the index fast path."""
        return "compiled"

    @property
    def compiled(self) -> CompiledNetwork:
        """The frozen network this engine evaluates over."""
        return self._compiled

    def channel_of(self, ap_id: str) -> Optional[Channel]:
        """The AP's committed channel, or ``None`` if unassigned."""
        owner = self._ap_index.get(ap_id)
        if owner is None:
            return None
        index = self._chan[owner]
        return self._channels[index] if index >= 0 else None

    def per_ap_mbps(self) -> Dict[str, float]:
        """Per-AP cell throughputs of the committed state."""
        return {
            self._ap_ids[ap]: self._x[ap] for ap in range(len(self._ap_ids))
        }

    def channel_index_of(self, ap: int) -> int:
        """Committed channel index of AP ``ap``, or -1 when unassigned."""
        return self._chan[ap]

    def intern(self, channel: Channel) -> int:
        """Dense index of a colour, stable for this engine's lifetime."""
        return self._intern(channel)

    # ------------------------------------------------------------------
    # Channel interning and contention arithmetic
    # ------------------------------------------------------------------
    def _intern(self, channel: Channel) -> int:
        index = self._channel_index.get(channel)
        if index is None:
            weight = self._model.contention_weight
            index = len(self._channels)
            for other_index, other_row in enumerate(self._weight_rows):
                value = weight(self._channels[other_index], channel)
                if not float(value).is_integer():
                    self._int_weights = False
                other_row.append(value)
            self._channel_index[channel] = index
            self._channels.append(channel)
            row = [weight(channel, other) for other in self._channels]
            for value in row:
                if not float(value).is_integer():
                    self._int_weights = False
            self._weight_rows.append(row)
            self._widths.append(1 if channel.is_bonded else 0)
            self.stats.weight_evaluations += 2 * index + 1
        return index

    def contention_load(
        self,
        ap_id: str,
        channel: Channel,
        assignment: Optional[Mapping[str, Channel]] = None,
    ) -> float:
        """Σ of neighbour contention weights if ``ap_id`` used ``channel``.

        String facade matching ``DeltaEvaluator.contention_load``:
        defaults to the committed state; an explicit ``assignment`` makes
        it a stateless conflict oracle (the Kauffmann baseline).
        """
        ap = self._ap_index.get(ap_id)
        if ap is None or self._nbr[ap] is None:
            raise AllocationError(
                f"AP {ap_id!r} is not in the interference graph"
            )
        row = self._weight_rows[self._intern(channel)]
        total = 0.0
        if assignment is None:
            chan = self._chan
            for other in self._nbr[ap]:
                j = chan[other]
                if j >= 0:
                    total += row[j]
            return total
        ap_ids = self._ap_ids
        for other in self._nbr[ap]:
            other_channel = assignment.get(ap_ids[other])
            if other_channel is None:
                continue
            total += row[self._intern(other_channel)]
        return total

    # ------------------------------------------------------------------
    # Cell arithmetic
    # ------------------------------------------------------------------
    def _client_list(self, ap: int) -> List[int]:
        clients = [
            client for client, owner in self._assoc.items() if owner == ap
        ]
        self._clients_of[ap] = clients
        return clients

    def _profile(self, ap: int, width: int, clients: List[int]) -> tuple:
        profile = self._profiles[ap][width]
        if profile is None:
            delay_row = self._tables.delay[width][ap]
            factor_row = self._tables.factor[width][ap]
            delays = [delay_row[client] for client in clients]
            factors = tuple(factor_row[client] for client in clients)
            self.stats.cell_profile_builds += 1
            # sum() in client order replicates the dict engine exactly.
            profile = (sum(delays), factors)
            self._profiles[ap][width] = profile
        return profile

    def _compute_cell(
        self, ap: int, width: int, load: float, clients: List[int]
    ) -> float:
        m_share = 1.0 / (1.0 + load)
        atd, factors = self._profile(ap, width, clients)
        if atd == float("inf"):
            return 0.0
        base = m_share / atd
        packet_mbits = self._packet_mbits
        return sum(base * packet_mbits * factor for factor in factors)

    def _cell_value(
        self, ap: int, width: int, load: float, clients: List[int]
    ) -> float:
        self.stats.cell_updates += 1
        if self._int_weights:
            row = self._cells_fast[ap][width]
            load_key = int(load)
            if load_key < len(row):
                value = row[load_key]
                if value is not None:
                    return value
            else:
                row.extend([None] * (load_key + 1 - len(row)))
            value = self._compute_cell(ap, width, load, clients)
            row[load_key] = value
            return value
        cache = self._cells[ap]
        key = (width, load)
        value = cache.get(key)
        if value is None:
            value = self._compute_cell(ap, width, load, clients)
            cache[key] = value
        return value

    def _fresh_load(self, ap: int, row: List[float]) -> float:
        nbrs = self._nbr[ap]
        if nbrs is None:
            raise AllocationError(
                f"AP {self._ap_ids[ap]!r} is not in the interference graph"
            )
        chan = self._chan
        total = 0.0
        for other in nbrs:
            j = chan[other]
            if j >= 0:
                total += row[j]
        return total

    def _structural_x(self, ap: int) -> float:
        channel_index = self._chan[ap]
        if channel_index < 0:
            return 0.0
        clients = self._clients_of[ap]
        if clients is None:
            clients = self._client_list(ap)
        if not clients:
            return 0.0
        load = self._loads[ap]
        if load is None:
            load = self._fresh_load(ap, self._weight_rows[channel_index])
            self._loads[ap] = load
        return self._cell_value(ap, self._widths[channel_index], load, clients)

    # ------------------------------------------------------------------
    # State construction
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        n_aps = len(self._ap_ids)
        self._clients_of = [None] * n_aps
        self._loads = [None] * n_aps
        self._undo = None
        x = [self._structural_x(ap) for ap in range(n_aps)]
        self._x = x
        self._aggregate = sum(x)

    def reset(self, assignment: Mapping[str, Channel]) -> float:
        """Replace the committed assignment wholesale; returns Y.

        Cell-profile and cell-value caches survive — they depend only on
        topology and associations — so multi-restart searches pay the
        link mathematics once (same contract as the dict engine).
        """
        self.stats.resets += 1
        chan = [-1] * len(self._ap_ids)
        for ap_id, channel in assignment.items():
            owner = self._ap_index.get(ap_id)
            if owner is None:
                raise AllocationError(f"unknown AP {ap_id!r} in assignment")
            if channel is not None:
                chan[owner] = self._intern(channel)
        self._chan = chan
        clients_of = self._clients_of
        self._rebuild()
        self._clients_of = clients_of  # association state did not change
        return self._aggregate

    # ------------------------------------------------------------------
    # Channel trials (index hot path + string facade)
    # ------------------------------------------------------------------
    def trial_index(self, ap: int, channel_index: int) -> float:
        """Y if AP ``ap`` moved to ``channel_index`` — pure what-if.

        The allocator hot path: integer ids in, exact float out. Only
        the ``{a} ∪ N_IG(a)`` neighbourhood is rescored; the substituted
        total replays the dict engine's summation order bit-for-bit.
        """
        self.stats.trials += 1
        nbrs = self._nbr[ap]
        if nbrs is None:
            raise AllocationError(
                f"AP {self._ap_ids[ap]!r} is not in the interference graph"
            )
        chan = self._chan
        rows = self._weight_rows
        widths = self._widths
        x = self._x
        clients_of = self._clients_of
        old_index = chan[ap]
        clients = clients_of[ap]
        if clients is None:
            clients = self._client_list(ap)
        if clients:
            row = rows[channel_index]
            load = 0.0
            for other in nbrs:
                j = chan[other]
                if j >= 0:
                    load += row[j]
            own_value = self._cell_value(ap, widths[channel_index], load, clients)
        else:
            own_value = 0.0
        saved = [(ap, x[ap])]
        x[ap] = own_value
        int_weights = self._int_weights
        loads = self._loads
        all_nbrs = self._nbr
        for b in nbrs:
            jb = chan[b]
            if jb < 0:
                continue  # inactive neighbour: X stays 0.0
            nb_clients = clients_of[b]
            if nb_clients is None:
                nb_clients = self._client_list(b)
            if not nb_clients:
                continue  # empty cell: X stays 0.0
            row_b = rows[jb]
            if int_weights:
                # Incremental: exact for integer weights (sums of small
                # integers are closed under float64 arithmetic, so this
                # equals the fresh CSR-order sum bit-for-bit).
                load_b = loads[b]
                if load_b is None:
                    load_b = 0.0
                    for other in all_nbrs[b]:
                        j = chan[other]
                        if j >= 0:
                            load_b += row_b[j]
                    loads[b] = load_b
                new_load = load_b + row_b[channel_index]
                if old_index >= 0:
                    new_load -= row_b[old_index]
            else:
                # Non-integer weights: order-preserving fresh sum with
                # the trial channel substituted in place.
                new_load = 0.0
                for other in all_nbrs[b]:
                    j = channel_index if other == ap else chan[other]
                    if j >= 0:
                        new_load += row_b[j]
            saved.append((b, x[b]))
            x[b] = self._cell_value(b, widths[jb], new_load, nb_clients)
        total = sum(x)
        for index, value in saved:
            x[index] = value
        return total

    def trial(self, ap_id: str, channel: Channel) -> float:
        """String facade over :meth:`trial_index`."""
        ap = self._ap_index.get(ap_id)
        if ap is None:
            raise AllocationError(f"unknown AP {ap_id!r}")
        return self.trial_index(ap, self._intern(channel))

    def commit_index(self, ap: int, channel_index: int) -> float:
        """Apply a channel switch by index; returns the new committed Y."""
        self.stats.commits += 1
        nbrs = self._nbr[ap]
        if nbrs is None:
            raise AllocationError(
                f"AP {self._ap_ids[ap]!r} is not in the interference graph"
            )
        touched = (ap,) + nbrs
        self._undo = (
            "channel",
            ap,
            self._chan[ap],
            [(t, self._x[t]) for t in touched],
            [(t, self._loads[t]) for t in touched],
            self._aggregate,
        )
        self._chan[ap] = channel_index
        loads = self._loads
        for t in touched:
            loads[t] = None
        for t in touched:
            self._x[t] = self._structural_x(t)
        self._aggregate = sum(self._x)
        return self._aggregate

    def commit(self, ap_id: str, channel: Channel) -> float:
        """String facade over :meth:`commit_index`."""
        ap = self._ap_index.get(ap_id)
        if ap is None:
            raise AllocationError(f"unknown AP {ap_id!r}")
        return self.commit_index(ap, self._intern(channel))

    def rollback(self) -> float:
        """Undo the most recent ``commit``/``commit_move``; returns Y."""
        if self._undo is None:
            raise AllocationError("nothing to roll back")
        self.stats.rollbacks += 1
        record = self._undo
        if record[0] == "channel":
            _, ap, previous, old_x, old_loads, old_aggregate = record
            self._chan[ap] = previous
            for index, value in old_x:
                self._x[index] = value
            for index, value in old_loads:
                self._loads[index] = value
        else:
            (
                _,
                client,
                previous,
                old_x,
                old_lists,
                old_profiles,
                old_cells_fast,
                old_cells,
                old_aggregate,
            ) = record
            if previous is None:
                self._assoc.pop(client, None)
            else:
                self._assoc[client] = previous
            for index, value in old_x:
                self._x[index] = value
            for index, value in old_lists:
                self._clients_of[index] = value
            for index, value in old_profiles:
                self._profiles[index] = value
            for index, value in old_cells_fast:
                self._cells_fast[index] = value
            for index, value in old_cells:
                self._cells[index] = value
        self._aggregate = old_aggregate
        self._undo = None
        return self._aggregate

    # ------------------------------------------------------------------
    # Association trials (the refinement local search)
    # ------------------------------------------------------------------
    def _move_indices(self, client_id: str, target_ap: str) -> tuple:
        target = self._ap_index.get(target_ap)
        if target is None:
            raise AllocationError(f"unknown AP {target_ap!r}")
        client = self._client_index.get(client_id)
        if client is None:
            raise AllocationError(f"unknown client {client_id!r}")
        if self._chan[target] >= 0 and not self._compiled.has_link[
            target, client
        ]:
            # The dict engine raises from Network.link_budget when the
            # target cell's profile is rebuilt; raising here keeps error
            # parity (and, for commit_move, fails before any mutation).
            raise TopologyError(
                "no SNR override and no geometry for link "
                f"{target_ap!r}->{client_id!r}"
            )
        return client, target

    def _move_cell_values(
        self, client: int, target: int, previous: "Optional[int]"
    ) -> "Tuple[Tuple[int, ...], Tuple[float, ...]]":
        """What-if cell values for the APs a re-association touches.

        The shared core of :meth:`trial_move` and :meth:`move_values`:
        recomputes the source and target cells with fresh profiles (as
        the dict engine does for overlaid memberships) and returns the
        touched AP indices with their substituted X values, in touch
        order. Medium shares are untouched by an association move, so
        no other cell changes.
        """
        touched: List[int] = []
        for ap in (previous, target):
            if ap is not None and ap not in touched:
                touched.append(ap)
        values: List[float] = []
        for ap in touched:
            channel_index = self._chan[ap]
            if channel_index < 0:
                value = 0.0
            else:
                clients: List[int] = []
                for other, owner in self._assoc.items():
                    if (target if other == client else owner) == ap:
                        clients.append(other)
                if previous is None and target == ap and client not in clients:
                    clients.append(client)
                if not clients:
                    value = 0.0
                else:
                    load = self._loads[ap]
                    if load is None:
                        load = self._fresh_load(
                            ap, self._weight_rows[channel_index]
                        )
                    width = self._widths[channel_index]
                    delay_row = self._tables.delay[width][ap]
                    factor_row = self._tables.factor[width][ap]
                    delays = [delay_row[c] for c in clients]
                    factors = tuple(factor_row[c] for c in clients)
                    self.stats.cell_profile_builds += 1
                    atd = sum(delays)
                    if atd == float("inf"):
                        value = 0.0
                    else:
                        base = (1.0 / (1.0 + load)) / atd
                        packet_mbits = self._packet_mbits
                        value = sum(
                            base * packet_mbits * factor for factor in factors
                        )
            values.append(value)
        return tuple(touched), tuple(values)

    def move_values(
        self, client_id: str, target_ap: str
    ) -> "Tuple[Tuple[int, ...], Tuple[float, ...]]":
        """Touched AP indices and their what-if X values for a move.

        The seam used by :class:`repro.net.batch.BatchedEvaluator`'s
        association-move batching: the caller substitutes these values
        into a column matrix and reduces many candidates at once; the
        floats are exactly those :meth:`trial_move` would substitute.
        Counts as one trial in :attr:`stats`, like :meth:`trial_move`.
        """
        self.stats.trials += 1
        client, target = self._move_indices(client_id, target_ap)
        previous = self._assoc.get(client)
        return self._move_cell_values(client, target, previous)

    def trial_move(self, client_id: str, target_ap: str) -> float:
        """Y if ``client_id`` re-associated to ``target_ap`` (pure what-if).

        Medium shares are untouched by an association move, so only the
        source and target cells are recomputed — with fresh profiles, as
        the dict engine does for overlaid memberships.
        """
        self.stats.trials += 1
        client, target = self._move_indices(client_id, target_ap)
        previous = self._assoc.get(client)
        touched, values = self._move_cell_values(client, target, previous)
        x = self._x
        saved = []
        for ap, value in zip(touched, values):
            saved.append((ap, x[ap]))
            x[ap] = value
        total = sum(x)
        for index, value in saved:
            x[index] = value
        return total

    def commit_move(self, client_id: str, target_ap: str) -> float:
        """Apply a client re-association; returns the new committed Y."""
        self.stats.commits += 1
        client, target = self._move_indices(client_id, target_ap)
        previous = self._assoc.get(client)
        touched: List[int] = []
        for ap in (previous, target):
            if ap is not None and ap not in touched:
                touched.append(ap)
        self._undo = (
            "move",
            client,
            previous,
            [(ap, self._x[ap]) for ap in touched],
            [(ap, self._clients_of[ap]) for ap in touched],
            [(ap, self._profiles[ap]) for ap in touched],
            [(ap, self._cells_fast[ap]) for ap in touched],
            [(ap, self._cells[ap]) for ap in touched],
            self._aggregate,
        )
        self._assoc[client] = target
        for ap in touched:
            # Membership changed: client lists, profiles and memoised
            # cell values for the two affected APs are stale.
            self._clients_of[ap] = None
            self._profiles[ap] = [None, None]
            self._cells_fast[ap] = [[], []]
            self._cells[ap] = {}
        for ap in touched:
            self._x[ap] = self._structural_x(ap)
        self._aggregate = sum(self._x)
        return self._aggregate
