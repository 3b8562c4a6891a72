"""Exhaustive computation of delay-optimal paths for all starting times.

This is the algorithmic contribution of the paper (Section 4.4): compute,
for every source-destination pair and every hop bound, the full delivery
function — i.e. the Pareto-minimal list of (LD, EA) path summaries — using
an induction on the number of contacts in a sequence:

    "This can be done by computing all the optimal paths associated with
     sequences of at most k contacts, starting with k = 1, and using
     concatenation with edges on the right to deduce the next step."

The implementation is a per-source, hop-indexed dynamic programming:

* ``F_k[d]`` is the Pareto frontier over sequences of at most k contacts
  from the source to d.  After round k it is exact for hop bound k.
* **Delta queues**: only frontier entries inserted during round k are
  extended during round k+1 (Bellman-Ford style), and entries that have
  been displaced from the frontier by a dominator before their turn are
  skipped (the dominator's extensions dominate theirs), so total work
  follows surviving frontier churn.
* **Per-edge candidate pruning**: extending an entry (LD, EA) along an
  edge whose contacts are sorted by end time, only contacts with
  ``t_end >= EA`` are feasible (paper fact (iv)); all contacts with
  ``t_end >= LD`` collapse into a single candidate
  ``(LD, max(EA, min t_beg))`` found via a suffix-minimum array, and the
  remaining run is locally Pareto-pruned before touching the frontier.

The hot loop works on plain parallel lists with inlined Pareto insertion;
results are exposed as :class:`~repro.core.delivery.DeliveryFunction`.

Unbounded hop count is the fixpoint of the induction; it terminates
because frontiers only gain Pareto-optimal points from the finite set
{contact end times} x {contact begin times}.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..obs import MetricsRegistry, get_obs
from .contact import Node
from .delivery import DeliveryFunction
from .floats import is_pinned_zero
from .temporal_network import TemporalNetwork

DEFAULT_HOP_BOUNDS = (1, 2, 3, 4, 5, 6)

#: adjacency entry: (neighbor, ends, begs, suffix_min_beg, last_end)
_AdjEntry = Tuple[Node, List[float], List[float], List[float], float]
_Adjacency = Dict[Node, List[_AdjEntry]]


def _build_adjacency(net: TemporalNetwork) -> _Adjacency:
    """Per-node list of (neighbor, sorted contact arrays) — built once per
    network and shared across all per-source runs.

    Nodes with no outgoing contacts get *no* entry (readers use
    ``adjacency.get(u, ())``): on sparse rosters with many isolated
    nodes — success-rate denominators keep them around — empty entries
    were pure overhead, and the CSR compilation
    (:mod:`repro.core.csr`) skips them too, so both layouts agree.
    """
    adjacency: _Adjacency = {}
    for u in net.nodes:
        entries: List[_AdjEntry] = []
        for v in net.out_neighbors(u):
            edge = net.edge_contacts(u, v)
            if edge.ends:
                entries.append(
                    (v, edge.ends, edge.begs, edge.suffix_min_beg, edge.ends[-1])
                )
        if entries:
            adjacency[u] = entries
    return adjacency


def _node_index_for(net: TemporalNetwork) -> Dict[Node, int]:
    """Node -> position in ``net.nodes``: the destination ids of the
    profile columns (cached on the network like its adjacency)."""
    cached: Optional[Dict[Node, int]] = getattr(net, "_repro_node_index", None)
    if cached is None:
        cached = {node: i for i, node in enumerate(net.nodes)}
        setattr(net, "_repro_node_index", cached)
    return cached


def _adjacency_for(net: TemporalNetwork) -> _Adjacency:
    """The cached adjacency of ``net`` (networks are immutable by
    convention, so sharded runs over one network instance build once)."""
    cached: Optional[_Adjacency] = getattr(net, "_repro_adjacency_cache", None)
    if cached is None:
        cached = _build_adjacency(net)
        setattr(net, "_repro_adjacency_cache", cached)
    return cached


def _function_from_lists(lds: List[float], eas: List[float]) -> DeliveryFunction:
    """Wrap already-Pareto-minimal parallel lists without re-inserting."""
    func = DeliveryFunction()
    func.lds = list(lds)
    func.eas = list(eas)
    return func


@dataclass
class ProfileStats:
    """Work counters of one per-source DP run (observability only).

    Collected when the active :mod:`repro.obs` bundle is enabled and
    otherwise skipped entirely, so the hot loop stays uninstrumented by
    default.  Round indices are hop counts: ``insertions_per_round[k-1]``
    is the number of frontier points inserted with exactly k contacts.
    """

    rounds: int = 0
    #: frontier insertions during round k (index k-1).
    insertions_per_round: List[int] = field(default_factory=list)
    #: round-k queue entries dropped because a same-round dominator
    #: displaced them before their extension turn (index k-1).
    displaced_per_round: List[int] = field(default_factory=list)
    #: candidate (LD, EA) pairs evaluated against a frontier.
    candidates_scanned: int = 0
    #: contacts collapsed away by the suffix-minimum covered-run rule.
    suffix_min_prunes: int = 0
    #: Pareto points across all destinations at the fixpoint.
    frontier_points: int = 0
    #: destinations with a non-empty final profile.
    destinations: int = 0


def _record_profile_metrics(
    metrics: MetricsRegistry, profiles: "Iterable[SourceProfiles]"
) -> None:
    """Fold per-source :class:`ProfileStats` into the session registry."""
    sources = metrics.counter("optimal.sources")
    rounds_hist = metrics.histogram("optimal.rounds_to_fixpoint")
    scanned = metrics.counter("optimal.candidates_scanned")
    pruned = metrics.counter("optimal.suffix_min_prunes")
    points = metrics.counter("optimal.frontier_points")
    reachable = metrics.counter("optimal.reachable_destinations")
    # Per-hop totals are folded in plain dicts first so the labelled
    # instrument lookup happens once per hop, not once per (source, hop).
    insertions_by_hop: Dict[int, int] = {}
    displaced_by_hop: Dict[int, int] = {}
    for sp in profiles:
        stats = sp.stats
        if stats is None:
            continue
        sources.inc()
        rounds_hist.observe(stats.rounds)
        scanned.inc(stats.candidates_scanned)
        pruned.inc(stats.suffix_min_prunes)
        points.inc(stats.frontier_points)
        reachable.inc(stats.destinations)
        for hop, n in enumerate(stats.insertions_per_round, start=1):
            insertions_by_hop[hop] = insertions_by_hop.get(hop, 0) + n
        for hop, n in enumerate(stats.displaced_per_round, start=1):
            displaced_by_hop[hop] = displaced_by_hop.get(hop, 0) + n
    for hop, n in insertions_by_hop.items():
        # reprolint: disable=REP003 -- the label varies with the loop
        # variable, so no single instrument reference can be hoisted; this
        # loop runs once per distinct hop count after the fold, not on the
        # per-source hot path.
        metrics.counter("optimal.frontier_insertions", hop=hop).inc(n)
    for hop, n in displaced_by_hop.items():
        # reprolint: disable=REP003 -- same as above: per-hop label, cold
        # post-aggregation loop bounded by the fixpoint round count.
        metrics.counter("optimal.frontier_displacements", hop=hop).inc(n)


#: bound tag of a final (unbounded-hop) function in the profile columns;
#: recorded hop bounds are >= 1, so the tags of one source sort finals
#: first, then each recorded bound ascending.
FINAL_TAG = -1


class SourceProfiles:
    """Delivery functions from one source to every destination.

    Obtained from :func:`compute_profiles`; answers ``profile(d, max_hops)``
    for any recorded hop bound and for unbounded hops (``max_hops=None``).

    The profiles are stored as columns, one row per delivery function:
    ``tags[i]`` is :data:`FINAL_TAG` or the recorded hop bound whose
    snapshot the function belongs to, ``dests[i]`` indexes ``roster``
    (the network's repr-sorted node list), and the function's Pareto
    points are ``lds[offsets[i]:offsets[i + 1]]`` /
    ``eas[offsets[i]:offsets[i + 1]]`` (float64).  Rows are sorted by
    (tag, destination id): the final functions first, then each recorded
    bound's snapshot — the destinations that gained a point in exactly
    that round.  Segment tables and storage read the columns directly;
    :class:`~repro.core.delivery.DeliveryFunction` objects are built for
    the per-pair APIs only, in bulk on first access, and then kept.
    """

    def __init__(
        self,
        source: Node,
        hop_bounds: Tuple[int, ...],
        roster: Sequence[Node],
        tags: np.ndarray,
        dests: np.ndarray,
        offsets: np.ndarray,
        lds: np.ndarray,
        eas: np.ndarray,
        rounds: int,
        stats: Optional[ProfileStats] = None,
    ) -> None:
        self.source = source
        self.hop_bounds = hop_bounds
        self.roster = roster
        self.tags = tags
        self.dests = dests
        self.offsets = offsets
        self.lds = lds
        self.eas = eas
        #: number of DP rounds to fixpoint == largest hop count over which
        #: any optimal path improves; small by the paper's main result.
        self.rounds = rounds
        #: work counters when the run was observed (else None).
        self.stats = stats
        self._empty = DeliveryFunction()
        # The per-pair view, built by _materialise.  ``_snap_funcs`` is
        # published before ``_final_funcs``, so a non-None final map
        # implies a complete view even under concurrent first access.
        self._snap_funcs: Dict[int, Dict[Node, DeliveryFunction]] = {}
        self._final_funcs: Optional[Dict[Node, DeliveryFunction]] = None

    @classmethod
    def from_functions(
        cls,
        source: Node,
        hop_bounds: Tuple[int, ...],
        roster: Sequence[Node],
        node_index: Dict[Node, int],
        snapshots: Dict[int, Dict[Node, DeliveryFunction]],
        final: Dict[Node, DeliveryFunction],
        rounds: int,
        stats: Optional[ProfileStats] = None,
    ) -> "SourceProfiles":
        """Columns from per-destination function maps (the scalar DP's
        output).  The maps are kept as the already-built per-pair view."""
        rows: List[Tuple[int, int, DeliveryFunction]] = [
            (FINAL_TAG, node_index[d], f) for d, f in final.items()
        ]
        for bound in sorted(snapshots):
            rows.extend((bound, node_index[d], f) for d, f in snapshots[bound].items())
        rows.sort(key=lambda row: (row[0], row[1]))
        counts = np.fromiter((len(f.lds) for _, _, f in rows), np.int64, len(rows))
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        sp = cls(
            source,
            hop_bounds,
            roster,
            np.fromiter((row[0] for row in rows), np.int32, len(rows)),
            np.fromiter((row[1] for row in rows), np.int32, len(rows)),
            offsets,
            np.fromiter(chain.from_iterable(f.lds for _, _, f in rows), np.float64, total),
            np.fromiter(chain.from_iterable(f.eas for _, _, f in rows), np.float64, total),
            rounds,
            stats,
        )
        full: Dict[int, Dict[Node, DeliveryFunction]] = {
            bound: {} for bound in hop_bounds
        }
        full.update(snapshots)
        sp._snap_funcs = full
        sp._final_funcs = final
        return sp

    def __getstate__(self) -> Dict[str, object]:
        # Ship the columns only: the per-pair view is rebuilt on demand.
        state = dict(self.__dict__)
        state["_snap_funcs"] = {}
        state["_final_funcs"] = None
        return state

    def _materialise(self) -> Dict[Node, DeliveryFunction]:
        """Build the per-pair view from the columns in one pass.

        Every LD/EA is a contact time, and a source's points repeat the
        same few thousand of them, so each distinct value (by bit
        pattern, which keeps -0.0 apart from 0.0) becomes one Python
        float that all lists share: the view then costs a list slot per
        point rather than a float object per point.
        """
        bits = np.concatenate((self.lds, self.eas)).view(np.int64)
        distinct, inverse = np.unique(bits, return_inverse=True)
        shared = np.array(distinct.view(np.float64).tolist(), dtype=object)
        values = shared[inverse]
        lds = values[: self.lds.size].tolist()
        eas = values[self.lds.size :].tolist()
        offsets = self.offsets.tolist()
        roster = self.roster
        final: Dict[Node, DeliveryFunction] = {}
        snapshots: Dict[int, Dict[Node, DeliveryFunction]] = {
            bound: {} for bound in self.hop_bounds
        }
        new = DeliveryFunction.__new__
        for tag, dest, lo, hi in zip(
            self.tags.tolist(), self.dests.tolist(), offsets, offsets[1:]
        ):
            # List slices are fresh lists the function can own.
            func = new(DeliveryFunction)
            func.lds = lds[lo:hi]
            func.eas = eas[lo:hi]
            (final if tag == FINAL_TAG else snapshots[tag])[roster[dest]] = func
        self._snap_funcs = snapshots
        self._final_funcs = final
        return final

    @property
    def _final(self) -> Dict[Node, DeliveryFunction]:
        """Destination -> unbounded-hop delivery function."""
        final = self._final_funcs
        return self._materialise() if final is None else final

    @property
    def _snapshots(self) -> Dict[int, Dict[Node, DeliveryFunction]]:
        """Per recorded bound, destination -> function of that snapshot."""
        if self._final_funcs is None:
            self._materialise()
        return self._snap_funcs

    def profile(
        self, destination: Node, max_hops: Optional[int] = None
    ) -> DeliveryFunction:
        """The delivery function to ``destination`` under a hop bound.

        ``max_hops=None`` means unbounded (the paper's k = infinity).  A
        bounded query must use one of the recorded ``hop_bounds`` unless
        it is at least the fixpoint round count, in which case the bound
        is vacuous and the final profile is returned.
        """
        final = self._final_funcs
        if final is None:
            final = self._materialise()
        if max_hops is None or max_hops >= self.rounds:
            return final.get(destination, self._empty)
        snapshots = self._snap_funcs
        if max_hops not in snapshots:
            raise KeyError(
                f"hop bound {max_hops} was not recorded; available: "
                f"{sorted(snapshots)} (or None for unbounded)"
            )
        for bound in sorted(snapshots, reverse=True):
            if bound > max_hops:
                continue
            snap = snapshots[bound].get(destination)
            if snap is not None:
                return snap
        return self._empty

    def destinations(self) -> Sequence[Node]:
        """Destinations reachable (within unbounded hops) from the source."""
        finals = int(np.searchsorted(self.tags, FINAL_TAG, side="right"))
        roster = self.roster
        return [roster[d] for d in self.dests[:finals].tolist()]

    def bound_profiles(
        self,
        destinations: Iterable[Node],
        bounds: Sequence[Optional[int]],
    ) -> Iterator[Tuple[Node, Tuple[DeliveryFunction, ...]]]:
        """Resolve every destination under several hop bounds in one walk.

        Yields ``(destination, funcs)`` with ``funcs`` aligned with
        ``bounds``; each entry is the same object :meth:`profile` would
        return for that bound, but the recorded-snapshot walk happens
        once per destination instead of once per (destination, bound).
        """
        recorded = sorted(self._snapshots)
        plan: List[Optional[int]] = []
        for bound in bounds:
            if bound is None or bound >= self.rounds:
                plan.append(None)
                continue
            if bound not in self._snapshots:
                raise KeyError(
                    f"hop bound {bound} was not recorded; available: "
                    f"{recorded} (or None for unbounded)"
                )
            plan.append(recorded.index(bound))
        for destination in destinations:
            final = self._final.get(destination, self._empty)
            carry = self._empty
            resolved: List[DeliveryFunction] = []
            for bound in recorded:
                snap = self._snapshots[bound].get(destination)
                if snap is not None:
                    carry = snap
                resolved.append(carry)
            yield destination, tuple(
                final if p is None else resolved[p] for p in plan
            )


def _run_single_source(
    adjacency: _Adjacency,
    roster: Sequence[Node],
    node_index: Dict[Node, int],
    source: Node,
    hop_bounds: Tuple[int, ...],
    max_rounds: Optional[int],
    slack: float,
    collect_stats: bool = False,
) -> SourceProfiles:
    """The per-source frontier dynamic programming described above.

    ``collect_stats`` gathers :class:`ProfileStats`; the counters are
    either derived from structures the loop maintains anyway (queue and
    bucket lengths) or guarded so the disabled mode adds no work to the
    innermost contact scan.  ``roster``/``node_index`` are the network's
    node list and its inverse, which the result's columns index.
    """
    stats = ProfileStats() if collect_stats else None
    stat_scanned = 0
    stat_pruned = 0
    # Frontier per destination as parallel [lds, eas] lists (both strictly
    # increasing); plain lists keep the hot loop allocation-free.
    frontier: Dict[Node, List[List[float]]] = {}
    snapshots: Dict[int, Dict[Node, DeliveryFunction]] = {k: {} for k in hop_bounds}
    snapshot_rounds = sorted(hop_bounds)
    changed: Set[Node] = set()
    infinity = float("inf")

    queue: List[Tuple[Node, float, float]] = []
    for v, ends, begs, _sufmin, _last in adjacency.get(source, ()):
        if collect_stats:
            stat_scanned += len(ends)
        entry = frontier.get(v)
        if entry is None:
            entry = frontier[v] = [[], []]
        lds, eas = entry
        for ld, ea in zip(ends, begs):
            # Inlined Pareto insert (see DeliveryFunction.insert); with
            # slack > 0, candidates whose arrival improves the frontier by
            # no more than slack are treated as dominated.
            lo = bisect_left(lds, ld)
            n = len(lds)
            if lo < n and eas[lo] <= ea + slack:
                continue
            hi = lo + 1 if lo < n and lds[lo] == ld else lo
            cut = bisect_left(eas, ea, 0, hi)
            if cut != hi:
                del lds[cut:hi]
                del eas[cut:hi]
            lds.insert(cut, ld)
            eas.insert(cut, ea)
            queue.append((v, ld, ea))
        if lds:
            changed.add(v)

    if stats is not None:
        stats.insertions_per_round.append(len(queue))

    rounds_run = 1
    snap_idx = 0

    def take_snapshot(after_round: int) -> int:
        """Record copies for every due hop bound; returns the next index."""
        idx = snap_idx
        while idx < len(snapshot_rounds) and snapshot_rounds[idx] <= after_round:
            bound = snapshot_rounds[idx]
            if bound == after_round:
                # repr order canonicalises the snapshot dict (set order
                # is insertion/hash dependent), so persisted output is
                # identical across engines and across processes.
                for node in sorted(changed, key=repr):
                    lds, eas = frontier[node]
                    snapshots[bound][node] = _function_from_lists(lds, eas)
                changed.clear()
            idx += 1
        return idx

    snap_idx = take_snapshot(1)

    limit = max_rounds if max_rounds is not None else infinity
    while queue and rounds_run < limit:
        # Drop entries displaced from the frontier during the *previous*
        # round: their displacer was inserted in the same round (same hop
        # count), so its extensions dominate theirs at every hop bound.
        # Entries displaced *during* the current round must still be
        # extended (the displacer has one hop more), hence the filter runs
        # once per round, up front.  Survivors are bucketed by node so the
        # edge arrays are unpacked once per (node, edge), not per entry.
        buckets: Dict[Node, List[Tuple[float, float]]] = {}
        for u, ld, ea in queue:
            own_lds, own_eas = frontier[u]
            lo = bisect_left(own_lds, ld)
            if lo < len(own_lds) and own_lds[lo] == ld and own_eas[lo] == ea:
                buckets.setdefault(u, []).append((ea, ld))
        if stats is not None:
            survivors = sum(len(pairs) for pairs in buckets.values())
            stats.displaced_per_round.append(len(queue) - survivors)
        next_queue: List[Tuple[Node, float, float]] = []
        for u, pairs in buckets.items():
            pairs.sort()
            eas_sorted = [p[0] for p in pairs]
            for v, ends, begs, sufmin, last_end in adjacency.get(u, ()):
                if v == source:
                    continue
                # Entries with EA past the edge's last contact cannot use it.
                stop = bisect_right(eas_sorted, last_end)
                if stop == 0:
                    continue
                entry = frontier.get(v)
                if entry is None:
                    entry = frontier[v] = [[], []]
                lds, eas = entry
                n = len(ends)
                inserted_any = False
                for idx in range(stop):
                    ea, ld = pairs[idx]
                    first = bisect_left(ends, ea)
                    # Contacts outliving the whole window: one candidate.
                    covered = bisect_left(ends, ld, first, n)
                    if collect_stats:
                        stat_scanned += covered - first
                        if covered < n:
                            stat_scanned += 1
                            stat_pruned += n - covered - 1
                    best_ea = infinity
                    if covered < n:
                        cand_ea = sufmin[covered]
                        if cand_ea < ea:
                            cand_ea = ea
                        best_ea = cand_ea
                        lo = bisect_left(lds, ld)
                        m = len(lds)
                        if not (lo < m and eas[lo] <= cand_ea + slack):
                            hi = lo + 1 if lo < m and lds[lo] == ld else lo
                            cut = bisect_left(eas, cand_ea, 0, hi)
                            if cut != hi:
                                del lds[cut:hi]
                                del eas[cut:hi]
                            lds.insert(cut, ld)
                            eas.insert(cut, cand_ea)
                            next_queue.append((v, ld, cand_ea))
                            inserted_any = True
                    # Contacts ending inside [EA, LD): genuine frontier
                    # steps, scanned by decreasing end time with a local
                    # Pareto prune.
                    for j in range(covered - 1, first - 1, -1):
                        cand_ea = begs[j]
                        if cand_ea < ea:
                            cand_ea = ea
                        if cand_ea >= best_ea:
                            continue
                        best_ea = cand_ea
                        cand_ld = ends[j]
                        lo = bisect_left(lds, cand_ld)
                        m = len(lds)
                        if lo < m and eas[lo] <= cand_ea + slack:
                            continue
                        hi = lo + 1 if lo < m and lds[lo] == cand_ld else lo
                        cut = bisect_left(eas, cand_ea, 0, hi)
                        if cut != hi:
                            del lds[cut:hi]
                            del eas[cut:hi]
                        lds.insert(cut, cand_ld)
                        eas.insert(cut, cand_ea)
                        next_queue.append((v, cand_ld, cand_ea))
                        inserted_any = True
                if inserted_any:
                    changed.add(v)
        queue = next_queue
        if queue:
            rounds_run += 1
            if stats is not None:
                stats.insertions_per_round.append(len(queue))
            snap_idx = take_snapshot(rounds_run)

    final = {
        node: _function_from_lists(lds, eas)
        for node, (lds, eas) in frontier.items()
        if lds
    }
    if stats is not None:
        stats.rounds = rounds_run
        stats.candidates_scanned = stat_scanned
        stats.suffix_min_prunes = stat_pruned
        stats.frontier_points = sum(len(func.lds) for func in final.values())
        stats.destinations = len(final)
    return SourceProfiles.from_functions(
        source, hop_bounds, roster, node_index, snapshots, final, rounds_run, stats
    )


class PathProfileSet:
    """All-pairs optimal-path profiles of a temporal network."""

    def __init__(
        self,
        network: TemporalNetwork,
        by_source: Dict[Node, SourceProfiles],
        hop_bounds: Tuple[int, ...],
    ) -> None:
        self.network = network
        self._by_source = by_source
        self.hop_bounds = hop_bounds
        self._empty = DeliveryFunction()

    @property
    def sources(self) -> Sequence[Node]:
        return sorted(self._by_source, key=repr)

    @property
    def max_rounds_run(self) -> int:
        """The largest fixpoint round over sources: an upper bound on the
        hop count of every optimal path in the network."""
        if not self._by_source:
            return 0
        return max(sp.rounds for sp in self._by_source.values())

    def source_profiles(self, source: Node) -> SourceProfiles:
        return self._by_source[source]

    def profile(
        self, source: Node, destination: Node, max_hops: Optional[int] = None
    ) -> DeliveryFunction:
        """Delivery function of (source, destination) under a hop bound."""
        if source == destination:
            raise ValueError("source and destination must differ")
        return self._by_source[source].profile(destination, max_hops)

    def items(
        self, max_hops: Optional[int] = None
    ) -> Iterator[Tuple[Tuple[Node, Node], DeliveryFunction]]:
        """Iterate ((source, destination), profile) over all ordered pairs.

        Pairs whose destination is unreachable yield an empty profile, so
        the iteration covers the full denominator of the paper's empirical
        success probabilities.
        """
        for source in self.sources:
            sp = self._by_source[source]
            for destination in self.network.nodes:
                if destination == source:
                    continue
                yield (source, destination), sp.profile(destination, max_hops)


#: engine choices accepted by :func:`compute_profiles`.
ENGINES = ("auto", "scalar", "vec")

#: below this contact count ``engine="auto"`` stays scalar: per-round
#: numpy dispatch overhead beats list bisects only once rounds carry
#: hundreds of candidates (see EXPERIMENTS.md for the measured
#: crossover).
_AUTO_VEC_MIN_CONTACTS = 512


def _resolve_engine(engine: str, slack: float, network: TemporalNetwork) -> str:
    """Pick the execution engine for one ``compute_profiles`` call.

    ``vec`` is exact-only: slack pruning accepts or rejects a candidate
    against the frontier *state at insertion time*, which depends on
    insertion order — something the batched engine deliberately has
    none of.  ``auto`` therefore selects ``vec`` only for exact runs,
    and only above a size where the batching pays for itself.  Both
    engines produce identical profiles, so the choice is never part of
    a cache key.
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    if engine == "scalar":
        return "scalar"
    if engine == "vec":
        if not is_pinned_zero(slack):
            raise ValueError(
                "engine='vec' is exact-only and cannot honour slack > 0; "
                "use engine='scalar' (or 'auto') for approximate runs"
            )
        return "vec"
    if is_pinned_zero(slack) and network.num_contacts >= _AUTO_VEC_MIN_CONTACTS:
        return "vec"
    return "scalar"


def compute_profiles(
    network: TemporalNetwork,
    hop_bounds: Iterable[int] = DEFAULT_HOP_BOUNDS,
    sources: Optional[Iterable[Node]] = None,
    max_rounds: Optional[int] = None,
    slack: float = 0.0,
    workers: int = 1,
    engine: str = "auto",
) -> PathProfileSet:
    """Compute delay-optimal path profiles for all starting times.

    Args:
        network: the temporal network (trace).
        hop_bounds: hop bounds at which bounded profiles are recorded;
            unbounded profiles are always available.
        sources: restrict the computation to these sources (the DP is
            per-source separable); default all nodes.
        max_rounds: optional safety cap on DP rounds (hence on the hop
            count explored); None runs to the exact fixpoint.
        slack: approximation knob for very long traces.  With slack > 0
            (seconds), frontier candidates that improve the earliest
            arrival by at most ``slack`` are pruned.  Every reported pair
            remains a genuine achievable path summary (delivery times are
            never optimistic); in practice they stay within about
            ``slack`` per hop of the exact optimum, though this is an
            empirical observation, not a worst-case guarantee.  0 (the
            default) is exact.
        workers: number of processes for the per-source runs (the DP is
            per-source separable).  1 (the default) stays in-process;
            larger values use the persistent shared-memory pool
            (:mod:`repro.core.engine_pool`), which broadcasts the
            compiled network once and deals sources out as stolen
            chunks — worthwhile from a few thousand contacts upward.
        engine: ``"scalar"`` (the reference DP over dict adjacency),
            ``"vec"`` (batched numpy kernels over the flat CSR arrays,
            exact-only) or ``"auto"`` (``vec`` for exact runs on
            non-trivial traces, ``scalar`` otherwise).  Both engines
            produce identical profiles; the knob trades constant
            factors, so it is deliberately excluded from cache keys.

    Returns:
        A :class:`PathProfileSet`.
    """
    if slack < 0:
        raise ValueError("slack cannot be negative")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    bounds = tuple(sorted(set(int(k) for k in hop_bounds)))
    if bounds and bounds[0] < 1:
        raise ValueError("hop bounds must be >= 1")
    chosen = list(network.nodes) if sources is None else list(sources)
    for node in chosen:
        if node not in network:
            raise KeyError(f"unknown source {node!r}")
    resolved = _resolve_engine(engine, slack, network)
    obs = get_obs()
    collect = obs.enabled
    with obs.span(
        "optimal.compute_profiles",
        sources=len(chosen),
        nodes=len(network),
        contacts=network.num_contacts,
        workers=workers,
        slack=slack,
        engine=resolved,
    ) as span, obs.timer("optimal.compute_profiles"):
        if workers == 1 or len(chosen) <= 1:
            if resolved == "vec":
                from .csr import csr_for
                from .engine_vec import run_sources_vec

                csr = csr_for(network)
                profiles = run_sources_vec(
                    csr,
                    [csr.node_index[source] for source in chosen],
                    bounds,
                    max_rounds,
                    slack,
                    collect,
                )
                by_source = dict(zip(chosen, profiles))
            else:
                adjacency = _adjacency_for(network)
                node_index = _node_index_for(network)
                by_source = {
                    source: _run_single_source(
                        adjacency,
                        network.nodes,
                        node_index,
                        source,
                        bounds,
                        max_rounds,
                        slack,
                        collect,
                    )
                    for source in chosen
                }
        else:
            from .csr import csr_for, network_key
            from .engine_pool import shared_pool

            csr = csr_for(network)
            node_ids = csr.node_index
            pool = shared_pool(min(workers, len(chosen)))
            by_source = pool.run(
                csr,
                network_key(network),
                [node_ids[source] for source in chosen],
                bounds,
                max_rounds,
                slack,
                collect,
                resolved,
            )
        if collect:
            _record_profile_metrics(obs.metrics, by_source.values())
            span.set(
                max_rounds_run=max(
                    (sp.rounds for sp in by_source.values()), default=0
                ),
                frontier_points=sum(
                    sp.stats.frontier_points
                    for sp in by_source.values()
                    if sp.stats is not None
                ),
            )
    return PathProfileSet(network, by_source, bounds)
