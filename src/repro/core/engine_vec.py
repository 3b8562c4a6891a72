"""Vectorized frontier engine over the flat CSR arrays.

This is :func:`repro.core.optimal._run_single_source` with the round
loop rewritten as batched numpy kernels — and batched across *sources*
as well as candidates.  The per-source DPs are independent, so a whole
chunk of sources runs in lockstep: round k of every source is generated
by the same handful of ``searchsorted`` / ``repeat`` calls and merged
by one sort + segmented-cummin pass.  The fixed per-round kernel cost
is then paid ``max_k rounds`` times instead of ``sum_k rounds`` times,
which is where the bulk of the speedup over the scalar loop comes from.

Why the output is *identical* (not just equivalent) to the scalar DP at
``slack == 0``: the scalar loop's frontier after round k is
``F_k = Pareto(F_{k-1} ∪ C_k)`` where ``C_k`` is the round's candidate
set — insertion *order* cannot matter because a point dominated at any
moment stays dominated (insertions only shrink the admissible region),
and a surviving point survives every interleaving.  The scalar loop's
delta queue for round k+1 is exactly ``F_k \\ F_{k-1}`` (a transient
insertion that is displaced within its round never survives the next
round's up-front filter), the round counter advances iff that set is
non-empty, and a destination lands in the ``changed`` snapshot set iff
it gained a surviving point.  All three are order-free set equations,
which is what this module computes directly.  The scalar loop's *local*
suffix-min prune only skips candidates weakly dominated by another
candidate of the same batch — the global merge drops them identically.
Batching sources changes nothing: each source's points live in a
disjoint virtual-destination range, so the merged rounds never interact.

With ``slack > 0`` acceptance depends on the frontier state at insert
time, i.e. on insertion order; the vectorized engine therefore refuses
slack and the dispatcher (:func:`repro.core.optimal.compute_profiles`)
routes approximate runs to the scalar oracle.

Exactness discipline: the whole DP runs on int64 *ranks* into the CSR's
``time_table`` (every LD/EA any engine can produce is a verbatim
contact time, and min/max commute with the table's monotone order), so
floats are never combined arithmetically and every emitted value is a
float64 copied from the table — results round-trip ``tolist()``
bit-identically to the scalar engine's Python floats.

Key packing: a frontier point is one int64
``vdest << (1 + 2·rank_bits) | ld_rank << (1 + rank_bits) |
ea_rank << 1 | fresh`` where ``vdest = slot · N + dest`` interleaves
the source slot — a single ``np.sort`` then yields (source, dest, LD,
EA, fresh) order, per-destination segments are key ranges, and the
Pareto keep mask is one reversed ``minimum.accumulate``.  The whole
batch frontier lives in one flat sorted key array; each round splices
the re-merged touched destinations back in with a two-way merge.
Batches whose packed key would overflow 63 bits split recursively;
a single source that still overflows (≳2^31 distinct contact times ×
nodes) is refused, and the dispatcher's ``auto`` mode never selects
vec for such networks.

:class:`~repro.core.optimal.ProfileStats` divergence (observability
only, never part of the result): the scalar engine counts transient
insertions and same-round displacements, which are artefacts of its
processing order.  This engine reports order-free semantics instead —
``insertions_per_round[k-1]`` counts the *surviving* round-k points
(``|F_k \\ F_{k-1}|``) and ``displaced_per_round`` is all zeros.
``candidates_scanned`` / ``suffix_min_prunes`` are order-independent in
both engines and match exactly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_obs
from .contact import Node
from .csr import CSRNetwork
from .floats import is_pinned_zero
from .optimal import FINAL_TAG, ProfileStats, SourceProfiles

__all__ = [
    "run_single_source_vec",
    "run_sources_vec",
    "run_sources_raw",
    "profiles_from_raw",
]

_EMPTY_I = np.empty(0, dtype=np.int64)

#: soft cap on the virtual-destination space (slots × nodes) of one
#: lockstep batch; larger requests split recursively.  Bounds the two
#: O(slots × nodes) staircase-tail arrays to a few dozen MB.
_MAX_VIRTUAL = 1 << 22


def _ragged_arange(starts: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate ``arange(starts[i], starts[i] + counts[i])`` for all i.

    Returns ``(rep, idx)`` where ``idx`` is the concatenation and
    ``rep[j]`` is the i that produced ``idx[j]``.
    """
    rep = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    if rep.size == 0:
        return rep, _EMPTY_I
    stops = np.cumsum(counts)
    offsets = stops - counts
    idx = np.arange(int(stops[-1]), dtype=np.int64) - offsets[rep] + starts[rep]
    return rep, idx


def _sorted_unique(sorted_arr: np.ndarray) -> np.ndarray:
    """Unique values of an already-sorted array (no re-sort)."""
    if sorted_arr.size == 0:
        return sorted_arr
    sel = np.empty(sorted_arr.size, dtype=bool)
    sel[0] = True
    np.not_equal(sorted_arr[1:], sorted_arr[:-1], out=sel[1:])
    return sorted_arr[sel]


#: compact per-source result: rank arrays plus bookkeeping, cheap to
#: pickle (a handful of numpy buffers instead of thousands of Python
#: floats) — the pool's wire format.  Keys: ``source`` (physical id),
#: ``rounds``, ``stats``, ``final`` and ``snaps[bound]`` both as
#: ``(dests, counts, ld_ranks, ea_ranks)`` with dests in id order.
RawProfile = Dict[str, Any]

_POINTS = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def run_single_source_vec(
    csr: CSRNetwork,
    source: Node,
    hop_bounds: Tuple[int, ...],
    max_rounds: Optional[int],
    slack: float,
    collect_stats: bool = False,
) -> SourceProfiles:
    """Per-source DP on the CSR arrays; a lockstep batch of one."""
    return run_sources_vec(
        csr,
        [csr.node_index[source]],
        hop_bounds,
        max_rounds,
        slack,
        collect_stats,
    )[0]


def run_sources_vec(
    csr: CSRNetwork,
    source_ids: Sequence[int],
    hop_bounds: Tuple[int, ...],
    max_rounds: Optional[int],
    slack: float,
    collect_stats: bool = False,
) -> List[SourceProfiles]:
    """Run the frontier DP for a batch of sources in lockstep.

    Returns one :class:`SourceProfiles` per entry of ``source_ids`` (in
    order), each exactly equal to the scalar engine's output for that
    source (``slack == 0`` only).
    """
    return profiles_from_raw(
        csr,
        run_sources_raw(
            csr, source_ids, hop_bounds, max_rounds, slack, collect_stats
        ),
        hop_bounds,
    )


def profiles_from_raw(
    csr: CSRNetwork,
    raws: List[RawProfile],
    hop_bounds: Tuple[int, ...],
) -> List[SourceProfiles]:
    """Columnar :class:`SourceProfiles` from compact rank payloads.

    Every payload part (a source's final profile or one snapshot) is
    already a block of (dest, count, LD rank, EA rank) columns, so the
    whole batch is one concatenation per column plus one ``time_table``
    gather — each LD/EA a float64 copied verbatim from the table,
    bit-identical to the scalar engine's values — and each source gets
    views of its rows.  No per-function Python work happens here; the
    per-pair objects are built lazily by :class:`SourceProfiles`.  In
    the worker pool the supervisor calls this on payloads shipped back
    from workers; in-process it runs right after the DP.
    """
    if not raws:
        return []
    nodes = csr.nodes
    time_table = csr.time_table
    part_tags: List[int] = []
    parts: List[_POINTS] = []
    source_parts: List[int] = []
    for raw in raws:
        snaps = raw["snaps"]
        part_tags.append(FINAL_TAG)
        parts.append(raw["final"])
        for bound in sorted(snaps):
            part_tags.append(bound)
            parts.append(snaps[bound])
        source_parts.append(len(parts))
    part_sizes = np.fromiter((p[0].size for p in parts), np.int64, len(parts))
    tags = np.repeat(np.asarray(part_tags, dtype=np.int32), part_sizes)
    dests = np.concatenate([p[0] for p in parts]).astype(np.int32)
    offsets = np.zeros(tags.size + 1, dtype=np.int64)
    np.cumsum(np.concatenate([p[1] for p in parts]), out=offsets[1:])
    lds = time_table[np.concatenate([p[2] for p in parts])]
    eas = time_table[np.concatenate([p[3] for p in parts])]
    func_bounds = np.zeros(len(parts) + 1, dtype=np.int64)
    np.cumsum(part_sizes, out=func_bounds[1:])
    profiles: List[SourceProfiles] = []
    lo = 0
    for raw, stop_part in zip(raws, source_parts):
        hi = int(func_bounds[stop_part])
        p0, p1 = int(offsets[lo]), int(offsets[hi])
        profiles.append(
            SourceProfiles(
                nodes[raw["source"]],
                hop_bounds,
                nodes,
                tags[lo:hi],
                dests[lo:hi],
                offsets[lo : hi + 1] - p0,
                lds[p0:p1],
                eas[p0:p1],
                raw["rounds"],
                raw["stats"],
            )
        )
        lo = hi
    return profiles


def run_sources_raw(
    csr: CSRNetwork,
    source_ids: Sequence[int],
    hop_bounds: Tuple[int, ...],
    max_rounds: Optional[int],
    slack: float,
    collect_stats: bool = False,
) -> List[RawProfile]:
    """The lockstep batch DP, returning compact rank payloads (see
    :data:`RawProfile`); :func:`profiles_from_raw` materialises them."""
    if not is_pinned_zero(slack):
        raise ValueError(
            "the vectorized engine is exact-only (slack pruning is "
            "insertion-order dependent); use engine='scalar' with slack"
        )
    num_sources = len(source_ids)
    if num_sources == 0:
        return []
    num_nodes = max(1, len(csr.nodes))
    bits = csr.rank_bits
    if 1 + 2 * bits + max(0, num_nodes - 1).bit_length() > 63:
        raise ValueError(
            "network too large for packed rank keys; use engine='scalar'"
        )
    # Split batches whose virtual-destination space would overflow the
    # 63-bit key or the tail-array cap.
    while num_sources > 1 and (
        1 + 2 * bits + (num_sources * num_nodes - 1).bit_length() > 63
        or num_sources * num_nodes > _MAX_VIRTUAL
    ):
        half = num_sources // 2
        return run_sources_raw(
            csr, source_ids[:half], hop_bounds, max_rounds, slack, collect_stats
        ) + run_sources_raw(
            csr, source_ids[half:], hop_bounds, max_rounds, slack, collect_stats
        )

    edge_offsets = csr.edge_offsets
    contact_offsets = csr.contact_offsets
    edge_dst = csr.edge_dst
    ends_rank = csr.ends_rank
    begs_rank = csr.begs_rank
    sufmin_rank = csr.sufmin_rank
    t2e = csr.table_to_end_rank
    last_end_rank = csr.edge_last_end_rank
    end_keys = csr.end_keys
    num_uniq = np.int64(csr.uniq_ends.size + 1)
    stair_pos = csr.stair_pos
    stair_sufnext = csr.stair_sufnext
    pos_to_stair = csr.pos_to_stair
    first_lut = csr.first_end_lut

    num_virtual = num_sources * num_nodes
    shift_ea = np.int64(1)
    shift_ld = np.int64(1 + bits)
    shift_dest = np.int64(1 + 2 * bits)
    mask_rank = np.int64((1 << bits) - 1)

    src_phys = np.asarray(source_ids, dtype=np.int64)
    batch_hist = get_obs().metrics.histogram("engine.vec.batch_size")

    #: the entire batch frontier as one sorted array of packed keys
    #: (fresh bit clear); virtual destination v's points occupy the key
    #: range [v << shift_dest, (v + 1) << shift_dest).
    f_keys = _EMPTY_I

    snapshot_rounds = sorted(hop_bounds)
    snap_raw: List[Dict[int, _POINTS]] = [{} for _ in range(num_sources)]
    snap_idx = [0] * num_sources
    #: virtual destinations that gained a surviving point since their
    #: slot's last snapshot (idempotent boolean scatter, never a python
    #: set — per-point bookkeeping would dominate the batched kernels).
    changed_mask = np.zeros(num_virtual, dtype=bool)
    rounds_run = np.ones(num_sources, dtype=np.int64)
    stats: Optional[List[ProfileStats]] = (
        [ProfileStats() for _ in range(num_sources)] if collect_stats else None
    )
    stat_scanned = np.zeros(num_sources, dtype=np.int64)
    stat_pruned = np.zeros(num_sources, dtype=np.int64)

    def merge_round(
        cand_dest: np.ndarray, cand_ld: np.ndarray, cand_ea: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fold one round's candidates into the frontier; returns the
        surviving *new* points (vdest, ld_rank, ea_rank) in (vdest, LD)
        order — exactly ``F_k \\ F_{k-1}`` of every source at once."""
        nonlocal f_keys
        if cand_dest.size == 0:
            return _EMPTY_I, _EMPTY_I, _EMPTY_I
        cand_keys = (
            (cand_dest << shift_dest)
            | (cand_ld << shift_ld)
            | (cand_ea << shift_ea)
            | np.int64(1)
        )
        touch_mask = np.zeros(num_virtual, dtype=bool)
        touch_mask[cand_dest] = True
        touched = np.flatnonzero(touch_mask)
        # Touched destinations' current points, by key-range slicing.
        lows = np.searchsorted(f_keys, touched << shift_dest)
        highs = np.searchsorted(f_keys, (touched + 1) << shift_dest)
        _, old_idx = _ragged_arange(lows, highs - lows)
        allk = np.sort(np.concatenate((cand_keys, f_keys[old_idx])))
        n = allk.size
        # (vdest, LD) group boundaries and the EA suffix-min; composite
        # (vdest << bits | rank) keys are strictly larger for later
        # destinations, so one global cummin respects the segments.
        group_key = allk >> shift_ld
        ea_key = ((allk >> shift_dest) << np.int64(bits)) | (
            (allk >> shift_ea) & mask_rank
        )
        # Padded suffix-min of the (vdest, EA) composite: a point is
        # kept iff its composite beats the minimum over the strictly-
        # larger-LD suffix of its destination (cross-dest composites are
        # strictly larger and the pad means "no such point", so both
        # fall out of one comparison with no segment bookkeeping).
        sufpad = np.empty(n + 1, dtype=np.int64)
        sufpad[n] = np.iinfo(np.int64).max
        np.minimum.accumulate(ea_key[::-1], out=sufpad[:n][::-1])
        first_of_group = np.empty(n, dtype=bool)
        first_of_group[0] = True
        np.not_equal(group_key[1:], group_key[:-1], out=first_of_group[1:])
        starts_idx = np.flatnonzero(first_of_group)
        group_stops = np.append(starts_idx[1:], n)
        # Only a group's first row (its min-EA point for that (vdest,
        # LD)) can survive, so the dominance test runs on the group
        # list, not all n rows: keep the group iff its EA beats the
        # suffix-min past the group's end.
        keep_idx = starts_idx[ea_key[starts_idx] < sufpad[group_stops]]
        kept = allk[keep_idx]
        # Splice the re-merged touched segments back into the frontier.
        untouched = np.ones(f_keys.size, dtype=bool)
        untouched[old_idx] = False
        remaining = f_keys[untouched]
        kept_clean = kept & ~np.int64(1)
        pos = np.searchsorted(remaining, kept_clean)
        merged = np.empty(remaining.size + kept_clean.size, dtype=np.int64)
        at = pos + np.arange(kept_clean.size, dtype=np.int64)
        fill = np.ones(merged.size, dtype=bool)
        fill[at] = False
        merged[at] = kept_clean
        merged[fill] = remaining
        f_keys = merged
        # Where an old point and a fresh candidate coincide exactly the
        # old one sorts first (fresh is the low bit) and is kept —
        # matching the scalar insert, which rejects an equal candidate
        # — so surviving fresh rows are genuinely *new* points.
        new_keys = kept[(kept & np.int64(1)) == 1]
        new_d = new_keys >> shift_dest
        changed_mask[new_d] = True
        return (
            new_d,
            (new_keys >> shift_ld) & mask_rank,
            (new_keys >> shift_ea) & mask_rank,
        )

    def gather_points(
        ids_arr: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-destination point counts and the rank columns of the
        given virtual destinations' frontier segments, aligned to
        ``ids_arr`` — pure gathers, no Python objects."""
        lows = np.searchsorted(f_keys, ids_arr << shift_dest)
        highs = np.searchsorted(f_keys, (ids_arr + 1) << shift_dest)
        _, idx = _ragged_arange(lows, highs - lows)
        seg = f_keys[idx]
        return (
            highs - lows,
            (seg >> shift_ld) & mask_rank,
            (seg >> shift_ea) & mask_rank,
        )

    def take_snapshots(slots: List[int]) -> None:
        """Record rank-space copies for every given slot's due hop
        bounds in one batched gather.  Destinations go in id (=
        per-source repr) order — matching the scalar engine's
        canonicalised snapshot order, so persisted output is
        engine-independent."""
        due: List[Tuple[int, int, np.ndarray]] = []
        for slot in slots:
            after_round = int(rounds_run[slot])
            idx = snap_idx[slot]
            while idx < len(snapshot_rounds) and snapshot_rounds[idx] <= after_round:
                bound = snapshot_rounds[idx]
                if bound == after_round:
                    base = slot * num_nodes
                    vids = np.flatnonzero(changed_mask[base : base + num_nodes])
                    vids += base
                    changed_mask[base : base + num_nodes] = False
                    due.append((slot, bound, vids))
                idx += 1
            snap_idx[slot] = idx
        if not due:
            return
        counts, ld_ranks, ea_ranks = gather_points(
            np.concatenate([d[2] for d in due])
        )
        dpos = ppos = 0
        for slot, bound, vids in due:
            dstop = dpos + vids.size
            cslice = counts[dpos:dstop]
            pstop = ppos + int(cslice.sum())
            snap_raw[slot][bound] = (
                vids - slot * num_nodes,
                cslice,
                ld_ranks[ppos:pstop],
                ea_ranks[ppos:pstop],
            )
            dpos, ppos = dstop, pstop

    # ------------------------------------------------------------------
    # Round 1: every contact on each source's own edges is a candidate.
    # Contacts of one node's edges are contiguous in the flat arrays.
    # ------------------------------------------------------------------
    e_starts = edge_offsets[src_phys]
    e_counts = edge_offsets[src_phys + 1] - e_starts
    slot_of_edge, edges0 = _ragged_arange(e_starts, e_counts)
    c_starts = contact_offsets[edges0]
    c_counts = contact_offsets[edges0 + 1] - c_starts
    edge_row, j0 = _ragged_arange(c_starts, c_counts)
    if collect_stats:
        stat_scanned += np.bincount(
            slot_of_edge, weights=c_counts, minlength=num_sources
        ).astype(np.int64)
    if j0.size:
        cand_dest = (
            slot_of_edge[edge_row] * np.int64(num_nodes)
            + edge_dst[edges0[edge_row]]
        )
        ext_node, ext_ld, ext_ea = merge_round(
            cand_dest, ends_rank[j0], begs_rank[j0]
        )
    else:
        ext_node, ext_ld, ext_ea = _EMPTY_I, _EMPTY_I, _EMPTY_I

    if stats is not None:
        round1 = np.bincount(
            ext_node // num_nodes, minlength=num_sources
        ).astype(np.int64)
        for slot in range(num_sources):
            stats[slot].insertions_per_round.append(int(round1[slot]))

    take_snapshots(list(range(num_sources)))

    limit = np.int64(max_rounds) if max_rounds is not None else None
    while ext_node.size:
        ext_block = ext_node // num_nodes
        if limit is not None:
            # Per-source round cap: drop rows of sources at the limit
            # (their DP is over; identical to the scalar while-guard).
            under = rounds_run[ext_block] < limit
            if not under.all():
                ext_node = ext_node[under]
                if ext_node.size == 0:
                    break
                ext_ld = ext_ld[under]
                ext_ea = ext_ea[under]
                ext_block = ext_block[under]
        if stats is not None:
            # No transient insertions exist in the batched engine, so no
            # queue entry can be displaced before its extension turn.
            for slot in _sorted_unique(ext_block).tolist():
                stats[slot].displaced_per_round.append(0)
        # --- expansion: every (entry, edge) pair of the delta set -----
        phys = ext_node - ext_block * np.int64(num_nodes)
        starts = edge_offsets[phys]
        entry_of, edges = _ragged_arange(starts, edge_offsets[phys + 1] - starts)
        blk = ext_block[entry_of]
        ok = edge_dst[edges] != src_phys[blk]
        ea_x = ext_ea[entry_of]
        ok &= ea_x <= last_end_rank[edges]
        edges = edges[ok]
        entry_of = entry_of[ok]
        ea_x = ea_x[ok]
        blk = blk[ok]
        ld_x = ext_ld[entry_of]
        dest_x = blk * np.int64(num_nodes) + edge_dst[edges]
        # --- per-pair contact window [EA, LD): two gathers against the
        # precomputed first-contact table (or the searchsorted fallback
        # on traces too large for the dense table).
        edge_base = edges * num_uniq
        if first_lut is not None:
            first = first_lut[edge_base + t2e[ea_x]]
            covered = first_lut[edge_base + t2e[ld_x]]
        else:
            first = np.searchsorted(end_keys, edge_base + t2e[ea_x])
            covered = np.searchsorted(end_keys, edge_base + t2e[ld_x])
        # A point can have EA > LD (arrive after the last departure),
        # making the window empty with ``first`` past ``covered``.
        covered = np.maximum(covered, first)
        contact_stop = contact_offsets[edges + 1]
        if collect_stats:
            scan_tail = covered < contact_stop
            stat_scanned += np.bincount(
                blk, weights=covered - first, minlength=num_sources
            ).astype(np.int64)
            stat_scanned += np.bincount(
                blk[scan_tail], minlength=num_sources
            ).astype(np.int64)
            stat_pruned += np.bincount(
                blk[scan_tail],
                weights=contact_stop[scan_tail] - covered[scan_tail] - 1,
                minlength=num_sources,
            ).astype(np.int64)
        # --- covered-run collapse: one candidate per surviving run ----
        has_tail = covered < contact_stop
        tail_covered = covered[has_tail]
        cand_a_dest = dest_x[has_tail]
        cand_a_ld = ld_x[has_tail]
        cand_a_ea = np.maximum(ea_x[has_tail], sufmin_rank[tail_covered])
        # --- contacts ending inside [EA, LD): one candidate each, but
        # only staircase contacts whose min-later-beg exceeds the
        # pair's EA — every other window contact is weakly dominated by
        # a later candidate of the same pair (the scalar suffix-min
        # prune, precomputed), so it could never survive the merge.
        pair_of, sidx = _ragged_arange(
            pos_to_stair[first], pos_to_stair[covered] - pos_to_stair[first]
        )
        keep_b = stair_sufnext[sidx] > ea_x[pair_of]
        sidx = sidx[keep_b]
        pair_of = pair_of[keep_b]
        j = stair_pos[sidx]
        cand_b_dest = dest_x[pair_of]
        cand_b_ld = ends_rank[j]
        cand_b_ea = np.maximum(begs_rank[j], ea_x[pair_of])
        total = cand_a_dest.size + cand_b_dest.size
        batch_hist.observe(total)
        if total == 0:
            break
        ext_node, ext_ld, ext_ea = merge_round(
            np.concatenate((cand_a_dest, cand_b_dest)),
            np.concatenate((cand_a_ld, cand_b_ld)),
            np.concatenate((cand_a_ea, cand_b_ea)),
        )
        if ext_node.size:
            # Sources with surviving new points advance a round (and
            # snapshot if due); the rest are at their fixpoint.
            adv = _sorted_unique(ext_node // num_nodes)
            rounds_run[adv] += 1
            if stats is not None:
                per_slot = np.bincount(
                    ext_node // num_nodes, minlength=num_sources
                )
                for slot in adv.tolist():
                    stats[slot].insertions_per_round.append(
                        int(per_slot[slot])
                    )
            take_snapshots(adv.tolist())

    out: List[RawProfile] = []
    uniq_vd = _sorted_unique(f_keys >> shift_dest)
    counts, ld_ranks, ea_ranks = gather_points(uniq_vd)
    blocks_of_vd = uniq_vd // num_nodes
    slot_lo = np.searchsorted(blocks_of_vd, np.arange(num_sources))
    slot_hi = np.searchsorted(blocks_of_vd, np.arange(num_sources) + 1)
    point_bounds = np.zeros(uniq_vd.size + 1, dtype=np.int64)
    np.cumsum(counts, out=point_bounds[1:])
    for slot in range(num_sources):
        lo, hi = int(slot_lo[slot]), int(slot_hi[slot])
        plo, phi = int(point_bounds[lo]), int(point_bounds[hi])
        final: _POINTS = (
            uniq_vd[lo:hi] - slot * num_nodes,
            counts[lo:hi],
            ld_ranks[plo:phi],
            ea_ranks[plo:phi],
        )
        slot_stats: Optional[ProfileStats] = None
        if stats is not None:
            slot_stats = stats[slot]
            slot_stats.rounds = int(rounds_run[slot])
            slot_stats.candidates_scanned = int(stat_scanned[slot])
            slot_stats.suffix_min_prunes = int(stat_pruned[slot])
            slot_stats.frontier_points = phi - plo
            slot_stats.destinations = hi - lo
        out.append(
            {
                "source": int(src_phys[slot]),
                "rounds": int(rounds_run[slot]),
                "stats": slot_stats,
                "final": final,
                "snaps": snap_raw[slot],
            }
        )
    return out
