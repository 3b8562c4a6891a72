"""Single-pass segment collection and a vectorized delay-CDF kernel.

The paper's empirical pipeline (Section 5.3.1, Figures 9-12) evaluates
per-hop-bound delay CDFs over all (source, destination) pairs and all
start times.  The straightforward implementation walks every pair once
*per hop bound* and then loops over the delay grid in Python — O(bounds
x pairs) snapshot walks plus O(|segments| x |grid|) arithmetic.  This
module replaces both loops:

* :func:`build_segment_table` reads the profile columns of
  :class:`~repro.core.optimal.SourceProfiles` directly: per requested
  hop bound it resolves every (source, destination) pair to one function
  row with two ``searchsorted`` lookups (the final profile, or the
  carry-forward snapshot at the latest recorded bound at or below it)
  and gathers the rows' points into window-clipped
  ``(seg_beg, seg_end, arrival)`` pieces — no per-pair Python work.

* Each bound's pieces feed a numpy kernel.  A piece contributes
  ``max(0, seg_end - max(seg_beg, arrival - d))`` start-time measure at
  delay budget ``d`` — a ramp that starts at ``d0 = arrival - seg_end``,
  grows with slope 1, and saturates at ``d1 = arrival - seg_beg`` with
  value ``seg_end - seg_beg``.  Because the delay grid is ascending,
  every ramp start/end is binned into the grid with one ``searchsorted``
  call, and prefix sums of the per-bin counts and weights answer every
  budget at once:

      total(d) = sum_{d1 <= d} len  +  |active| * d - sum_{active} d0,

  i.e. O(S log G + G) for S segments and G grid points instead of
  O(S x G).

The legacy per-budget loop survives as
:func:`repro.core.delay_cdf.delay_cdf_reference` and anchors the
equivalence tests in ``tests/core/test_engine.py``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_obs
from .contact import Node
from .engine_vec import _ragged_arange
from .optimal import FINAL_TAG, PathProfileSet, SourceProfiles, _node_index_for

__all__ = ["SegmentTable", "build_segment_table"]

BoundKey = Optional[int]


class _BoundKernel:
    """Ramp-decomposition evaluation structure for one bound's segments."""

    __slots__ = ("num_segments", "finite_measure", "_lengths", "_lo", "_hi")

    def __init__(self, beg: np.ndarray, end: np.ndarray, arrival: np.ndarray) -> None:
        self._lengths = end - beg
        self._lo = arrival - end
        self._hi = arrival - beg
        self.num_segments = int(len(beg))
        self.finite_measure = float(self._lengths.sum())

    def measure(self, grid: np.ndarray) -> np.ndarray:
        """Total start-time measure with delay <= budget, per grid budget.

        ``grid`` must be ascending.  Each ramp boundary is binned into the
        grid (``searchsorted``); cumulative per-bin counts/weights then
        give, at every budget, the saturated length, the number of active
        ramps and the sum of their start offsets.
        """
        if self.num_segments == 0:
            return np.zeros(len(grid), dtype=float)
        bins = len(grid) + 1
        lo_bin = np.searchsorted(grid, self._lo, side="left")
        hi_bin = np.searchsorted(grid, self._hi, side="left")

        def cum(idx: np.ndarray, weights: Optional[np.ndarray]) -> np.ndarray:
            return np.cumsum(np.bincount(idx, weights, minlength=bins)[:-1])

        started = cum(lo_bin, None)
        finished = cum(hi_bin, None)
        saturated = cum(hi_bin, self._lengths)
        active_start_sum = cum(lo_bin, self._lo) - cum(hi_bin, self._lo)
        return saturated + grid * (started - finished) - active_start_sum


class SegmentTable:
    """Window-clipped delivery segments for several hop bounds at once.

    Built by :func:`build_segment_table`.  Holds, per hop bound, the flat
    ``(seg_beg, seg_end, arrival)`` arrays over all aggregated pairs and
    a lazily constructed :class:`_BoundKernel` that answers whole delay
    grids in one vectorized pass.
    """

    def __init__(
        self,
        window: Tuple[float, float],
        num_pairs: int,
        raw: Dict[BoundKey, Tuple[np.ndarray, np.ndarray, np.ndarray]],
    ) -> None:
        self.window = window
        self.num_pairs = num_pairs
        self._raw = raw
        self._kernels: Dict[BoundKey, _BoundKernel] = {}

    @property
    def bounds(self) -> List[BoundKey]:
        return list(self._raw)

    def segments(self, bound: BoundKey) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The clipped (seg_beg, seg_end, arrival) arrays of one bound."""
        return self._raw[bound]

    def num_segments(self, bound: BoundKey) -> int:
        return len(self._raw[bound][0])

    def _kernel(self, bound: BoundKey) -> _BoundKernel:
        kernel = self._kernels.get(bound)
        if kernel is None:
            kernel = self._kernels[bound] = _BoundKernel(*self._raw[bound])
        return kernel

    def measure(self, bound: BoundKey, grid: np.ndarray) -> np.ndarray:
        """Start-time measure with delay <= budget, per (ascending) budget."""
        obs = get_obs()
        if not obs.enabled:
            return self._kernel(bound).measure(grid)
        with obs.timer("engine.cdf_kernel"):
            values = self._kernel(bound).measure(grid)
        obs.metrics.counter("engine.grid_evaluations").inc(len(grid))
        return values

    def finite_measure(self, bound: BoundKey) -> float:
        """Total measure of start times with *any* finite delivery."""
        return self._kernel(bound).finite_measure


def _group_pairs_by_source(
    pairs: Iterable[Tuple[Node, Node]],
) -> Tuple[Dict[Node, List[Node]], int]:
    by_source: Dict[Node, List[Node]] = {}
    count = 0
    for s, d in pairs:
        if s == d:
            raise ValueError("source and destination must differ")
        by_source.setdefault(s, []).append(d)
        count += 1
    return by_source, count


class _Columns:
    """The profile columns of the queried sources, concatenated, with
    the two lookup keys the per-bound resolution searches:

    * finals by ``slot * N + dest`` (already sorted: slots ascend and
      each source's finals are in destination order);
    * snapshots by ``(slot * N + dest) * R + rank(tag)`` with R the
      number of distinct recorded bounds, sorted, so the last key at or
      below a query's ``rank(bound)`` is the carry-forward snapshot.
    """

    def __init__(self, sps: List[SourceProfiles], num_nodes: int) -> None:
        recorded = sorted({bound for sp in sps for bound in sp.hop_bounds})
        self.recorded = np.asarray(recorded, dtype=np.int64)
        self.width = max(1, len(recorded))
        functions = [sp.tags.size for sp in sps]
        tags = np.concatenate([sp.tags for sp in sps]).astype(np.int64)
        slots = np.repeat(np.arange(len(sps), dtype=np.int64), functions)
        row = slots * num_nodes + np.concatenate([sp.dests for sp in sps])
        point_base = np.zeros(len(sps), dtype=np.int64)
        np.cumsum([sp.lds.size for sp in sps[:-1]], out=point_base[1:])
        self.starts = np.concatenate([sp.offsets[:-1] for sp in sps]) + np.repeat(
            point_base, functions
        )
        self.counts = np.concatenate([np.diff(sp.offsets) for sp in sps])
        self.lds = np.concatenate([sp.lds for sp in sps])
        self.eas = np.concatenate([sp.eas for sp in sps])
        is_final = tags == FINAL_TAG
        self.final_rows = np.flatnonzero(is_final)
        self.final_keys = row[self.final_rows]
        snap_rows = np.flatnonzero(~is_final)
        snap_keys = row[snap_rows] * self.width + np.searchsorted(
            self.recorded, tags[snap_rows]
        )
        order = np.argsort(snap_keys, kind="stable")
        self.snap_rows = snap_rows[order]
        self.snap_keys = snap_keys[order]

    def final(self, keys: np.ndarray) -> np.ndarray:
        """Function row of each (slot * N + dest) key's final, or -1."""
        rows = np.full(keys.size, -1, dtype=np.int64)
        pos = np.searchsorted(self.final_keys, keys)
        found = pos < self.final_keys.size
        found[found] = self.final_keys[pos[found]] == keys[found]
        rows[found] = self.final_rows[pos[found]]
        return rows

    def snapshot(self, keys: np.ndarray, bound: int) -> np.ndarray:
        """Function row of each key's latest snapshot at or below
        ``bound`` (a recorded bound), or -1."""
        rank = int(np.searchsorted(self.recorded, bound))
        rows = np.full(keys.size, -1, dtype=np.int64)
        pos = np.searchsorted(self.snap_keys, keys * self.width + rank, side="right") - 1
        found = pos >= 0
        found[found] = self.snap_keys[pos[found]] // self.width == keys[found]
        rows[found] = self.snap_rows[pos[found]]
        return rows


def build_segment_table(
    profiles: PathProfileSet,
    bounds: Sequence[BoundKey],
    window: Optional[Tuple[float, float]] = None,
    pairs: Optional[Iterable[Tuple[Node, Node]]] = None,
) -> SegmentTable:
    """Collect clipped delivery segments for all ``bounds`` in one pass.

    Args:
        profiles: result of :func:`repro.core.optimal.compute_profiles`.
        bounds: hop bounds to collect (``None`` = unbounded flooding).
        window: start-time observation window; defaults to the trace span.
        pairs: restrict to these ordered (source, destination) pairs;
            default all ordered pairs over the computed sources.

    Each bound's segments are gathered straight from the profile columns,
    pair by pair in query order (sources in order, each source's
    destinations in order): exactly the order a walk over the per-pair
    delivery functions would append them, so every downstream float sum
    is bit-identical to that walk.
    """
    if window is None:
        window = profiles.network.span
    t0, t1 = window
    query = list(dict.fromkeys(bounds))  # dedupe, preserve order
    obs = get_obs()
    with obs.span(
        "engine.segment_table", bounds=len(query)
    ) as span, obs.timer("engine.segment_table"):
        num_nodes = len(profiles.network.nodes)
        node_ids = _node_index_for(profiles.network)
        if pairs is None:
            sources = list(profiles.sources)
            source_ids = np.asarray([node_ids[s] for s in sources], dtype=np.int64)
            # Every other roster node, in roster order, for each source.
            everyone = np.tile(np.arange(num_nodes, dtype=np.int64), len(sources))
            slot_of = np.repeat(np.arange(len(sources), dtype=np.int64), num_nodes)
            keep = everyone != source_ids[slot_of]
            pair_dest, pair_slot = everyone[keep], slot_of[keep]
            num_pairs = int(pair_dest.size)
        else:
            by_source, num_pairs = _group_pairs_by_source(pairs)
            sources = list(by_source)
            pair_dest = np.asarray(
                [node_ids.get(d, -1) for dests in by_source.values() for d in dests],
                dtype=np.int64,
            )
            pair_slot = np.repeat(
                np.arange(len(sources), dtype=np.int64),
                [len(dests) for dests in by_source.values()],
            )
        sps = [profiles.source_profiles(source) for source in sources]
        # A bound below a source's fixpoint must be recorded: the same
        # KeyError SourceProfiles.profile raises.
        for bound in query:
            for sp in sps:
                if bound is not None and bound < sp.rounds and bound not in sp.hop_bounds:
                    raise KeyError(
                        f"hop bound {bound} was not recorded; available: "
                        f"{sorted(sp.hop_bounds)} (or None for unbounded)"
                    )

        raw: Dict[BoundKey, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        if pair_dest.size == 0:
            empty = (np.empty(0), np.empty(0), np.empty(0))
            raw = {bound: empty for bound in query}
        else:
            cols = _Columns(sps, num_nodes)
            keys = pair_slot * num_nodes + pair_dest
            known = pair_dest >= 0
            pair_rounds = np.asarray([sp.rounds for sp in sps], dtype=np.int64)[pair_slot]
            final_rows = cols.final(keys)
            for bound in query:
                # The final profile where the bound is vacuous (None or
                # at/past the source's fixpoint), else the snapshot.
                rows = final_rows
                if bound is not None and bool((pair_rounds > bound).any()):
                    rows = np.where(
                        pair_rounds > bound, cols.snapshot(keys, bound), final_rows
                    )
                raw[bound] = _assemble_bound(cols, rows[known], t0, t1)
        if obs.enabled:
            total = sum(len(beg) for beg, _, _ in raw.values())
            span.set(segments=total, pairs=num_pairs)
            obs.metrics.counter("engine.segments_collected").inc(total)
    return SegmentTable(window=(t0, t1), num_pairs=num_pairs, raw=raw)


def _assemble_bound(
    cols: _Columns, rows: np.ndarray, t0: float, t1: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather one bound's functions' points in row order and clip them.

    A frontier (LD_1..LD_n, EA_1..EA_n) contributes the pieces
    (prev LD, LD_i, EA_i] with prev starting at -inf, so seg_end is the
    LD column, seg_beg its shift, and arrival the EA column.
    """
    rows = rows[rows >= 0]
    counts = cols.counts[rows]
    nonempty = counts > 0
    rows, counts = rows[nonempty], counts[nonempty]
    if rows.size == 0:
        return (np.empty(0), np.empty(0), np.empty(0))
    _, points = _ragged_arange(cols.starts[rows], counts)
    end = cols.lds[points]
    arr = cols.eas[points]
    beg = np.empty_like(end)
    beg[1:] = end[:-1]
    # The first piece of every function begins at -inf (clipped to t0).
    firsts = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=firsts[1:])
    beg[firsts] = -np.inf
    np.maximum(beg, t0, out=beg)
    end = np.minimum(end, t1)
    keep = end > beg
    if not keep.all():
        beg, end, arr = beg[keep], end[keep], arr[keep]
    return beg, end, arr
