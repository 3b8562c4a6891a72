"""Columnar profiles: the segment gather against the per-function walk,
format-v3 round trips, and the loader's column checks.

The oracle :func:`legacy_segment_table` is the segment collection as it
was written over :class:`~repro.core.delivery.DeliveryFunction` objects:
one ``bound_profiles`` walk per source, each function's points appended
in (source, destination) query order, then one concatenate-and-clip per
bound.  The columnar gather must reproduce its arrays bit for bit, in the
same order, so every CDF float downstream is unchanged.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    Contact,
    TemporalNetwork,
    compute_profiles,
    load_or_compute,
    profiles_digest,
)
from repro.core.cache import cache_path, profile_cache_key
from repro.core.engine_pool import close_pools
from repro.core.segments import build_segment_table
from repro.core.storage import load_profiles, save_profiles, trace_digest
from repro.obs import observed

from ..conftest import small_networks

shared_settings = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def legacy_segment_table(profiles, bounds, window=None, pairs=None):
    """The per-DeliveryFunction segment walk (the oracle)."""
    if window is None:
        window = profiles.network.span
    t0, t1 = window
    query = list(dict.fromkeys(bounds))
    if pairs is None:
        by_source = {
            s: [d for d in profiles.network.nodes if d != s]
            for s in profiles.sources
        }
        num_pairs = sum(len(dests) for dests in by_source.values())
    else:
        by_source = {}
        num_pairs = 0
        for s, d in pairs:
            by_source.setdefault(s, []).append(d)
            num_pairs += 1
    acc = {bound: ([], [], []) for bound in query}
    for source, destinations in by_source.items():
        sp = profiles.source_profiles(source)
        for _dest, funcs in sp.bound_profiles(destinations, query):
            for bound, func in zip(query, funcs):
                if not func.lds:
                    continue
                ends, arrs, lens = acc[bound]
                ends.append(np.asarray(func.lds, dtype=float))
                arrs.append(np.asarray(func.eas, dtype=float))
                lens.append(len(func.lds))
    raw = {}
    for bound, (ends, arrs, lens) in acc.items():
        if not ends:
            raw[bound] = (np.empty(0), np.empty(0), np.empty(0))
            continue
        end = np.concatenate(ends)
        arr = np.concatenate(arrs)
        beg = np.empty_like(end)
        beg[1:] = end[:-1]
        offsets = np.zeros(len(lens), dtype=np.intp)
        np.cumsum(np.asarray(lens[:-1], dtype=np.intp), out=offsets[1:])
        beg[offsets] = -np.inf
        np.maximum(beg, t0, out=beg)
        end = np.minimum(end, t1)
        keep = end > beg
        raw[bound] = (beg[keep], end[keep], arr[keep])
    return raw, num_pairs


def assert_tables_identical(profiles, bounds, window=None, pairs=None):
    expected, num_pairs = legacy_segment_table(profiles, bounds, window, pairs)
    table = build_segment_table(profiles, bounds, window, pairs)
    assert table.num_pairs == num_pairs
    assert table.bounds == list(expected)
    for bound, arrays in expected.items():
        got = table.segments(bound)
        for want, have in zip(arrays, got):
            assert have.dtype == want.dtype
            # Bytes, not values: bit-identical and in the same order.
            assert have.tobytes() == want.tobytes(), bound


@st.composite
def profile_cases(draw):
    """A network, its profiles (either engine, optionally a source
    subset) and a query: bounds mixing recorded ones, None and bounds at
    or past the fixpoint, plus an optional pair list that may repeat
    pairs and name destinations with no path."""
    net = draw(small_networks(max_nodes=6, max_contacts=16))
    hop_bounds = tuple(
        sorted(draw(st.sets(st.integers(1, 4), min_size=1, max_size=3)))
    )
    nodes = list(net.nodes)
    sources = draw(
        st.one_of(st.none(), st.lists(st.sampled_from(nodes), min_size=1, unique=True))
    )
    engine = draw(st.sampled_from(["scalar", "vec"]))
    profiles = compute_profiles(
        net, hop_bounds=hop_bounds, sources=sources, engine=engine
    )
    fixpoint = profiles.max_rounds_run
    extra = st.integers(fixpoint, fixpoint + 3)
    bounds = draw(
        st.lists(
            st.one_of(st.sampled_from(hop_bounds), st.none(), extra), min_size=1
        )
    )
    # A bound below some source's fixpoint must be recorded.
    bounds = [
        b
        for b in bounds
        if b is None or b in hop_bounds or b >= fixpoint
    ]
    pairs = None
    if draw(st.booleans()):
        computed = list(profiles.sources)
        pairs = draw(
            st.lists(
                st.tuples(st.sampled_from(computed), st.sampled_from(nodes)).filter(
                    lambda p: p[0] != p[1]
                ),
                max_size=25,
            )
        )
    window = None
    if draw(st.booleans()):
        lo = draw(st.floats(0.0, 30.0).map(lambda x: round(x, 1)))
        window = (lo, lo + draw(st.floats(0.5, 40.0).map(lambda x: round(x, 1))))
    return profiles, bounds, window, pairs


class TestSegmentGatherOracle:
    @shared_settings
    @given(case=profile_cases())
    def test_matches_function_walk(self, case):
        profiles, bounds, window, pairs = case
        assert_tables_identical(profiles, bounds, window, pairs)

    @shared_settings
    @given(case=profile_cases())
    def test_matches_function_walk_after_reload(self, case, tmp_path_factory):
        profiles, bounds, window, pairs = case
        path = tmp_path_factory.mktemp("v3") / "p.npz"
        save_profiles(profiles, path)
        restored = load_profiles(path, profiles.network)
        assert_tables_identical(restored, bounds, window, pairs)

    def test_unreachable_and_unknown_destinations(self, line_network):
        """Pairs without a path (and a node outside the roster) count in
        the denominator and contribute no segments."""
        profiles = compute_profiles(line_network, hop_bounds=(1, 2, 3))
        pairs = [(3, 0), (0, 3), (0, 3), (2, 1), (0, "ghost"), (1, 2)]
        assert_tables_identical(profiles, [1, 2, None, 3, 7], pairs=pairs)
        table = build_segment_table(profiles, [None], pairs=pairs)
        assert table.num_pairs == len(pairs)

    def test_unrecorded_bound_raises(self, line_network):
        profiles = compute_profiles(line_network, hop_bounds=(1, 3))
        with pytest.raises(KeyError, match="not recorded"):
            legacy_segment_table(profiles, [2])
        with pytest.raises(KeyError, match="not recorded"):
            build_segment_table(profiles, [2])

    def test_unrecorded_bound_past_fixpoint_is_final(self, line_network):
        profiles = compute_profiles(line_network, hop_bounds=(1,))
        assert profiles.max_rounds_run == 3
        assert_tables_identical(profiles, [1, 3, 40, None])

    def test_mixed_node_kinds(self):
        net = TemporalNetwork(
            [
                Contact(0.0, 10.0, 0, 1),
                Contact(20.0, 30.0, 1, "ext0"),
                Contact(40.0, 50.0, "ext0", 2),
                Contact(5.0, 45.0, 2, "a"),
            ],
            nodes=[0, 1, 2, "a", "ext0"],
        )
        profiles = compute_profiles(net, hop_bounds=(1, 2, 3), sources=[0, "ext0", 1])
        assert_tables_identical(profiles, [1, 2, 3, None])
        assert_tables_identical(
            profiles, [2, None], pairs=[("ext0", 0), (0, "a"), (1, 2), (0, 2)]
        )


@pytest.fixture
def pool_net(rng):
    contacts = []
    for _ in range(120):
        u, v = rng.choice(12, size=2, replace=False)
        beg = round(float(rng.uniform(0.0, 50.0)), 1)
        dur = round(float(rng.uniform(0.0, 8.0)), 1)
        contacts.append(Contact(beg, round(beg + dur, 1), int(u), int(v)))
    return TemporalNetwork(contacts, nodes=range(12))


class TestFormatV3RoundTrip:
    @pytest.mark.parametrize(
        "engine, workers", [("scalar", 1), ("vec", 1), ("vec", 2), ("scalar", 2)]
    )
    def test_digest_survives_save_and_load(self, pool_net, tmp_path, engine, workers):
        try:
            profiles = compute_profiles(
                pool_net, hop_bounds=(1, 2, 4), engine=engine, workers=workers
            )
        finally:
            close_pools()
        before = profiles_digest(profiles)
        save_profiles(profiles, tmp_path / "p.npz")
        restored = load_profiles(tmp_path / "p.npz", pool_net)
        assert profiles_digest(restored) == before
        reference = compute_profiles(pool_net, hop_bounds=(1, 2, 4), engine="scalar")
        assert before == profiles_digest(reference)

    def test_file_is_columns_plus_index(self, pool_net, tmp_path):
        profiles = compute_profiles(pool_net, hop_bounds=(1, 2))
        save_profiles(profiles, tmp_path / "p.npz")
        with np.load(tmp_path / "p.npz") as data:
            assert sorted(data.files) == sorted(
                ["__index__", "source_offsets", "tags", "dests", "offsets", "lds", "eas"]
            )
            index = json.loads(bytes(data["__index__"]).decode())
            assert index["version"] == 3
            assert len(index["sources"]) == len(profiles.sources)
            assert data["offsets"][-1] == data["lds"].size


def _rewrite(path, **changes):
    """Re-save a v3 file with some columns replaced."""
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    arrays.update(changes)
    np.savez(path, **arrays)


def _write_v2_entry(profiles, path):
    """A file in the previous layout: one archive member per function."""
    arrays = {}
    entries = []
    for number, source in enumerate(profiles.sources):
        sp = profiles.source_profiles(source)
        final = []
        for destination in sp.destinations():
            func = sp.profile(destination, None)
            key = f"s{number}_final_{len(final)}"
            arrays[key] = np.asarray([func.lds, func.eas], dtype=float)
            final.append([f"i:{destination}", key])
        entries.append(
            {"node": f"i:{source}", "rounds": sp.rounds, "final": final, "snapshots": {}}
        )
    index = {
        "version": 2,
        "hop_bounds": list(profiles.hop_bounds),
        "trace": {
            "digest": trace_digest(profiles.network),
            "contacts": profiles.network.num_contacts,
            "nodes": len(profiles.network),
        },
        "sources": entries,
    }
    arrays["__index__"] = np.frombuffer(json.dumps(index).encode(), dtype=np.uint8)
    np.savez_compressed(path, **arrays)


class TestLoaderChecks:
    @pytest.fixture
    def saved(self, pool_net, tmp_path):
        path = tmp_path / "p.npz"
        save_profiles(compute_profiles(pool_net, hop_bounds=(1, 2)), path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        return path, arrays

    def test_truncated_file(self, saved, pool_net):
        path, _ = saved
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="unreadable"):
            load_profiles(path, pool_net)

    def test_offsets_must_end_at_point_count(self, saved, pool_net):
        path, arrays = saved
        offsets = arrays["offsets"].copy()
        offsets[-1] += 1
        _rewrite(path, offsets=offsets)
        with pytest.raises(ValueError, match="point offsets"):
            load_profiles(path, pool_net)

    def test_destination_outside_roster(self, saved, pool_net):
        path, arrays = saved
        dests = arrays["dests"].copy()
        dests[0] = len(pool_net.nodes)
        _rewrite(path, dests=dests)
        with pytest.raises(ValueError, match="outside the roster"):
            load_profiles(path, pool_net)

    def test_unknown_bound_tag(self, saved, pool_net):
        path, arrays = saved
        tags = arrays["tags"].copy()
        tags[-1] = 7
        _rewrite(path, tags=tags)
        with pytest.raises(ValueError, match="unknown bound tag"):
            load_profiles(path, pool_net)

    def test_rows_out_of_order(self, saved, pool_net):
        path, arrays = saved
        starts = arrays["source_offsets"]
        lo, hi = int(starts[0]), int(starts[1])
        assert hi - lo >= 2
        dests = arrays["dests"].copy()
        dests[lo : lo + 2] = dests[lo : lo + 2][::-1]
        _rewrite(path, dests=dests)
        with pytest.raises(ValueError, match="not sorted"):
            load_profiles(path, pool_net)

    def test_previous_format_rejected(self, pool_net, tmp_path):
        path = tmp_path / "p.npz"
        _write_v2_entry(compute_profiles(pool_net, hop_bounds=(1, 2)), path)
        with pytest.raises(ValueError, match="version 2"):
            load_profiles(path, pool_net)


class TestCacheRecomputesBadEntries:
    """Each kind of bad entry is counted invalid, recomputed and
    overwritten, and the result equals a fresh computation."""

    def _corrupt_truncate(self, path, profiles):
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])

    def _corrupt_columns(self, path, profiles):
        with np.load(path) as data:
            offsets = data["offsets"].copy()
        offsets[-1] -= 1
        _rewrite(path, offsets=offsets)

    def _corrupt_v2(self, path, profiles):
        _write_v2_entry(profiles, path)

    @pytest.mark.parametrize("corrupt", ["truncate", "columns", "v2"])
    def test_bad_entry_recomputed(self, pool_net, tmp_path, corrupt):
        bounds = (1, 2)
        fresh = load_or_compute(pool_net, tmp_path, hop_bounds=bounds)
        path = cache_path(tmp_path, profile_cache_key(pool_net, hop_bounds=bounds))
        getattr(self, f"_corrupt_{corrupt}")(path, fresh)
        with observed() as run:
            again = load_or_compute(pool_net, tmp_path, hop_bounds=bounds)
        counters = run.metrics.to_dict()["counters"]
        assert counters["profiles.cache.invalid"] == 1
        assert counters["profiles.cache.miss"] == 1
        assert profiles_digest(again) == profiles_digest(fresh)
        with observed() as run:
            hit = load_or_compute(pool_net, tmp_path, hop_bounds=bounds)
        assert run.metrics.to_dict()["counters"]["profiles.cache.hit"] == 1
        assert profiles_digest(hit) == profiles_digest(fresh)

    def test_hit_and_compute_timers(self, pool_net, tmp_path):
        with observed() as run:
            load_or_compute(pool_net, tmp_path, hop_bounds=(1, 2))
            load_or_compute(pool_net, tmp_path, hop_bounds=(1, 2))
        timers = run.metrics.to_dict()["timers"]
        assert timers["profiles.cache.compute_s"]["wall_count"] == 1
        assert timers["profiles.cache.hit_s"]["wall_count"] == 1
