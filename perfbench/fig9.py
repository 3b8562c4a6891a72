"""The Fig. 9 workloads: one data set through the analysis pipeline.

Each repetition synthesises its trace (structure seeded by the
repetition index, device names by the run seed; see ``harness.synth``),
then times

* ``generate_s``: ``datasets.build`` + cut + ``write_contacts``;
* ``analyze_cold_s``: ``read_contacts`` -> ``load_or_compute`` on an
  empty cache -> ``success_curves`` -> ``diameter``;
* ``analyze_cached_s``: the same pipeline again, now a cache hit;
* ``warm_*``: seeded ``PathProfileSet.profile(s, d, k).delivery_time(t)``
  lookups on the cached profiles, timed one by one in windows.

Gates, counted in ``failed``: the cold and cached ``profiles_digest``
agree, every lookup answers the same on cold and cached profiles, and
both diameters equal the value pinned for the trace seed.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

import harness as H

WORKLOADS: Dict[str, Dict[str, Any]] = {
    # 41 devices, dense contacts: the profile cache and the DP dominate.
    "fig9-dense": {"dataset": "infocom05", "scale": 0.07, "keep": 900, "workers": 1, "rep_s": 5.0, "gen_runs": 5},
    # ~36 devices seen through hundreds of external ones: synthesis and
    # the profile cache dominate; the DP runs in the engine pool.
    "fig9-sparse": {"dataset": "hongkong", "scale": 0.45, "keep": 850, "workers": 2, "rep_s": 6.0, "gen_runs": 1},
}

#: the setup probe: imports the pipeline, starts the pool, prints ready.
READY = Path(__file__).resolve().parent / "ready.py"

HOP_BOUNDS = tuple(range(1, 13))
GRID_POINTS = 40
EPS = 0.01
LOOKUP_WINDOW = 1000
#: 100k lookups a repetition: long enough (0.1-0.3 s) to average over
#: the host's sub-second speed jitter.
LOOKUP_WINDOWS = 100
#: calibration loop around each lookup window, ~1 ms like the window.
WINDOW_CAL_LOOPS = H.CAL_LOOPS // 10
#: timed repetitions per run, at most; the pinned table covers the
#: warm-up repetition plus this many.
MAX_TIMED = 5


def grid_for(net: Any) -> np.ndarray:
    from repro.analysis.grids import MINUTE, WEEK, paper_delay_grid

    return paper_delay_grid(
        points=GRID_POINTS, t_min=2 * MINUTE, t_max=min(WEEK, max(net.duration, 10 * MINUTE))
    )


def generate(spec: Dict[str, Any], rep: int, labels: int, path: Path) -> Any:
    """Repetition ``rep``'s trace (structure seed ``rep + 1``) with its
    devices renamed by seed ``labels``, written to ``path``."""
    from repro.traces import format as fmt

    net = H.synth(spec["dataset"], rep + 1, spec["scale"], spec["keep"], labels)
    fmt.write_contacts(net, path, header=f"perfbench {spec['dataset']} structure {rep + 1} labels {labels}")
    return net


def analyze(path: Path, cache_dir: Path, workers: int) -> Tuple[Any, Any, List[Any]]:
    """The Fig. 9 pipeline; returns (profiles, diameter, internal nodes)."""
    import importlib

    from repro.traces import format as fmt

    # ``repro.core`` re-exports functions under the module names, so the
    # modules are looked up explicitly; the ledger patches their attributes.
    cache = importlib.import_module("repro.core.cache")
    diameter = importlib.import_module("repro.core.diameter")
    net = fmt.read_contacts(path)
    sources = H.internal_nodes(net)
    profiles = cache.load_or_compute(
        net, cache_dir, hop_bounds=HOP_BOUNDS, sources=sources, workers=workers
    )
    pairs = [(s, d) for s in sources for d in sources if s != d]
    grid = grid_for(net)
    curves = diameter.success_curves(profiles, grid, hop_bounds=HOP_BOUNDS, pairs=pairs)
    result = diameter.diameter(
        profiles, grid, eps=EPS, hop_bounds=HOP_BOUNDS, pairs=pairs, curves=curves
    )
    return profiles, result.value, sources


def lookup_queries(
    profiles: Any, sources: List[Any], seed: int, rep: int, bounds: Sequence[Any] = HOP_BOUNDS + (None,)
) -> List[Tuple[Any, Any, Any, float]]:
    """A seeded set of (source, destination, hop bound, start time) over
    the pairs of ``sources`` that have a path at all: an unreachable
    pair answers from an empty function and times only call overhead."""
    inside = set(sources)
    pairs = [
        (s, d) for s in sources for d in profiles.source_profiles(s).destinations() if d in inside
    ]
    rng = np.random.default_rng([seed, rep, 9])
    t0, t1 = profiles.network.span
    count = LOOKUP_WINDOW * LOOKUP_WINDOWS
    picks = rng.integers(0, len(pairs), count)
    ks = rng.integers(0, len(bounds), count)
    ts = rng.uniform(t0, t1, count)
    return [
        (*pairs[p], bounds[k], t) for p, k, t in zip(picks.tolist(), ks.tolist(), ts.tolist())
    ]


def run_lookups(
    profiles: Any, queries: List[Tuple[Any, Any, Any, float]]
) -> Tuple[List[float], List[List[int]], List[float], List[float]]:
    """(answers, per-window latencies in ns, per-window wall seconds,
    per-window speed factors).  Each window is calibrated on its own:
    it lasts about a millisecond, less than the host's speed modes."""
    clock = time.perf_counter_ns
    answers: List[float] = []
    windows: List[List[int]] = []
    walls: List[float] = []
    factors: List[float] = []

    def window(batch: List[Tuple[Any, Any, Any, float]]) -> List[int]:
        lat: List[int] = []
        for s, d, k, t in batch:
            t0 = clock()
            value = profiles.profile(s, d, k).delivery_time(t)
            lat.append(clock() - t0)
            answers.append(value)
        return lat

    gc.collect()
    for start in range(0, len(queries), LOOKUP_WINDOW):
        batch = queries[start : start + LOOKUP_WINDOW]
        before = H.calibration_s(WINDOW_CAL_LOOPS)
        began = time.perf_counter()
        windows.append(window(batch))
        walls.append(time.perf_counter() - began)
        after = H.calibration_s(WINDOW_CAL_LOOPS)
        factors.append(H.speed_factor((before + after) / 2, WINDOW_CAL_LOOPS))
    return answers, windows, walls, factors


def profile_lookup_us(profiles: Any, queries: List[Tuple[Any, Any, Any, float]]) -> float:
    """Median time of ``PathProfileSet.profile`` alone, in microseconds."""
    clock = time.perf_counter_ns
    lat = []
    for s, d, k, _ in queries[: LOOKUP_WINDOW * 4]:
        t0 = clock()
        profiles.profile(s, d, k)
        lat.append(clock() - t0)
    return statistics.median(lat) / 1000.0


def load_pinned(workload: str) -> Dict[str, int]:
    with open(H.PINNED, encoding="utf-8") as stream:
        return json.load(stream)[workload]


class Fig9Run(H.Tally):
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        super().__init__(
            ("setup_s", "generate_s", "analyze_cold_s", "analyze_cached_s", "warm_p50_ms", "warm_tail_ms", "warm_rps")
        )
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.trace = trace
        per_rep = self.spec["rep_s"] * (2.6 if trace else 1.0)
        self.timed_reps = max(2 if trace else 3, min(MAX_TIMED, round(seconds / per_rep)))
        self.pinned = load_pinned(workload)
        self.work = H.WORK / f"{workload}-{os.getpid()}"
        self.tail_pct = H.tail_percentile(LOOKUP_WINDOW)
        self.layer_rows: List[Dict[str, Dict[str, float]]] = []
        self.layer_extra: List[Dict[str, float]] = []
        self.overhead: List[float] = []

    def repetition(self, rep: int, timed: bool) -> None:
        from repro.core.storage import profiles_digest

        if not self.trace:
            # One fresh-process start-up per repetition, so the samples
            # spread over the run like the other metrics' samples.
            setup = H.bracketed(lambda: H.setup_probe([str(READY), str(self.spec["workers"])], H.program_env()))
        labels = 1000 * self.seed + rep
        path = self.work / f"trace-{rep}.txt"
        cache_dir = self.work / f"cache-{rep}"
        # Synthesis of a dense trace takes ~0.2 s, short enough for the
        # host's sub-second jitter to show: it is timed gen_runs times.
        gens = [H.bracketed(lambda: generate(self.spec, rep, labels, path)) for _ in range(self.spec["gen_runs"])]
        gen_s = statistics.median(factor * wall for factor, wall, _ in gens)
        gen_raw = statistics.median(wall for _, wall, _ in gens)
        cold = H.bracketed(lambda: analyze(path, cache_dir, self.spec["workers"]))
        cached = H.bracketed(lambda: analyze(path, cache_dir, self.spec["workers"]))
        (cold_profiles, cold_value, sources), (cached_profiles, cached_value, _) = cold[2], cached[2]
        pinned = self.pinned.get(str(rep))
        self.check(cold_value == pinned, f"rep {rep}: cold diameter {cold_value} != pinned {pinned}")
        self.check(cached_value == pinned, f"rep {rep}: cached diameter {cached_value} != pinned {pinned}")
        self.check(
            profiles_digest(cold_profiles) == profiles_digest(cached_profiles),
            f"rep {rep}: cold/cached profiles_digest differ",
        )
        queries = lookup_queries(cached_profiles, sources, self.seed, rep)
        answers, windows, walls, factors = run_lookups(cached_profiles, queries)
        expected = run_lookups(cold_profiles, queries)[0]
        bad = sum(1 for a, b in zip(answers, expected) if a != b)
        self.count(len(answers), bad, f"rep {rep}: {bad} lookups differ between cold and cached profiles")
        if timed and not self.trace:
            self.keep("setup_s", setup[0], setup[2])
            self.keep_pair("generate_s", gen_s, gen_raw)
            self.keep("analyze_cold_s", cold[0], cold[1])
            self.keep("analyze_cached_s", cached[0], cached[1])
            for lat, wall, factor in zip(windows, walls, factors):
                self.keep("warm_p50_ms", factor, H.percentile(lat, 50.0) / 1e6)
                self.keep("warm_tail_ms", factor, H.percentile(lat, self.tail_pct) / 1e6)
                self.keep("warm_rps", factor, len(lat) / wall)
        if timed and self.trace:
            self.traced_repetition(rep, labels, cold[1] * cold[0])
        del cold, cached, cold_profiles, cached_profiles
        shutil.rmtree(cache_dir, ignore_errors=True)

    def traced_repetition(self, rep: int, labels: int, untraced_cold_s: float) -> None:
        """The same repetition under the ledger, plus the layer probes."""
        from repro.obs import set_obs

        path = self.work / f"traced-{rep}.txt"
        cache_dir = self.work / f"traced-cache-{rep}"
        ledger = H.Ledger()
        bundle, previous = H.enabled_obs()
        ledger.install()
        try:
            # Same structure, other device names: a new trace digest, so
            # no compiled network or pool broadcast is reused.
            generate(self.spec, rep, labels + 500, path)
            factor, traced_cold_s, (cold, _, sources) = H.bracketed(
                lambda: analyze(path, cache_dir, self.spec["workers"])
            )
            _, _, (cached, _, _) = H.bracketed(lambda: analyze(path, cache_dir, self.spec["workers"]))
            row = H.scaled_rows(ledger.totals, factor)
            extra = {
                "core.csr.packed_bytes": float(_packed_bytes(cold.network)),
                "core.engine_vec.frontier_points": float(H.counter(bundle, "optimal.frontier_points")),
                "core.storage.functions": float(_function_count(cold)),
                "core.storage.file_bytes": float(sum(p.stat().st_size for p in cache_dir.glob("profiles-*.npz"))),
                "core.segments.segments": float(H.counter(bundle, "engine.segments_collected")),
                "core.optimal.profile_lookup_us": profile_lookup_us(
                    cached, lookup_queries(cached, sources, self.seed, rep)
                ),
            }
            extra.update(H.engine_probe(ledger, cold.network, sources, self.spec["workers"]))
            extra["engine.pool.broadcast_bytes"] = float(H.counter(bundle, "engine.pool.broadcast_bytes"))
            extra["engine.pool.task_bytes"] = float(H.counter(bundle, "engine.pool.task_bytes"))
            ledger.uninstall()
            extra.update(H.service_probes(path, cold.network, self.work / f"svc-{rep}", bundle))
            extra["service.pool.retry_ratio"] = 0.0
            extra["service.app.coalesce_ratio"] = 0.0
        finally:
            ledger.uninstall()
            set_obs(previous)
        self.layer_rows.append(row)
        self.layer_extra.append(extra)
        self.overhead.append(traced_cold_s * factor - untraced_cold_s)
        shutil.rmtree(cache_dir, ignore_errors=True)

    # -- the run -----------------------------------------------------
    def run(self) -> Dict[str, Any]:
        from repro.core.engine_pool import close_pools

        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        try:
            for rep in range(self.timed_reps + 1):
                self.repetition(rep, timed=rep > 0)
            peak = H.tree_peak_rss_mb(os.getpid())
        finally:
            close_pools()
            shutil.rmtree(self.work, ignore_errors=True)
        return self.result(peak)

    def result(self, peak_rss_mb: float) -> Dict[str, Any]:
        out = self.outcome()
        out["tail"] = {"metric": "warm_tail_ms", "percentile": self.tail_pct, "samples_per_window": LOOKUP_WINDOW}
        if not self.trace:
            out["series"]["peak_rss_mb"] = H.summarize([peak_rss_mb])
            return out
        out["ledger"] = H.median_rows(self.layer_rows)
        out["layer_extra"] = {
            k: statistics.median(row[k] for row in self.layer_extra) for k in self.layer_extra[0]
        }
        out["trace_overhead_s"] = statistics.median(self.overhead)
        return out


def _packed_bytes(net: Any) -> int:
    from repro.core.csr import csr_for

    return int(csr_for(net).packed_nbytes())


def _function_count(profiles: Any) -> int:
    total = 0
    for source in profiles.sources:
        sp = profiles.source_profiles(source)
        total += len(sp.destinations())
        total += sum(len(snap) for snap in sp._snapshots.values())
    return total
