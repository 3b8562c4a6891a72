"""The service-mix workload: ``python -m repro.service serve`` under a
closed-loop client with two connections.

Each repetition writes three traces (one under 512 contacts, the
engine's scalar/vec ``auto`` crossover) and then

* starts a server (``workers=2``, fsynced journal) on empty state:
  ``setup_s`` is the time until ``/healthz`` answers healthy;
* ``analyze_cold_s``: drains a fixed batch of distinct queries, some
  with ``shards: 2`` and some sent as concurrent identical pairs so
  they coalesce;
* ``warm_*``: windows of repeat queries, all answered by the result
  store;
* twice restarts the server over the same profile cache with the
  result store dropped: ``analyze_cached_s`` drains the batch again,
  every query now answered by a worker from cached profiles.

Every 200 body must be byte-identical to ``repro.cli.main`` stdout for
the same argv, computed in-process; a 5xx, a wrong body, or a 429 still
refused after its ``Retry-After`` counts as failed.
"""

from __future__ import annotations

import contextlib
import http.client
import importlib
import io
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import harness as H

#: (data set, scale, contacts kept, queries beyond the coalesced pair).
#: Infocom05 and Hong-Kong stay under 512 contacts (the scalar side of
#: the engine's ``auto`` crossover); Reality Mining is above it.
TRACES = (
    ("infocom05", 0.03, 300, ()),
    ("hongkong", 0.06, 150, ()),
    ("reality", 0.004, 520, ("cdf-sharded", "diameter", "diameter-eps")),
)
WORKERS = 2
CONNECTIONS = 2
WARM_WINDOW = 200
WARM_WINDOWS = 5
#: seconds one timed repetition takes on the reference machine.
REP_S = 18.0
#: timings of trace generation per repetition (one takes only ~0.35 s).
GEN_RUNS = 5
#: cached drains per repetition, each on a restarted server: a drain's
#: time varies by ~15% between restarts, so one per repetition is too few.
CACHED_DRAINS = 2
MAX_TIMED = 4

Query = Tuple[str, Dict[str, Any]]


def params() -> Dict[str, Any]:
    return {
        "traces": [list(t[:3]) + [list(t[3])] for t in TRACES],
        "workers": WORKERS,
        "connections": CONNECTIONS,
        "warm_window": WARM_WINDOW,
        "warm_windows_per_rep": WARM_WINDOWS,
        "journal_fsync": True,
    }


QUERIES: Dict[str, Tuple[str, Dict[str, Any]]] = {
    "cdf-sharded": ("delay-cdf", {"max_hops": 5, "grid_points": 12, "shards": 2}),
    "diameter": ("diameter", {"max_hops": 8}),
    # after "diameter" on the same trace, a profile-cache hit in the cold batch
    "diameter-eps": ("diameter", {"max_hops": 8, "eps": 0.05}),
}


def batch(paths: List[Path]) -> Tuple[List[Query], List[Query]]:
    """(coalesce pairs, rest): the cold batch's queries per trace."""
    pairs: List[Query] = []
    rest: List[Query] = []
    for path, (_, _, _, extra) in zip(paths, TRACES):
        pairs.append(("delay-cdf", {"trace": str(path), "max_hops": 3, "grid_points": 12}))
        for name in extra:
            command, body = QUERIES[name]
            rest.append((command, dict(body, trace=str(path))))
    return pairs, rest


def cli_argv(query: Query) -> List[str]:
    command, body = query
    argv = [command, body["trace"], "--max-hops", str(body["max_hops"]), "--grid-points"]
    argv.append(str(body.get("grid_points", 40 if command == "diameter" else 12)))
    if "eps" in body:
        argv += ["--eps", str(body["eps"])]
    return argv


def cli_stdout(argv: List[str]) -> bytes:
    from repro.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"reference run {argv!r} exited {code}")
    return buffer.getvalue().encode("utf-8")


def expected_bodies(queries: List[Query]) -> Dict[str, bytes]:
    """Each query's expected body: in-process CLI stdout, no cache."""
    return {ident(query): cli_stdout(cli_argv(query)) for query in queries}


def ident(query: Query) -> str:
    """Key of a query's expected body: the trace's file name, not its
    directory, so one reference serves every repetition's copy."""
    command, body = query
    doc = dict(body, trace=Path(body["trace"]).name)
    doc.pop("shards", None)
    return command + json.dumps(doc, sort_keys=True)


class Server:
    """One ``repro.service serve`` process on an ephemeral port."""

    def __init__(self, cache_dir: Path, journal_dir: Path) -> None:
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service", "--log-level", "error", "serve",
                "--cache-dir", str(cache_dir), "--journal-dir", str(journal_dir),
                "--port", "0", "--workers", str(WORKERS),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=H.program_env(),
            text=True,
            cwd=H.ROOT,
        )
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        host, port = line.strip().rsplit("//", 1)[1].rsplit(":", 1)
        self.host, self.port = host, int(port)
        while True:
            try:
                status, body, _ = self.request("GET", "/healthz")
            except OSError:
                status, body = 0, b""
            if status == 200 and b'"healthy"' in body:
                break
            if time.perf_counter() - self.start > 60:
                self.stop()
                raise RuntimeError("server never became healthy")
            time.sleep(0.005)
        self.setup_s = time.perf_counter() - self.start

    def request(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes, Dict[str, str]]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            conn.request(method, path, body=body)
            response = conn.getresponse()
            return response.status, response.read(), dict(response.getheaders())
        finally:
            conn.close()

    def metrics(self) -> Dict[str, float]:
        _, body, _ = self.request("GET", "/metrics")
        values: Dict[str, float] = {}
        for line in body.decode("utf-8").splitlines():
            name, _, value = line.rpartition(" ")
            name = name.split("{", 1)[0]
            try:
                values[name] = values.get(name, 0.0) + float(value)
            except ValueError:
                continue
        return values

    def peak_rss_mb(self) -> float:
        return H.tree_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class ServiceMixRun(H.Tally):
    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        super().__init__(
            ("setup_s", "generate_s", "analyze_cold_s", "analyze_cached_s",
             "warm_p50_ms", "warm_tail_ms", "warm_rps", "peak_rss_mb")
        )
        self.seed = seed
        self.trace = trace
        self.timed_reps = 1 if trace else max(3, min(MAX_TIMED, round(seconds / REP_S)))
        self.work = H.WORK / f"service-mix-{os.getpid()}"
        self.expected: Dict[str, bytes] = {}
        self.tail_pct = H.tail_percentile(WARM_WINDOW)
        self.server_metrics: Dict[str, float] = {}
        self._lock = threading.Lock()

    # -- client ---------------------------------------------------
    def send(self, server: Server, query: Query) -> float:
        """POST one query and check the answer; returns its latency."""
        command, body = query
        payload = json.dumps(body).encode("utf-8")
        start = time.perf_counter()
        status, data, headers = server.request("POST", f"/v1/{command}", payload)
        if status == 429:
            time.sleep(float(headers.get("Retry-After", "1")))
            status, data, headers = server.request("POST", f"/v1/{command}", payload)
        latency = time.perf_counter() - start
        ok = status == 200 and data == self.expected[ident(query)]
        with self._lock:
            self.check(ok, f"{command} {body} -> {status} {data[:120]!r}")
        return latency

    def drain(self, server: Server, pairs: List[Query], rest: List[Query]) -> float:
        """Closed loop over the batch with CONNECTIONS connections: each
        coalesce pair is sent on both at once, then the rest as they free."""
        start = time.perf_counter()
        for query in pairs:
            self.concurrently(server, [[query]] * CONNECTIONS)
        self.concurrently(server, [rest[i::CONNECTIONS] for i in range(CONNECTIONS)])
        return time.perf_counter() - start

    def concurrently(self, server: Server, lanes: List[List[Query]]) -> List[List[float]]:
        results: List[List[float]] = [[] for _ in lanes]
        errors: List[BaseException] = []

        def lane(i: int) -> None:
            try:
                for query in lanes[i]:
                    results[i].append(self.send(server, query))
            except BaseException as exc:  # re-raised in the caller
                errors.append(exc)

        threads = [threading.Thread(target=lane, args=(i,)) for i in range(len(lanes))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return results

    def warm(self, server: Server, queries: List[Query], rng: random.Random) -> None:
        for _ in range(WARM_WINDOWS):
            window = [rng.choice(queries) for _ in range(WARM_WINDOW)]
            factor, wall, lanes = H.bracketed(
                lambda: self.concurrently(server, [window[i::CONNECTIONS] for i in range(CONNECTIONS)]),
                sample=False,
            )
            lat = [x for lane in lanes for x in lane]
            self.keep("warm_p50_ms", factor, H.percentile(lat, 50.0) * 1e3)
            self.keep("warm_tail_ms", factor, H.percentile(lat, self.tail_pct) * 1e3)
            self.keep("warm_rps", factor, len(lat) / wall)

    # -- traces and references ------------------------------------
    def generate(self, directory: Path, rename: int = 0) -> List[Path]:
        """The three traces, devices renamed by the run seed (+ ``rename``)."""
        from repro.traces import format as fmt

        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for index, (dataset, scale, keep, _) in enumerate(TRACES):
            net = H.synth(dataset, index + 1, scale, keep, 10 * self.seed + index + rename)
            path = directory / f"{dataset}.txt"
            fmt.write_contacts(net, path, header=f"perfbench service-mix {dataset}")
            paths.append(path)
        return paths

    # -- one repetition -------------------------------------------
    def repetition(self, rep: int, timed: bool) -> None:
        directory = self.work / f"rep-{rep}"
        gens = [H.bracketed(lambda: self.generate(directory / "traces")) for _ in range(GEN_RUNS)]
        paths = gens[0][2]
        pairs, rest = batch(paths)
        if not self.expected:
            self.expected = expected_bodies(pairs + rest)
        cache_dir = directory / "cache"
        setups = []
        setups.append(H.bracketed(lambda: Server(cache_dir, directory / "journal-a")))
        server = setups[-1][2]
        try:
            cold = H.bracketed(lambda: self.drain(server, pairs, rest))
            if not timed:
                # The warm-up repetition stops after the cold batch: every
                # later phase starts fresh worker processes anyway.
                return
            self.warm(server, pairs + rest, random.Random(f"{self.seed}/{rep}"))
            peak = server.peak_rss_mb()
            self.server_metrics = server.metrics()
        finally:
            server.stop()
            if not timed:
                shutil.rmtree(directory, ignore_errors=True)
        cached = []
        for restart in range(CACHED_DRAINS):
            shutil.rmtree(cache_dir / "results", ignore_errors=True)
            setups.append(H.bracketed(lambda: Server(cache_dir, directory / f"journal-{restart}")))
            server = setups[-1][2]
            try:
                cached.append(H.bracketed(lambda: self.drain(server, pairs, rest)))
            finally:
                server.stop()
        for factor, _, started in setups:
            self.keep("setup_s", factor, started.setup_s)
        self.keep_pair(
            "generate_s",
            statistics.median(factor * wall for factor, wall, _ in gens),
            statistics.median(wall for _, wall, _ in gens),
        )
        self.keep("analyze_cold_s", cold[0], cold[1])
        for factor, wall, _ in cached:
            self.keep("analyze_cached_s", factor, wall)
        self.samples["peak_rss_mb"].append(peak)
        shutil.rmtree(directory, ignore_errors=True)

    def replay(self, queries: List[Query], refcache: Path) -> Tuple[float, float, Dict[str, bytes]]:
        """Rerun the batch in-process through the CLI with a profile
        cache; returns (speed factor, wall, stdout by query)."""

        def compute() -> Dict[str, bytes]:
            return {
                ident(query): cli_stdout(cli_argv(query) + ["--cache-dir", str(refcache)])
                for query in queries
            }

        return H.bracketed(compute)

    def compare(self, outputs: Dict[str, bytes], expected: Dict[str, bytes]) -> None:
        for key, body in outputs.items():
            self.check(body == expected[key], f"in-process {key} differs from the reference")

    def traced(self) -> Dict[str, Any]:
        """Per-layer numbers from the in-process side: the batch rerun
        through the CLI under the ledger, plus the service and pool probes."""
        import fig9
        from repro.core.engine_pool import close_pools
        from repro.obs import set_obs
        from repro.traces import format as fmt

        directory = self.work / "traced"
        paths = self.generate(directory / "plain")
        factor, wall, outputs = self.replay(sum(batch(paths), []), directory / "refcache-plain")
        self.compare(outputs, self.expected)
        untraced_s = factor * wall
        ledger = H.Ledger()
        bundle, previous = H.enabled_obs()
        ledger.install()
        try:
            # The same structures under other device names: new digests,
            # so nothing compiled or cached in the untraced pass is reused.
            paths = self.generate(directory / "traced", rename=5)
            queries = sum(batch(paths), [])
            refcache = directory / "refcache"
            factor, wall, traced_outputs = self.replay(queries, refcache)
            traced_s = factor * wall
            row = H.scaled_rows(ledger.totals, factor)
            net = fmt.read_contacts(paths[-1])
            profiles = importlib.import_module("repro.core.cache").load_or_compute(
                net, refcache, hop_bounds=range(1, 4)
            )
            lookups = fig9.lookup_queries(profiles, list(net.nodes), self.seed, 0, (1, 2, 3, None))
            extra = {
                "core.csr.packed_bytes": float(fig9._packed_bytes(net)),
                "core.engine_vec.frontier_points": float(H.counter(bundle, "optimal.frontier_points")),
                "core.storage.functions": float(fig9._function_count(profiles)),
                "core.storage.file_bytes": float(sum(p.stat().st_size for p in refcache.glob("profiles-*.npz"))),
                "core.segments.segments": float(H.counter(bundle, "engine.segments_collected")),
                "core.optimal.profile_lookup_us": fig9.profile_lookup_us(profiles, lookups),
            }
            extra.update(H.engine_probe(ledger, net, list(net.nodes), workers=1))
            extra["engine.pool.broadcast_bytes"] = float(H.counter(bundle, "engine.pool.broadcast_bytes"))
            extra["engine.pool.task_bytes"] = float(H.counter(bundle, "engine.pool.task_bytes"))
            ledger.uninstall()
            extra.update(H.service_probes(paths[-1], net, directory / "svc", bundle))
        finally:
            ledger.uninstall()
            set_obs(previous)
            close_pools()
        self.compare(traced_outputs, expected_bodies(queries))
        m = self.server_metrics
        hits = m.get("service_store_hit", 0.0)
        misses = m.get("service_store_miss", 0.0)
        pairs, rest = batch(paths)
        extra["service.store.hit_ratio"] = hits / max(1.0, hits + misses)
        extra["service.pool.retry_ratio"] = m.get("service_pool_retries", 0.0) / max(1.0, m.get("service_jobs_computed", 0.0))
        extra["service.app.coalesce_ratio"] = m.get("service_jobs_coalesced", 0.0) / (CONNECTIONS * len(pairs) + len(rest))
        return {"ledger": H.median_rows([row]), "layer_extra": extra, "trace_overhead_s": traced_s - untraced_s}

    # -- the run -----------------------------------------------------
    def run(self) -> Dict[str, Any]:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        try:
            for rep in range(self.timed_reps + 1):
                self.repetition(rep, timed=rep > 0)
            traced = self.traced() if self.trace else {}
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        out = self.outcome()
        out.update(traced)
        out["tail"] = {
            "metric": "warm_tail_ms",
            "percentile": self.tail_pct,
            "samples_per_window": WARM_WINDOW,
            "windows": len(self.samples["warm_tail_ms"]),
        }
        return out

