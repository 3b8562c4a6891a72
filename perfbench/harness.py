"""Shared pieces of the perfbench workloads.

* statistics: medians, quartiles and the tail percentile rule (the
  highest percentile with at least ten samples beyond it);
* trace synthesis: a seeded data set cut to a fixed contact count, so
  every seed asks the program for about the same amount of work;
* process memory: peak RSS of a process and its descendants, read from
  ``/proc``;
* process hygiene: adopt orphaned descendants and wait for every one of
  them before exit (:func:`adopt_orphans`, :func:`reap_all`);
* :class:`Ledger`: the traced run's per-layer timer.  It wraps the
  public entry points of each module from the outside (the program is
  not edited) and records wall, CPU and self time plus call counts.
"""

from __future__ import annotations

import ctypes
import gc
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PINNED = Path(__file__).resolve().parent / "pinned.json"

def checkout_ok() -> bool:
    """True when the program's sources sit next to the benchmark."""
    return (SRC / "repro" / "__init__.py").is_file()


# -- statistics -------------------------------------------------------


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles (``statistics.quantiles(n=4)``) of samples."""
    values = [float(v) for v in samples]
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def tail_percentile(count: int) -> float:
    """The highest of the usual percentiles with >= 10 samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if count * (100.0 - pct) / 100.0 >= 10.0:
            return pct
    return 50.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (no interpolation between samples)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


# -- host-speed calibration ---------------------------------------------
#
# Small shared VMs drift in speed: on a 2-core one, 30-second medians of
# a fixed interpreter loop spread by 18% (IQR / median) between the
# windows of one five-minute run, more than any bound a regression check
# can afford.  The drift is a switch between a fast and a slow mode (up
# to 2x apart) that holds for a few to a few hundred milliseconds, so
# calibrating only before and after a one-second step misses most of it.
# Every reported time is therefore the step's time at a reference speed:
# a calibration loop runs right before and right after the step and, by
# a SIGALRM sampler, every 20 ms during it; each stretch between two
# samples is scaled by the speed its end points measured, and the
# samplers' own time is left out.  The raw wall times stay in the run
# record.

#: iterations of the calibration loop ...
CAL_LOOPS = 150_000
#: ... and how long they take at the reference speed.
CAL_NOMINAL_S = 0.010
#: the in-step sampler: a ~0.5 ms loop every 20 ms (2.5% of the step).
SAMPLE_PERIOD_S = 0.02
SAMPLE_LOOPS = CAL_LOOPS // 20


def calibration_s(loops: int = CAL_LOOPS) -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i * i
    return time.perf_counter() - start


def speed_factor(seconds: float, loops: int) -> float:
    """Reference over measured speed, from one ``loops``-iteration
    calibration that took ``seconds``."""
    return CAL_NOMINAL_S * loops / CAL_LOOPS / seconds


def bracketed(func: Callable[[], Any], sample: bool = True) -> Tuple[float, float, Any]:
    """Run ``func`` between two calibration loops and, with ``sample``,
    sample the host's speed throughout.

    Returns (speed factor, wall seconds, result); multiply a time taken
    during ``func`` by the factor to express it at the reference speed.
    The wall time excludes the samples.  Steps that time single events
    (request or lookup latencies) pass ``sample=False``, since a sample
    holds the interpreter for half a millisecond.
    """
    nominal = CAL_NOMINAL_S / CAL_LOOPS  # seconds per loop iteration
    # (time, seconds the sample took, seconds per iteration it measured)
    marks: List[Tuple[float, float, float]] = []

    def sampler(signum: int, frame: Any) -> None:
        began = time.perf_counter()
        took = calibration_s(SAMPLE_LOOPS)
        marks.append((began, time.perf_counter() - began, took / SAMPLE_LOOPS))

    gc.collect()
    before = calibration_s() / CAL_LOOPS
    previous = signal.signal(signal.SIGALRM, sampler) if sample else None
    start = time.perf_counter()
    try:
        if sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        result = func()
    finally:
        if sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        if sample:
            signal.signal(signal.SIGALRM, previous)
    after = calibration_s() / CAL_LOOPS
    points = [(start, 0.0, before), *marks, (end, 0.0, after)]
    wall = scaled = 0.0
    for (t0, cost, speed0), (t1, _, speed1) in zip(points, points[1:]):
        span = max(0.0, t1 - t0 - cost)
        wall += span
        scaled += span * 2 * nominal / (speed0 + speed1)
    factor = scaled / wall if wall > 0 else 2 * nominal / (before + after)
    return factor, wall, result


# -- traces -----------------------------------------------------------


def synth(dataset: str, structure: int, scale: float, keep: int, labels: int) -> Any:
    """A seeded trace: ``datasets.build`` with seed ``structure``, cut to
    its first ``keep`` contacts, devices renamed by seed ``labels``.

    The synthetic generators hit their contact volume only in
    expectation (bursty days, heavy-tailed node activity), so traces of
    different seeds differ in cost by tens of percent.  A workload
    therefore fixes the structures it analyses and lets the run seed
    rename the devices: every seed gives a different trace (other bytes,
    digests, node order), the same amount of work and the same diameter.
    Integer ids are permuted among themselves, as are string ids, so
    internal devices stay internal.
    """
    from repro.core.contact import Contact
    from repro.traces import datasets

    net = datasets.build(dataset, seed=structure, scale=scale)
    rng = random.Random(labels)
    mapping: Dict[Any, Any] = {}
    for kind in (int, str):
        ids = sorted(n for n in net.nodes if isinstance(n, kind))
        shuffled = list(ids)
        rng.shuffle(shuffled)
        mapping.update(zip(ids, shuffled))
    contacts = [Contact(c.t_beg, c.t_end, mapping[c.u], mapping[c.v]) for c in net.contacts[:keep]]
    return type(net)(contacts, directed=net.directed)


def internal_nodes(net: Any) -> List[Any]:
    """The trace's own devices (external ``ext*`` sightings excluded)."""
    return [n for n in net.nodes if not (isinstance(n, str) and n.startswith("ext"))]


class Tally:
    """A run's samples and correctness count.

    ``keep`` stores a time taken during a :func:`bracketed` step both at
    the reference speed (the reported value) and raw (the record);
    ``check`` and ``count`` tally attempted and failed operations.
    """

    def __init__(self, names: Sequence[str]) -> None:
        self.samples: Dict[str, List[float]] = {name: [] for name in names}
        self.raw: Dict[str, List[float]] = {name: [] for name in names}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def keep(self, name: str, factor: float, value: float) -> None:
        self.keep_pair(name, value / factor if name.endswith("_rps") else value * factor, value)

    def keep_pair(self, name: str, scaled: float, raw: float) -> None:
        self.samples[name].append(scaled)
        self.raw[name].append(raw)

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(what)

    def check(self, ok: bool, what: str) -> None:
        self.count(1, 0 if ok else 1, what)

    def outcome(self) -> Dict[str, Any]:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures[:20],
            "series": {k: summarize(v) for k, v in self.samples.items() if v},
            "raw_wall": {k: summarize(v) for k, v in self.raw.items() if v},
        }


# -- memory -----------------------------------------------------------


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as stream:
            for line in stream:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def descendants(pid: int) -> List[int]:
    """Live descendants of ``pid`` (children, grandchildren, ...)."""
    parents: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as stream:
                stat = stream.read()
        except OSError:
            continue
        ppid = int(stat.rpartition(")")[2].split()[1])
        parents.setdefault(ppid, []).append(int(entry))
    found: List[int] = []
    frontier = [pid]
    while frontier:
        nxt = parents.get(frontier.pop(), [])
        found.extend(nxt)
        frontier.extend(nxt)
    return found


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of peak RSS (VmHWM) over ``pid`` and its live descendants."""
    total = sum(_status_kb(p, "VmHWM") for p in [pid] + descendants(pid))
    return total / 1024.0


# -- process hygiene --------------------------------------------------

#: ``prctl`` option that makes orphaned descendants re-parent to the caller.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the reaper of this process's orphaned descendants.

    A process whose parent exits first (a worker of a stopped server,
    the resource tracker of a finished child) is then re-parented to
    this process instead of to init, so :func:`reap_all` can wait for it.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # pragma: no cover - not Linux
        pass


def reap_all(timeout: float = 30.0) -> None:
    """Stop every process this one started, adopted orphans included,
    and wait until each has ended.

    ``multiprocessing`` starts a resource tracker the first time shared
    memory is used; it only exits once this process closes its pipe, so
    it is stopped here first.  Children still running after ``timeout``
    seconds are killed.
    """
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()  # type: ignore[attr-defined]
    except (AttributeError, OSError, ChildProcessError):
        pass
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in descendants(os.getpid()):
                try:
                    os.kill(child, signal.SIGKILL)
                except OSError:
                    pass
        time.sleep(0.02)


# -- run record -------------------------------------------------------


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def run_record(workload: str, seed: int, trace: bool, params: Dict[str, Any]) -> Dict[str, Any]:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "params": params,
    }


def setup_probe(args: Sequence[str], env: Dict[str, str], timeout: float = 60.0) -> float:
    """Wall seconds until a fresh child process prints its ready line.

    The child is ``python3 <args>``; it must print ``ready`` once its
    imports (and any pool it starts) are done, then exit.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
        cwd=ROOT,
    )
    try:
        assert proc.stdout is not None
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready":
        raise RuntimeError(f"setup probe {args!r} did not become ready")
    return elapsed


def program_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- per-layer ledger -------------------------------------------------

#: (module, attribute, layer).  A function imported by name into several
#: modules is patched at every site the pipeline calls it through.
LAYER_SITES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.traces.datasets", "build", "traces.datasets.build"),
    ("repro.traces.format", "read_contacts", "traces.format.read_contacts"),
    ("repro.cli", "read_contacts", "traces.format.read_contacts"),
    ("repro.traces.format", "write_contacts", "traces.format.write_contacts"),
    ("repro.core.csr", "build_csr", "core.csr.build_csr"),
    ("repro.core.engine_vec", "run_sources_raw", "core.engine_vec.run_sources_raw"),
    ("repro.core.engine_vec", "profiles_from_raw", "core.engine_vec.profiles_from_raw"),
    ("repro.core.engine_pool.SharedCSRPool", "run", "core.engine_pool.run"),
    ("repro.core.cache", "compute_profiles", "core.optimal.compute_profiles"),
    ("repro.cli", "compute_profiles", "core.optimal.compute_profiles"),
    ("repro.core.cache", "save_profiles", "core.storage.save_profiles"),
    ("repro.core.cache", "load_profiles", "core.storage.load_profiles"),
    ("repro.core.cache", "load_or_compute", "core.cache.load_or_compute"),
    ("repro.cli", "load_or_compute", "core.cache.load_or_compute"),
    ("repro.core.diameter", "build_segment_table", "core.segments.build_segment_table"),
    ("repro.core.delay_cdf", "build_segment_table", "core.segments.build_segment_table"),
    ("repro.core.diameter", "cdf_from_table", "core.delay_cdf.cdf_from_table"),
    ("repro.core.delay_cdf", "cdf_from_table", "core.delay_cdf.cdf_from_table"),
    ("repro.core.diameter", "success_curves", "core.diameter.success_curves"),
    ("repro.core.diameter", "diameter", "core.diameter.diameter"),
    ("repro.cli", "diameter", "core.diameter.diameter"),
    ("repro.cli", "delay_cdf", "core.delay_cdf.delay_cdf"),
)


def _resolve(path: str) -> Any:
    import importlib

    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ImportError(path)


class Ledger:
    """Per-layer wall / CPU / self time and call counts.

    :meth:`install` swaps each :data:`LAYER_SITES` attribute for a timing
    wrapper; :meth:`uninstall` restores the originals.  Nested layers
    charge their wall time to the enclosing layer's children, so
    ``self = wall - children``.  A layer re-entered below itself (the
    vec engine splits large batches recursively) is timed once, at the
    outermost call.  Meant for the thread that runs the pipeline.
    """

    def __init__(self) -> None:
        self.totals: Dict[str, Dict[str, float]] = {}
        self._stack: List[List[Any]] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    def reset(self) -> None:
        self.totals = {}

    def _wrap(self, func: Callable[..., Any], layer: str) -> Callable[..., Any]:
        ledger = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if any(frame[0] == layer for frame in ledger._stack):
                return func(*args, **kwargs)
            frame = [layer, 0.0]
            ledger._stack.append(frame)
            wall0 = time.perf_counter()
            cpu0 = time.process_time()
            try:
                return func(*args, **kwargs)
            finally:
                wall = time.perf_counter() - wall0
                cpu = time.process_time() - cpu0
                ledger._stack.pop()
                if ledger._stack:
                    ledger._stack[-1][1] += wall
                row = ledger.totals.setdefault(
                    layer, {"wall_s": 0.0, "cpu_s": 0.0, "self_s": 0.0, "calls": 0}
                )
                row["wall_s"] += wall
                row["cpu_s"] += cpu
                row["self_s"] += wall - frame[1]
                row["calls"] += 1

        wrapper.__wrapped__ = func  # type: ignore[attr-defined]
        return wrapper

    def install(self) -> None:
        wrappers: Dict[Tuple[int, str], Callable[..., Any]] = {}
        for owner_path, attr, layer in LAYER_SITES:
            owner = _resolve(owner_path)
            original = getattr(owner, attr)
            key = (id(original), layer)
            if key not in wrappers:
                wrappers[key] = self._wrap(original, layer)
            setattr(owner, attr, wrappers[key])
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def wall(self, layer: str) -> float:
        return self.totals.get(layer, {}).get("wall_s", 0.0)


def scaled_rows(rows: Dict[str, Dict[str, float]], factor: float) -> Dict[str, Dict[str, float]]:
    """Ledger rows with their times scaled to the reference speed."""
    return {
        layer: {f: (v if f == "calls" else v * factor) for f, v in row.items()}
        for layer, row in rows.items()
    }


def median_rows(rows: Iterable[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    """Per layer and field, the median over repetitions (0 when absent)."""
    rows = list(rows)
    layers = sorted({layer for row in rows for layer in row})
    out: Dict[str, Dict[str, float]] = {}
    for layer in layers:
        fields = ("wall_s", "cpu_s", "self_s", "calls")
        out[layer] = {
            f: statistics.median(row.get(layer, {}).get(f, 0.0) for row in rows)
            for f in fields
        }
    return out


def enabled_obs() -> Tuple[Any, Any]:
    """Switch the program's own counters on; returns (bundle, previous)."""
    from repro.obs import Instrumentation, MetricsRegistry, SpanTracer, set_obs

    bundle = Instrumentation(
        metrics=MetricsRegistry(), tracer=SpanTracer(), manifest=None, enabled=True
    )
    return bundle, set_obs(bundle)


def counter(bundle: Any, name: str) -> int:
    return int(bundle.metrics.counter(name).snapshot())


def _median_us(func: Callable[[], Any], count: int) -> Tuple[float, Any]:
    lat = []
    result = None
    for _ in range(count):
        start = time.perf_counter_ns()
        result = func()
        lat.append(time.perf_counter_ns() - start)
    return statistics.median(lat) / 1000.0, result


def engine_probe(ledger: Ledger, net: Any, sources: Sequence[Any], workers: int) -> Dict[str, float]:
    """Time the engine path the workload's own pipeline does not take:
    the first eight sources in-process when it runs the pool
    (``workers > 1``), else through the two-worker pool."""
    from repro.core.optimal import compute_profiles

    ledger.reset()
    compute_profiles(net, hop_bounds=(1, 2, 3), sources=list(sources)[:8], workers=1 if workers > 1 else 2)
    if workers > 1:
        return {"core.engine_vec.run_sources_raw_s": ledger.wall("core.engine_vec.run_sources_raw")}
    return {"core.engine_pool.run_s": ledger.wall("core.engine_pool.run")}


def service_probes(trace: Path, net: Any, workdir: Path, bundle: Any) -> Dict[str, float]:
    """Time the service layers' public entry points in-process on one
    delay-CDF query over ``trace``: request normalisation, the job key,
    one cold task, result-store reads and fsynced journal appends."""
    from repro.service.jobs import job_key, normalize_request
    from repro.service.journal import JournalWriter
    from repro.service.pool import execute_task
    from repro.service.store import ResultStore

    body = {"trace": str(trace), "max_hops": 3, "grid_points": 12}
    out: Dict[str, float] = {}
    out["service.jobs.normalize_request_us"], spec = _median_us(
        lambda: normalize_request("delay-cdf", body), 200
    )
    out["service.jobs.job_key_us"], key = _median_us(lambda: job_key(spec, net), 20)
    task = {"key": key, "argv": spec.to_argv(cache_dir=str(workdir / "profiles"))}
    gc.collect()
    start = time.perf_counter()
    result = execute_task(task)
    out["service.pool.execute_task_s"] = time.perf_counter() - start
    if result.get("exit_code") != 0:
        raise RuntimeError(f"in-process task failed: {result}")
    store = ResultStore(workdir / "results")
    store.put(key, str(result["output"]).encode("utf-8"))
    hits0 = counter(bundle, "service.store.hit")
    misses0 = counter(bundle, "service.store.miss")
    out["service.store.get_us"], _ = _median_us(lambda: store.get(key), 200)
    hits = counter(bundle, "service.store.hit") - hits0
    misses = counter(bundle, "service.store.miss") - misses0
    out["service.store.hit_ratio"] = hits / max(1, hits + misses)
    journal = JournalWriter(workdir / "journal", fsync=True)
    try:
        out["service.journal.append_fsync_us"], _ = _median_us(
            lambda: journal.append("submitted", key, command="delay-cdf"), 30
        )
    finally:
        journal.close()
    return out
