"""Persistent worker pool with a zero-copy shared-memory CSR broadcast.

``compute_profiles(workers=N)`` used to build a fresh
``ProcessPoolExecutor`` per call, carve the source roster into static
stripes (``chosen[i::pool_size]``) and pickle the *entire adjacency
dict once per stripe* — serialisation cost grew with
``workers x contacts`` and one expensive source serialised a whole
stripe behind it.  This module replaces both halves:

* **Broadcast once.**  The compiled :class:`~repro.core.csr.CSRNetwork`
  is packed into a single ``multiprocessing.shared_memory`` segment,
  keyed by trace digest; workers attach by name and re-hydrate
  zero-copy numpy views (:meth:`CSRNetwork.from_buffer`).  Repeat calls
  on the same network reuse the segment — the task messages carry only
  the segment name and a few source ids, so per-task pickle traffic is
  bytes, not megabytes.  Counters: ``engine.pool.broadcasts`` /
  ``.broadcast_bytes`` (segment creations), ``.broadcast_reused``
  (cache hits), ``.task_bytes`` (actual pickled task traffic) and
  ``.spawns`` (worker processes started) — the broadcast-exactly-once
  property is asserted from these in tests and the engine bench.
* **Steal, don't stripe.**  Sources are cut into bounded chunks pushed
  through one shared task queue; an idle worker pulls the next chunk,
  so a single expensive source delays at most one chunk, not a stripe.

The pool is persistent (module-level, keyed by worker count) so warm
paths skip process start-up; segments are explicitly unlinked on
eviction, on :func:`close_pools` and at interpreter exit.  Lifecycle:
``create`` (supervisor packs + ``SharedMemory(create=True)``) →
``attach`` (worker opens by name, then *unregisters* the segment from
its ``resource_tracker`` so a worker exit cannot reap a segment the
supervisor still owns) → ``unlink`` (supervisor only).

Workers run either engine off the same broadcast: the vectorized kernel
directly on the CSR views, or the scalar oracle on a per-attachment
``to_adjacency()`` rebuild (cached, so it happens once per segment per
worker, not per task).
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import pickle
import threading
import traceback
from collections import OrderedDict
from multiprocessing import resource_tracker, shared_memory
from queue import Empty
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..obs import get_obs
from .contact import Node
from .csr import CSRNetwork

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .optimal import SourceProfiles

__all__ = ["SharedCSRPool", "shared_pool", "close_pools"]

#: most shared-memory segments kept per pool (LRU beyond this).
_MAX_SEGMENTS = 4
#: most segments a single worker keeps attached.
_MAX_WORKER_ATTACHMENTS = 2
#: upper bound on sources per stolen chunk.
_MAX_CHUNK = 16

# "fork" keeps warm-path start-up at fork speed and avoids re-importing
# __main__ in children; platforms without it (Windows, macOS default
# since 3.8) fall back to spawn, which the module-level worker entry
# point supports equally.
_START_METHOD = "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def _available_cores() -> int:
    """CPUs this process may actually run on (affinity/cgroup aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def _unregister_attachment(shm: shared_memory.SharedMemory) -> None:
    """Detach a worker-side attachment from its resource tracker.

    Under spawn, attaching registers the segment with the *worker's own*
    tracker (fixed only in 3.13's ``track=False``), so a worker exit
    would unlink a segment the supervisor still owns and other workers
    still need.  Under fork the tracker process is shared with the
    supervisor and the duplicate registration is a set no-op, so this
    must *not* run there — it would erase the supervisor's entry.
    """
    try:
        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:  # pragma: no cover - tracker internals vary
        pass


def _drop_attachment(state: List[Any]) -> None:
    """Close one worker attachment.  The zero-copy views must die before
    the segment can close (mmap refuses to unmap while buffer exports
    exist), so the CSR/adjacency slots are dropped first."""
    shm = state[0]
    del state[1:]
    try:
        shm.close()
    except BufferError:  # pragma: no cover - stray external view
        pass


def _execute_chunk(
    task: Dict[str, Any],
    attachments: "OrderedDict[str, List[Any]]",
    unregister_attachments: bool,
) -> List[Tuple[int, Any]]:
    """Run one chunk of sources against its broadcast segment.

    A separate function so every view-holding local dies on return —
    otherwise a lingering reference would block the segment teardown.
    """
    from .engine_vec import run_sources_raw
    from .optimal import _run_single_source

    name = task["shm"]
    state = attachments.get(name)
    if state is None:
        while len(attachments) >= _MAX_WORKER_ATTACHMENTS:
            _, old = attachments.popitem(last=False)
            _drop_attachment(old)
        shm = shared_memory.SharedMemory(name=name)
        if unregister_attachments:
            _unregister_attachment(shm)
        state = attachments[name] = [
            shm,
            CSRNetwork.from_buffer(shm.buf, keepalive=shm),
            None,
        ]
    else:
        attachments.move_to_end(name)
    csr: CSRNetwork = state[1]
    bounds = task["bounds"]
    max_rounds = task["max_rounds"]
    slack = task["slack"]
    collect = task["collect"]
    out: List[Tuple[int, Any]] = []
    if task["engine"] == "vec":
        # The whole chunk runs as one lockstep batch — per-round kernel
        # overhead is paid once per batch round, not once per source —
        # and ships back *raw* rank arrays (a handful of numpy buffers);
        # the supervisor turns them into profile columns with one
        # ``time_table`` gather via
        # :func:`~repro.core.engine_vec.profiles_from_raw`.
        out.extend(
            zip(
                task["sources"],
                run_sources_raw(
                    csr, task["sources"], bounds, max_rounds, slack, collect
                ),
            )
        )
    else:
        adjacency = state[2]
        if adjacency is None:
            adjacency = state[2] = csr.to_adjacency()
        for sid in task["sources"]:
            out.append(
                (
                    sid,
                    _run_single_source(
                        adjacency, csr.nodes, csr.node_index, csr.nodes[sid],
                        bounds, max_rounds, slack, collect,
                    ),
                )
            )
    return out


def _worker_main(
    tasks: "mp.queues.Queue[Optional[Dict[str, Any]]]",
    results: "mp.queues.Queue[Tuple[Any, str, Any]]",
    unregister_attachments: bool,
) -> None:
    """Worker loop: attach → compute a chunk of sources → ship profiles.

    Module-level so it pickles under the spawn start method.  Workers
    never publish to the supervisor's obs bundle; stats ride back on the
    :class:`SourceProfiles` objects and are folded in by the caller.
    """
    from ..obs import set_obs

    set_obs(None)
    attachments: "OrderedDict[str, List[Any]]" = OrderedDict()
    while True:
        task = tasks.get()
        if task is None:
            break
        try:
            out = _execute_chunk(task, attachments, unregister_attachments)
            results.put((task["id"], "ok", out))
        except BaseException:
            results.put((task.get("id"), "error", traceback.format_exc()))
    while attachments:
        _, state = attachments.popitem()
        _drop_attachment(state)


class SharedCSRPool:
    """A persistent worker pool fed through shared-memory CSR segments."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._ctx = mp.get_context(_START_METHOD)
        self._tasks: "mp.queues.Queue[Optional[Dict[str, Any]]]" = self._ctx.Queue()
        self._results: "mp.queues.Queue[Tuple[Any, str, Any]]" = self._ctx.Queue()
        self._procs: List[mp.process.BaseProcess] = []
        self._segments: "OrderedDict[str, shared_memory.SharedMemory]" = OrderedDict()
        self._lock = threading.Lock()
        self._sequence = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def broken(self) -> bool:
        """True once the pool lost a worker or was closed."""
        with self._lock:
            return self._closed or any(
                not p.is_alive() for p in self._procs
            )

    def _ensure_workers(self, needed: Optional[int] = None) -> None:  # guarded-by: _lock
        """Spawn worker processes on demand, up to ``self.workers``.

        ``needed`` caps the spawn at the number of runnable chunks: a
        run that deals fewer chunks than the pool width must not wake
        extra processes — an idle cold worker that later steals a task
        re-faults its whole working set (hundreds of MB on big traces),
        while routing repeat runs to the same warm worker keeps its
        allocator and page tables hot.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        spawns = get_obs().metrics.counter("engine.pool.spawns")
        target = self.workers if needed is None else min(self.workers, needed)
        missing = target - len(self._procs)
        for _ in range(missing):
            proc = self._ctx.Process(
                target=_worker_main,
                args=(self._tasks, self._results, _START_METHOD == "spawn"),
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)
            spawns.inc()

    def broadcast(self, csr: CSRNetwork, digest: str) -> str:
        """Publish ``csr`` once per digest; returns the segment name.

        Counts a creation in ``engine.pool.broadcasts`` (with the byte
        size in ``.broadcast_bytes``) or a reuse in
        ``.broadcast_reused`` — the "network ships exactly once" ledger.
        """
        obs = get_obs()
        existing = self._segments.get(digest)
        if existing is not None:
            self._segments.move_to_end(digest)
            obs.metrics.counter("engine.pool.broadcast_reused").inc()
            return existing.name
        nbytes = csr.packed_nbytes()
        shm = shared_memory.SharedMemory(create=True, size=nbytes)
        try:
            csr.pack_into(shm.buf)
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        self._segments[digest] = shm
        obs.metrics.counter("engine.pool.broadcasts").inc()
        obs.metrics.counter("engine.pool.broadcast_bytes").inc(nbytes)
        while len(self._segments) > _MAX_SEGMENTS:
            _, old = self._segments.popitem(last=False)
            old.close()
            old.unlink()
        return shm.name

    def close(self) -> None:
        """Stop workers and unlink every shared segment."""
        with self._lock:
            self._close_locked()

    def _close_locked(self) -> None:  # guarded-by: _lock
        if self._closed:
            return
        self._closed = True
        for _ in self._procs:
            try:
                self._tasks.put(None)
            except (OSError, ValueError):  # pragma: no cover
                break
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        self._procs.clear()
        self._tasks.close()
        self._results.close()
        for shm in self._segments.values():
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
        self._segments.clear()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self,
        csr: CSRNetwork,
        digest: str,
        source_ids: List[int],
        hop_bounds: Tuple[int, ...],
        max_rounds: Optional[int],
        slack: float,
        collect_stats: bool,
        engine: str,
    ) -> Dict[Node, "SourceProfiles"]:
        """Compute per-source profiles for ``source_ids``; returns a
        node-keyed dict of :class:`~repro.core.optimal.SourceProfiles`.

        Sources are dealt out as bounded chunks through the shared task
        queue (work stealing): an idle worker takes the next chunk, so
        one expensive source delays at most ``chunk - 1`` peers.
        """
        with self._lock:
            name = self.broadcast(csr, digest)
            self._sequence += 1
            sequence = self._sequence
            if engine == "vec":
                # Lockstep batching amortises the fixed per-round kernel
                # cost over the whole chunk, so one big chunk per worker
                # beats many stealable slivers; imbalance costs at most
                # one batch tail, kernel amortisation wins back far more.
                # Never split below the machine's actual parallelism:
                # extra chunks on an oversubscribed box only shrink the
                # lockstep batches without adding concurrency.
                lanes = min(self.workers, _available_cores())
                chunk = max(1, -(-len(source_ids) // lanes))
            else:
                chunk = max(
                    1, min(_MAX_CHUNK, -(-len(source_ids) // (self.workers * 4)))
                )
            chunks = [
                source_ids[i : i + chunk]
                for i in range(0, len(source_ids), chunk)
            ]
            self._ensure_workers(len(chunks))
            task_bytes = get_obs().metrics.counter("engine.pool.task_bytes")
            for index, part in enumerate(chunks):
                task: Dict[str, Any] = {
                    "id": (sequence, index),
                    "shm": name,
                    "sources": part,
                    "bounds": hop_bounds,
                    "max_rounds": max_rounds,
                    "slack": slack,
                    "collect": collect_stats,
                    "engine": engine,
                }
                task_bytes.inc(len(pickle.dumps(task)))
                self._tasks.put(task)
            by_id: Dict[int, Any] = {}
            pending = len(chunks)
            while pending:
                try:
                    task_id, status, payload = self._results.get(timeout=1.0)
                except Empty:
                    if any(not p.is_alive() for p in self._procs):
                        self._close_locked()
                        raise RuntimeError(
                            "a profile pool worker died; pool closed "
                            "(results discarded)"
                        )
                    continue
                if status == "error":
                    self._close_locked()
                    raise RuntimeError(
                        f"profile pool worker failed:\n{payload}"
                    )
                if not (isinstance(task_id, tuple) and task_id[0] == sequence):
                    continue  # pragma: no cover - stray result of a dead run
                for sid, profiles in payload:
                    by_id[sid] = profiles
                pending -= 1
        if engine == "vec":
            from .engine_vec import profiles_from_raw

            columnar = profiles_from_raw(
                csr, [by_id[sid] for sid in source_ids], hop_bounds
            )
            return {
                csr.nodes[sid]: prof
                for sid, prof in zip(source_ids, columnar)
            }
        return {csr.nodes[sid]: by_id[sid] for sid in source_ids}


_POOLS: Dict[int, SharedCSRPool] = {}
_POOLS_LOCK = threading.Lock()


def shared_pool(workers: int) -> SharedCSRPool:
    """The persistent pool for ``workers`` processes (rebuilt if broken)."""
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None or pool.broken:
            if pool is not None:
                pool.close()
            pool = SharedCSRPool(workers)
            _POOLS[workers] = pool
        return pool


def close_pools() -> None:
    """Close every persistent pool and unlink their shared segments."""
    with _POOLS_LOCK:
        for pool in _POOLS.values():
            pool.close()
        _POOLS.clear()


# PID-guarded so forked workers (which inherit this module) never run
# the supervisor's cleanup against segments they do not own.
_OWNER_PID = os.getpid()


def _atexit_close() -> None:  # pragma: no cover - interpreter teardown
    if os.getpid() == _OWNER_PID:
        close_pools()


atexit.register(_atexit_close)
