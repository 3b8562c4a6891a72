"""Content-addressed cache of computed path profiles.

Every CLI or benchmark invocation used to recompute all-pairs profiles
from scratch even though :mod:`repro.core.storage` can persist them.
This module closes the loop: :func:`load_or_compute` is a drop-in
replacement for :func:`repro.core.optimal.compute_profiles` that keys a
profiles file on the *content* of the computation —

    (trace digest, hop bounds, slack, max_rounds, sources, file format)

— so a cache entry can only ever be reused for the identical question.
A hit costs one ``.npz`` read; a miss computes, then writes atomically
(temp file + ``os.replace``) so concurrent runs never observe a torn
entry.  Corrupt or stale entries are recomputed and overwritten, never
trusted: :func:`repro.core.storage.load_profiles` re-verifies the
embedded trace digest on every load.

Cache traffic is observable: counters ``profiles.cache.hit`` /
``.miss`` / ``.invalid`` / ``.evict``, the timers
``profiles.cache.hit_s`` (a successful load) and
``profiles.cache.compute_s`` (the computation a miss pays), and the
``cache.load_or_compute`` span land in the active :mod:`repro.obs`
bundle — the two timers put a hit's cost next to a recompute's.

Bounded mode: pass ``max_bytes`` to cap the directory's total size.
Hits refresh an entry's mtime, so eviction (oldest mtime first) is LRU.
Eviction uses ``unlink`` only — on POSIX an entry that another process
is concurrently reading stays readable through its open file descriptor
until the read completes, so eviction can never tear an in-progress
load.  The default (``max_bytes=None``) keeps the historical unbounded
behaviour.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Collection, Iterable, Optional, Union

from ..obs import get_obs
from .contact import Node
from .optimal import DEFAULT_HOP_BOUNDS, PathProfileSet, compute_profiles
from .storage import (
    _FORMAT_VERSION,
    _encode_node,
    load_profiles,
    save_profiles,
    trace_digest,
)
from .temporal_network import TemporalNetwork

PathLike = Union[str, Path]

__all__ = ["load_or_compute", "profile_cache_key", "cache_path", "evict_lru"]


def profile_cache_key(
    network: TemporalNetwork,
    hop_bounds: Iterable[int] = DEFAULT_HOP_BOUNDS,
    sources: Optional[Iterable[Node]] = None,
    max_rounds: Optional[int] = None,
    slack: float = 0.0,
) -> str:
    """The content key of one ``compute_profiles`` invocation.

    Two invocations share a key iff they are guaranteed to produce the
    same :class:`PathProfileSet`; ``workers`` is deliberately excluded
    (it changes scheduling, not results).
    """
    document = {
        "format": _FORMAT_VERSION,
        "trace": trace_digest(network),
        "contacts": network.num_contacts,
        "hop_bounds": sorted(set(int(k) for k in hop_bounds)),
        "sources": (
            None
            if sources is None
            else sorted(_encode_node(s) for s in sources)
        ),
        "max_rounds": max_rounds,
        "slack": float(slack).hex(),
    }
    payload = json.dumps(document, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def cache_path(cache_dir: PathLike, key: str) -> Path:
    """The file a cache key maps to inside ``cache_dir``."""
    return Path(cache_dir) / f"profiles-{key[:32]}.npz"


#: serialises the scan-then-unlink of in-process eviction passes.  Two
#: threads racing the same budget would each see the pre-eviction total
#: and together evict twice what the budget requires (and double-count
#: the evict metric).  Cross-*process* races remain benign by design —
#: vanished entries are skipped — but same-process threads can be exact.
_EVICT_LOCK = threading.Lock()


def evict_lru(
    directory: PathLike,
    pattern: str,
    max_bytes: int,
    keep: Collection[PathLike] = (),
    counter: str = "profiles.cache.evict",
) -> int:
    """Unlink oldest-mtime files matching ``pattern`` until the total is
    at most ``max_bytes``; returns the number of evictions.

    ``keep`` paths are never evicted (typically the entry just written
    or served).  Entries that vanish mid-scan — another process racing
    the same budget — are skipped, not errors.  Unlinking is safe
    against concurrent readers on POSIX: an open descriptor keeps the
    data alive until closed.  Each eviction increments ``counter`` on
    the active :mod:`repro.obs` bundle.
    """
    root = Path(directory)
    protected = {Path(p).resolve() for p in keep}
    with _EVICT_LOCK:
        entries = []
        total = 0
        for path in root.glob(pattern):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime_ns, stat.st_size, path))
            total += stat.st_size
        if total <= max_bytes:
            return 0
        evicted = 0
        evictions = get_obs().metrics.counter(counter)
        for _, size, path in sorted(entries):
            if total <= max_bytes:
                break
            if path.resolve() in protected:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
    evictions.inc(evicted)
    return evicted


def load_or_compute(
    network: TemporalNetwork,
    cache_dir: PathLike,
    hop_bounds: Iterable[int] = DEFAULT_HOP_BOUNDS,
    sources: Optional[Iterable[Node]] = None,
    max_rounds: Optional[int] = None,
    slack: float = 0.0,
    workers: int = 1,
    max_bytes: Optional[int] = None,
    engine: str = "auto",
) -> PathProfileSet:
    """``compute_profiles`` with a content-addressed disk cache.

    Args match :func:`repro.core.optimal.compute_profiles` plus
    ``cache_dir``, the cache root (created on demand), and ``max_bytes``,
    the LRU size budget for the directory (None = unbounded).
    ``sources`` and ``hop_bounds`` are materialised up front so they may
    be generators.  ``engine`` is deliberately *not* part of the cache
    key: every engine produces identical profiles (the vec/scalar parity
    contract), so cached artefacts are engine-independent.
    """
    hop_bounds = tuple(hop_bounds)
    sources = None if sources is None else list(sources)
    key = profile_cache_key(
        network,
        hop_bounds=hop_bounds,
        sources=sources,
        max_rounds=max_rounds,
        slack=slack,
    )
    path = cache_path(cache_dir, key)
    obs = get_obs()
    with obs.span(
        "cache.load_or_compute", key=key[:16], path=str(path)
    ) as span:
        if path.exists():
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                profiles = load_profiles(path, network)
            except (ValueError, KeyError, OSError) as exc:
                # A torn write, a hash collision on the truncated file
                # name, or a format bump: recompute and overwrite.
                obs.metrics.counter("profiles.cache.invalid").inc()
                if obs.enabled:
                    span.set(outcome="invalid", error=repr(exc))
            else:
                obs.metrics.timer("profiles.cache.hit_s").record(
                    time.perf_counter() - wall0, time.process_time() - cpu0
                )
                obs.metrics.counter("profiles.cache.hit").inc()
                if obs.enabled:
                    span.set(outcome="hit")
                # Refresh recency so a bounded cache evicts LRU-first.
                try:
                    os.utime(path)
                except OSError:
                    pass
                return profiles
        else:
            if obs.enabled:
                span.set(outcome="miss")
        obs.metrics.counter("profiles.cache.miss").inc()
        with obs.metrics.timer("profiles.cache.compute_s"):
            profiles = compute_profiles(
                network,
                hop_bounds=hop_bounds,
                sources=sources,
                max_rounds=max_rounds,
                slack=slack,
                workers=workers,
                engine=engine,
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        # The temp name must keep the .npz suffix: np.savez appends one
        # to any other extension, breaking the final os.replace.
        tmp = path.with_name(f"tmp-{os.getpid()}-{path.name}")
        try:
            save_profiles(profiles, tmp)
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                tmp.unlink()
        if max_bytes is not None:
            evict_lru(path.parent, "profiles-*.npz", max_bytes, keep=(path,))
    return profiles
