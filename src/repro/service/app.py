"""The HTTP front door: query endpoints, job status, health, metrics.

Endpoints (all under a threaded stdlib :class:`ThreadingHTTPServer`):

* ``POST /v1/diameter`` and ``POST /v1/delay-cdf`` — a JSON query
  (``{"trace": path, "max_hops": ..., ...}``); the response body is the
  **byte-identical stdout of the equivalent ``repro`` CLI invocation**
  (``text/plain``).  Errors come back as structured JSON.  The request
  path is: normalise → job key → result store → single-flight job table
  → worker pool, so identical concurrent queries compute once and
  repeated queries never compute at all.  A saturated pool answers
  ``429`` with ``Retry-After``.
* ``GET /v1/jobs/<id>`` — JSON status of an in-flight, recent, or
  dead-lettered job.
* ``GET /v1/jobs`` — the queue, recent history, and dead-letter set
  (``?state=`` / ``?priority=`` filters, ``?limit=`` page bound).
* ``GET /healthz`` — pool/queue/store health; ``200`` healthy, ``503``
  degraded (a worker died and has not been respawned yet) or draining.
* ``GET /metrics`` — the active :mod:`repro.obs` registry in Prometheus
  text format (:meth:`MetricsRegistry.render_text`).
* ``GET /debug/traces`` and ``GET /debug/traces/<trace_id>`` — the live
  trace ring: a summary listing, and one trace exported as
  ``repro.trace/1`` JSON Lines.

Tracing: every request gets a :class:`~repro.obs.tracectx.TraceContext`
(minted fresh, or continued from an inbound W3C ``traceparent`` header).
Query requests record their spans on a *per-request*
:class:`~repro.obs.spans.SpanTracer` (the session tracer's stack is
single-threaded; handler threads are not), bound into trace-scoped
records afterwards.  The pool supervisor adds per-attempt spans through
its ``trace_sink`` and the worker ships its spans back in the result
envelope, so ``GET /debug/traces/<id>`` shows the whole request — HTTP
handling, admission, attempts, worker execution, engine internals — as
one tree.  Every response carries ``X-Repro-Trace``; every JSON error
body carries a top-level ``trace_id``.

Durability: with ``journal_dir`` set, every job lifecycle transition is
committed to the write-ahead journal (:mod:`repro.service.journal`)
*before* the action it records — ``submitted`` before the pool sees the
task — so a SIGKILL loses no admitted work.  ``__init__`` replays the
journal, re-enqueues open episodes interactive-first (skipping shards
whose checkpoints already landed), and dead-letters episodes past the
crash budget; the recovery pass is traced under a ``service.recover``
root span.

The service records into whatever obs bundle is active when it starts
(``python -m repro.service serve`` installs one; the benchmark harness
runs the server inside its own ``bench_session``), so service counters
land in the same snapshot as engine counters — including the worker
registries merged back per job.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Collection, Dict, List, Optional, Tuple, Type, Union
from urllib.parse import parse_qs, urlsplit

from ..core.shards import shard_sources
from ..obs import get_obs
from ..obs.log import get_logger
from ..obs.spans import SpanTracer
from ..obs.tracectx import (
    TraceContext,
    bind_records,
    derive_span_id,
    new_span_id,
)
from ..obs.tracestore import TraceStore
from .jobs import (
    BadRequest,
    COMMANDS,
    Job,
    JobSpec,
    JobTable,
    NetworkCache,
    PRIORITIES,
    STATES,
    job_key,
    normalize_request,
)
from .journal import (
    DEFAULT_SEGMENT_BYTES,
    EpisodeState,
    JournalState,
    JournalWriter,
    replay,
)
from .pool import PoolClosed, PoolSaturated, Result, Task, WorkerPool
from .store import ResultStore

#: recovery re-enqueues interactive episodes before batch ones.
_PRIORITY_RANK = {priority: i for i, priority in enumerate(PRIORITIES)}


@dataclass
class ServiceConfig:
    """Everything one service instance needs to run."""

    cache_dir: str
    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    queue_capacity: int = 16
    job_timeout_s: float = 300.0
    store_max_bytes: Optional[int] = None
    max_attempts: int = 2
    respawn_delay_s: float = 0.0
    allow_test_delay: bool = False
    #: ceiling on one request body, to bound parsing work.
    max_body_bytes: int = 1 << 20
    #: jobs whose queued→done wall time exceeds this log a
    #: ``service.job.slow`` warning and count on ``service.jobs.slow``.
    slow_job_threshold_s: float = 30.0
    #: how many traces the debug ring retains.
    trace_capacity: int = 256
    #: write-ahead journal directory; None disables durability (the
    #: seed behaviour: job state dies with the process).
    journal_dir: Optional[str] = None
    #: fsync every journal record (the durability contract); tests and
    #: benchmarks may trade durability for speed.
    journal_fsync: bool = True
    #: journal segment rotation threshold.
    journal_segment_bytes: int = DEFAULT_SEGMENT_BYTES
    #: a job whose episode has crashed this many server lives (counted
    #: as ``running`` journal events plus the current life's attempts)
    #: is dead-lettered instead of retried.
    dead_letter_attempts: int = 3
    #: a queued batch task older than this jumps ahead of interactive
    #: work (the pool's anti-starvation aging knob).
    batch_aging_s: float = 30.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.slow_job_threshold_s <= 0:
            raise ValueError(
                "slow_job_threshold_s must be > 0, got "
                f"{self.slow_job_threshold_s}"
            )
        if self.trace_capacity < 1:
            raise ValueError(
                f"trace_capacity must be >= 1, got {self.trace_capacity}"
            )
        if self.dead_letter_attempts < 1:
            raise ValueError(
                "dead_letter_attempts must be >= 1, got "
                f"{self.dead_letter_attempts}"
            )
        if self.batch_aging_s <= 0:
            raise ValueError(
                f"batch_aging_s must be > 0, got {self.batch_aging_s}"
            )


@dataclass
class Response:
    """A transport-independent response (the handler serialises it)."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def json(
        cls,
        status: int,
        document: Dict[str, object],
        headers: Optional[Dict[str, str]] = None,
    ) -> "Response":
        payload = (
            json.dumps(document, indent=2, sort_keys=True) + "\n"
        ).encode("utf-8")
        return cls(status, payload, "application/json", dict(headers or {}))

    @classmethod
    def error(
        cls,
        status: int,
        error_type: str,
        message: str,
        headers: Optional[Dict[str, str]] = None,
        **extra: object,
    ) -> "Response":
        document: Dict[str, object] = {
            "error": {"type": error_type, "message": message, **extra}
        }
        return cls.json(status, document, headers)


def mint_context(
    traceparent: Optional[str],
) -> Tuple[TraceContext, Optional[str]]:
    """The request's trace context and its remote parent span id.

    A valid inbound ``traceparent`` continues the caller's trace (fresh
    random span id for our root, the caller's span as its parent);
    anything absent or malformed starts a new trace — a bad header must
    never fail the request.
    """
    inbound = TraceContext.from_traceparent(traceparent)
    if inbound is None:
        return TraceContext.new(), None
    return (
        TraceContext(trace_id=inbound.trace_id, span_id=new_span_id()),
        inbound.span_id,
    )


def with_trace(response: Response, ctx: TraceContext) -> Response:
    """Stamp the trace id onto a response (header + JSON error body).

    Injection is centralised here — after the handler built the
    response — so no error call site can forget its correlation id.
    """
    response.headers.setdefault("X-Repro-Trace", ctx.trace_id)
    if response.status >= 400 and response.content_type.startswith(
        "application/json"
    ):
        try:
            document = json.loads(response.body.decode("utf-8"))
        except ValueError:
            return response
        if isinstance(document, dict) and "trace_id" not in document:
            document["trace_id"] = ctx.trace_id
            response.body = (
                json.dumps(document, indent=2, sort_keys=True) + "\n"
            ).encode("utf-8")
    return response


class ReproService:
    """The service core: everything the HTTP handler delegates to.

    Transport-free by design — tests can drive :meth:`handle_query`
    and friends directly, and the HTTP layer stays a thin shell.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        root = Path(config.cache_dir)
        self.profile_cache_dir = root / "profiles"
        self.profile_cache_dir.mkdir(parents=True, exist_ok=True)
        self.store = ResultStore(
            root / "results", max_bytes=config.store_max_bytes
        )
        self.networks = NetworkCache()
        self.jobs = JobTable()
        self.traces = TraceStore(capacity=config.trace_capacity)
        self.log = get_logger("repro.service")
        # Replay *before* opening the writer: the writer's seq counter
        # must continue past the previous life's last durable record.
        self.journal: Optional[JournalWriter] = None
        recovery_state: Optional[JournalState] = None
        if config.journal_dir is not None:
            recovery_state = replay(config.journal_dir)
            self.journal = JournalWriter(
                config.journal_dir,
                fsync=config.journal_fsync,
                segment_max_bytes=config.journal_segment_bytes,
                next_seq=recovery_state.next_seq,
            )
        self.pool = WorkerPool(
            size=config.workers,
            queue_capacity=config.queue_capacity,
            job_timeout_s=config.job_timeout_s,
            on_complete=self._on_complete,
            max_attempts=config.max_attempts,
            respawn_delay_s=config.respawn_delay_s,
            trace_sink=self._ingest_span,
            aging_s=config.batch_aging_s,
        )
        self.pool.start()
        if recovery_state is not None:
            self._recover(recovery_state)

    # -- pool callbacks -------------------------------------------------
    def _ingest_span(self, record: Dict[str, Any]) -> None:
        """File a supervisor-built span record under its trace."""
        self.traces.add_spans(str(record["trace_id"]), [record])

    def _journal_event(self, event: str, key: str, **fields: object) -> None:
        """Append one journal record, if durability is on."""
        if self.journal is not None:
            self.journal.append(event, key, **fields)

    def _finish_job(
        self,
        key: str,
        exit_code: Optional[int] = None,
        output: Optional[bytes] = None,
        stderr: str = "",
        error: Optional[Dict[str, object]] = None,
        dead_letter: bool = False,
    ) -> Optional[Job]:
        """Complete a job in the table *and* close its journal episode.

        Every terminal transition funnels through here so the journal
        can never miss one — an episode left open by a forgotten call
        site would be re-executed on every restart.
        """
        job = self.jobs.complete(
            key,
            exit_code=exit_code,
            output=output,
            stderr=stderr,
            error=error,
            dead_letter=dead_letter,
        )
        if job is None:
            return None
        if dead_letter:
            self._journal_event(
                "dead_lettered",
                key,
                crashes=job.prior_crashes + job.attempts,
                error_type=str((error or {}).get("type") or "worker-crashed"),
            )
        elif error is not None:
            self._journal_event(
                "failed",
                key,
                error_type=str(error.get("type") or "unknown"),
                message=str(error.get("message") or "")[:200],
            )
        else:
            self._journal_event("completed", key, exit_code=exit_code)
        return job

    def _crash_budget_exceeded(self, key: str, attempts: int) -> bool:
        """True when one more retry would exceed the crash budget.

        ``prior_crashes`` counts ``running`` events journaled by earlier
        server lives; ``attempts`` counts this life's worker crashes.
        """
        job = self.jobs.by_key(key)
        prior = 0 if job is None else job.prior_crashes
        return prior + attempts >= self.config.dead_letter_attempts

    def _on_complete(self, task: Task, result: Result) -> None:
        key = str(task["key"])
        trace_id = task.get("trace_id")
        spans = result.get("spans")
        if trace_id and spans:
            self.traces.add_spans(str(trace_id), list(spans))
        worker_metrics = result.get("metrics")
        if worker_metrics is not None:
            # Engine counters recorded inside the worker process land in
            # the same /metrics snapshot as the service's own.
            get_obs().metrics.merge(worker_metrics)
        if task.get("kind") == "shard":
            self._on_shard_complete(task, result)
            return
        error = result.get("error")
        if error is not None:
            job = self._fail_or_dead_letter(
                key, dict(error), stderr=str(result.get("stderr", ""))
            )
            self._note_completion(job)
            return
        exit_code = int(result["exit_code"])
        output = str(result["output"]).encode("utf-8")
        stderr = str(result.get("stderr", ""))
        if exit_code != 0:
            job = self._finish_job(
                key,
                exit_code=exit_code,
                output=output,
                stderr=stderr,
                error={
                    "type": "command-failed",
                    "message": stderr.strip() or "command exited non-zero",
                    "exit_code": exit_code,
                },
            )
            self._note_completion(job)
            return
        self.store.put(key, output)
        job = self._finish_job(
            key, exit_code=0, output=output, stderr=stderr
        )
        self._note_completion(job)

    def _fail_or_dead_letter(
        self, key: str, error: Dict[str, object], stderr: str = ""
    ) -> Optional[Job]:
        """Fail a job, dead-lettering it when its crash budget is spent.

        Only worker crashes count against the budget: a clean non-zero
        exit or a timeout is a deterministic outcome, not a poison pill.
        """
        if error.get("type") == "worker-crashed":
            attempts = int(error.get("attempts", 1) or 1)
            if self._crash_budget_exceeded(key, attempts):
                job = self._finish_job(
                    key,
                    stderr=stderr,
                    error={
                        "type": "dead-lettered",
                        "message": (
                            "job exceeded its crash budget; see "
                            "/v1/jobs?state=dead_lettered"
                        ),
                        "cause": dict(error),
                    },
                    dead_letter=True,
                )
                if job is not None:
                    get_obs().metrics.counter(
                        "service.jobs.dead_lettered"
                    ).inc()
                    self.log.error(
                        "service.job.dead-lettered",
                        job=job.id,
                        trace_id=job.trace_id,
                        crashes=job.prior_crashes + job.attempts,
                        budget=self.config.dead_letter_attempts,
                    )
                return job
        return self._finish_job(key, stderr=stderr, error=error)

    def _on_shard_complete(self, task: Task, result: Result) -> None:
        """Account one shard's outcome; dispatch the merge when all land.

        A failed shard fails the whole job (its waiters must not hang),
        annotated with which shard died.  The final shard triggers the
        ordinary CLI task for the parent job: its profile reads are all
        cache hits, so it only merges and formats.
        """
        parent_key = str(task["parent_key"])
        shard_no = int(task["shard_index"]) + 1
        shard_count = int(task["shard_count"])
        metrics = get_obs().metrics
        error = result.get("error")
        if error is None and int(result.get("exit_code", 1)) != 0:
            error = {
                "type": "command-failed",
                "message": str(result.get("stderr", "")).strip()
                or "shard task exited non-zero",
                "exit_code": int(result.get("exit_code", 1)),
            }
        if error is not None:
            metrics.counter("service.shards.failed").inc()
            job = self._fail_or_dead_letter(
                parent_key,
                {
                    **dict(error),
                    "shard": shard_no,
                    "shard_count": shard_count,
                },
                stderr=str(result.get("stderr", "")),
            )
            self._note_completion(job)
            return
        metrics.counter("service.shards.completed").inc()
        progress = self.jobs.note_shard_done(parent_key)
        if progress is None:
            # The job already failed (a sibling shard died) — nothing to
            # dispatch.
            return
        # The shard's profile checkpoint is durable in the cache before
        # this record commits, so replay may safely skip the shard.
        self._journal_event(
            "shard_done",
            parent_key,
            shard_index=shard_no - 1,
            shard_count=shard_count,
        )
        done, total = progress
        if done < total:
            return
        self._dispatch_finalize(parent_key)

    def _dispatch_finalize(self, parent_key: str) -> None:
        """Queue the merge run once every shard of a job has landed."""
        job = self.jobs.by_key(parent_key)
        if job is None:
            return
        final: Task = {
            "key": parent_key,
            "argv": job.spec.to_argv(str(self.profile_cache_dir)),
            "test_delay_s": 0.0,
            "priority": job.spec.priority,
            "engine": job.spec.engine,
            "on_running": self._mark_running,
            "trace_id": job.trace_id,
            "parent_span": job.span_id,
        }
        try:
            # Never capacity-reject the merge of an admitted job.
            self.pool.submit(final, enforce_capacity=False)
        except (PoolSaturated, PoolClosed):
            completed = self._finish_job(
                parent_key,
                error={
                    "type": "shutdown",
                    "message": "pool shut down before the shard merge",
                },
            )
            self._note_completion(completed)

    def _note_completion(self, job: Optional[Job]) -> None:
        """Log failures and slow jobs (the slow-job log satellite)."""
        if job is None:
            return
        wall_s = time.monotonic() - job.queued_monotonic
        if job.error is not None:
            self.log.warning(
                "service.job.failed",
                job=job.id,
                trace_id=job.trace_id,
                command=job.spec.command,
                error_type=str(job.error.get("type")),
                attempts=job.attempts,
                wall_s=round(wall_s, 3),
            )
        if wall_s >= self.config.slow_job_threshold_s:
            get_obs().metrics.counter("service.jobs.slow").inc()
            self.log.warning(
                "service.job.slow",
                job=job.id,
                trace_id=job.trace_id,
                command=job.spec.command,
                attempts=job.attempts,
                wall_s=round(wall_s, 3),
                threshold_s=self.config.slow_job_threshold_s,
            )

    # -- recovery -------------------------------------------------------
    def _recover(self, state: JournalState) -> None:
        """Rebuild job state from the journal and re-enqueue open work.

        Runs once, in ``__init__``, after the pool started and before
        the HTTP server exists — so recovery tasks queue ahead of any
        fresh request.  Open episodes are resubmitted interactive-first
        (then journal order), episodes over the crash budget land in
        the dead-letter set, and already-journaled ``shard_done``
        checkpoints are skipped.  The whole pass is traced under one
        ``service.recover`` root.
        """
        metrics = get_obs().metrics
        started = time.monotonic()
        ctx = TraceContext.new()
        tracer = SpanTracer()
        requeued = dead = dropped = 0
        metrics.counter("service.journal.replayed").inc(state.events)
        dead_lettered_counter = metrics.counter(
            "service.recovery.dead_lettered"
        )
        with tracer.span(
            "service.recover",
            events=state.events,
            torn_lines=state.torn_lines,
        ):
            for episode in state.dead_lettered():
                spec = episode.spec or {}
                self.jobs.register_dead_letter(
                    episode.key,
                    {
                        "command": spec.get("command"),
                        "trace": spec.get("trace"),
                        "priority": episode.priority,
                        "crashes": episode.crashes,
                        "error": {
                            "type": episode.error_type or "dead-lettered",
                            "message": episode.message
                            or "dead-lettered in an earlier server life",
                        },
                        "recovered": True,
                    },
                )
            work: List[EpisodeState] = []
            for episode in state.unfinished():
                if episode.spec is None:
                    # No submitted record survived (compacted away or in
                    # a lost segment): nothing to re-run.
                    self._journal_event(
                        "failed",
                        episode.key,
                        error_type="unreplayable",
                        message="no spec in the journal for this episode",
                    )
                    dropped += 1
                    continue
                if episode.crashes >= self.config.dead_letter_attempts:
                    self.jobs.register_dead_letter(
                        episode.key,
                        {
                            "command": episode.spec.get("command"),
                            "trace": episode.spec.get("trace"),
                            "priority": episode.priority,
                            "crashes": episode.crashes,
                            "error": {
                                "type": "dead-lettered",
                                "message": (
                                    "crash budget exhausted across "
                                    "restarts"
                                ),
                            },
                            "recovered": True,
                        },
                    )
                    self._journal_event(
                        "dead_lettered",
                        episode.key,
                        crashes=episode.crashes,
                        error_type="worker-crashed",
                    )
                    dead_lettered_counter.inc()
                    dead += 1
                    continue
                work.append(episode)
            work.sort(
                key=lambda e: (
                    _PRIORITY_RANK.get(e.priority, 0),
                    e.first_seq,
                )
            )
            for episode in work:
                if self._resubmit_recovered(episode, ctx, tracer):
                    requeued += 1
                else:
                    dropped += 1
        duration = time.monotonic() - started
        metrics.counter("service.recovery.requeued").inc(requeued)
        metrics.gauge("service.recovery.duration_s").set(duration)
        self.traces.add_spans(
            ctx.trace_id, bind_records(ctx, tracer.records, origin="server")
        )
        if state.events or state.torn_lines:
            self.log.info(
                "service.recovered",
                trace_id=ctx.trace_id,
                events=state.events,
                torn_lines=state.torn_lines,
                requeued=requeued,
                dead_lettered=dead,
                dropped=dropped,
                duration_s=round(duration, 3),
            )

    def _resubmit_recovered(
        self,
        episode: EpisodeState,
        ctx: TraceContext,
        tracer: SpanTracer,
    ) -> bool:
        """Re-enqueue one open episode; True when it is back in flight.

        Episodes that cannot or must not run again — unparseable spec,
        unreadable or *changed* trace (recomputing the job key guards
        the result store against committing different bytes under the
        journaled key), result already in the store — are closed with a
        terminal journal event instead.
        """
        key = episode.key
        assert episode.spec is not None
        try:
            spec = JobSpec.from_document(episode.spec)
        except BadRequest as exc:
            self._journal_event(
                "failed",
                key,
                error_type="unreplayable",
                message=str(exc)[:200],
            )
            return False
        try:
            network = self.networks.get(spec.trace)
        except OSError as exc:
            self._journal_event(
                "failed",
                key,
                error_type="trace-unreadable",
                message=str(exc)[:200],
            )
            return False
        reason = network.degenerate_reason()
        if reason is not None:
            self._journal_event(
                "failed",
                key,
                error_type="degenerate-trace",
                message=str(reason)[:200],
            )
            return False
        if job_key(spec, network) != key:
            self._journal_event(
                "failed",
                key,
                error_type="trace-changed",
                message=(
                    "trace content no longer matches the journaled job key"
                ),
            )
            self.log.warning(
                "service.recover.trace-changed",
                trace_id=ctx.trace_id,
                job=key[:32],
                trace=spec.trace,
            )
            return False
        if self.store.get(key) is not None:
            # The previous life stored the bytes but died before the
            # ``completed`` record committed — close the episode now.
            self._journal_event("completed", key, exit_code=0)
            return False
        with tracer.span(
            "service.recover.job",
            key=key[:32],
            priority=spec.priority,
            crashes=episode.crashes,
            shards_done=len(episode.shards_done),
        ) as span:
            exec_span_id = derive_span_id(ctx.span_id, span.span_id)
            job, created = self.jobs.get_or_create(
                key, spec, trace_id=ctx.trace_id, span_id=exec_span_id
            )
            if not created:
                return False
            # No HTTP client waits on a recovered job: its output goes
            # to the result store and the episode closes in the journal.
            job.recovered = True
            job.prior_crashes = episode.crashes
            job.waiters = 0
            log = self.log.bind(trace_id=ctx.trace_id, job=job.id)
            if spec.shards > 1:
                failure = self._submit_sharded(
                    job,
                    spec,
                    key,
                    ctx,
                    exec_span_id,
                    network,
                    log,
                    skip_shards=episode.shards_done,
                    enforce_capacity=False,
                )
                if failure is not None:
                    return False
                return True
            task: Task = {
                "key": key,
                "argv": spec.to_argv(str(self.profile_cache_dir)),
                "test_delay_s": 0.0,
                "priority": spec.priority,
                "engine": spec.engine,
                "on_running": self._mark_running,
                "trace_id": ctx.trace_id,
                "parent_span": exec_span_id,
            }
            try:
                self.pool.submit(task, enforce_capacity=False)
            except (PoolSaturated, PoolClosed):
                self._finish_job(
                    key,
                    error={
                        "type": "shutdown",
                        "message": "pool closed during recovery",
                    },
                )
                return False
            return True

    # -- request handling -----------------------------------------------
    def handle_query(
        self,
        command: str,
        raw_body: bytes,
        ctx: Optional[TraceContext] = None,
        remote_parent: Optional[str] = None,
    ) -> Response:
        """One query request, traced end to end.

        Spans go on a per-request tracer (handler threads must not share
        the session tracer's stack) and are bound into the trace store
        once the request's root span closes.  Unexpected exceptions
        become structured 500s that still carry the trace id.
        """
        if ctx is None:
            ctx, remote_parent = mint_context(None)
        obs = get_obs()
        tracer = SpanTracer()
        try:
            with obs.metrics.timer("service.http.latency", endpoint=command):
                with tracer.span("service.http.request", endpoint=command):
                    response = self._handle_query(
                        command, raw_body, ctx, tracer
                    )
        except Exception as exc:  # pragma: no cover - defence in depth
            obs.metrics.counter("service.http.errors").inc()
            self.log.error(
                "service.request.error",
                trace_id=ctx.trace_id,
                endpoint=command,
                error=f"{type(exc).__name__}: {exc}",
            )
            response = Response.error(
                500, "internal-error", f"{type(exc).__name__}: {exc}"
            )
        # The inbound caller's span lives in *its* process, not in this
        # store, so it is recorded as an attribute rather than as the
        # root's parent_span_id — exported traces stay self-contained
        # (every parent resolves; the validator enforces it).
        bound = bind_records(ctx, tracer.records, origin="server")
        if remote_parent is not None:
            for record in bound:
                if record["span_id"] == ctx.span_id:
                    attrs = record["attrs"]
                    if isinstance(attrs, dict):
                        attrs["remote_parent"] = remote_parent
        self.traces.add_spans(ctx.trace_id, bound)
        return with_trace(response, ctx)

    def _handle_query(
        self,
        command: str,
        raw_body: bytes,
        ctx: TraceContext,
        tracer: SpanTracer,
    ) -> Response:
        log = self.log.bind(trace_id=ctx.trace_id, endpoint=command)
        try:
            body = json.loads(raw_body.decode("utf-8")) if raw_body else {}
        except ValueError as exc:
            log.warning("service.request.bad", reason="invalid-json")
            return Response.error(400, "bad-request", f"invalid JSON: {exc}")
        with tracer.span("service.admit", endpoint=command):
            try:
                spec = normalize_request(
                    command,
                    body,
                    allow_test_delay=self.config.allow_test_delay,
                )
                network = self.networks.get(spec.trace)
            except BadRequest as exc:
                log.warning(
                    "service.request.bad",
                    reason="bad-request",
                    field=exc.field,
                )
                return Response.error(
                    400, "bad-request", exc.message,
                    **({} if exc.field is None else {"field": exc.field}),
                )
            except OSError as exc:
                log.warning("service.request.bad", reason="trace-unreadable")
                return Response.error(
                    400, "bad-request", f"cannot read trace: {exc}"
                )
            reason = network.degenerate_reason()
            if reason is not None:
                # An empty or zero-span trace (e.g. after an aggressive
                # ablation) has no observation window: computing would
                # produce nonsense CDFs, so the request fails loudly.
                log.warning(
                    "service.request.bad", reason="degenerate-trace"
                )
                return Response.error(
                    400,
                    "bad-request",
                    f"trace is not analyzable: {reason}",
                    field="trace",
                )
            key = job_key(spec, network)
            stored = self.store.get(key)
        if stored is not None:
            return self._success(stored, key, source="store")
        dead = self.jobs.dead_letter_record(key)
        if dead is not None:
            # A poison job must not re-enter the queue by resubmission;
            # the operator clears it by compacting the journal with
            # --drop-dead-letters.
            log.warning("service.request.dead-letter", job=dead.get("job"))
            return Response.error(
                409,
                "dead-lettered",
                "job exceeded its crash budget and will not be retried; "
                "see GET /v1/jobs?state=dead_lettered",
                job=str(dead.get("job")),
                crashes=int(dead.get("crashes", 0) or 0),
            )

        with tracer.span("service.execute", key=key[:32]) as exec_span:
            # The execute span's trace-scoped id must exist *before* the
            # span record does: the supervisor and the worker parent
            # their spans under it, and coalesced followers link to it.
            exec_span_id = derive_span_id(ctx.span_id, exec_span.span_id)
            job, created = self.jobs.get_or_create(
                key, spec, trace_id=ctx.trace_id, span_id=exec_span_id
            )
            exec_span.set(coalesced=not created)
            if created:
                # Write-ahead: the submission is durable before the pool
                # sees it, so a crash between journal and queue re-runs
                # the job instead of losing it.  A rejected submission
                # closes the episode with a terminal ``failed`` below.
                self._journal_event("submitted", key, spec=spec.to_document())
            if created and spec.shards > 1:
                failure = self._submit_sharded(
                    job, spec, key, ctx, exec_span_id, network, log
                )
                if failure is not None:
                    return failure
            elif created:
                task: Task = {
                    "key": key,
                    "argv": spec.to_argv(str(self.profile_cache_dir)),
                    "test_delay_s": spec.test_delay_s,
                    "priority": spec.priority,
                    "engine": spec.engine,
                    "on_running": self._mark_running,
                    "trace_id": ctx.trace_id,
                    "parent_span": exec_span_id,
                }
                try:
                    self.pool.submit(task)
                except PoolSaturated:
                    self._finish_job(
                        key,
                        error={"type": "rejected", "message": "queue full"},
                    )
                    log.warning("service.request.shed", job=job.id)
                    retry_after = self.pool.retry_after_s()
                    return Response.error(
                        429,
                        "saturated",
                        "worker pool and queue are full; retry later",
                        headers={"Retry-After": str(int(retry_after))},
                    )
                except PoolClosed:
                    self._finish_job(
                        key,
                        error={
                            "type": "shutdown",
                            "message": "pool shut down",
                        },
                    )
                    return Response.error(
                        503, "shutting-down", "service is draining"
                    )
            elif job.trace_id is not None and job.span_id is not None:
                # Coalesce fan-in, kept as links in both traces: the
                # follower points at the leader's compute span, and the
                # leader's trace records every follower that attached.
                self.traces.add_link(
                    ctx.trace_id,
                    {
                        "type": "coalesce",
                        "span_id": exec_span_id,
                        "linked_trace_id": job.trace_id,
                        "linked_span_id": job.span_id,
                    },
                )
                self.traces.add_link(
                    job.trace_id,
                    {
                        "type": "coalesce-fan-in",
                        "span_id": job.span_id,
                        "linked_trace_id": ctx.trace_id,
                        "linked_span_id": exec_span_id,
                    },
                )
            return self._await_job(job, coalesced=not created, log=log)

    def _mark_running(self, task: Task) -> None:
        key = str(task["key"])
        attempts = int(task["attempts"])
        if self.jobs.mark_running(key, attempts):
            # Only the QUEUED→RUNNING edge is journaled — once per
            # server life — so the count of ``running`` events in an
            # open episode is exactly the cross-restart crash count.
            self._journal_event("running", key, attempts=attempts)

    def _mark_shard_running(self, task: Task) -> None:
        key = str(task["parent_key"])
        attempts = int(task["attempts"])
        if self.jobs.mark_running(key, attempts):
            self._journal_event("running", key, attempts=attempts)

    def _submit_sharded(
        self,
        job: Job,
        spec: JobSpec,
        key: str,
        ctx: TraceContext,
        exec_span_id: str,
        network: Any,
        log: Any,
        skip_shards: Collection[int] = (),
        enforce_capacity: bool = True,
    ) -> Optional[Response]:
        """Fan one admitted job out as per-shard cache warm-up tasks.

        Each shard computes its slice of the profile cache in its own
        worker task (own attempt spans, own crash retry); the
        finalisation CLI run — dispatched by :meth:`_on_shard_complete`
        once every shard landed — then merges an all-hits cache.  A
        crashed worker therefore loses at most one shard of progress.

        Backpressure is per job: only the first shard is capacity
        checked, because rejecting a sibling of an admitted job would
        strand it.  Returns the error response on rejection, None when
        the fan-out is queued.

        ``skip_shards`` holds shard indices whose ``shard_done`` record
        the journal already carries — recovery pre-marks them done and
        dispatches only the rest, so restart recomputes exactly the
        missing shards (their profiles are cache hits regardless, but
        skipping saves the worker round-trips).
        """
        plan = shard_sources(network.nodes, spec.shards)
        self.jobs.begin_fanout(job.key, len(plan))
        metrics = get_obs().metrics
        dispatched = metrics.counter("service.shards.dispatched")
        shards_skipped = metrics.counter("service.recovery.shards_skipped")
        skipped = {i for i in skip_shards if 0 <= i < len(plan)}
        log.info(
            "service.job.sharded",
            job=job.id,
            shards=len(plan),
            sources=len(network.nodes),
            skipped=len(skipped),
        )
        first = True
        for index in range(len(plan)):
            if index in skipped:
                shards_skipped.inc()
                self.jobs.note_shard_done(key)
                continue
            task: Task = {
                "key": f"{key}#shard-{index + 1}of{len(plan)}",
                "kind": "shard",
                "parent_key": key,
                "trace": spec.trace,
                "max_hops": spec.max_hops,
                "shard_index": index,
                "shard_count": len(plan),
                "engine": spec.engine,
                "cache_dir": str(self.profile_cache_dir),
                "test_delay_s": spec.test_delay_s,
                "priority": spec.priority,
                "on_running": self._mark_shard_running,
                "trace_id": ctx.trace_id,
                "parent_span": exec_span_id,
            }
            try:
                self.pool.submit(
                    task, enforce_capacity=(first and enforce_capacity)
                )
            except PoolSaturated:
                self._finish_job(
                    key,
                    error={"type": "rejected", "message": "queue full"},
                )
                log.warning("service.request.shed", job=job.id)
                retry_after = self.pool.retry_after_s()
                return Response.error(
                    429,
                    "saturated",
                    "worker pool and queue are full; retry later",
                    headers={"Retry-After": str(int(retry_after))},
                )
            except PoolClosed:
                self._finish_job(
                    key,
                    error={"type": "shutdown", "message": "pool shut down"},
                )
                return Response.error(
                    503, "shutting-down", "service is draining"
                )
            first = False
            dispatched.inc()
        if len(skipped) >= len(plan):
            # Every shard was already checkpointed — straight to merge.
            self._dispatch_finalize(key)
        return None

    def _await_job(
        self, job: Job, coalesced: bool, log: Any = None
    ) -> Response:
        # Worst case the job runs max_attempts times back to back, plus
        # scheduler slack; the pool's own timeout fires well before this.
        # A sharded job serialises in the worst case (one worker): every
        # shard plus the finalisation run gets its own timeout budget.
        units = max(1, job.shards_total) + (
            1 if job.shards_total > 1 else 0
        )
        budget = (
            self.config.job_timeout_s * self.config.max_attempts * units
            + 30.0
        )
        if not job.done.wait(budget):
            if log is not None:
                log.error(
                    "service.request.wait-timeout",
                    job=job.id,
                    budget_s=budget,
                )
            return Response.error(
                504,
                "wait-timeout",
                f"job {job.id} did not finish within {budget:g}s",
                job=job.id,
            )
        if job.error is not None or job.output is None:
            error = dict(
                job.error
                or {"type": "unknown", "message": "job produced no output"}
            )
            return Response.json(
                500,
                {"error": error, "job": job.id, "stderr": job.stderr},
            )
        return self._success(
            job.output,
            job.key,
            source="coalesced" if coalesced else "computed",
        )

    def _success(self, payload: bytes, key: str, source: str) -> Response:
        get_obs().metrics.counter(
            "service.http.responses", source=source
        ).inc()
        return Response(
            200,
            payload,
            content_type="text/plain; charset=utf-8",
            headers={
                "X-Repro-Job": key[:32],
                "X-Repro-Source": source,
            },
        )

    def handle_job(self, job_id: str) -> Response:
        document = self.jobs.lookup_document(job_id)
        if document is not None:
            return Response.json(200, document)
        # A job can age out of the table while its result lives on in
        # the store (the id doubles as the store file stem).
        if (self.store.root / f"result-{job_id}.bin").exists():
            return Response.json(
                200, {"job": job_id, "state": "done", "source": "store"}
            )
        return Response.error(404, "not-found", f"unknown job {job_id!r}")

    #: hard ceiling on one ``GET /v1/jobs`` page.
    _MAX_JOBS_PAGE = 500

    def handle_jobs_list(self, query: str) -> Response:
        """``GET /v1/jobs`` — the queue, recent history, dead letters.

        ``?state=`` and ``?priority=`` filter, ``?limit=`` bounds the
        page (default 100, ceiling 500).  Bad filter values are 400s,
        not silent empty pages.
        """
        params = parse_qs(query, keep_blank_values=True)
        unknown = sorted(set(params) - {"state", "priority", "limit"})
        if unknown:
            return Response.error(
                400,
                "bad-request",
                f"unknown query parameter(s): {', '.join(unknown)}",
                field=unknown[0],
            )
        state = params.get("state", [None])[-1] or None
        if state is not None and state not in STATES:
            return Response.error(
                400,
                "bad-request",
                f"state must be one of {', '.join(STATES)}",
                field="state",
            )
        priority = params.get("priority", [None])[-1] or None
        if priority is not None and priority not in PRIORITIES:
            return Response.error(
                400,
                "bad-request",
                f"priority must be one of {', '.join(PRIORITIES)}",
                field="priority",
            )
        limit = 100
        raw_limit = params.get("limit", [None])[-1]
        if raw_limit is not None:
            try:
                limit = int(raw_limit)
            except ValueError:
                return Response.error(
                    400, "bad-request", "limit must be an integer",
                    field="limit",
                )
            if not 1 <= limit <= self._MAX_JOBS_PAGE:
                return Response.error(
                    400,
                    "bad-request",
                    f"limit must be in [1, {self._MAX_JOBS_PAGE}]",
                    field="limit",
                )
        jobs = self.jobs.list_jobs(state=state, priority=priority, limit=limit)
        return Response.json(
            200,
            {
                "jobs": jobs,
                "count": len(jobs),
                "inflight": self.jobs.inflight_count(),
                "dead_lettered": self.jobs.dead_letter_count(),
            },
        )

    def handle_health(self) -> Response:
        pool = self.pool.health()
        document: Dict[str, object] = {
            "status": pool["state"],
            "pool": pool,
            "store": self.store.stats(),
            "jobs": {
                "inflight": self.jobs.inflight_count(),
                "finished": self.jobs.finished_count(),
                "dead_lettered": self.jobs.dead_letter_count(),
            },
            "journal": (
                None
                if self.journal is None
                else {
                    "dir": str(self.journal.root),
                    "next_seq": self.journal.next_seq,
                    "fsync": self.journal.fsync,
                }
            ),
            "traces": self.traces.stats(),
        }
        status = 200 if pool["state"] == "healthy" else 503
        return Response.json(status, document)

    def handle_metrics(self) -> Response:
        text = get_obs().metrics.render_text()
        return Response(
            200,
            text.encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    def handle_traces(self) -> Response:
        """``GET /debug/traces`` — the ring's summary listing."""
        return Response.json(
            200,
            {"traces": self.traces.summaries(), "stats": self.traces.stats()},
        )

    def handle_trace(self, trace_id: str) -> Response:
        """``GET /debug/traces/<id>`` — one trace as repro.trace/1 JSONL."""
        export = self.traces.export_jsonl(trace_id.strip().lower())
        if export is None:
            return Response.error(
                404, "not-found", f"unknown or evicted trace {trace_id!r}"
            )
        return Response(
            200,
            export.encode("utf-8"),
            content_type="application/x-ndjson",
        )

    def close(self, drain: bool = True, timeout_s: float = 30.0) -> bool:
        """Shut the pool down; with ``drain``, let queued work finish."""
        drained = self.pool.shutdown(drain=drain, timeout_s=timeout_s)
        if self.journal is not None:
            self.journal.close()
        return drained


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP shell over a :class:`ReproService`."""

    service: ReproService
    server_version = "repro-service/1"

    # -- plumbing -------------------------------------------------------
    def _send(self, response: Response) -> None:
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(response.body)

    def log_message(self, format: str, *args: object) -> None:
        # Request logging is a structured-logger concern, not stderr's.
        pass

    def _read_body(self) -> Union[bytes, Response]:
        """The request body, or the error response for a bad length.

        ``Content-Length`` must be plain decimal digits: a negative
        value would make ``rfile.read`` wait for end-of-stream (the
        handler hangs until the client gives up), and a non-number is a
        client mistake, so both are 400s rather than a hang or a 5xx.
        """
        raw = self.headers.get("Content-Length")
        text = (raw or "0").strip()
        if not (text.isascii() and text.isdigit()):
            return Response.error(
                400, "bad-request", f"invalid Content-Length {raw!r}"
            )
        length = int(text)
        if length > self.service.config.max_body_bytes:
            return Response.error(413, "too-large", "request body too large")
        return self.rfile.read(length) if length else b""

    # -- routes ---------------------------------------------------------
    def do_POST(self) -> None:
        get_obs().metrics.counter("service.http.requests", method="POST").inc()
        self._route("POST")

    def do_GET(self) -> None:
        get_obs().metrics.counter("service.http.requests", method="GET").inc()
        self._route("GET")

    def _route(self, method: str) -> None:
        """Mint the trace context, dispatch, and never leak a bare 500."""
        ctx, remote_parent = mint_context(self.headers.get("traceparent"))
        try:
            response = self._dispatch(method, ctx, remote_parent)
        except Exception as exc:
            get_obs().metrics.counter("service.http.errors").inc()
            get_logger("repro.service").error(
                "service.request.error",
                trace_id=ctx.trace_id,
                path=self.path,
                error=f"{type(exc).__name__}: {exc}",
            )
            response = Response.error(
                500, "internal-error", f"{type(exc).__name__}: {exc}"
            )
        self._send(with_trace(response, ctx))

    def _dispatch(
        self, method: str, ctx: TraceContext, remote_parent: Optional[str]
    ) -> Response:
        obs = get_obs()
        if method == "POST":
            for command in COMMANDS:
                if self.path == f"/v1/{command}":
                    body = self._read_body()
                    if isinstance(body, Response):
                        return body
                    return self.service.handle_query(
                        command, body, ctx=ctx, remote_parent=remote_parent
                    )
            return Response.error(
                404, "not-found", f"no route {self.path!r}"
            )
        if self.path == "/healthz":
            with obs.metrics.timer("service.http.latency", endpoint="healthz"):
                return self.service.handle_health()
        if self.path == "/metrics":
            with obs.metrics.timer("service.http.latency", endpoint="metrics"):
                return self.service.handle_metrics()
        if self.path == "/debug/traces":
            with obs.metrics.timer(
                "service.http.latency", endpoint="debug-traces"
            ):
                return self.service.handle_traces()
        if self.path.startswith("/debug/traces/"):
            with obs.metrics.timer(
                "service.http.latency", endpoint="debug-trace"
            ):
                return self.service.handle_trace(
                    self.path[len("/debug/traces/"):]
                )
        parsed = urlsplit(self.path)
        if parsed.path == "/v1/jobs":
            with obs.metrics.timer(
                "service.http.latency", endpoint="jobs-list"
            ):
                return self.service.handle_jobs_list(parsed.query)
        if parsed.path.startswith("/v1/jobs/"):
            with obs.metrics.timer("service.http.latency", endpoint="jobs"):
                return self.service.handle_job(
                    parsed.path[len("/v1/jobs/"):]
                )
        return Response.error(404, "not-found", f"no route {self.path!r}")


def make_server(
    service: ReproService,
    host: Optional[str] = None,
    port: Optional[int] = None,
) -> ThreadingHTTPServer:
    """A ready-to-serve threaded HTTP server bound to ``service``.

    ``port=0`` binds an ephemeral port; read the actual one from
    ``server.server_address``.
    """
    handler: Type[_Handler] = type(
        "_BoundHandler", (_Handler,), {"service": service}
    )
    address: Tuple[str, int] = (
        service.config.host if host is None else host,
        service.config.port if port is None else port,
    )
    server = ThreadingHTTPServer(address, handler)
    server.daemon_threads = True
    return server


def serve_in_thread(
    service: ReproService,
) -> Tuple[ThreadingHTTPServer, threading.Thread, str]:
    """Start serving on a background thread; returns (server, thread, url).

    The caller owns shutdown: ``server.shutdown()`` then
    ``service.close()``.  Used by tests and the load benchmark.
    """
    server = make_server(service)
    host, port = server.server_address[0], server.server_address[1]
    thread = threading.Thread(
        target=server.serve_forever, name="repro-service-http", daemon=True
    )
    thread.start()
    return server, thread, f"http://{host}:{port}"
