"""Validate benchmark artefacts emitted by ``bench_session``.

CI runs this instead of inline heredocs so the assertions are
importable, testable, and usable locally::

    PYTHONPATH=src python benchmarks/validate_artifacts.py bench bench-out
    PYTHONPATH=src python benchmarks/validate_artifacts.py cache-rerun \\
        bench-cold/BENCH_fig9_delay_cdf.json \\
        bench-warm/BENCH_fig9_delay_cdf.json --max-hit-ratio 0.25
    PYTHONPATH=src python benchmarks/validate_artifacts.py service-load \\
        bench-out/BENCH_service_load.json
    PYTHONPATH=src python benchmarks/validate_artifacts.py trace \\
        bench-out/TRACE_service_load.jsonl \\
        --require-span worker.execute --require-origin worker

``bench`` checks every ``BENCH_*.json`` under a directory against the
bench payload schema.  ``cache-rerun`` checks a cold/warm pair of runs
against a shared profile cache: the cold run must miss, the warm run
must hit without a single miss or invalidation; ``--max-hit-ratio R``
also fails when the warm run's ``profiles.cache.hit_s`` exceeds R times
the cold run's ``profiles.cache.compute_s``.  ``service-load``
checks the query-service load harness record: single-flight coalescing
(exactly one computation for the concurrent burst, ratio >= 7/8),
byte-identical responses, at least one ``429`` shed under saturation,
and the latency percentile record.  ``trace`` checks an exported
``repro.trace/1`` JSONL document (ids well-formed, parents resolve,
header counts match) and asserts coverage via ``--require-span`` /
``--require-origin`` / ``--require-link``.  ``lint`` checks a
``repro.lint/1`` JSON report (schema, registry block matching this
checkout's rules, counts consistent with the findings, findings
sorted); ``--expect-clean`` additionally fails on any finding.
``lockwatch`` checks a ``repro.lockwatch/1`` JSONL export;
``--forbid-inversions`` / ``--max-long-holds`` add the CI policy gates.
``engine`` checks a cold/warm pair of ``bench_engine.py`` records:
per-dataset and aggregate speedup fields present and positive, the
vec-vs-scalar parity hash identical across engines (recorded) and
across the cold/warm runs, the cold run broadcasting each network to
the worker pool exactly once (``engine.pool.broadcasts`` equals the
dataset count, task pickle traffic below the one-off segment bytes)
and the warm run reusing every segment without a single new broadcast;
``--min-speedup X`` additionally gates the aggregate speedups::

    PYTHONPATH=src python benchmarks/validate_artifacts.py engine \\
        engine-out/BENCH_engine.cold.json \\
        engine-out/BENCH_engine.warm.json --min-speedup 2.0

``journal`` checks a ``repro.journal/1`` write-ahead journal directory
as one event stream (schema, monotonic seq, episode discipline, torn
line only at the tail); ``--forbid-open`` additionally fails when any
episode never reached a terminal event::

    PYTHONPATH=src python benchmarks/validate_artifacts.py journal \\
        /tmp/repro-journal --forbid-open

::

    PYTHONPATH=src python benchmarks/validate_artifacts.py lint \\
        lint-report.json --expect-clean
    PYTHONPATH=src python benchmarks/validate_artifacts.py lockwatch \\
        lockwatch-out/LOCKWATCH_service_fuzz_jobtable.jsonl \\
        --forbid-inversions
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Optional, Sequence

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from _common import validate_bench_payload  # noqa: E402


class ValidationError(Exception):
    """An artefact failed validation."""


def _load(path: pathlib.Path) -> Dict[str, object]:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ValidationError(f"{path}: cannot load: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: payload is not a JSON object")
    return payload


def validate_bench_dir(out_dir: pathlib.Path) -> List[str]:
    """Check every ``BENCH_*.json`` in ``out_dir``; returns report lines."""
    paths = sorted(out_dir.glob("BENCH_*.json"))
    if not paths:
        raise ValidationError(f"{out_dir}: no BENCH_*.json artefacts found")
    lines = []
    for path in paths:
        payload = _load(path)
        try:
            validate_bench_payload(payload)
        except ValueError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
        manifest = payload["manifest"]
        assert isinstance(manifest, dict)
        lines.append(
            f"{path}: ok (schema {payload['schema']}, "
            f"runtime {manifest['runtime_s']:.3f}s)"
        )
    return lines


def _counters(payload: Dict[str, object], path: pathlib.Path) -> Dict[str, int]:
    if payload.get("exit_code") != 0:
        raise ValidationError(f"{path}: exit_code {payload.get('exit_code')!r}")
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict) or not isinstance(
        metrics.get("counters"), dict
    ):
        raise ValidationError(f"{path}: no metrics.counters section")
    return metrics["counters"]


def _timer_wall_sum(
    payload: Dict[str, object], path: pathlib.Path, name: str
) -> float:
    """Total wall seconds of timer ``name`` in a bench payload."""
    metrics = payload.get("metrics")
    timers = metrics.get("timers") if isinstance(metrics, dict) else None
    timer = timers.get(name) if isinstance(timers, dict) else None
    total = timer.get("wall_sum") if isinstance(timer, dict) else None
    if not isinstance(total, (int, float)) or isinstance(total, bool):
        raise ValidationError(f"{path}: no {name} timer recorded")
    return float(total)


def validate_cache_rerun(
    cold_path: pathlib.Path,
    warm_path: pathlib.Path,
    max_hit_ratio: Optional[float] = None,
) -> List[str]:
    """Check a cold/warm bench pair sharing one profile cache.

    ``max_hit_ratio`` additionally bounds what the warm run's cache hits
    cost against what the cold run's misses spent computing:
    ``profiles.cache.hit_s`` (warm) over ``profiles.cache.compute_s``
    (cold), both summed wall seconds.
    """
    cold_payload = _load(cold_path)
    warm_payload = _load(warm_path)
    cold = _counters(cold_payload, cold_path)
    warm = _counters(warm_payload, warm_path)
    if cold.get("profiles.cache.miss", 0) <= 0:
        raise ValidationError(
            f"{cold_path}: cold run recorded no cache misses: {cold}"
        )
    if warm.get("profiles.cache.hit", 0) <= 0:
        raise ValidationError(
            f"{warm_path}: warm run recorded no cache hits: {warm}"
        )
    if warm.get("profiles.cache.miss", 0) != 0:
        raise ValidationError(
            f"{warm_path}: warm run still missed the cache: {warm}"
        )
    if warm.get("profiles.cache.invalid", 0) != 0:
        raise ValidationError(
            f"{warm_path}: warm run invalidated cache entries: {warm}"
        )
    lines = [
        f"cold run misses: {cold['profiles.cache.miss']}",
        f"warm run hits:   {warm['profiles.cache.hit']}",
    ]
    if max_hit_ratio is not None:
        hit_s = _timer_wall_sum(warm_payload, warm_path, "profiles.cache.hit_s")
        compute_s = _timer_wall_sum(
            cold_payload, cold_path, "profiles.cache.compute_s"
        )
        if compute_s <= 0.0:
            raise ValidationError(
                f"{cold_path}: profiles.cache.compute_s is {compute_s}"
            )
        ratio = hit_s / compute_s
        line = (
            f"hit/compute:     {ratio:.4f} (warm hits {hit_s:.4f} s / "
            f"cold compute {compute_s:.4f} s; max {max_hit_ratio})"
        )
        if ratio > max_hit_ratio:
            raise ValidationError(f"cache hits cost too much: {line}")
        lines.append(line)
    return lines


def validate_service_load(path: pathlib.Path) -> List[str]:
    """Check one ``BENCH_service_load.json`` load-harness record."""
    payload = _load(path)
    counters = _counters(payload, path)
    manifest = payload.get("manifest")
    if not isinstance(manifest, dict) or not isinstance(
        manifest.get("params"), dict
    ):
        raise ValidationError(f"{path}: no manifest params")
    summary = manifest["params"].get("service_load")
    if not isinstance(summary, dict):
        raise ValidationError(f"{path}: no service_load summary on manifest")
    for section in (
        "coalesce", "throughput", "backpressure", "sharded", "recovery"
    ):
        if not isinstance(summary.get(section), dict):
            raise ValidationError(f"{path}: summary missing {section!r}")
    coalesce = summary["coalesce"]
    if coalesce.get("computed") != 1:
        raise ValidationError(
            f"{path}: concurrent burst computed "
            f"{coalesce.get('computed')!r} times, expected exactly 1"
        )
    concurrency = int(coalesce.get("concurrency", 0))
    ratio = float(coalesce.get("coalesce_ratio", 0.0))
    if concurrency < 2 or ratio < (concurrency - 1) / concurrency:
        raise ValidationError(
            f"{path}: coalesce ratio {ratio:.3f} below "
            f"{concurrency - 1}/{concurrency}"
        )
    if coalesce.get("byte_identical") is not True:
        raise ValidationError(
            f"{path}: service responses were not byte-identical to the CLI"
        )
    throughput = summary["throughput"]
    if not float(throughput.get("throughput_rps", 0.0)) > 0.0:
        raise ValidationError(f"{path}: non-positive throughput")
    percentiles = throughput.get("latency_percentiles_s")
    if not isinstance(percentiles, dict):
        raise ValidationError(
            f"{path}: throughput missing latency_percentiles_s"
        )
    previous = 0.0
    for quantile in ("p10", "p50", "p90", "p99"):
        value = percentiles.get(quantile)
        if not isinstance(value, (int, float)) or value < previous:
            raise ValidationError(
                f"{path}: latency percentiles not monotone at {quantile}: "
                f"{percentiles}"
            )
        previous = float(value)
    backpressure = summary["backpressure"]
    if backpressure.get("rejected_status") != 429:
        raise ValidationError(
            f"{path}: saturation was not shed with 429: "
            f"{backpressure.get('rejected_status')!r}"
        )
    if counters.get("service.pool.rejected", 0) <= 0:
        raise ValidationError(
            f"{path}: no service.pool.rejected counter recorded"
        )
    sharded = summary["sharded"]
    if sharded.get("byte_identical") is not True:
        raise ValidationError(
            f"{path}: sharded responses were not byte-identical to the CLI"
        )
    shards_total = int(sharded.get("shards_total", 0))
    shards_done = int(sharded.get("shards_done", -1))
    if shards_total <= 1 or shards_done != shards_total:
        raise ValidationError(
            f"{path}: sharded progress incomplete: "
            f"{shards_done}/{shards_total}"
        )
    for name in ("service.shards.completed", "service.shards.dispatched"):
        if counters.get(name, 0) < shards_total:
            raise ValidationError(
                f"{path}: counter {name} below shard count "
                f"({counters.get(name, 0)} < {shards_total})"
            )
    recovery = summary["recovery"]
    if recovery.get("byte_identical") is not True:
        raise ValidationError(
            f"{path}: recovered result was not byte-identical to the CLI"
        )
    if recovery.get("journal_valid") is not True:
        raise ValidationError(
            f"{path}: journal did not validate after recovery"
        )
    if int(recovery.get("events_replayed", 0)) <= 0:
        raise ValidationError(f"{path}: recovery replayed no journal events")
    if int(recovery.get("requeued", 0)) < 1:
        raise ValidationError(f"{path}: recovery re-enqueued no jobs")
    skipped = int(recovery.get("shards_skipped", 0))
    done_before = int(recovery.get("shards_done_before_kill", -1))
    if skipped < 1 or skipped != done_before:
        raise ValidationError(
            f"{path}: recovery recomputed checkpointed shards "
            f"(skipped {skipped}, checkpointed {done_before})"
        )
    if not float(recovery.get("drain_s", 0.0)) > 0.0:
        raise ValidationError(f"{path}: non-positive recovery drain time")
    if float(recovery.get("recovery_s", -1.0)) < 0.0:
        raise ValidationError(f"{path}: missing recovery_s measurement")
    fsync = recovery.get("fsync")
    if not isinstance(fsync, dict):
        raise ValidationError(f"{path}: recovery missing fsync probe")
    for rate in ("fsync_appends_per_s", "nofsync_appends_per_s"):
        if not float(fsync.get(rate, 0.0)) > 0.0:
            raise ValidationError(
                f"{path}: fsync probe rate {rate} is not positive"
            )
    if counters.get("service.recovery.requeued", 0) < 1:
        raise ValidationError(
            f"{path}: no service.recovery.requeued counter recorded"
        )
    return [
        f"coalesce: {coalesce['coalesced']}/{concurrency} "
        f"(ratio {ratio:.3f}, byte-identical)",
        f"throughput: {float(throughput['throughput_rps']):.1f} req/s "
        f"(p99 {float(throughput.get('latency_p99_s', 0.0)) * 1000:.1f} ms)",
        f"backpressure: 429 + Retry-After "
        f"{backpressure.get('retry_after_s')}s",
        f"sharded: {shards_done}/{shards_total} shards, byte-identical",
        f"recovery: {recovery['events_replayed']} events replayed, "
        f"{skipped} shard(s) skipped, drained in "
        f"{float(recovery['drain_s']):.2f}s, byte-identical",
        f"journal fsync probe: "
        f"{float(fsync['fsync_appends_per_s']):.0f} vs "
        f"{float(fsync['nofsync_appends_per_s']):.0f} appends/s",
    ]


def _engine_summary(path: pathlib.Path, payload: Dict[str, object]) -> Dict[str, object]:
    manifest = payload.get("manifest")
    if not isinstance(manifest, dict) or not isinstance(
        manifest.get("params"), dict
    ):
        raise ValidationError(f"{path}: no manifest params")
    summary = manifest["params"].get("engine")
    if not isinstance(summary, dict):
        raise ValidationError(f"{path}: no engine summary on manifest")
    if summary.get("parity_ok") is not True:
        raise ValidationError(f"{path}: parity_ok is not true")
    datasets = summary.get("datasets")
    if not isinstance(datasets, dict) or not datasets:
        raise ValidationError(f"{path}: no per-dataset engine records")
    for name, row in datasets.items():
        if not isinstance(row, dict):
            raise ValidationError(f"{path}: dataset {name!r} is not an object")
        for field in ("scalar_s", "vec_s", "speedup"):
            value = row.get(field)
            if not isinstance(value, (int, float)) or not value > 0.0:
                raise ValidationError(
                    f"{path}: dataset {name!r} field {field} is not a "
                    f"positive number: {value!r}"
                )
        digest = row.get("parity_sha256")
        if not (isinstance(digest, str) and len(digest) == 64):
            raise ValidationError(
                f"{path}: dataset {name!r} has no parity_sha256 hash"
            )
    for field in ("scalar_s", "vec_s", "speedup"):
        value = summary.get(field)
        if not isinstance(value, (int, float)) or not value > 0.0:
            raise ValidationError(
                f"{path}: aggregate field {field} is not a positive "
                f"number: {value!r}"
            )
    return summary


def validate_engine_pair(
    cold_path: pathlib.Path,
    warm_path: pathlib.Path,
    min_speedup: Optional[float] = None,
) -> List[str]:
    """Check a cold/warm ``bench_engine.py`` pair (parity + broadcasts)."""
    cold_payload = _load(cold_path)
    warm_payload = _load(warm_path)
    cold_counters = _counters(cold_payload, cold_path)
    warm_counters = _counters(warm_payload, warm_path)
    cold = _engine_summary(cold_path, cold_payload)
    warm = _engine_summary(warm_path, warm_payload)
    cold_sets = cold["datasets"]
    warm_sets = warm["datasets"]
    assert isinstance(cold_sets, dict) and isinstance(warm_sets, dict)
    if sorted(cold_sets) != sorted(warm_sets):
        raise ValidationError(
            f"{warm_path}: dataset roster differs from the cold run: "
            f"{sorted(warm_sets)} != {sorted(cold_sets)}"
        )
    for name, cold_row in cold_sets.items():
        if cold_row["parity_sha256"] != warm_sets[name]["parity_sha256"]:
            raise ValidationError(
                f"{warm_path}: dataset {name!r} parity hash differs from "
                f"the cold run — the engines are not deterministic"
            )
    broadcasts = cold_counters.get("engine.pool.broadcasts", 0)
    if broadcasts != len(cold_sets):
        raise ValidationError(
            f"{cold_path}: cold run broadcast {broadcasts} segment(s) for "
            f"{len(cold_sets)} network(s) — expected exactly one each"
        )
    task_bytes = cold_counters.get("engine.pool.task_bytes", 0)
    broadcast_bytes = cold_counters.get("engine.pool.broadcast_bytes", 0)
    if not 0 < task_bytes < broadcast_bytes:
        raise ValidationError(
            f"{cold_path}: task pickle traffic ({task_bytes} B) is not "
            f"dwarfed by the one-off broadcast ({broadcast_bytes} B)"
        )
    if warm_counters.get("engine.pool.broadcasts", 0) != 0:
        raise ValidationError(
            f"{warm_path}: warm run re-broadcast the network "
            f"({warm_counters.get('engine.pool.broadcasts')} segment(s))"
        )
    if warm_counters.get("engine.pool.broadcast_reused", 0) < len(warm_sets):
        raise ValidationError(
            f"{warm_path}: warm run reused fewer segments than datasets: "
            f"{warm_counters.get('engine.pool.broadcast_reused')}"
        )
    if min_speedup is not None:
        for label, summary, path in (
            ("cold", cold, cold_path), ("warm", warm, warm_path)
        ):
            speedup = float(summary["speedup"])  # type: ignore[arg-type]
            if speedup < min_speedup:
                raise ValidationError(
                    f"{path}: {label} aggregate speedup {speedup:.2f}x "
                    f"below the required {min_speedup:.2f}x"
                )
    return [
        f"cold: {float(cold['speedup']):.2f}x over scalar "  # type: ignore[arg-type]
        f"({broadcasts} broadcast(s), {task_bytes} B task traffic vs "
        f"{broadcast_bytes} B segments)",
        f"warm: {float(warm['speedup']):.2f}x over scalar "  # type: ignore[arg-type]
        f"({warm_counters.get('engine.pool.broadcast_reused', 0)} segment "
        f"reuse(s), 0 re-broadcasts)",
        f"parity: {len(cold_sets)} dataset hash(es) identical across "
        f"engines and runs",
    ]


def validate_trace_export(
    path: pathlib.Path,
    require_spans: Sequence[str] = (),
    require_origins: Sequence[str] = (),
    require_links: Sequence[str] = (),
) -> List[str]:
    """Check one exported ``repro.trace/1`` JSONL document."""
    from repro.obs.tracestore import validate_trace_jsonl

    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read: {exc}") from exc
    try:
        summary = validate_trace_jsonl(
            text,
            require_names=tuple(require_spans),
            require_origins=tuple(require_origins),
            require_link_types=tuple(require_links),
        )
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    return [
        f"{path}: ok (trace {summary['trace_id']}, "
        f"{summary['spans']} spans, {summary['links']} links)",
        f"origins: {', '.join(summary['origins'])}",
        f"spans:   {', '.join(summary['names'])}",
    ]


def validate_lint_report(
    path: pathlib.Path, expect_clean: bool = False
) -> List[str]:
    """Check one ``repro.lint/1`` JSON report."""
    from repro.lint import REGISTRY_VERSION, rule_codes
    from repro.lint.reporters import JSON_SCHEMA

    payload = _load(path)
    if payload.get("schema") != JSON_SCHEMA:
        raise ValidationError(
            f"{path}: schema {payload.get('schema')!r} != {JSON_SCHEMA!r}"
        )
    registry = payload.get("registry")
    if not isinstance(registry, dict):
        raise ValidationError(f"{path}: no registry block")
    if registry.get("version") != REGISTRY_VERSION:
        raise ValidationError(
            f"{path}: registry version {registry.get('version')!r} != "
            f"this checkout's {REGISTRY_VERSION}"
        )
    expected_rules = ["REP000"] + rule_codes()
    if registry.get("rules") != expected_rules:
        raise ValidationError(
            f"{path}: registry rules {registry.get('rules')!r} != "
            f"{expected_rules}"
        )
    files_checked = payload.get("files_checked")
    if not isinstance(files_checked, int) or files_checked <= 0:
        raise ValidationError(
            f"{path}: files_checked {files_checked!r} is not a positive int"
        )
    findings = payload.get("findings")
    if not isinstance(findings, list):
        raise ValidationError(f"{path}: findings is not a list")
    counts: Dict[str, int] = {}
    for finding in findings:
        if not isinstance(finding, dict):
            raise ValidationError(f"{path}: non-object finding {finding!r}")
        for field in ("path", "line", "col", "code", "message"):
            if field not in finding:
                raise ValidationError(
                    f"{path}: finding missing {field!r}: {finding!r}"
                )
        code = finding["code"]
        if code not in expected_rules:
            raise ValidationError(f"{path}: unknown finding code {code!r}")
        counts[code] = counts.get(code, 0) + 1
    if payload.get("counts") != counts:
        raise ValidationError(
            f"{path}: counts {payload.get('counts')!r} do not match the "
            f"findings ({counts})"
        )
    keys = [
        (f["path"], f["line"], f["col"], f["code"]) for f in findings
    ]
    if keys != sorted(keys):
        raise ValidationError(f"{path}: findings are not sorted")
    if expect_clean and findings:
        raise ValidationError(
            f"{path}: expected a clean report, found {len(findings)} "
            f"finding(s): {payload.get('counts')}"
        )
    return [
        f"{path}: ok (schema {payload['schema']}, registry v"
        f"{registry['version']}, {files_checked} files, "
        f"{len(findings)} finding(s))"
    ]


def validate_journal_artifact(
    path: pathlib.Path, forbid_open: bool = False
) -> List[str]:
    """Check one ``repro.journal/1`` directory as a single event stream."""
    from repro.service.journal import JournalError, validate_journal_dir

    try:
        summary = validate_journal_dir(path)
    except JournalError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    open_episodes = int(summary["open_episodes"])
    if forbid_open and open_episodes:
        raise ValidationError(
            f"{path}: {open_episodes} episode(s) still open "
            "(expected every job to have reached a terminal event)"
        )
    return [
        f"{path}: ok ({summary['events']} events, last seq "
        f"{summary['last_seq']}, {open_episodes} open / "
        f"{summary['closed_episodes']} closed episode(s), "
        f"{summary['torn_lines']} torn line(s))"
    ]


def validate_lockwatch_export(
    path: pathlib.Path,
    forbid_inversions: bool = False,
    max_long_holds: Optional[int] = None,
) -> List[str]:
    """Check one exported ``repro.lockwatch/1`` JSONL document."""
    from repro.obs.lockwatch import LockWatchError, validate_lockwatch_jsonl

    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read: {exc}") from exc
    try:
        counts = validate_lockwatch_jsonl(
            text,
            forbid_inversions=forbid_inversions,
            max_long_holds=max_long_holds,
        )
    except LockWatchError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    return [
        f"{path}: ok ({counts['lock']} locks, {counts['edge']} edges, "
        f"{counts['inversion']} inversions, {counts['long_hold']} "
        "long holds)"
    ]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="validate_artifacts", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)
    bench = sub.add_parser("bench", help="validate BENCH_*.json in a directory")
    bench.add_argument("out_dir", type=pathlib.Path)
    rerun = sub.add_parser(
        "cache-rerun", help="validate a cold/warm cached bench pair"
    )
    rerun.add_argument("cold", type=pathlib.Path)
    rerun.add_argument("warm", type=pathlib.Path)
    rerun.add_argument(
        "--max-hit-ratio", type=float, default=None, metavar="R",
        help="fail when the warm run's cache-hit seconds exceed R times "
        "the cold run's compute seconds",
    )
    service = sub.add_parser(
        "service-load", help="validate the service load harness record"
    )
    service.add_argument("artifact", type=pathlib.Path)
    trace = sub.add_parser(
        "trace", help="validate an exported repro.trace/1 JSONL document"
    )
    trace.add_argument("artifact", type=pathlib.Path)
    trace.add_argument(
        "--require-span", action="append", default=[], metavar="NAME",
        help="fail unless a span with this name is present (repeatable)",
    )
    trace.add_argument(
        "--require-origin", action="append", default=[], metavar="ORIGIN",
        help="fail unless a span from this origin is present (repeatable)",
    )
    trace.add_argument(
        "--require-link", action="append", default=[], metavar="TYPE",
        help="fail unless a link of this type is present (repeatable)",
    )
    lint = sub.add_parser(
        "lint", help="validate a repro.lint/1 JSON report"
    )
    lint.add_argument("artifact", type=pathlib.Path)
    lint.add_argument(
        "--expect-clean",
        action="store_true",
        help="fail if the report contains any finding",
    )
    journal = sub.add_parser(
        "journal", help="validate a repro.journal/1 directory"
    )
    journal.add_argument("journal_dir", type=pathlib.Path)
    journal.add_argument(
        "--forbid-open",
        action="store_true",
        help="fail when any episode is still open (no terminal event)",
    )
    engine = sub.add_parser(
        "engine", help="validate a cold/warm engine-parity bench pair"
    )
    engine.add_argument("cold", type=pathlib.Path)
    engine.add_argument("warm", type=pathlib.Path)
    engine.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail when either aggregate vec speedup is below X",
    )
    lockwatch = sub.add_parser(
        "lockwatch", help="validate a repro.lockwatch/1 JSONL export"
    )
    lockwatch.add_argument("artifact", type=pathlib.Path)
    lockwatch.add_argument(
        "--forbid-inversions",
        action="store_true",
        help="fail on any observed lock-order inversion",
    )
    lockwatch.add_argument(
        "--max-long-holds",
        type=int,
        default=None,
        metavar="N",
        help="fail when more than N long-hold events were recorded",
    )
    args = parser.parse_args(argv)
    try:
        if args.command == "bench":
            lines = validate_bench_dir(args.out_dir)
        elif args.command == "cache-rerun":
            lines = validate_cache_rerun(
                args.cold, args.warm, max_hit_ratio=args.max_hit_ratio
            )
        elif args.command == "trace":
            lines = validate_trace_export(
                args.artifact,
                require_spans=args.require_span,
                require_origins=args.require_origin,
                require_links=args.require_link,
            )
        elif args.command == "lint":
            lines = validate_lint_report(
                args.artifact, expect_clean=args.expect_clean
            )
        elif args.command == "journal":
            lines = validate_journal_artifact(
                args.journal_dir, forbid_open=args.forbid_open
            )
        elif args.command == "engine":
            lines = validate_engine_pair(
                args.cold, args.warm, min_speedup=args.min_speedup
            )
        elif args.command == "lockwatch":
            lines = validate_lockwatch_export(
                args.artifact,
                forbid_inversions=args.forbid_inversions,
                max_long_holds=args.max_long_holds,
            )
        else:
            lines = validate_service_load(args.artifact)
    except ValidationError as exc:
        print(f"validate_artifacts: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
