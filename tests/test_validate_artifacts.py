"""Tests for benchmarks/validate_artifacts.py — the artefact checks CI
runs after the smoke benchmarks (extracted from inline workflow
heredocs so they can be exercised here)."""

import importlib.util
import json
import pathlib
import sys

import pytest

_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_validator():
    spec = importlib.util.spec_from_file_location(
        "validate_artifacts", _ROOT / "benchmarks" / "validate_artifacts.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


va = _load_validator()


def _bench_payload(**overrides):
    payload = {
        "schema": "repro.bench/1",
        "bench": "fig9_delay_cdf",
        "seed": 7,
        "scale": 0.05,
        "exit_code": 0,
        "metrics": {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "timers": {},
        },
        "manifest": {
            "runtime_s": 1.25,
            "python_version": "3.11.0",
            "started_unix": 1700000000.0,
        },
    }
    payload.update(overrides)
    return payload


def _write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestBenchDir:
    def test_valid_directory_reports_each_artifact(self, tmp_path):
        _write(tmp_path / "BENCH_a.json", _bench_payload(bench="a"))
        _write(tmp_path / "BENCH_b.json", _bench_payload(bench="b"))
        lines = va.validate_bench_dir(tmp_path)
        assert len(lines) == 2
        assert all("ok" in line for line in lines)

    def test_empty_directory_fails(self, tmp_path):
        with pytest.raises(va.ValidationError, match="no BENCH_"):
            va.validate_bench_dir(tmp_path)

    def test_malformed_payload_fails(self, tmp_path):
        _write(tmp_path / "BENCH_bad.json", _bench_payload(schema="wrong"))
        with pytest.raises(va.ValidationError, match="bad schema"):
            va.validate_bench_dir(tmp_path)

    def test_unparseable_json_fails(self, tmp_path):
        (tmp_path / "BENCH_broken.json").write_text("{not json")
        with pytest.raises(va.ValidationError, match="cannot load"):
            va.validate_bench_dir(tmp_path)


def _cached_payload(counters, timers=None):
    metrics = {
        "counters": counters,
        "gauges": {},
        "histograms": {},
        "timers": timers or {},
    }
    return _bench_payload(metrics=metrics)


def _wall(seconds):
    return {"wall_count": 1, "wall_sum": seconds, "cpu_sum": seconds}


class TestCacheRerun:
    def _pair(self, tmp_path, cold_counters, warm_counters):
        cold = _write(tmp_path / "cold.json", _cached_payload(cold_counters))
        warm = _write(tmp_path / "warm.json", _cached_payload(warm_counters))
        return cold, warm

    def test_clean_cold_warm_pair_passes(self, tmp_path):
        cold, warm = self._pair(
            tmp_path,
            {"profiles.cache.miss": 6},
            {"profiles.cache.hit": 6, "profiles.cache.miss": 0},
        )
        lines = va.validate_cache_rerun(cold, warm)
        assert any("misses: 6" in line for line in lines)
        assert any("hits:   6" in line for line in lines)

    def test_cold_run_without_misses_fails(self, tmp_path):
        cold, warm = self._pair(tmp_path, {}, {"profiles.cache.hit": 6})
        with pytest.raises(va.ValidationError, match="no cache misses"):
            va.validate_cache_rerun(cold, warm)

    def test_warm_run_with_misses_fails(self, tmp_path):
        cold, warm = self._pair(
            tmp_path,
            {"profiles.cache.miss": 6},
            {"profiles.cache.hit": 4, "profiles.cache.miss": 2},
        )
        with pytest.raises(va.ValidationError, match="still missed"):
            va.validate_cache_rerun(cold, warm)

    def test_warm_run_with_invalidations_fails(self, tmp_path):
        cold, warm = self._pair(
            tmp_path,
            {"profiles.cache.miss": 6},
            {"profiles.cache.hit": 6, "profiles.cache.invalid": 1},
        )
        with pytest.raises(va.ValidationError, match="invalidated"):
            va.validate_cache_rerun(cold, warm)

    def _timed_pair(self, tmp_path, hit_s, compute_s):
        cold = _write(
            tmp_path / "cold.json",
            _cached_payload(
                {"profiles.cache.miss": 6},
                {"profiles.cache.compute_s": _wall(compute_s)},
            ),
        )
        warm = _write(
            tmp_path / "warm.json",
            _cached_payload(
                {"profiles.cache.hit": 6},
                {"profiles.cache.hit_s": _wall(hit_s)},
            ),
        )
        return cold, warm

    def test_cheap_hits_pass_the_ratio_gate(self, tmp_path):
        cold, warm = self._timed_pair(tmp_path, hit_s=0.05, compute_s=1.0)
        lines = va.validate_cache_rerun(cold, warm, max_hit_ratio=0.25)
        ratio_line = next(line for line in lines if "hit/compute" in line)
        assert "0.0500" in ratio_line
        assert "cold compute 1.0000 s" in ratio_line

    def test_costly_hits_fail_the_ratio_gate(self, tmp_path):
        cold, warm = self._timed_pair(tmp_path, hit_s=0.5, compute_s=1.0)
        with pytest.raises(va.ValidationError, match="cost too much"):
            va.validate_cache_rerun(cold, warm, max_hit_ratio=0.25)
        # The CLI exits 1 and the ratio is reported with its base.
        argv = ["cache-rerun", str(cold), str(warm), "--max-hit-ratio", "0.25"]
        assert va.main(argv) == 1

    def test_nonzero_exit_code_fails(self, tmp_path):
        cold = _write(
            tmp_path / "cold.json",
            _bench_payload(exit_code=3),
        )
        warm = _write(tmp_path / "warm.json", _cached_payload({}))
        with pytest.raises(va.ValidationError, match="exit_code"):
            va.validate_cache_rerun(cold, warm)


def _service_summary(**overrides):
    summary = {
        "coalesce": {
            "concurrency": 8,
            "computed": 1,
            "coalesced": 7,
            "coalesce_ratio": 7 / 8,
            "byte_identical": True,
            "wall_s": 1.0,
        },
        "throughput": {
            "requests": 60,
            "throughput_rps": 500.0,
            "latency_p50_s": 0.002,
            "latency_p99_s": 0.003,
            "latency_percentiles_s": {
                "p10": 0.001,
                "p50": 0.002,
                "p90": 0.0025,
                "p99": 0.003,
            },
            "store_hits": 60,
            "store_hit_ratio": 1.0,
        },
        "backpressure": {
            "rejected_status": 429,
            "retry_after_s": 30,
            "pool_rejected": 1,
        },
        "sharded": {
            "shards": 4,
            "shards_total": 4,
            "shards_done": 4,
            "byte_identical": True,
            "wall_s": 1.5,
            "monolithic_wall_s": 1.2,
            "shards_completed": 4,
            "shards_dispatched": 4,
        },
        "recovery": {
            "shards": 4,
            "shards_done_before_kill": 1,
            "events_before_restart": 3,
            "events_replayed": 3,
            "requeued": 1,
            "shards_skipped": 1,
            "recovery_s": 0.01,
            "drain_s": 1.5,
            "byte_identical": True,
            "journal_valid": True,
            "fsync": {
                "appends": 256,
                "fsync_appends_per_s": 5000.0,
                "nofsync_appends_per_s": 80000.0,
                "fsync_overhead_x": 16.0,
            },
        },
    }
    summary.update(overrides)
    return summary


def _service_payload(tmp_path, summary=None, counters=None):
    payload = _bench_payload(bench="service_load")
    payload["manifest"]["params"] = {
        "service_load": _service_summary() if summary is None else summary
    }
    payload["metrics"]["counters"] = (
        {
            "service.pool.rejected": 1,
            "service.shards.completed": 4,
            "service.shards.dispatched": 4,
            "service.recovery.requeued": 1,
        }
        if counters is None
        else counters
    )
    return _write(tmp_path / "BENCH_service_load.json", payload)


class TestServiceLoad:
    def test_clean_record_passes(self, tmp_path):
        lines = va.validate_service_load(_service_payload(tmp_path))
        assert any("coalesce: 7/8" in line for line in lines)
        assert any("429" in line for line in lines)

    def test_multiple_computations_fail(self, tmp_path):
        summary = _service_summary()
        summary["coalesce"] = dict(summary["coalesce"], computed=3)
        path = _service_payload(tmp_path, summary=summary)
        with pytest.raises(va.ValidationError, match="expected exactly 1"):
            va.validate_service_load(path)

    def test_low_coalesce_ratio_fails(self, tmp_path):
        summary = _service_summary()
        summary["coalesce"] = dict(
            summary["coalesce"], coalesced=4, coalesce_ratio=0.5
        )
        path = _service_payload(tmp_path, summary=summary)
        with pytest.raises(va.ValidationError, match="coalesce ratio"):
            va.validate_service_load(path)

    def test_byte_divergence_fails(self, tmp_path):
        summary = _service_summary()
        summary["coalesce"] = dict(summary["coalesce"], byte_identical=False)
        path = _service_payload(tmp_path, summary=summary)
        with pytest.raises(va.ValidationError, match="byte-identical"):
            va.validate_service_load(path)

    def test_missing_rejection_fails(self, tmp_path):
        summary = _service_summary()
        summary["backpressure"] = dict(
            summary["backpressure"], rejected_status=200
        )
        path = _service_payload(tmp_path, summary=summary)
        with pytest.raises(va.ValidationError, match="429"):
            va.validate_service_load(path)

    def test_clean_record_reports_shards(self, tmp_path):
        lines = va.validate_service_load(_service_payload(tmp_path))
        assert any("sharded: 4/4" in line for line in lines)

    def test_sharded_byte_divergence_fails(self, tmp_path):
        summary = _service_summary()
        summary["sharded"] = dict(summary["sharded"], byte_identical=False)
        path = _service_payload(tmp_path, summary=summary)
        with pytest.raises(va.ValidationError, match="sharded"):
            va.validate_service_load(path)

    def test_incomplete_shard_progress_fails(self, tmp_path):
        summary = _service_summary()
        summary["sharded"] = dict(summary["sharded"], shards_done=3)
        path = _service_payload(tmp_path, summary=summary)
        with pytest.raises(va.ValidationError, match="progress incomplete"):
            va.validate_service_load(path)

    def test_missing_sharded_section_fails(self, tmp_path):
        summary = _service_summary()
        del summary["sharded"]
        path = _service_payload(tmp_path, summary=summary)
        with pytest.raises(va.ValidationError, match="sharded"):
            va.validate_service_load(path)

    def test_missing_shard_counters_fail(self, tmp_path):
        path = _service_payload(
            tmp_path, counters={"service.pool.rejected": 1}
        )
        with pytest.raises(
            va.ValidationError, match="service.shards.completed"
        ):
            va.validate_service_load(path)

    def test_missing_summary_fails(self, tmp_path):
        payload = _bench_payload(bench="service_load")
        path = _write(tmp_path / "BENCH_service_load.json", payload)
        with pytest.raises(va.ValidationError, match="manifest params"):
            va.validate_service_load(path)
        payload["manifest"]["params"] = {}
        path = _write(tmp_path / "BENCH_service_load.json", payload)
        with pytest.raises(va.ValidationError, match="service_load"):
            va.validate_service_load(path)

    def test_missing_rejected_counter_fails(self, tmp_path):
        path = _service_payload(tmp_path, counters={})
        with pytest.raises(va.ValidationError, match="rejected"):
            va.validate_service_load(path)

    def test_missing_latency_percentiles_fail(self, tmp_path):
        summary = _service_summary()
        summary["throughput"] = dict(summary["throughput"])
        del summary["throughput"]["latency_percentiles_s"]
        path = _service_payload(tmp_path, summary=summary)
        with pytest.raises(va.ValidationError, match="latency_percentiles_s"):
            va.validate_service_load(path)

    def test_non_monotone_percentiles_fail(self, tmp_path):
        summary = _service_summary()
        summary["throughput"] = dict(
            summary["throughput"],
            latency_percentiles_s={
                "p10": 0.003, "p50": 0.002, "p90": 0.004, "p99": 0.005,
            },
        )
        path = _service_payload(tmp_path, summary=summary)
        with pytest.raises(va.ValidationError, match="not monotone at p50"):
            va.validate_service_load(path)

    def test_clean_record_reports_recovery(self, tmp_path):
        lines = va.validate_service_load(_service_payload(tmp_path))
        assert any("recovery: 3 events replayed" in line for line in lines)
        assert any("fsync probe" in line for line in lines)

    def test_missing_recovery_section_fails(self, tmp_path):
        summary = _service_summary()
        del summary["recovery"]
        path = _service_payload(tmp_path, summary=summary)
        with pytest.raises(va.ValidationError, match="recovery"):
            va.validate_service_load(path)

    def test_recovery_byte_divergence_fails(self, tmp_path):
        summary = _service_summary()
        summary["recovery"] = dict(summary["recovery"], byte_identical=False)
        path = _service_payload(tmp_path, summary=summary)
        with pytest.raises(va.ValidationError, match="byte-identical"):
            va.validate_service_load(path)

    def test_recovery_recomputed_checkpointed_shards_fails(self, tmp_path):
        summary = _service_summary()
        summary["recovery"] = dict(
            summary["recovery"], shards_skipped=0, shards_done_before_kill=1
        )
        path = _service_payload(tmp_path, summary=summary)
        with pytest.raises(va.ValidationError, match="checkpointed shards"):
            va.validate_service_load(path)

    def test_recovery_without_replayed_events_fails(self, tmp_path):
        summary = _service_summary()
        summary["recovery"] = dict(summary["recovery"], events_replayed=0)
        path = _service_payload(tmp_path, summary=summary)
        with pytest.raises(va.ValidationError, match="replayed no"):
            va.validate_service_load(path)

    def test_recovery_without_fsync_probe_fails(self, tmp_path):
        summary = _service_summary()
        summary["recovery"] = dict(summary["recovery"])
        del summary["recovery"]["fsync"]
        path = _service_payload(tmp_path, summary=summary)
        with pytest.raises(va.ValidationError, match="fsync probe"):
            va.validate_service_load(path)

    def test_missing_requeued_counter_fails(self, tmp_path):
        path = _service_payload(
            tmp_path,
            counters={
                "service.pool.rejected": 1,
                "service.shards.completed": 4,
                "service.shards.dispatched": 4,
            },
        )
        with pytest.raises(
            va.ValidationError, match="service.recovery.requeued"
        ):
            va.validate_service_load(path)


def _journal_dir(tmp_path, close_episode=True):
    """Write a real one-episode journal and return its directory."""
    sys.path.insert(0, str(_ROOT / "src"))
    from repro.service.journal import JournalWriter

    root = tmp_path / "journal"
    writer = JournalWriter(root, fsync=False)
    key = "a" * 64
    writer.append("submitted", key, spec={"command": "delay-cdf"})
    writer.append("running", key, attempts=1)
    if close_episode:
        writer.append("completed", key, exit_code=0)
    writer.close()
    return root


class TestJournalArtifact:
    def test_valid_journal_passes(self, tmp_path):
        lines = va.validate_journal_artifact(_journal_dir(tmp_path))
        assert any("3 events" in line for line in lines)
        assert any("1 closed" in line for line in lines)

    def test_open_episode_passes_without_forbid_open(self, tmp_path):
        root = _journal_dir(tmp_path, close_episode=False)
        lines = va.validate_journal_artifact(root)
        assert any("1 open" in line for line in lines)

    def test_open_episode_fails_with_forbid_open(self, tmp_path):
        root = _journal_dir(tmp_path, close_episode=False)
        with pytest.raises(va.ValidationError, match="still open"):
            va.validate_journal_artifact(root, forbid_open=True)

    def test_corrupt_stream_fails(self, tmp_path):
        root = _journal_dir(tmp_path)
        segment = sorted(root.glob("journal-*.jsonl"))[0]
        lines = segment.read_text(encoding="utf-8").splitlines(True)
        # Swap the first two records: running now precedes submitted
        # (and seq runs 2, 1, 3) — both journal invariants broken.
        segment.write_text(
            lines[1] + lines[0] + lines[2], encoding="utf-8"
        )
        with pytest.raises(va.ValidationError):
            va.validate_journal_artifact(root)

    def test_missing_directory_fails(self, tmp_path):
        with pytest.raises(va.ValidationError, match="no journal segments"):
            va.validate_journal_artifact(tmp_path / "nope")


def _trace_export(tmp_path, mutate=None):
    """Write a real two-span trace export and return its path."""
    from repro.obs.tracectx import TraceContext, derive_span_id, span_record
    from repro.obs.tracestore import TraceStore

    store = TraceStore()
    ctx = TraceContext.new()
    worker = derive_span_id(ctx.span_id, "worker")
    store.add_spans(
        ctx.trace_id,
        [
            span_record(
                ctx, "service.http.request", None, "server",
                start_unix=100.0, wall_s=1.0,
            ),
            span_record(
                TraceContext(ctx.trace_id, worker),
                "worker.execute",
                parent_span_id=ctx.span_id,
                origin="worker",
                start_unix=100.1,
                wall_s=0.9,
            ),
        ],
    )
    other = TraceContext.new()
    store.add_link(
        ctx.trace_id,
        {
            "type": "coalesce-fan-in",
            "span_id": ctx.span_id,
            "linked_trace_id": other.trace_id,
            "linked_span_id": other.span_id,
        },
    )
    text = store.export_jsonl(ctx.trace_id)
    if mutate is not None:
        text = mutate(text)
    path = tmp_path / "TRACE_service_load.jsonl"
    path.write_text(text, encoding="utf-8")
    return path


class TestTraceExport:
    def test_valid_export_passes_with_requirements(self, tmp_path):
        path = _trace_export(tmp_path)
        lines = va.validate_trace_export(
            path,
            require_spans=("service.http.request", "worker.execute"),
            require_origins=("server", "worker"),
            require_links=("coalesce-fan-in",),
        )
        assert any("ok" in line for line in lines)
        assert any("worker" in line for line in lines)

    def test_missing_required_span_fails(self, tmp_path):
        path = _trace_export(tmp_path)
        with pytest.raises(va.ValidationError, match="optimal.compute"):
            va.validate_trace_export(
                path, require_spans=("optimal.compute_profiles",)
            )

    def test_missing_required_origin_fails(self, tmp_path):
        path = _trace_export(tmp_path)
        with pytest.raises(va.ValidationError, match="supervisor"):
            va.validate_trace_export(path, require_origins=("supervisor",))

    def test_missing_required_link_fails(self, tmp_path):
        path = _trace_export(tmp_path)
        with pytest.raises(va.ValidationError, match="coalesce"):
            va.validate_trace_export(path, require_links=("coalesce",))

    def test_truncated_document_fails(self, tmp_path):
        path = _trace_export(
            tmp_path,
            mutate=lambda text: "\n".join(text.splitlines()[:-1]) + "\n",
        )
        with pytest.raises(va.ValidationError, match="do not match"):
            va.validate_trace_export(path)

    def test_missing_file_fails(self, tmp_path):
        with pytest.raises(va.ValidationError, match="cannot read"):
            va.validate_trace_export(tmp_path / "absent.jsonl")


def _lint_report(tmp_path, source="x = 1\n", path_name="clean.py", jobs=1):
    from repro.lint import lint_paths, render_json

    tree = tmp_path / "tree" / "src" / "repro" / "core"
    tree.mkdir(parents=True, exist_ok=True)
    (tree / path_name).write_text(source, encoding="utf-8")
    findings, files = lint_paths([str(tmp_path / "tree")], jobs=jobs)
    target = tmp_path / "lint-report.json"
    target.write_text(render_json(findings, files), encoding="utf-8")
    return target


class TestLintReport:
    def test_clean_report_passes(self, tmp_path):
        path = _lint_report(tmp_path)
        lines = va.validate_lint_report(path, expect_clean=True)
        assert any("ok" in line for line in lines)

    def test_report_with_findings_passes_without_expect_clean(self, tmp_path):
        path = _lint_report(
            tmp_path, source="import time\n\ndef f():\n    return time.time()\n"
        )
        lines = va.validate_lint_report(path)
        # REP004 (wall clock) + REP005 (missing annotations) both fire.
        assert any("2 finding(s)" in line for line in lines)
        with pytest.raises(va.ValidationError, match="expected a clean"):
            va.validate_lint_report(path, expect_clean=True)

    def test_wrong_schema_fails(self, tmp_path):
        path = _lint_report(tmp_path)
        payload = json.loads(path.read_text())
        payload["schema"] = "repro.lint/0"
        path.write_text(json.dumps(payload))
        with pytest.raises(va.ValidationError, match="schema"):
            va.validate_lint_report(path)

    def test_stale_registry_version_fails(self, tmp_path):
        path = _lint_report(tmp_path)
        payload = json.loads(path.read_text())
        payload["registry"]["version"] = 1
        path.write_text(json.dumps(payload))
        with pytest.raises(va.ValidationError, match="registry version"):
            va.validate_lint_report(path)

    def test_rule_list_mismatch_fails(self, tmp_path):
        path = _lint_report(tmp_path)
        payload = json.loads(path.read_text())
        payload["registry"]["rules"] = payload["registry"]["rules"][:-1]
        path.write_text(json.dumps(payload))
        with pytest.raises(va.ValidationError, match="registry rules"):
            va.validate_lint_report(path)

    def test_counts_mismatch_fails(self, tmp_path):
        path = _lint_report(
            tmp_path, source="import time\n\ndef f():\n    return time.time()\n"
        )
        payload = json.loads(path.read_text())
        payload["counts"] = {}
        path.write_text(json.dumps(payload))
        with pytest.raises(va.ValidationError, match="do not match"):
            va.validate_lint_report(path)


def _lockwatch_export(tmp_path):
    import threading

    from repro.obs import LockWatch

    watch = LockWatch()
    with watch.watching():
        a = threading.Lock()
        b = threading.Lock()
        with a:
            with b:
                pass
    return watch.export_jsonl(tmp_path / "LOCKWATCH_unit.jsonl")


class TestLockwatchExport:
    def test_valid_export_passes(self, tmp_path):
        path = _lockwatch_export(tmp_path)
        lines = va.validate_lockwatch_export(path, forbid_inversions=True)
        assert any("0 inversions" in line for line in lines)

    def test_truncated_export_fails(self, tmp_path):
        path = _lockwatch_export(tmp_path)
        text = path.read_text(encoding="utf-8")
        path.write_text("\n".join(text.splitlines()[:-1]) + "\n")
        with pytest.raises(va.ValidationError, match="declares"):
            va.validate_lockwatch_export(path)

    def test_missing_file_fails(self, tmp_path):
        with pytest.raises(va.ValidationError, match="cannot read"):
            va.validate_lockwatch_export(tmp_path / "absent.jsonl")


def _engine_summary(phase, **overrides):
    datasets = {
        "infocom05": {
            "nodes": 41, "contacts": 22459, "sources": 41,
            "scalar_s": 4.0, "vec_s": 1.0, "speedup": 4.0,
            "parity_sha256": "a" * 64,
        },
        "reality": {
            "nodes": 97, "contacts": 54667, "sources": 97,
            "scalar_s": 6.0, "vec_s": 2.0, "speedup": 3.0,
            "parity_sha256": "b" * 64,
        },
    }
    summary = {
        "phase": phase,
        "workers": 4,
        "hop_bounds": [1, 2, 3],
        "datasets": datasets,
        "scalar_s": 10.0,
        "vec_s": 3.0,
        "speedup": 10.0 / 3.0,
        "parity_ok": True,
    }
    summary.update(overrides)
    return summary


def _engine_counters(phase):
    if phase == "cold":
        return {
            "engine.pool.broadcasts": 2,
            "engine.pool.broadcast_bytes": 900_000,
            "engine.pool.broadcast_reused": 2,
            "engine.pool.task_bytes": 7_000,
            "engine.pool.spawns": 4,
        }
    return {
        "engine.pool.broadcasts": 0,
        "engine.pool.broadcast_reused": 4,
        "engine.pool.task_bytes": 7_000,
    }


def _engine_artifact(tmp_path, phase, summary=None, counters=None):
    payload = _bench_payload(bench=f"engine.{phase}")
    payload["manifest"]["params"] = {
        "engine": _engine_summary(phase) if summary is None else summary
    }
    payload["metrics"]["counters"] = (
        _engine_counters(phase) if counters is None else counters
    )
    return _write(tmp_path / f"BENCH_engine.{phase}.json", payload)


class TestEnginePair:
    def _pair(self, tmp_path, **kwargs):
        cold = _engine_artifact(tmp_path, "cold", **kwargs)
        warm = _engine_artifact(tmp_path, "warm")
        return cold, warm

    def test_clean_pair_passes(self, tmp_path):
        cold, warm = self._pair(tmp_path)
        lines = va.validate_engine_pair(cold, warm, min_speedup=2.0)
        assert any("cold: 3.33x" in line for line in lines)
        assert any("0 re-broadcasts" in line for line in lines)
        assert any("2 dataset hash(es)" in line for line in lines)

    def test_missing_summary_fails(self, tmp_path):
        payload = _bench_payload(bench="engine.cold")
        payload["manifest"]["params"] = {}
        cold = _write(tmp_path / "cold.json", payload)
        warm = _engine_artifact(tmp_path, "warm")
        with pytest.raises(va.ValidationError, match="engine summary"):
            va.validate_engine_pair(cold, warm)

    def test_parity_flag_false_fails(self, tmp_path):
        summary = _engine_summary("cold", parity_ok=False)
        cold, warm = self._pair(tmp_path, summary=summary)
        with pytest.raises(va.ValidationError, match="parity_ok"):
            va.validate_engine_pair(cold, warm)

    def test_nonpositive_speedup_fails(self, tmp_path):
        summary = _engine_summary("cold")
        summary["datasets"] = dict(summary["datasets"])
        summary["datasets"]["reality"] = dict(
            summary["datasets"]["reality"], vec_s=0.0
        )
        cold, warm = self._pair(tmp_path, summary=summary)
        with pytest.raises(va.ValidationError, match="positive"):
            va.validate_engine_pair(cold, warm)

    def test_missing_parity_hash_fails(self, tmp_path):
        summary = _engine_summary("cold")
        summary["datasets"] = dict(summary["datasets"])
        summary["datasets"]["reality"] = dict(summary["datasets"]["reality"])
        del summary["datasets"]["reality"]["parity_sha256"]
        cold, warm = self._pair(tmp_path, summary=summary)
        with pytest.raises(va.ValidationError, match="parity_sha256"):
            va.validate_engine_pair(cold, warm)

    def test_hash_drift_between_runs_fails(self, tmp_path):
        summary = _engine_summary("cold")
        summary["datasets"] = dict(summary["datasets"])
        summary["datasets"]["reality"] = dict(
            summary["datasets"]["reality"], parity_sha256="c" * 64
        )
        cold, warm = self._pair(tmp_path, summary=summary)
        with pytest.raises(va.ValidationError, match="deterministic"):
            va.validate_engine_pair(cold, warm)

    def test_dataset_roster_mismatch_fails(self, tmp_path):
        summary = _engine_summary("cold")
        summary["datasets"] = {
            "infocom05": summary["datasets"]["infocom05"]
        }
        cold, warm = self._pair(tmp_path, summary=summary)
        with pytest.raises(va.ValidationError, match="roster"):
            va.validate_engine_pair(cold, warm)

    def test_wrong_cold_broadcast_count_fails(self, tmp_path):
        counters = dict(_engine_counters("cold"))
        counters["engine.pool.broadcasts"] = 4
        cold, warm = self._pair(tmp_path, counters=counters)
        with pytest.raises(va.ValidationError, match="exactly one"):
            va.validate_engine_pair(cold, warm)

    def test_task_traffic_exceeding_broadcast_fails(self, tmp_path):
        counters = dict(_engine_counters("cold"))
        counters["engine.pool.task_bytes"] = 10_000_000
        cold, warm = self._pair(tmp_path, counters=counters)
        with pytest.raises(va.ValidationError, match="dwarfed"):
            va.validate_engine_pair(cold, warm)

    def test_warm_rebroadcast_fails(self, tmp_path):
        cold = _engine_artifact(tmp_path, "cold")
        warm = _engine_artifact(
            tmp_path, "warm", counters=_engine_counters("cold")
        )
        with pytest.raises(va.ValidationError, match="re-broadcast"):
            va.validate_engine_pair(cold, warm)

    def test_warm_without_reuse_fails(self, tmp_path):
        cold = _engine_artifact(tmp_path, "cold")
        warm = _engine_artifact(
            tmp_path, "warm", counters={"engine.pool.broadcasts": 0}
        )
        with pytest.raises(va.ValidationError, match="reused fewer"):
            va.validate_engine_pair(cold, warm)

    def test_min_speedup_gate_fails(self, tmp_path):
        cold, warm = self._pair(tmp_path)
        with pytest.raises(va.ValidationError, match="below the required"):
            va.validate_engine_pair(cold, warm, min_speedup=5.0)


class TestCli:
    def test_bench_subcommand_exit_codes(self, tmp_path, capsys):
        _write(tmp_path / "BENCH_a.json", _bench_payload())
        assert va.main(["bench", str(tmp_path)]) == 0
        assert "ok" in capsys.readouterr().out
        empty = tmp_path / "empty"
        empty.mkdir()
        assert va.main(["bench", str(empty)]) == 1
        assert "no BENCH_" in capsys.readouterr().err

    def test_cache_rerun_subcommand(self, tmp_path, capsys):
        cold = _write(
            tmp_path / "cold.json", _cached_payload({"profiles.cache.miss": 2})
        )
        warm = _write(
            tmp_path / "warm.json", _cached_payload({"profiles.cache.hit": 2})
        )
        assert va.main(["cache-rerun", str(cold), str(warm)]) == 0
        assert "warm run hits" in capsys.readouterr().out

    def test_trace_subcommand_exit_codes(self, tmp_path, capsys):
        path = _trace_export(tmp_path)
        argv = [
            "trace", str(path),
            "--require-span", "worker.execute",
            "--require-origin", "worker",
            "--require-link", "coalesce-fan-in",
        ]
        assert va.main(argv) == 0
        assert "ok" in capsys.readouterr().out
        assert va.main(["trace", str(path), "--require-span", "nope"]) == 1
        assert "nope" in capsys.readouterr().err

    def test_lint_subcommand_exit_codes(self, tmp_path, capsys):
        clean = _lint_report(tmp_path)
        assert va.main(["lint", str(clean), "--expect-clean"]) == 0
        assert "ok" in capsys.readouterr().out
        dirty = _lint_report(
            tmp_path,
            source="import time\n\ndef f():\n    return time.time()\n",
            path_name="dirty.py",
        )
        assert va.main(["lint", str(dirty), "--expect-clean"]) == 1
        assert "expected a clean" in capsys.readouterr().err

    def test_engine_subcommand_exit_codes(self, tmp_path, capsys):
        cold = _engine_artifact(tmp_path, "cold")
        warm = _engine_artifact(tmp_path, "warm")
        argv = ["engine", str(cold), str(warm), "--min-speedup", "2.0"]
        assert va.main(argv) == 0
        assert "parity" in capsys.readouterr().out
        argv = ["engine", str(cold), str(warm), "--min-speedup", "5.0"]
        assert va.main(argv) == 1
        assert "below the required" in capsys.readouterr().err

    def test_lockwatch_subcommand_exit_codes(self, tmp_path, capsys):
        path = _lockwatch_export(tmp_path)
        assert va.main(["lockwatch", str(path), "--forbid-inversions"]) == 0
        assert "ok" in capsys.readouterr().out
        assert (
            va.main(["lockwatch", str(path), "--max-long-holds", "-1"]) == 1
        )
        assert "long-hold" in capsys.readouterr().err
