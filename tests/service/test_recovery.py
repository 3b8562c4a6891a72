"""Durability end to end: SIGKILL, restart, replay, dead-lettering.

The acceptance path for the journal subsystem: a server killed
mid-sharded-job must, on restart with the same ``--journal-dir``,
finish the job while recomputing only the shards whose checkpoints
never landed; unfinished jobs re-enqueue interactive-first; jobs past
the crash budget land in the queryable dead-letter set and refuse
resubmission with 409.
"""

import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import repro
from repro.cli import main as cli_main
from repro.core.shards import shard_sources
from repro.obs import Instrumentation, set_obs
from repro.service import ReproService, ServiceClient, ServiceConfig
from repro.service.jobs import JobSpec, job_key
from repro.service.journal import (
    JournalWriter,
    read_journal_lines,
    replay,
    validate_journal_dir,
)
from repro.traces.format import read_contacts


def cli_bytes(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_main(argv)
    assert code == 0
    return buffer.getvalue().encode("utf-8")


def _counter(bundle, name):
    counters = bundle.metrics.to_dict()["counters"]
    return sum(v for k, v in counters.items() if k.split("{")[0] == name)


def _spec(trace, priority="interactive", shards=1, grid_points=8):
    return JobSpec(
        command="delay-cdf",
        trace=str(Path(trace).resolve()),
        max_hops=3,
        grid_points=grid_points,
        eps=None,
        shards=shards,
        priority=priority,
    )


def _live_group_members(pgid):
    """Pids of the non-zombie processes in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as stream:
                stat = stream.read()
        except OSError:
            continue  # exited while scanning
        # Fields after the parenthesised command: state, ppid, pgrp, ...
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def _kill_group(pgid):
    """SIGKILL every process of ``pgid`` and wait until none is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    _wait_until(
        lambda: not _live_group_members(pgid),
        timeout_s=10.0,
        message=f"process group {pgid} to exit",
    )


def _wait_until(predicate, timeout_s=30.0, message="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    pytest.fail(f"timed out waiting for {message}")


class TestKillAndRestart:
    def test_sigkill_mid_sharded_job_completes_on_restart(
        self, tmp_path, chain_trace
    ):
        """The acceptance scenario: a real server process, SIGKILLed
        between shard checkpoints, restarted over the same journal and
        cache.  The restarted instance must recompute exactly the
        missing shards (journaled ``shard_done`` checkpoints are
        skipped, the finalisation run is pure cache hits) and commit
        the byte-identical result to the store."""
        # Reference bytes, computed before the restart's obs bundle
        # exists so the CLI run cannot pollute the asserted counters.
        expected = cli_bytes(
            ["delay-cdf", chain_trace, "--max-hops", "3", "--grid-points", "8"]
        )
        cache = tmp_path / "cache"
        journal = tmp_path / "journal"
        src_dir = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.service",
                "serve",
                "--cache-dir",
                str(cache),
                "--journal-dir",
                str(journal),
                "--port",
                "0",
                "--workers",
                "1",
                "--allow-test-delay",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            # Its own process group, so the pool worker the server forks
            # can be found and killed with it: killing the server alone
            # leaves the worker re-parented and running.
            start_new_session=True,
        )
        try:
            assert proc.stdout is not None
            banner = proc.stdout.readline()
            assert "listening on" in banner, banner
            url = banner.strip().rsplit(" ", 1)[-1]
            client = ServiceClient(url, timeout_s=60.0)

            def submit():
                try:
                    client.delay_cdf(
                        chain_trace,
                        max_hops=3,
                        grid_points=8,
                        shards=3,
                        _test_delay_s=1.0,
                    )
                except OSError:
                    pass  # the server dies under this request by design

            thread = threading.Thread(target=submit, daemon=True)
            thread.start()
            _wait_until(
                lambda: any(
                    e.shards_done for e in replay(journal).episodes.values()
                ),
                message="first journaled shard checkpoint",
            )
            # The next shard is now sitting in its injected pre-compute
            # delay: kill the whole server between checkpoints.
            time.sleep(0.2)
            proc.kill()
            proc.wait(timeout=10.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)
            _kill_group(proc.pid)
        assert _live_group_members(proc.pid) == []

        state = replay(journal)
        assert len(state.unfinished()) == 1
        episode = state.unfinished()[0]
        done_before = set(episode.shards_done)
        assert 1 <= len(done_before) < 3
        assert episode.crashes == 1  # one journaled running event

        bundle = Instrumentation.started()
        previous = set_obs(bundle)
        service = None
        try:
            service = ReproService(
                ServiceConfig(
                    cache_dir=str(cache),
                    journal_dir=str(journal),
                    workers=1,
                    allow_test_delay=True,
                )
            )
            key = episode.key
            _wait_until(
                lambda: replay(journal).episodes[key].state == "done",
                timeout_s=60.0,
                message="recovered job completion",
            )
            assert service.store.get(key) == expected
            assert _counter(bundle, "service.recovery.requeued") == 1
            assert _counter(
                bundle, "service.recovery.shards_skipped"
            ) == len(done_before)
            # Only the missing shards were recomputed: one cache write
            # per missing shard, and the finalisation run read all 3
            # shard checkpoints as hits.
            assert _counter(bundle, "profiles.cache.miss") == 3 - len(
                done_before
            )
            assert _counter(bundle, "profiles.cache.hit") == 3
            # The DP saw exactly the missing shards' sources — nothing
            # the first life checkpointed was computed again.
            plan = shard_sources(read_contacts(chain_trace).nodes, 3)
            missing_sources = sum(
                len(plan[i])
                for i in range(len(plan))
                if i not in done_before
            )
            assert _counter(bundle, "optimal.sources") == missing_sources
            # The torn-tail repair keeps the journal contract valid
            # across the crash/restart cycle.
            summary = validate_journal_dir(journal)
            assert summary["open_episodes"] == 0
        finally:
            if service is not None:
                service.close(drain=True, timeout_s=10.0)
            set_obs(previous)

    def test_unfinished_monolithic_job_recovered_to_store(
        self, service_factory, chain_trace, tmp_path
    ):
        """A ``submitted`` record with no terminal event re-enqueues on
        startup even though no HTTP client is waiting; the result goes
        to the store and the episode closes."""
        expected = cli_bytes(
            ["delay-cdf", chain_trace, "--max-hops", "3", "--grid-points", "8"]
        )
        journal = tmp_path / "journal-mono"
        spec = _spec(chain_trace)
        key = job_key(spec, read_contacts(chain_trace))
        writer = JournalWriter(journal)
        writer.append("submitted", key, spec=spec.to_document())
        writer.close()
        service, client, bundle = service_factory(
            journal_dir=str(journal)
        )
        _wait_until(
            lambda: replay(journal).episodes[key].state == "done",
            message="recovered job completion",
        )
        assert _counter(bundle, "service.recovery.requeued") == 1
        assert service.store.get(key) == expected
        # A fresh identical query is served straight from the store.
        response = client.delay_cdf(chain_trace, max_hops=3, grid_points=8)
        assert response.status == 200
        assert response.headers["X-Repro-Source"] == "store"
        assert response.body == expected

    def test_recovery_reenqueues_interactive_before_batch(
        self, service_factory, chain_trace, tmp_path
    ):
        """Two open episodes, the *batch* one journaled first: recovery
        must still run the interactive one first."""
        journal = tmp_path / "journal-priority"
        network = read_contacts(chain_trace)
        batch_spec = _spec(chain_trace, priority="batch", grid_points=8)
        inter_spec = _spec(
            chain_trace, priority="interactive", grid_points=12
        )
        batch_key = job_key(batch_spec, network)
        inter_key = job_key(inter_spec, network)
        assert batch_key != inter_key
        writer = JournalWriter(journal)
        writer.append("submitted", batch_key, spec=batch_spec.to_document())
        writer.append("submitted", inter_key, spec=inter_spec.to_document())
        writer.close()
        _service, _client, bundle = service_factory(
            journal_dir=str(journal), workers=1
        )
        _wait_until(
            lambda: all(
                not e.open for e in replay(journal).episodes.values()
            ),
            message="both recovered jobs to finish",
        )
        assert _counter(bundle, "service.recovery.requeued") == 2
        completed_order = [
            json.loads(line)["key"]
            for line in read_journal_lines(journal)
            if json.loads(line).get("event") == "completed"
        ]
        assert completed_order == [inter_key, batch_key]

    def test_changed_trace_is_not_recomputed_under_stale_key(
        self, service_factory, tmp_path
    ):
        """If the trace file changed since the submission was journaled,
        the recomputed job key no longer matches — running the job
        would poison the result store with different bytes under the
        old key, so recovery must drop it with a terminal ``failed``."""
        trace = tmp_path / "mutating.txt"
        trace.write_text("0 1 0 100\n1 2 0 100\n2 3 0 100\n")
        spec = _spec(str(trace))
        key = job_key(spec, read_contacts(str(trace)))
        journal = tmp_path / "journal-stale"
        writer = JournalWriter(journal)
        writer.append("submitted", key, spec=spec.to_document())
        writer.close()
        trace.write_text("0 1 0 100\n1 2 0 100\n2 3 0 100\n3 0 50 80\n")
        _service, _client, bundle = service_factory(
            journal_dir=str(journal)
        )
        state = replay(journal)
        assert state.episodes[key].state == "failed"
        assert state.episodes[key].error_type == "trace-changed"
        assert _counter(bundle, "service.recovery.requeued") == 0


class TestDeadLettering:
    def test_journaled_crash_budget_dead_letters_on_restart(
        self, service_factory, chain_trace, tmp_path
    ):
        """Three journaled ``running`` events = three server lives died
        executing this job: the default budget dead-letters it at
        replay instead of crashing a fourth life."""
        journal = tmp_path / "journal-dead"
        spec = _spec(chain_trace)
        key = job_key(spec, read_contacts(chain_trace))
        writer = JournalWriter(journal)
        writer.append("submitted", key, spec=spec.to_document())
        for _ in range(3):
            writer.append("running", key, attempts=1)
        writer.close()
        _service, client, bundle = service_factory(
            journal_dir=str(journal)
        )
        assert _counter(bundle, "service.recovery.dead_lettered") == 1
        listing = client.jobs(state="dead_lettered").json()
        assert listing["count"] == 1
        record = listing["jobs"][0]
        assert record["state"] == "dead_lettered"
        assert record["crashes"] == 3
        assert record["recovered"] is True
        # The dead letter answers by job id too.
        assert client.job(record["job"]).json()["state"] == "dead_lettered"
        # Resubmitting the identical query is refused, not re-queued.
        response = client.delay_cdf(chain_trace, max_hops=3, grid_points=8)
        assert response.status == 409
        assert response.json()["error"]["type"] == "dead-lettered"
        state = replay(journal)
        assert state.episodes[key].state == "dead_lettered"
        validate_journal_dir(journal)

    def test_runtime_crash_budget_dead_letters(
        self, service_factory, chain_trace, tmp_path
    ):
        """With a budget of one, a single worker crash dead-letters the
        job in the running server: the waiter gets a structured 500,
        the dead letter is queryable, resubmission is 409."""
        journal = tmp_path / "journal-runtime"
        service, client, bundle = service_factory(
            workers=1,
            journal_dir=str(journal),
            max_attempts=1,
            dead_letter_attempts=1,
        )
        result = {}

        def submit():
            result["response"] = client.delay_cdf(
                chain_trace, max_hops=3, grid_points=8, _test_delay_s=5.0
            )

        thread = threading.Thread(target=submit)
        thread.start()
        _wait_until(
            lambda: any(
                e.state == "running"
                for e in replay(journal).episodes.values()
            ),
            message="job to start running",
        )
        time.sleep(0.2)  # let the worker settle into its injected delay
        pid = service.pool.worker_pids()[0]
        assert pid is not None
        os.kill(pid, signal.SIGKILL)
        thread.join(timeout=30.0)
        response = result["response"]
        assert response.status == 500
        assert response.json()["error"]["type"] == "dead-lettered"
        # The counter lands just after the waiter is notified; poll
        # rather than race the supervisor thread.
        _wait_until(
            lambda: _counter(bundle, "service.jobs.dead_lettered") == 1,
            timeout_s=5.0,
            message="dead-letter counter",
        )
        listing = client.jobs(state="dead_lettered").json()
        assert listing["count"] == 1
        assert listing["jobs"][0]["crashes"] == 1
        resubmitted = client.delay_cdf(
            chain_trace, max_hops=3, grid_points=8
        )
        assert resubmitted.status == 409
        state = replay(journal)
        assert [e.state for e in state.episodes.values()] == [
            "dead_lettered"
        ]
        validate_journal_dir(journal)
