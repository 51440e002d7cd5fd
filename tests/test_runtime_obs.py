"""Tests for the flight recorder runtime telemetry layer.

Covers the resource sampler (record schema, GC-pause accounting and its
interaction with ``pause_gc``), the sampling profiler (span attribution,
collapsed-stack output), the ``JsonlSink`` reopen-truncation regression,
finished-telemetry guards, fleet shard merging + rollup arithmetic, the
``obs-report`` CLI, and the flight recorder overhead gate.
"""

import gc
import os
import time

import pytest

from repro.analysis.batch import BatchTask, map_many, map_mode2_fanout
from repro.arch import lnn
from repro.circuit import uniform_latency
from repro.circuit.generators import qft_skeleton, random_circuit
from repro.cli import main as cli_main
from repro.core import OptimalMapper
from repro.core.gcpause import pause_gc, suspension_stats
from repro.obs import (
    GcPauseTracker,
    JsonlSink,
    MemorySink,
    ResourceSampler,
    SamplingProfiler,
    SearchProgressEvent,
    Telemetry,
    TelemetrySpec,
    read_jsonl,
)
from repro.obs.export import (
    FLEET_ROLLUP_NAME,
    fleet_rollup,
    fleet_to_prometheus,
    render_fleet_table,
    run_to_prometheus,
    summarize_run,
)

#: Every field a ``type="resource"`` record must carry.
RESOURCE_KEYS = {
    "type", "elapsed_s", "rss_bytes", "peak_rss_bytes", "cpu_user_s",
    "cpu_sys_s", "gc_counts", "gc_collections", "gc_pause_s",
    "gc_pause_max_s", "gc_windows", "gc_suspended_s",
}


def _spin(seconds: float) -> int:
    """Busy loop that keeps the thread on-CPU (samplable)."""
    total = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        total += sum(range(200))
    return total


class TestResourceSampler:
    def test_record_schema_and_monotonicity(self):
        sink = MemorySink()
        with ResourceSampler(sink=sink, interval=0.01):
            _spin(0.06)
        records = sink.of_type("resource")
        assert len(records) >= 2  # several ticks plus the final record
        for record in records:
            assert RESOURCE_KEYS <= set(record)
            assert record["rss_bytes"] > 0
            assert record["peak_rss_bytes"] >= record["rss_bytes"] or (
                record["peak_rss_bytes"] > 0
            )
            assert len(record["gc_counts"]) == 3
        elapsed = [r["elapsed_s"] for r in records]
        assert elapsed == sorted(elapsed)
        peaks = [r["peak_rss_bytes"] for r in records]
        assert peaks == sorted(peaks)  # the peak gauge never regresses

    def test_summary_and_metrics_registry(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        sampler = ResourceSampler(metrics=metrics, interval=0.01)
        with sampler:
            _spin(0.05)
        summary = sampler.summary()
        assert summary["samples"] >= 1
        assert summary["peak_rss_bytes"] > 0
        assert summary["cpu_user_s"] >= 0.0
        assert "gc_collections" in summary
        snapshot = metrics.snapshot()
        assert snapshot["runtime.samples"] == sampler.samples
        assert snapshot["runtime.rss_bytes"]["value"] > 0

    def test_sink_none_keeps_records_in_memory(self):
        sampler = ResourceSampler(interval=0.01)
        with sampler:
            _spin(0.03)
        assert sampler.records
        assert sampler.records[-1]["type"] == "resource"


class TestGcPauseAccounting:
    def test_tracker_counts_explicit_collection(self):
        tracker = GcPauseTracker().install()
        try:
            gc.collect()
        finally:
            tracker.remove()
        assert tracker.collections >= 1
        assert tracker.pause_total_s >= 0.0
        assert tracker.by_generation[2] >= 1
        summary = tracker.summary()
        assert summary["gc_collections"] == tracker.collections

    def test_no_automatic_collections_inside_pause_gc(self):
        # The search suspends the cyclic collector; allocation churn that
        # would normally trip thresholds must produce zero callbacks.
        tracker = GcPauseTracker().install()
        try:
            with pause_gc():
                for _ in range(50_000):
                    _ = ([], {})
                assert tracker.collections == 0
        finally:
            tracker.remove()

    def test_suspension_window_counters(self):
        before = suspension_stats()
        with pause_gc():
            mid = suspension_stats()
            assert mid["active"]
            _spin(0.01)
        after = suspension_stats()
        assert not after["active"]
        assert after["windows"] == before["windows"] + 1
        assert after["suspended_s"] >= before["suspended_s"] + 0.01

    def test_resource_records_carry_suspension_stats(self):
        sink = MemorySink()
        with ResourceSampler(sink=sink, interval=0.005):
            with pause_gc():
                _spin(0.04)
        final = sink.of_type("resource")[-1]
        assert final["gc_windows"] >= 1
        assert final["gc_suspended_s"] > 0.0


class TestSamplingProfiler:
    def test_function_and_span_attribution(self):
        telemetry = Telemetry(trace=True)
        profiler = SamplingProfiler(
            interval=0.002, tracer=telemetry.tracer
        ).start()
        with telemetry.tracer.span("busy-span"):
            _spin(0.1)
        report = profiler.stop()
        assert report["samples"] >= 5
        assert report["functions"]  # leaf self-time table populated
        span_names = [row["name"] for row in report["spans"]]
        assert any("busy-span" in name for name in span_names)
        pcts = [row["pct"] for row in report["functions"]]
        assert all(0.0 <= pct <= 100.0 for pct in pcts)

    def test_collapsed_stack_file(self, tmp_path):
        collapsed = tmp_path / "profile.folded"
        profiler = SamplingProfiler(
            interval=0.002, collapsed_path=str(collapsed)
        ).start()
        _spin(0.08)
        report = profiler.stop()
        assert report["collapsed_path"] == str(collapsed)
        lines = collapsed.read_text().splitlines()
        assert lines
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert int(count) >= 1
            assert ";" in stack  # root;...;leaf chains, never bare frames

    def test_profile_record_reaches_sink(self):
        sink = MemorySink()
        profiler = SamplingProfiler(interval=0.002, sink=sink).start()
        _spin(0.05)
        profiler.stop()
        records = sink.of_type("profile")
        assert len(records) == 1
        assert records[0]["samples"] == profiler.samples


class TestJsonlSinkLifecycle:
    def test_emit_after_close_appends_instead_of_truncating(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = JsonlSink(path)
        sink.emit({"type": "a"})
        sink.close()
        sink.emit({"type": "b"})  # regression: used to reopen in "w"
        sink.close()
        assert [r["type"] for r in read_jsonl(path)] == ["a", "b"]

    def test_append_mode_preserves_prior_sinks_records(self, tmp_path):
        path = str(tmp_path / "shard.jsonl")
        for tag in ("first", "second"):
            with JsonlSink(path, append=True) as sink:
                sink.emit({"type": tag})
        assert [r["type"] for r in read_jsonl(path)] == ["first", "second"]

    def test_fresh_sink_still_owns_a_fresh_trail(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"type": "stale"}\n')
        with JsonlSink(str(path)) as sink:
            sink.emit({"type": "new"})
        assert [r["type"] for r in read_jsonl(str(path))] == ["new"]


class TestFinishedTelemetryGuards:
    def _event(self) -> SearchProgressEvent:
        return SearchProgressEvent(
            mapper="toqm-optimal", phase="search", nodes_expanded=1,
            nodes_generated=1, heap_size=1, best_f=1, elapsed_seconds=0.0,
        )

    def test_late_emits_are_dropped_not_written(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        telemetry = Telemetry.to_jsonl(path, trace=False)
        telemetry.publish_progress(self._event())
        assert telemetry.finish() is not None
        written = len(read_jsonl(path))
        telemetry.publish_progress(self._event())
        assert telemetry.emit_metrics_snapshot() is None
        assert telemetry.dropped_after_finish == 2
        assert len(read_jsonl(path)) == written  # file untouched

    def test_finish_is_idempotent(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        telemetry = Telemetry.to_jsonl(path, trace=False)
        assert telemetry.finish() is not None
        assert telemetry.finish() is None
        assert len(read_jsonl(path)) == 1

    def test_null_telemetry_stays_reusable(self):
        from repro.obs import NULL_TELEMETRY

        assert NULL_TELEMETRY.finish() is None
        assert not NULL_TELEMETRY.finished


def _write_shard(directory, worker, tasks):
    """Synthesize one worker shard with known arithmetic."""
    os.makedirs(directory, exist_ok=True)
    with JsonlSink(
        os.path.join(directory, f"worker-{worker}.jsonl")
    ) as sink:
        sink.emit({
            "type": "worker_meta", "worker": worker, "pid": worker,
            "started_ts": 1000.0,
        })
        for index, (seconds, nodes, rss, ok) in enumerate(tasks):
            sink.emit({
                "type": "worker_task", "worker": worker,
                "label": f"t{index}", "ok": ok, "seconds": seconds,
                "queue_wait_s": 0.5, "nodes_expanded": nodes, "depth": 10,
                "peak_rss_bytes": rss, "ts": 1000.0 + index + 1,
            })


class TestFleetRollup:
    def test_shard_merge_arithmetic(self, tmp_path):
        d = str(tmp_path)
        _write_shard(d, 111, [(2.0, 100, 50_000, True),
                              (2.0, 300, 70_000, True)])
        _write_shard(d, 222, [(4.0, 600, 90_000, False)])
        rollup = fleet_rollup(d)
        workers = {w["worker"]: w for w in rollup["workers"]}
        assert workers[111]["nodes_per_sec"] == pytest.approx(100.0)
        assert workers[111]["peak_rss_bytes"] == 70_000
        assert workers[222]["failed"] == 1
        fleet = rollup["fleet"]
        assert fleet["workers"] == 2
        assert fleet["tasks"] == 3
        assert fleet["ok"] == 2
        assert fleet["nodes_expanded"] == 1000
        assert fleet["run_s"] == pytest.approx(8.0)
        assert fleet["queue_wait_s"] == pytest.approx(1.5)
        assert fleet["nodes_per_sec"] == pytest.approx(125.0)
        assert fleet["peak_rss_bytes"] == 90_000
        # wall: earliest start 1000.0 → latest task ts 1002.0
        assert fleet["wall_s"] == pytest.approx(2.0)
        assert fleet["circuits_per_min"] == pytest.approx(90.0)

    def test_map_many_writes_shards_and_rollup(self, tmp_path):
        tasks = [
            BatchTask(
                label=f"rand-{seed}",
                circuit=random_circuit(4, 6, seed=seed),
                mapper=OptimalMapper(lnn(4), uniform_latency(1, 3)),
            )
            for seed in range(8)
        ]
        spec = TelemetrySpec(directory=str(tmp_path), resource_interval=0.01)
        records = map_many(tasks, max_workers=2, telemetry_spec=spec)
        assert all(r.ok for r in records)
        assert all(r.peak_rss_bytes for r in records)
        shards = [f for f in os.listdir(str(tmp_path))
                  if f.startswith("worker-")]
        assert shards
        rollup_path = tmp_path / FLEET_ROLLUP_NAME
        assert rollup_path.exists()
        rollup = fleet_rollup(str(tmp_path))
        assert rollup["fleet"]["tasks"] == 8
        assert rollup["fleet"]["ok"] == 8
        assert sum(w["tasks"] for w in rollup["workers"]) == 8
        total_nodes = sum(
            int(r.stats.get("nodes_expanded", 0)) for r in records
        )
        assert rollup["fleet"]["nodes_expanded"] == total_nodes

    def test_reused_results_count_no_nodes_in_the_fleet(self, tmp_path):
        # Three circuits, each requested three times: the warm cache
        # serves six repeats from finished results.
        tasks = [
            BatchTask(
                label=f"req-{index}",
                circuit=random_circuit(4, 6, seed=index % 3),
                mapper=OptimalMapper(lnn(4), uniform_latency(1, 3)),
            )
            for index in range(9)
        ]
        spec = TelemetrySpec(directory=str(tmp_path))
        records = map_many(tasks, max_workers=1, warm_cache=True,
                           telemetry_spec=spec)
        reused = [r for r in records if r.stats.get("result_reused")]
        assert [r.label for r in reused] == [
            f"req-{index}" for index in range(3, 9)
        ]
        # Reused records keep the searched counters for identity checks.
        assert sum(r.stats["nodes_expanded"] for r in reused) > 0
        fleet = fleet_rollup(str(tmp_path))["fleet"]
        assert fleet["nodes_expanded"] == sum(
            r.stats["nodes_expanded"] for r in records[:3]
        )
        assert fleet["warm_cache"]["result_hits"] == 6
        assert fleet["warm_cache"]["result_misses"] == 3

    def test_mode2_fanout_writes_root_records(self, tmp_path):
        mapper = OptimalMapper(
            lnn(4), uniform_latency(1, 3), search_initial_mapping=True
        )
        mapper.telemetry_spec = TelemetrySpec(
            directory=str(tmp_path), resource_interval=0.01
        )
        result = map_mode2_fanout(mapper, qft_skeleton(4), max_workers=1)
        assert result.optimal
        shard = next(
            f for f in os.listdir(str(tmp_path)) if f.startswith("worker-")
        )
        records = read_jsonl(str(tmp_path / shard))
        roots = [r for r in records if r.get("type") == "worker_task"]
        assert roots
        assert all(r["label"].startswith("root-") for r in roots)
        assert (tmp_path / FLEET_ROLLUP_NAME).exists()

    def test_prometheus_exposition_shape(self, tmp_path):
        import re

        d = str(tmp_path)
        _write_shard(d, 7, [(1.0, 50, 1024, True)])
        text = fleet_to_prometheus(fleet_rollup(d))
        line_re = re.compile(
            r"^(# TYPE [a-zA-Z_][a-zA-Z0-9_]* (counter|gauge)"
            r'|[a-zA-Z_][a-zA-Z0-9_]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+='
            r'"[^"]*")*\})? -?[0-9.e+-]+)$'
        )
        lines = text.strip().splitlines()
        assert lines
        for line in lines:
            assert line_re.match(line), line
        assert any('worker="7"' in line for line in lines)
        table = render_fleet_table(fleet_rollup(d))
        assert "fleet" in table and "nodes/s" in table


class TestObsReportCli:
    def test_fleet_table_and_prom(self, tmp_path, capsys):
        d = str(tmp_path)
        _write_shard(d, 9, [(1.0, 40, 2048, True)])
        assert cli_main(["obs-report", d]) == 0
        out = capsys.readouterr().out
        assert "fleet" in out and "worker" in out
        prom_out = tmp_path / "fleet.prom"
        assert cli_main(
            ["obs-report", d, "--format", "prom", "--out", str(prom_out)]
        ) == 0
        assert "repro_fleet_tasks 1" in prom_out.read_text()

    def test_run_summary_from_jsonl(self, tmp_path, capsys):
        path = str(tmp_path / "run.jsonl")
        telemetry = Telemetry(
            sink=JsonlSink(path), sample_resources=True,
            resource_interval=0.01, hot_path=False,
        )
        _spin(0.03)
        telemetry.finish()
        assert cli_main(["obs-report", path]) == 0
        out = capsys.readouterr().out
        assert "records:" in out and "resources:" in out
        summary = summarize_run(read_jsonl(path))
        prom = run_to_prometheus(summary)
        assert "repro_resource_peak_rss_bytes" in prom

    def test_missing_shards_error(self, tmp_path, capsys):
        assert cli_main(["obs-report", str(tmp_path)]) == 1
        assert "no worker-" in capsys.readouterr().err


class TestOverheadGate:
    def test_flight_recorder_within_five_percent(self):
        """Sampler + profiler attached (``hot_path=False``) must keep the
        qft5/LNN exact solve within 5% of its bare nodes/sec."""
        circuit = qft_skeleton(5)
        coupling = lnn(5)
        latency = uniform_latency(1, 3)

        def solve(**telemetry_kwargs):
            telemetry = None
            if telemetry_kwargs:
                telemetry = Telemetry(hot_path=False, **telemetry_kwargs)
            mapper = OptimalMapper(coupling, latency, telemetry=telemetry)
            result = mapper.map(circuit)
            if telemetry is not None:
                telemetry.finish()
            stats = result.stats
            return float(stats["nodes_expanded"]) / float(stats["seconds"])

        solve()  # warm caches (imports, kernel backend, memo tables)
        # Best-of-N damps scheduler noise; retry the whole comparison a
        # few times before declaring a regression, because a 5% bar on a
        # sub-100ms workload is within CI jitter for a single pairing.
        for attempt in range(4):
            bare = max(solve() for _ in range(5))
            recorded = max(
                solve(sample_resources=True, profile=True)
                for _ in range(5)
            )
            if recorded >= bare * 0.95:
                break
        assert recorded >= bare * 0.95, (
            f"flight recorder overhead too high: bare {bare:.0f} nodes/s "
            f"vs recorded {recorded:.0f} nodes/s"
        )


def _emit_task(sink, worker, index, ok=True, error_type=None,
               warm_cache=None, nodes=100, seconds=1.0):
    record = {
        "type": "worker_task", "worker": worker, "label": f"t{index}",
        "ok": ok, "seconds": seconds, "queue_wait_s": 0.25,
        "nodes_expanded": nodes, "depth": 10,
        "peak_rss_bytes": 10_000, "ts": 1000.0 + index + 1,
    }
    if error_type is not None:
        record["error_type"] = error_type
    if warm_cache is not None:
        record["warm_cache"] = warm_cache
    sink.emit(record)


class TestFleetFailuresAndWarmCache:
    def _write_shards(self, directory):
        with JsonlSink(os.path.join(directory, "worker-1.jsonl")) as sink:
            sink.emit({"type": "worker_meta", "worker": 1, "pid": 1,
                       "started_ts": 1000.0})
            _emit_task(sink, 1, 0,
                       warm_cache={"arch_hits": 0, "arch_misses": 1,
                                   "problem_hits": 0, "problem_misses": 1,
                                   "problem_evictions": 0, "contexts": 1})
            _emit_task(sink, 1, 1, ok=False, error_type="RuntimeError",
                       warm_cache={"arch_hits": 1, "arch_misses": 1,
                                   "problem_hits": 1, "problem_misses": 1,
                                   "problem_evictions": 0, "contexts": 1})
        with JsonlSink(os.path.join(directory, "worker-2.jsonl")) as sink:
            sink.emit({"type": "worker_meta", "worker": 2, "pid": 2,
                       "started_ts": 1000.0})
            _emit_task(sink, 2, 2, ok=False,
                       error_type="SearchBudgetExceeded",
                       warm_cache={"arch_hits": 0, "arch_misses": 1,
                                   "problem_hits": 2, "problem_misses": 1,
                                   "problem_evictions": 1, "contexts": 1})
            _emit_task(sink, 2, 3, ok=False)  # no error_type recorded

    def test_rollup_aggregates_failures_and_warm_counters(self, tmp_path):
        d = str(tmp_path)
        self._write_shards(d)
        rollup = fleet_rollup(d)
        workers = {w["worker"]: w for w in rollup["workers"]}
        # Per worker: last cumulative warm snapshot wins, failures by type.
        assert workers[1]["warm_cache"]["problem_hits"] == 1
        assert workers[1]["failures"] == {"RuntimeError": 1}
        assert workers[2]["failures"] == {
            "SearchBudgetExceeded": 1, "unknown": 1,
        }
        fleet = rollup["fleet"]
        assert fleet["failed"] == 3
        assert fleet["failures"] == {
            "RuntimeError": 1, "SearchBudgetExceeded": 1, "unknown": 1,
        }
        # Summed across workers: hits 1+2=3, misses 1+1=2 → 3/5.
        assert fleet["warm_cache"]["problem_hits"] == 3
        assert fleet["warm_cache"]["problem_misses"] == 2
        assert fleet["warm_cache"]["problem_evictions"] == 1
        assert fleet["warm_cache_hit_rate"] == pytest.approx(0.6)

    def test_table_renders_failure_column_and_warm_line(self, tmp_path):
        d = str(tmp_path)
        self._write_shards(d)
        table = render_fleet_table(fleet_rollup(d))
        assert "failures" in table
        assert "1xRuntimeError" in table
        assert "1xSearchBudgetExceeded,1xunknown" in table
        assert "warm-cache: hit rate 60.0%" in table

    def test_prometheus_exports_warm_and_failure_series(self, tmp_path):
        d = str(tmp_path)
        self._write_shards(d)
        text = fleet_to_prometheus(fleet_rollup(d))
        assert "repro_fleet_warm_cache_hit_rate 0.6" in text
        assert "repro_fleet_warm_cache_problem_hits 3" in text
        assert 'repro_fleet_failures{error_type="RuntimeError"} 1' in text

    def test_fleet_without_failures_or_warm_data_stays_clean(self, tmp_path):
        d = str(tmp_path)
        with JsonlSink(os.path.join(d, "worker-1.jsonl")) as sink:
            sink.emit({"type": "worker_meta", "worker": 1, "pid": 1,
                       "started_ts": 1000.0})
            _emit_task(sink, 1, 0)
        rollup = fleet_rollup(d)
        fleet = rollup["fleet"]
        assert fleet["failures"] == {}
        assert fleet["warm_cache"] == {}
        assert fleet["warm_cache_hit_rate"] == 0.0
        table = render_fleet_table(rollup)
        assert "warm-cache:" not in table  # no lookups, no noise line
        assert "-" in table  # empty failure column placeholder
