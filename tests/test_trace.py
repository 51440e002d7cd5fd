"""Expansion-level search tracing: recorder semantics + reconciliation.

Two layers of guarantee:

* **Recorder unit behavior** — full/ring/sample capture modes, pinned
  events, exact counts independent of eviction/sampling, spec
  round-trip, sink flushing on close.
* **End-to-end exactness** — a full-mode trace of a real mode-2 search
  (in-process *and* through the parallel fan-out, workers 1 and 2)
  reproduces the run's reported counters (``symmetry_pruned``,
  ``pruned_by_bound``, ...) exactly via ``repro diagnose``'s
  reconciliation, and the fan-out coordinator emits the final
  ``phase="done"`` progress event with aggregated stats.
"""

import itertools

import pytest

from repro.analysis.diagnose import RECONCILED_STATS, diagnose
from repro.arch import grid, lnn
from repro.circuit import Circuit, uniform_latency
from repro.circuit.generators import qft_skeleton
from repro.core import OptimalMapper, SearchBudgetExceeded
from repro.core.kernels import available_backends
from repro.obs import MemorySink, Telemetry, TraceRecorder, TraceSpec
from repro.obs.trace import (
    EV_EXPAND,
    EV_INCUMBENT,
    EV_PRUNE,
    EV_SUMMARY,
    MODE_RING,
    MODE_SAMPLE,
    PRUNE_EQUIVALENCE,
    PRUNE_INCUMBENT_BOUND,
)


class _Node:
    """Minimal stand-in satisfying the recorder's node protocol."""

    def __init__(self, parent=None, in_prefix=False, actions=(("g", 0),),
                 time=0, h=0, f=0):
        self.parent = parent
        self.in_prefix = in_prefix
        self.actions = tuple(actions)
        self.time = time
        self.h = h
        self.f = f
        self._tid = -1


class TestTraceRecorder:
    def test_full_mode_records_everything(self):
        recorder = TraceRecorder()
        root = _Node()
        child = _Node(parent=root, time=1, h=2, f=3)
        recorder.expand(root, heap_size=1)
        recorder.expand(child, heap_size=4)
        recorder.prune(PRUNE_INCUMBENT_BOUND, node=child)
        recorder.prune(PRUNE_EQUIVALENCE, count=3)
        recorder.incumbent(9, "seed")
        recorder.summary({"nodes_expanded": 2})
        records = recorder.drain()
        assert [r["ev"] for r in records] == [
            EV_EXPAND, EV_EXPAND, EV_PRUNE, EV_PRUNE, EV_INCUMBENT,
            EV_SUMMARY,
        ]
        assert recorder.complete
        assert recorder.expansions == 2
        assert recorder.counts == {
            PRUNE_INCUMBENT_BOUND: 1, PRUNE_EQUIVALENCE: 3,
        }
        expand = records[1]
        assert expand["node"] == 1 and expand["parent"] == 0
        assert expand["cycle"] == 1 and expand["h"] == 2 and expand["f"] == 3
        # f is carried on bound prunes only; count omitted when 1.
        assert records[2]["f"] == 3 and "count" not in records[2]
        assert records[3]["count"] == 3 and "node" not in records[3]
        summary = records[-1]
        assert summary["complete"] and summary["expansions"] == 2
        assert summary["counts"] == {
            PRUNE_EQUIVALENCE: 3, PRUNE_INCUMBENT_BOUND: 1,
        }

    def test_node_ids_stable_across_calls(self):
        recorder = TraceRecorder()
        node = _Node()
        assert recorder.node_id(node) == 0
        assert recorder.node_id(node) == 0
        assert recorder.node_id(_Node()) == 1

    def test_ring_mode_evicts_unpinned_only(self):
        recorder = TraceRecorder(mode=MODE_RING, ring_size=2)
        for index in range(5):
            recorder.expand(_Node(time=index), heap_size=index)
        recorder.incumbent(7, "terminal")
        recorder.summary({})
        assert recorder.evicted == 3
        assert not recorder.complete
        assert recorder.expansions == 5  # exact despite eviction
        records = recorder.drain()
        assert [r["ev"] for r in records] == [
            EV_EXPAND, EV_EXPAND, EV_INCUMBENT, EV_SUMMARY,
        ]
        assert [r["idx"] for r in records[:2]] == [3, 4]  # newest survive
        assert records[-1]["complete"] is False

    def test_sample_mode_strides_but_counts_exactly(self):
        recorder = TraceRecorder(mode=MODE_SAMPLE, sample_every=3)
        for index in range(9):
            recorder.expand(_Node(time=index), heap_size=0)
        recorder.prune(PRUNE_EQUIVALENCE, count=5)
        assert recorder.expansions == 9
        assert recorder.counts[PRUNE_EQUIVALENCE] == 5  # exact
        kept = recorder.drain()
        assert len(kept) == 4  # samplable events 0, 3, 6, 9
        assert recorder.sampled_out == 6
        assert not recorder.complete

    def test_spec_round_trip(self):
        recorder = TraceRecorder(mode=MODE_RING, ring_size=17,
                                 sample_every=5)
        spec = recorder.spec()
        assert spec == TraceSpec(mode=MODE_RING, ring_size=17,
                                 sample_every=5)
        rebuilt = TraceRecorder.from_spec(spec)
        assert rebuilt.mode == MODE_RING
        assert rebuilt.ring_size == 17
        assert rebuilt.sample_every == 5
        assert rebuilt.records is not None  # workers keep records

    def test_emit_raw_bypasses_counters(self):
        recorder = TraceRecorder()
        recorder.emit_raw({"type": "trace", "ev": EV_PRUNE,
                           "reason": PRUNE_EQUIVALENCE, "root": 3})
        recorder.emit_raw({"type": "trace", "ev": EV_SUMMARY, "root": 3})
        assert recorder.counts == {}  # worker counts arrive via stats
        assert recorder.expansions == 0
        assert len(recorder.drain()) == 2

    def test_emit_raw_pins_summary_in_ring_mode(self):
        recorder = TraceRecorder(mode=MODE_RING, ring_size=1)
        recorder.emit_raw({"type": "trace", "ev": EV_SUMMARY, "root": 0})
        for index in range(3):
            recorder.expand(_Node(time=index), heap_size=0)
        records = recorder.drain()
        assert [r["ev"] for r in records] == [EV_EXPAND, EV_SUMMARY]

    def test_close_flushes_ring_to_sink_once(self):
        sink = MemorySink()
        recorder = TraceRecorder(sink=sink, mode=MODE_RING, ring_size=8)
        recorder.expand(_Node(), heap_size=0)
        recorder.summary({})
        assert sink.records == []  # ring buffers until close
        recorder.close()
        assert [r["ev"] for r in sink.records] == [EV_EXPAND, EV_SUMMARY]
        recorder.close()  # idempotent
        assert len(sink.records) == 2

    def test_full_mode_streams_to_sink_immediately(self):
        sink = MemorySink()
        recorder = TraceRecorder(sink=sink)
        recorder.expand(_Node(), heap_size=0)
        assert len(sink.records) == 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown trace mode"):
            TraceRecorder(mode="everything")


def _traced_mode2(workers=None, max_nodes=None, seed_incumbent=True,
                  num_qubits=4, kernel=None):
    """Map QFT-n on LNN-n in mode 2 with a full in-memory trace."""
    recorder = TraceRecorder()
    telemetry = Telemetry(search_trace=recorder)
    mapper = OptimalMapper(
        lnn(num_qubits), uniform_latency(1, 3), search_initial_mapping=True,
        mode2_workers=workers, max_nodes=max_nodes,
        seed_incumbent=seed_incumbent, telemetry=telemetry, kernel=kernel,
    )
    return mapper, telemetry, recorder


class TestTraceReconciliation:
    def test_full_trace_reproduces_mode2_counters(self):
        # Traces ride the kernel path, so every backend must reconcile.
        for kernel, num_qubits in itertools.product(
            available_backends(), (4, 5)
        ):
            mapper, telemetry, recorder = _traced_mode2(
                num_qubits=num_qubits, kernel=kernel
            )
            result = mapper.map(qft_skeleton(num_qubits))
            assert result.stats["kernel_backend"] == kernel
            telemetry.finish()
            report = diagnose(recorder.drain())
            assert report["complete"]
            assert report["consistent"], report["mismatches"]
            for key in RECONCILED_STATS:
                if key in result.stats:
                    assert report["recorded_counters"].get(key, 0) == \
                        result.stats[key]
            audit = report["heuristic_audit"]
            assert audit is not None
            assert audit["depth"] == result.depth
            assert audit["admissible_on_path"]
            assert audit["path_complete"]
            # slack >= 0 along the whole optimal path: empirical
            # admissibility of h
            assert all(step["slack"] >= 0 for step in audit["path"])
        # On QFT-5 the default search's always-on reductions both fire,
        # and the trace attributes every one of their prunes.
        assert result.stats["closed_dominated"] > 0
        assert result.stats["root_candidates_restricted"] > 0
        for key in ("closed_dominated", "root_candidates_restricted"):
            assert report["recorded_counters"][key] == result.stats[key]

    def test_untraced_run_matches_traced_depth_and_counters(self):
        mapper, telemetry, recorder = _traced_mode2()
        traced = mapper.map(qft_skeleton(4))
        telemetry.finish()
        plain = OptimalMapper(
            lnn(4), uniform_latency(1, 3), search_initial_mapping=True,
        ).map(qft_skeleton(4))
        assert traced.depth == plain.depth
        for key in RECONCILED_STATS:
            assert traced.stats.get(key) == plain.stats.get(key)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fanout_trace_reproduces_counters(self, workers):
        mapper, telemetry, recorder = _traced_mode2(workers=workers)
        result = mapper.map(qft_skeleton(4))
        telemetry.finish()
        records = recorder.drain()
        report = diagnose(records)
        assert report["complete"]
        assert report["consistent"], report["mismatches"]
        assert report["recorded_counters"]["nodes_expanded"] == \
            result.stats["nodes_expanded"]
        # Worker chunks arrive root-tagged; the aggregate summary wins.
        assert any(r.get("root", -1) >= 0 for r in records)
        summaries = [r for r in records if r.get("ev") == EV_SUMMARY]
        assert summaries[-1]["scope"] == "aggregate"
        assert summaries[-1]["stats"]["mode2_workers"] == workers

    def test_fanout_emits_done_event_with_winning_root(self):
        mapper, telemetry, recorder = _traced_mode2(workers=1)
        events = []
        telemetry.progress.subscribe(events.append)
        result = mapper.map(qft_skeleton(4))
        telemetry.finish()
        done = [e for e in events if e.phase == "done"]
        assert len(done) == 1
        event = done[0]
        assert event.nodes_expanded == result.stats["nodes_expanded"]
        assert event.best_f == result.depth
        assert event.extra["mode2_roots"] == result.stats["mode2_roots"]
        assert event.extra["mode2_roots_searched"] == \
            result.stats["mode2_roots_searched"]
        assert event.extra["winning_root"] >= -1

    def test_budget_trip_still_summarizes(self):
        mapper, telemetry, recorder = _traced_mode2(
            workers=1, max_nodes=50, seed_incumbent=False,
        )
        with pytest.raises(SearchBudgetExceeded) as excinfo:
            mapper.map(qft_skeleton(4))
        telemetry.finish()
        records = recorder.drain()
        summaries = [r for r in records if r.get("ev") == EV_SUMMARY]
        assert summaries, "budget path must still emit summaries"
        report = diagnose(records)
        assert report["stats"]["budget_reason"] == "max_nodes"
        assert report["recorded_counters"]["nodes_expanded"] == \
            excinfo.value.partial_stats["nodes_expanded"]

    def test_mode1_trace_reconciles_too(self):
        recorder = TraceRecorder()
        telemetry = Telemetry(search_trace=recorder)
        circuit = Circuit(4).cx(0, 1).cx(2, 3).cx(0, 3).cx(1, 2)
        result = OptimalMapper(
            grid(2, 2), uniform_latency(1, 3), telemetry=telemetry,
        ).map(circuit, initial_mapping=[0, 1, 2, 3])
        telemetry.finish()
        report = diagnose(recorder.drain())
        assert report["complete"] and report["consistent"]
        assert report["recorded_counters"]["nodes_expanded"] == \
            result.stats["nodes_expanded"]
