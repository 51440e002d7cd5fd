"""Tests for the corpus throughput harness (``repro.analysis.corpus``)."""

import json

import pytest

from repro.analysis.corpus import (
    base_circuits,
    build_corpus,
    identity_mismatches,
    run_corpus,
)
from repro.arch import lnn
from repro.circuit import uniform_latency
from repro.core import HeuristicMapper
from repro.core.kernels import resolve_backend
from repro.obs import RunLedger


def _mapper_factory():
    return HeuristicMapper(lnn(5), uniform_latency(1, 3))


class TestBuildCorpus:
    def test_deterministic_for_a_seed(self):
        first = build_corpus(20, seed=3, max_qubits=5)
        second = build_corpus(20, seed=3, max_qubits=5)
        assert [label for label, _ in first] == [
            label for label, _ in second
        ]
        assert build_corpus(20, seed=4, max_qubits=5) != first

    def test_size_repeats_and_unique_labels(self):
        stream = build_corpus(20, seed=0, max_qubits=5, repeat_factor=4)
        labels = [label for label, _ in stream]
        assert len(stream) == 20
        assert len(set(labels)) == 20  # occurrence-suffixed labels
        bases = {label.rsplit("@", 1)[0] for label in labels}
        assert len(bases) <= 5  # 20 requests / repeat factor 4
        assert len(bases) < len(stream)  # repetition actually happens

    def test_max_qubits_filters_pool(self):
        for _, circuit in base_circuits(max_qubits=5):
            assert circuit.num_qubits <= 5
        for label, circuit in build_corpus(10, max_qubits=5):
            assert circuit.num_qubits <= 5

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            build_corpus(0)
        with pytest.raises(ValueError):
            build_corpus(10, repeat_factor=0)
        with pytest.raises(ValueError):
            build_corpus(10, max_qubits=0)


class TestRunCorpus:
    def test_sequential_summary_shape(self):
        stream = build_corpus(6, seed=0, max_qubits=5, repeat_factor=3)
        summary = run_corpus(stream, _mapper_factory, workers=1)
        assert summary["circuits"] == 6
        assert summary["ok"] == 6 and summary["failed"] == 0
        assert summary["circuits_per_min"] > 0
        assert summary["nodes_expanded"] > 0
        assert len(summary["records"]) == 6
        # no telemetry dir → rollup-derived fields are absent, not fake
        assert summary["queue_wait_frac"] is None
        assert summary["warm_cache_hit_rate"] is None

    def test_telemetry_dir_fills_fleet_fields(self, tmp_path):
        stream = build_corpus(6, seed=0, max_qubits=5, repeat_factor=3)
        summary = run_corpus(
            stream, _mapper_factory, workers=2,
            telemetry_dir=str(tmp_path),
        )
        assert summary["ok"] == 6
        assert summary["queue_wait_frac"] is not None
        assert summary["warm_cache_hit_rate"] is not None
        assert (tmp_path / "fleet.json").exists()

    def test_identity_same_stream_matches(self):
        stream = build_corpus(6, seed=1, max_qubits=5, repeat_factor=3)
        warm = run_corpus(stream, _mapper_factory, workers=2)
        reference = run_corpus(stream, _mapper_factory, workers=1)
        assert identity_mismatches(warm, reference) == []

    def test_identity_flags_divergence(self):
        stream = build_corpus(4, seed=1, max_qubits=5, repeat_factor=2)
        a = run_corpus(stream, _mapper_factory, workers=1)
        b = run_corpus(stream, _mapper_factory, workers=1)
        b["records"][0]["depth"] = -1
        mismatches = identity_mismatches(a, b)
        assert len(mismatches) == 1 and "depth" in mismatches[0]


class TestTrajectoryRecording:
    """Each corpus run with ``--ledger-dir`` appends one ledger row."""

    def test_append_creates_and_extends_trajectory(self, tmp_path, capsys):
        from repro.cli import main

        ledger_dir = str(tmp_path / "runs")
        for _ in range(2):
            assert main([
                "corpus", "--size", "6", "--repeat-factor", "3",
                "--arch", "lnn-5", "--latency", "unit", "--workers", "1",
                "--ledger-dir", ledger_dir,
            ]) == 0
        rows = RunLedger(ledger_dir).runs(kind="corpus")
        assert len(rows) == 2
        assert rows[0]["fingerprint"] == rows[1]["fingerprint"]
        for row in rows:
            assert row["config"]["kernel"] == resolve_backend(None).name
            assert row["stats"]["ok"] == 6
            assert row["stats"]["circuits_per_min"] > 0
            assert row["stats"]["warm_cache_hit_rate"] is not None
        # Two identical runs form a stable history: the gate passes.
        capsys.readouterr()
        assert main(["runs", "regressions", "--ledger-dir", ledger_dir]) == 0
        assert "no regressions in 2 run(s)" in capsys.readouterr().out


class TestCorpusCli:
    def test_corpus_command_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "corpus", "--size", "6", "--repeat-factor", "3",
            "--arch", "lnn-5", "--latency", "unit", "--workers", "1",
            "--verify-identity",
            "--json-out", str(tmp_path / "corpus.json"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "6 requests" in out
        assert "circuits/min" in out
        assert "identity      : OK" in out
        payload = json.loads((tmp_path / "corpus.json").read_text())
        assert payload["corpus"]["ok"] == 6
