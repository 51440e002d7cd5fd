"""Offline trace diagnostics + perf-trend regression detection.

Covers the analyzer (`repro diagnose`) on real recorded traces — the
attribution/audit/frontier/timeline sections and the exact counter
reconciliation — plus the trend gate, `find_regressions` over run
ledger rows, and the CLI exit-code contract for `repro diagnose` and
`repro runs regressions` (missing files, empty traces and regressions
must all exit nonzero so CI can gate on them).
"""

import json

from repro.analysis.diagnose import diagnose, load_trace, render_report
from repro.analysis.runs import find_regressions, render_regressions
from repro.cli import main
from repro.obs import RunLedger


def _record_trace(tmp_path, extra_args=()):
    path = tmp_path / "trace.jsonl"
    code = main(
        ["map", "--circuit", "qft:4", "--arch", "lnn-4",
         "--latency", "qft", "--search-initial",
         "--search-trace", str(path), *extra_args]
    )
    assert code == 0
    return path


def _row(run_id, nodes, seconds=0.5):
    return {
        "type": "run", "run_id": run_id, "kind": "map", "status": "ok",
        "fingerprint": "fp1", "wall_s": seconds,
        "stats": {"nodes_expanded": nodes, "seconds": seconds},
    }


def _ledger(tmp_path, *nodes):
    ledger_dir = str(tmp_path / "runs")
    ledger = RunLedger(ledger_dir)
    for i, n in enumerate(nodes):
        ledger.append(_row(f"r{i + 1}", n))
    return ledger_dir


class TestDiagnose:
    def test_full_trace_report_sections(self, tmp_path):
        path = _record_trace(tmp_path)
        records = load_trace(str(path))
        report = diagnose(records)
        assert report["complete"] and report["consistent"]
        # The recorded stream carries non-trace record types too
        # (metrics snapshots etc. when requested); load_trace filters.
        assert all(r["type"] == "trace" for r in records)
        attribution = report["attribution"]
        assert "symmetry_quotient" in attribution
        assert attribution["symmetry_quotient"]["stat"] == "symmetry_pruned"
        assert report["frontier"]["recorded_expansions"] == \
            report["stats"]["nodes_expanded"]
        timeline = report["incumbent_timeline"]
        assert timeline and timeline[0]["source"] == "seed"
        rendered = render_report(report)
        assert "counter reconciliation: OK" in rendered
        assert "pruning attribution" in rendered
        assert "admissible" in rendered

    def test_partial_ring_trace_skips_reconciliation(self, tmp_path):
        path = _record_trace(
            tmp_path,
            ["--search-trace-mode", "ring", "--search-trace-ring", "10"],
        )
        report = diagnose(load_trace(str(path)))
        assert not report["complete"]
        assert report["consistent"] is None
        # Summary totals stay exact even though records were evicted.
        assert report["stats"]["nodes_expanded"] > 10
        assert "skipped (partial trace" in render_report(report)

    def test_mismatch_flagged_on_complete_trace(self, tmp_path):
        path = _record_trace(tmp_path)
        records = load_trace(str(path))
        # Corrupt the authoritative totals: claim one more expansion.
        for record in records:
            if record.get("ev") == "summary":
                record["stats"]["nodes_expanded"] += 1
        report = diagnose(records)
        assert report["complete"] and not report["consistent"]
        assert "nodes_expanded" in report["mismatches"]
        assert "MISMATCH" in render_report(report)


class TestDiagnoseCli:
    def test_diagnose_cli_roundtrip(self, tmp_path, capsys):
        path = _record_trace(tmp_path)
        capsys.readouterr()
        json_out = tmp_path / "report.json"
        code = main(["diagnose", str(path), "--json-out", str(json_out)])
        assert code == 0
        out = capsys.readouterr().out
        assert "counter reconciliation: OK" in out
        report = json.loads(json_out.read_text())
        assert report["consistent"]

    def test_diagnose_missing_file_exits_1(self, tmp_path, capsys):
        code = main(["diagnose", str(tmp_path / "nope.jsonl")])
        assert code == 1
        assert "cannot read" in capsys.readouterr().err

    def test_diagnose_no_trace_records_exits_1(self, tmp_path, capsys):
        path = tmp_path / "only_metrics.jsonl"
        path.write_text('{"type": "metrics", "label": "final"}\n')
        code = main(["diagnose", str(path)])
        assert code == 1
        assert "no trace records" in capsys.readouterr().err


class TestCheckTrend:
    """Same-fingerprint trend gate: 1.05 node ratio, 0.67 rate ratio."""

    def test_single_entry_nothing_to_compare(self):
        assert find_regressions([_row("r1", 100)]) == []
        assert render_regressions([], scanned=1) == (
            "no regressions in 1 run(s)"
        )

    def test_node_regression_detected(self):
        findings = find_regressions([_row("r1", 100), _row("r2", 120)])
        assert [(f["run_id"], f["metric"], f["ratio"]) for f in findings] == [
            ("r2", "nodes_expanded", 1.2)
        ]

    def test_within_tolerance_passes(self):
        assert find_regressions([_row("r1", 100), _row("r2", 104)]) == []

    def test_compares_against_best_prior(self):
        # 104 regresses vs the best prior (80), despite beating 100.
        findings = find_regressions([
            _row("r1", 100), _row("r2", 80), _row("r3", 104),
        ])
        assert [(f["run_id"], f["baseline_run"]) for f in findings] == [
            ("r3", "r2")
        ]

    def test_time_regression_detected_above_floor(self):
        findings = find_regressions([
            _row("r1", 100, seconds=0.5), _row("r2", 100, seconds=2.0),
        ])
        assert [(f["metric"], f["ratio"]) for f in findings] == [
            ("nodes_per_sec", 0.25)
        ]

    def test_sub_floor_timings_never_gate(self):
        findings = find_regressions([
            _row("r1", 100, seconds=0.01), _row("r2", 100, seconds=0.09),
        ])
        assert findings == []  # 9x slower but noise-dominated territory


class TestBenchTrendCli:
    """`repro runs regressions` exit codes on a synthetic ledger."""

    def test_check_passes_on_stable_trajectory(self, tmp_path, capsys):
        ledger_dir = _ledger(tmp_path, 100, 100)
        code = main(["runs", "regressions", "--ledger-dir", ledger_dir])
        assert code == 0
        assert "no regressions in 2 run(s)" in capsys.readouterr().out

    def test_check_exits_1_on_regression(self, tmp_path, capsys):
        ledger_dir = _ledger(tmp_path, 100, 200)
        code = main(["runs", "regressions", "--ledger-dir", ledger_dir])
        assert code == 1
        out = capsys.readouterr().out
        assert "r2" in out and "nodes_expanded" in out

    def test_check_threshold_flags(self, tmp_path):
        ledger_dir = _ledger(tmp_path, 100, 200)
        code = main(["runs", "regressions", "--ledger-dir", ledger_dir,
                     "--max-node-ratio", "2.5"])
        assert code == 0
