"""Cross-run analytics over the persistent run ledger.

The ledger (:mod:`repro.obs.ledger`) records what happened; this module
answers the questions the recordings exist for:

* :func:`list_runs` / :func:`render_runs_table` — what ran, when, how it
  went (``repro runs list``).
* :func:`render_run` — one run in full: config, fingerprint, stats,
  artifact pointers (``repro runs show``).
* :func:`diff_runs` — two runs counter-by-counter (nodes, prunes by
  rule, warm-cache hits, wall time) with percent deltas.  Deterministic
  search means identical configs must produce *zero* counter deltas —
  any non-zero integer delta between same-fingerprint runs is a
  behaviour change, not noise, which is why counters and timings are
  reported separately (``repro runs diff``).
* :func:`find_regressions` — scan the whole ledger for same-fingerprint
  runs whose ``nodes_expanded`` or nodes/sec drifted beyond a threshold
  (``repro runs regressions``, the repo's one regression gate: ``map``,
  ``map-batch``, ``corpus`` and per-suite ``bench`` rows all feed it).

Everything here consumes plain index-row dicts, so it works on a ledger
written by any version that kept the row schema — and on synthetic rows
in tests.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

#: Stats keys that are *timings* (or derived rates), never expected to
#: be bit-identical across runs; diffed separately from true counters.
_TIMING_KEYS = frozenset({
    "seconds", "wall_s", "lane_seconds", "queue_wait_s", "run_s",
    "total_seconds", "circuits_per_min", "nodes_per_sec",
})

#: Wall-clock floor below which the nodes/sec regression gate is
#: skipped: timer noise dominates millisecond runs.
MIN_GATE_SECONDS = 0.1

#: Default drift thresholds for :func:`find_regressions` — a run doing
#: >5% more node expansions, or sustaining <2/3 the throughput, of the
#: best same-fingerprint predecessor is flagged.
DEFAULT_MAX_NODE_RATIO = 1.05
DEFAULT_MIN_RATE_RATIO = 0.67


def list_runs(
    rows: Sequence[Dict],
    kind: Optional[str] = None,
    limit: Optional[int] = None,
) -> List[Dict]:
    """Filter/trim ledger run rows (oldest first, as the index stores
    them); ``limit`` keeps the *newest* N."""
    out = [r for r in rows if kind is None or r.get("kind") == kind]
    if limit is not None and limit >= 0:
        out = out[len(out) - min(limit, len(out)):]
    return out


def _fmt_ts(ts) -> str:
    if not ts:
        return "-"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(float(ts)))


def _headline(row: Dict) -> str:
    """One compact outcome cell: depth/swaps for maps, ok/total for
    batches — whatever the row's stats can support."""
    stats = row.get("stats") or {}
    depth = row.get("depth", stats.get("incumbent_depth"))
    if row.get("kind") == "map" and depth is not None:
        swaps = row.get("swaps")
        return f"depth={depth}" + (f" swaps={swaps}" if swaps is not None else "")
    tasks = stats.get("tasks")
    if tasks is not None:
        return f"ok={stats.get('succeeded', stats.get('ok', 0))}/{tasks}"
    nodes = stats.get("nodes_expanded")
    return f"nodes={nodes}" if nodes is not None else "-"


def render_runs_table(rows: Sequence[Dict]) -> str:
    """Fixed-width listing: one line per run, newest last."""
    header = (
        f"{'run_id':<25} {'kind':<9} {'status':<7} {'started':<19} "
        f"{'wall_s':>8} {'fingerprint':<16} {'outcome'}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{str(row.get('run_id', '-')):<25} "
            f"{str(row.get('kind', '-')):<9} "
            f"{str(row.get('status', '-')):<7} "
            f"{_fmt_ts(row.get('started_ts')):<19} "
            f"{float(row.get('wall_s') or 0.0):>8.2f} "
            f"{str(row.get('fingerprint', '-')):<16} "
            f"{_headline(row)}"
        )
    if len(lines) == 2:
        lines.append("(no runs recorded)")
    return "\n".join(lines)


def render_run(row: Dict) -> str:
    """Full single-run report for ``repro runs show``."""
    lines = [
        f"run_id:      {row.get('run_id')}",
        f"kind:        {row.get('kind')}   status: {row.get('status')}",
        f"started:     {_fmt_ts(row.get('started_ts'))}   "
        f"wall: {float(row.get('wall_s') or 0.0):.3f}s",
        f"fingerprint: {row.get('fingerprint')}",
        f"git_sha:     {row.get('git_sha')}",
        f"host:        python {row.get('python_version')} / "
        f"{row.get('cpu_count')} cpus / {row.get('platform')}",
    ]
    if row.get("error"):
        lines.append(f"error:       {row['error']}")
    config = row.get("config") or {}
    if config:
        lines.append("config:")
        for key in sorted(config):
            lines.append(f"  {key} = {config[key]}")
    stats = row.get("stats") or {}
    if stats:
        lines.append("stats:")
        for key in sorted(stats):
            lines.append(f"  {key} = {stats[key]}")
    artifacts = row.get("artifacts") or {}
    if artifacts:
        lines.append("artifacts:")
        for key in sorted(artifacts):
            lines.append(f"  {key}: {artifacts[key]}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Counter-by-counter diff
# ----------------------------------------------------------------------

def _numeric_stats(row: Dict) -> Dict[str, float]:
    """The diffable slice of a row: numeric stats plus top-level wall
    time (bools and strings — mapper names, budget reasons — excluded)."""
    out: Dict[str, float] = {}
    for key, value in (row.get("stats") or {}).items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        out[key] = value
    if row.get("wall_s") is not None:
        out["wall_s"] = float(row["wall_s"])
    return out


def diff_runs(row_a: Dict, row_b: Dict) -> Dict:
    """Compare two runs over the union of their numeric stats.

    Returns::

        {
          "fingerprint_match": bool,
          "counters": {key: {"a", "b", "delta", "pct"}},  # integer stats
          "timings":  {key: {"a", "b", "delta", "pct"}},  # float stats
          "counter_deltas": int,   # counters with a non-zero delta
        }

    ``pct`` is relative to run *a* (``None`` when ``a`` is zero and the
    delta is not).  Counter vs timing classification follows the value
    type and :data:`_TIMING_KEYS`, so ``nodes_expanded`` is a counter
    (exactly reproducible; any delta is a finding) while ``seconds`` is
    a timing (always noisy; reported but never counted as a delta).
    """
    stats_a = _numeric_stats(row_a)
    stats_b = _numeric_stats(row_b)
    counters: Dict[str, Dict] = {}
    timings: Dict[str, Dict] = {}
    for key in sorted(set(stats_a) | set(stats_b)):
        a = stats_a.get(key, 0)
        b = stats_b.get(key, 0)
        delta = b - a
        if a:
            pct: Optional[float] = round(100.0 * delta / a, 2)
        else:
            pct = 0.0 if not delta else None
        cell = {"a": a, "b": b, "delta": delta, "pct": pct}
        is_timing = key in _TIMING_KEYS or isinstance(a, float) or isinstance(b, float)
        (timings if is_timing else counters)[key] = cell
    return {
        "fingerprint_match": (
            row_a.get("fingerprint") == row_b.get("fingerprint")
        ),
        "counters": counters,
        "timings": timings,
        "counter_deltas": sum(
            1 for cell in counters.values() if cell["delta"]
        ),
    }


def render_diff(diff: Dict, run_a: str, run_b: str) -> str:
    """Human table for ``repro runs diff``."""
    lines = [f"diff {run_a} -> {run_b}"]
    if not diff["fingerprint_match"]:
        lines.append(
            "warning: config fingerprints differ — deltas below mix "
            "behaviour change with configuration change"
        )
    header = f"{'key':<28} {'a':>14} {'b':>14} {'delta':>12} {'pct':>9}"

    def _rows(cells: Dict[str, Dict]) -> None:
        for key, cell in cells.items():
            pct = "-" if cell["pct"] is None else f"{cell['pct']:+.1f}%"
            if isinstance(cell["a"], float) or isinstance(cell["b"], float):
                a, b = f"{cell['a']:.4f}", f"{cell['b']:.4f}"
                delta = f"{cell['delta']:+.4f}"
            else:
                a, b = str(cell["a"]), str(cell["b"])
                delta = f"{cell['delta']:+d}"
            lines.append(
                f"{key:<28} {a:>14} {b:>14} {delta:>12} {pct:>9}"
            )

    if diff["counters"]:
        lines.append("counters (deterministic — any delta is a finding):")
        lines.append(header)
        _rows(diff["counters"])
    if diff["timings"]:
        lines.append("timings (noisy — informational):")
        lines.append(header)
        _rows(diff["timings"])
    lines.append(
        f"{diff['counter_deltas']} counter delta(s)"
        + ("" if diff["counter_deltas"] else " — runs are counter-identical")
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Ledger-wide regression scan
# ----------------------------------------------------------------------

def _nodes(row: Dict) -> Optional[int]:
    stats = row.get("stats") or {}
    value = stats.get("nodes_expanded", stats.get("total_nodes_expanded"))
    return int(value) if isinstance(value, (int, float)) else None


def _seconds(row: Dict) -> Optional[float]:
    """The row's own search time: a map's ``seconds``, a batch's
    ``total_seconds`` or a corpus run's ``wall_seconds``.  The command
    wall ``wall_s`` is the last resort: for ``corpus`` it also covers the
    ``--verify-identity`` and ``--baseline`` reruns."""
    stats = row.get("stats") or {}
    for key in ("seconds", "total_seconds", "wall_seconds"):
        value = stats.get(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    value = row.get("wall_s")
    return float(value) if isinstance(value, (int, float)) else None


def find_regressions(
    rows: Sequence[Dict],
    max_node_ratio: float = DEFAULT_MAX_NODE_RATIO,
    min_rate_ratio: float = DEFAULT_MIN_RATE_RATIO,
    min_gate_seconds: float = MIN_GATE_SECONDS,
) -> List[Dict]:
    """Flag same-fingerprint runs that drifted past the thresholds.

    Runs are grouped by config fingerprint; within each group (in
    recorded order) every run is compared against the **best prior** run
    of that group:

    * ``nodes_expanded`` ratio above ``max_node_ratio`` — the search did
      more work for the same problem.  Node counts are deterministic, so
      this gate has no noise floor and is the primary signal.
    * nodes/sec below ``min_rate_ratio`` × the best prior rate — same
      work, slower machine-side.  Skipped when either run is shorter
      than ``min_gate_seconds`` (timer noise dominates millisecond
      runs).

    Only ``status == "ok"`` runs participate (a budget-tripped run's
    counters measure the budget, not the search).  Returns one finding
    dict per flagged run; identical repeat runs produce none.
    """
    findings: List[Dict] = []
    groups: Dict[str, List[Dict]] = {}
    for row in rows:
        if row.get("status") != "ok":
            continue
        fp = row.get("fingerprint")
        if fp:
            groups.setdefault(fp, []).append(row)
    for fp, group in groups.items():
        if len(group) < 2:
            continue
        best_nodes: Optional[int] = None
        best_rate: Optional[float] = None
        best_rate_run: Optional[str] = None
        best_nodes_run: Optional[str] = None
        for row in group:
            nodes = _nodes(row)
            seconds = _seconds(row)
            rate = (
                nodes / seconds
                if nodes is not None and seconds and seconds > 0
                else None
            )
            if nodes is not None and best_nodes is not None:
                ratio = nodes / best_nodes if best_nodes else float("inf")
                if best_nodes and ratio > max_node_ratio:
                    findings.append({
                        "run_id": row.get("run_id"),
                        "fingerprint": fp,
                        "kind": row.get("kind"),
                        "metric": "nodes_expanded",
                        "value": nodes,
                        "baseline": best_nodes,
                        "baseline_run": best_nodes_run,
                        "ratio": round(ratio, 4),
                        "threshold": max_node_ratio,
                    })
            if (
                rate is not None
                and best_rate is not None
                and seconds is not None
                and seconds >= min_gate_seconds
                and rate < min_rate_ratio * best_rate
            ):
                findings.append({
                    "run_id": row.get("run_id"),
                    "fingerprint": fp,
                    "kind": row.get("kind"),
                    "metric": "nodes_per_sec",
                    "value": round(rate, 2),
                    "baseline": round(best_rate, 2),
                    "baseline_run": best_rate_run,
                    "ratio": round(rate / best_rate, 4),
                    "threshold": min_rate_ratio,
                })
            if nodes is not None and (best_nodes is None or nodes < best_nodes):
                best_nodes = nodes
                best_nodes_run = row.get("run_id")
            if rate is not None and seconds is not None \
                    and seconds >= min_gate_seconds \
                    and (best_rate is None or rate > best_rate):
                best_rate = rate
                best_rate_run = row.get("run_id")
    return findings


def render_regressions(
    findings: Sequence[Dict],
    scanned: int,
    groups: Optional[int] = None,
) -> str:
    """Human report for ``repro runs regressions``."""
    if not findings:
        suffix = f" across {groups} fingerprint group(s)" if groups else ""
        return f"no regressions in {scanned} run(s){suffix}"
    lines = [f"{len(findings)} regression(s) in {scanned} run(s):"]
    for f in findings:
        lines.append(
            f"  {f['run_id']} [{f['fingerprint']}] {f['metric']}: "
            f"{f['value']} vs baseline {f['baseline']} "
            f"({f['baseline_run']}) — ratio {f['ratio']} "
            f"breaches {f['threshold']}"
        )
    return "\n".join(lines)


def fingerprint_groups(rows: Sequence[Dict]) -> int:
    """How many distinct fingerprints have 2+ ok runs (scannable groups)."""
    counts: Dict[str, int] = {}
    for row in rows:
        if row.get("status") == "ok" and row.get("fingerprint"):
            counts[row["fingerprint"]] = counts.get(row["fingerprint"], 0) + 1
    return sum(1 for n in counts.values() if n >= 2)


def diff_pair(rows: Sequence[Dict], run_a: Dict, run_b: Dict) -> Tuple[Dict, str]:
    """Convenience: diff two resolved rows and render in one call."""
    diff = diff_runs(run_a, run_b)
    return diff, render_diff(
        diff, str(run_a.get("run_id")), str(run_b.get("run_id"))
    )
