"""Search-performance harness: one run-ledger row per suite.

Unlike the figure/table benches (which reproduce *paper* numbers), this
script tracks *our own* mapper throughput over time so performance work
has a recorded history to be held against.  It runs a small suite of
exact and heuristic searches and prints nodes/sec, wall time and the
heuristic-memo hit rate per suite.

Run it directly (no pytest)::

    PYTHONPATH=src python benchmarks/bench_search_perf.py
    PYTHONPATH=src python benchmarks/bench_search_perf.py --tiny \
        --ledger-dir runs/

``--tiny`` shrinks every suite for CI smoke runs.  With a ledger
(``--ledger-dir`` or ``$REPRO_LEDGER_DIR``) every suite is recorded as
one ``bench`` row whose config is ``{suite, mode, pruning, kernel}``
(``kernel`` is the resolved backend) and whose stats are the suite's
flat numbers (``nodes_expanded``, ``seconds``, ``depth``, ``swaps``,
...).  ``repro runs regressions`` gates those rows like any other run —
node counts are deterministic per configuration, so any growth is a
change of search — and ``repro runs list --kind bench --json`` exports
the history.  ``benchmarks/results/BENCH_search.json`` is the frozen
archive of the history recorded before the ledger existed.

``--no-prune`` runs the exact-solve suites with the switchable
search-space reductions disabled (incumbent bound, active-SWAP
restriction, symmetry quotient; closed dominance and root restriction
always run) — the "before" point the pruned default is compared
against.

The ``*_solve`` suites measure mode 2 end-to-end (initial-mapping
search + routing, the paper's Table-2 configuration); the budgeted
microbench keeps the reduction-free mode-1 configuration so its
nodes/sec measures the raw expansion loop.
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import sys
import time
from typing import Callable, Dict, Optional

from repro.analysis.batch import BatchTask, map_many
from repro.arch import grid, ibm_tokyo, lnn
from repro.benchcircuits import benchmark_circuit
from repro.circuit import IBM_LATENCY, uniform_latency
from repro.circuit.generators import qft_skeleton, random_circuit
from repro.core import HeuristicMapper, OptimalMapper, SearchBudgetExceeded
from repro.core.kernels import BACKEND_NAMES, resolve_backend

MICRO_SUITE = "qft8_lnn_exact"


def _memo_hit_rate(stats: Dict) -> Optional[float]:
    hits = stats.get("memo_hits")
    misses = stats.get("memo_misses")
    if hits is None or misses is None or hits + misses == 0:
        return None
    return hits / (hits + misses)


def _run_exact_budgeted(num_qubits: int, max_nodes: int,
                        iterations: int, kernel: Optional[str]) -> Dict:
    """Exact search driven into its node budget: pure-throughput probe."""
    circuit = qft_skeleton(num_qubits)
    samples = []
    for _ in range(iterations):
        # Reduction-free configuration: the throughput microbench
        # measures the raw expansion loop, not the pruning layer.
        mapper = OptimalMapper(
            lnn(num_qubits), uniform_latency(1, 3), max_nodes=max_nodes,
            prune_swaps=False, seed_incumbent=False, reduce_symmetry=False,
            kernel=kernel,
        )
        try:
            result = mapper.map(
                circuit, initial_mapping=list(range(num_qubits))
            )
            stats = result.stats  # solved inside the budget (tiny mode)
        except SearchBudgetExceeded as exc:
            stats = exc.partial_stats
        samples.append(stats)
    rates = [s["nodes_expanded"] / s["seconds"] for s in samples]
    mid = samples[len(samples) // 2]
    return {
        "kind": "exact-budgeted",
        "iterations": iterations,
        "nodes_expanded": int(mid["nodes_expanded"]),
        "wall_seconds": statistics.median(s["seconds"] for s in samples),
        "nodes_per_sec": statistics.median(rates),
        "memo_hit_rate": _memo_hit_rate(mid),
    }


def _run_exact_solve(num_qubits: int, arch, iterations: int,
                     pruned: bool, kernel: Optional[str]) -> Dict:
    """Mode-2 exact solve (placement + routing) run to optimality.

    ``pruned`` toggles the switchable search-space reductions at once
    (incumbent bound, active-SWAP restriction, symmetry quotient;
    closed dominance and root restriction always run); the
    resulting ``nodes_expanded`` is deterministic either way, which is
    what lets CI gate on it.
    """
    circuit = qft_skeleton(num_qubits)
    samples = []
    depth = None
    for _ in range(iterations):
        mapper = OptimalMapper(
            arch, uniform_latency(1, 3), search_initial_mapping=True,
            prune_swaps=pruned, seed_incumbent=pruned,
            reduce_symmetry=pruned, kernel=kernel,
        )
        result = mapper.map(circuit)
        depth = result.depth
        samples.append(result.stats)
    rates = [s["nodes_expanded"] / s["seconds"] for s in samples]
    mid = samples[len(samples) // 2]
    return {
        "kind": "exact-solve-mode2",
        "iterations": iterations,
        "pruned": pruned,
        "depth": depth,
        "nodes_expanded": int(mid["nodes_expanded"]),
        "pruned_by_bound": int(mid.get("pruned_by_bound", 0)),
        "symmetry_pruned": int(mid.get("symmetry_pruned", 0)),
        "swaps_restricted": int(mid.get("swaps_restricted", 0)),
        "wall_seconds": statistics.median(s["seconds"] for s in samples),
        "nodes_per_sec": statistics.median(rates),
        "memo_hit_rate": _memo_hit_rate(mid),
    }


def _run_portfolio_solve(num_qubits: int, arch, iterations: int,
                         kernel: Optional[str]) -> Dict:
    """Portfolio race to a proven optimum, against the plain exact search.

    ``baseline_nodes_expanded`` is the incumbent-seeded ``OptimalMapper``
    run and ``nodes_expanded`` the portfolio's exact lane.  Both run the
    same exact configuration (closed dominance and root restriction
    on), so the difference is what the race itself earns: the lane is
    bounded by the portfolio's held seed and by side-lane depths instead
    of its own seed.  Both counts are deterministic — the held seed is
    offered before the exact lane starts and the side lanes never beat
    it on these instances — so ``repro runs regressions`` gates on the
    node count as tightly as on the other solve suites.
    """
    from repro.analysis.portfolio import PortfolioMapper

    circuit = qft_skeleton(num_qubits)
    latency = uniform_latency(1, 3)
    baseline = OptimalMapper(
        arch, latency, search_initial_mapping=True, kernel=kernel
    ).map(circuit)
    samples = []
    depth = None
    optimal = False
    for _ in range(iterations):
        result = PortfolioMapper(arch, latency, kernel=kernel).map(circuit)
        depth = result.depth
        optimal = result.optimal
        samples.append(result.stats)
    rates = [s["nodes_expanded"] / s["seconds"] for s in samples]
    mid = samples[len(samples) // 2]
    nodes = int(mid["nodes_expanded"])
    base_nodes = int(baseline.stats["nodes_expanded"])
    return {
        "kind": "portfolio-solve-mode2",
        "iterations": iterations,
        "depth": depth,
        "optimal": optimal,
        "lanes_finished": int(mid.get("lanes_finished", 0)),
        "winner_lane": mid.get("winner_lane"),
        "nodes_expanded": nodes,
        "closed_dominated": int(mid.get("closed_dominated", 0)),
        "root_candidates_restricted": int(
            mid.get("root_candidates_restricted", 0)
        ),
        "baseline_nodes_expanded": base_nodes,
        "nodes_reduction_pct": (
            round(100.0 * (base_nodes - nodes) / base_nodes, 1)
            if base_nodes else 0.0
        ),
        "wall_seconds": statistics.median(s["seconds"] for s in samples),
        "nodes_per_sec": statistics.median(rates),
        "memo_hit_rate": _memo_hit_rate(mid),
    }


def _run_heuristic(num_qubits: int, iterations: int,
                   kernel: Optional[str]) -> Dict:
    """Practical-mapper probe (layer-limited search, trimmed queue)."""
    circuit = qft_skeleton(num_qubits)
    samples = []
    depth = None
    for _ in range(iterations):
        mapper = HeuristicMapper(
            lnn(num_qubits), uniform_latency(1, 3), kernel=kernel
        )
        result = mapper.map(circuit, initial_mapping=list(range(num_qubits)))
        depth = result.depth
        samples.append(result.stats)
    rates = [s["nodes_expanded"] / s["seconds"] for s in samples]
    mid = samples[len(samples) // 2]
    return {
        "kind": "heuristic",
        "iterations": iterations,
        "depth": depth,
        "nodes_expanded": int(mid["nodes_expanded"]),
        "wall_seconds": statistics.median(s["seconds"] for s in samples),
        "nodes_per_sec": statistics.median(rates),
        "memo_hit_rate": _memo_hit_rate(mid),
    }


def _run_heuristic_z4_268(gate_cap: int, kernel: Optional[str]) -> Dict:
    """Practical mapper on Table-3 row z4_268: Tokyo, IBM latency, capped.

    Records gates/s next to the schedule's depth and SWAP count; both
    are deterministic, so CI pins them on the tiny run as a quality gate
    for the windowed heuristic lane.
    """
    circuit = benchmark_circuit("z4_268", scale_gate_cap=gate_cap)
    mapper = HeuristicMapper(ibm_tokyo(), IBM_LATENCY, kernel=kernel)
    result = mapper.map(circuit)
    stats = result.stats
    wall = stats["seconds"]
    return {
        "kind": "heuristic-table3",
        "iterations": 1,
        "gates": len(circuit),
        "depth": result.depth,
        "swaps": result.num_inserted_swaps,
        "gates_per_sec": len(circuit) / wall,
        "nodes_expanded": int(stats["nodes_expanded"]),
        "wall_seconds": wall,
        "nodes_per_sec": stats["nodes_expanded"] / wall,
        "memo_hit_rate": _memo_hit_rate(stats),
    }


def _run_batch(num_circuits: int, workers: int,
               kernel: Optional[str]) -> Dict:
    """Batch-runner probe: map_many over random circuits."""
    tasks = [
        BatchTask(
            label=f"rand5-{seed}",
            circuit=random_circuit(5, 8, seed=seed),
            mapper=OptimalMapper(
                lnn(5), uniform_latency(1, 3), max_nodes=50000,
                kernel=kernel,
            ),
        )
        for seed in range(num_circuits)
    ]
    start = time.perf_counter()
    records = map_many(tasks, max_workers=workers, keep_results=False)
    wall = time.perf_counter() - start
    nodes = sum(int(r.stats.get("nodes_expanded", 0)) for r in records)
    return {
        "kind": "batch",
        "circuits": num_circuits,
        "workers": workers,
        "succeeded": sum(1 for r in records if r.ok),
        "nodes_expanded": nodes,
        "wall_seconds": wall,
        "nodes_per_sec": nodes / wall if wall > 0 else None,
        "memo_hit_rate": None,
    }


def suite_plan(tiny: bool, pruned: bool = True,
               kernel: Optional[str] = None) -> Dict[str, Callable[[], Dict]]:
    """Suite name -> zero-argument runner, in run order."""
    if tiny:
        return {
            MICRO_SUITE: lambda: _run_exact_budgeted(
                6, max_nodes=2000, iterations=1, kernel=kernel
            ),
            "qft4_lnn_solve": lambda: _run_exact_solve(
                4, lnn(4), iterations=3, pruned=pruned, kernel=kernel
            ),
            "portfolio_qft_lnn": lambda: _run_portfolio_solve(
                4, lnn(4), iterations=1, kernel=kernel
            ),
            "heuristic_qft6_lnn": lambda: _run_heuristic(
                6, iterations=2, kernel=kernel
            ),
            "heuristic_z4_268": lambda: _run_heuristic_z4_268(
                40, kernel=kernel
            ),
            "batch_random5": lambda: _run_batch(
                num_circuits=2, workers=1, kernel=kernel
            ),
        }
    return {
        MICRO_SUITE: lambda: _run_exact_budgeted(
            8, max_nodes=20000, iterations=3, kernel=kernel
        ),
        "qft5_lnn_solve": lambda: _run_exact_solve(
            5, lnn(5), iterations=3, pruned=pruned, kernel=kernel
        ),
        "qft6_2xn_solve": lambda: _run_exact_solve(
            6, grid(2, 3), iterations=3, pruned=pruned, kernel=kernel
        ),
        "portfolio_qft_lnn": lambda: _run_portfolio_solve(
            5, lnn(5), iterations=3, kernel=kernel
        ),
        "heuristic_qft8_lnn": lambda: _run_heuristic(
            8, iterations=3, kernel=kernel
        ),
        "heuristic_z4_268": lambda: _run_heuristic_z4_268(
            300, kernel=kernel
        ),
        "batch_random5": lambda: _run_batch(
            num_circuits=4, workers=1, kernel=kernel
        ),
    }


def ledger_stats(suite: Dict) -> Dict:
    """A suite's flat numeric stats for its ledger row.

    ``wall_seconds`` is stored as ``seconds`` — the key
    :func:`repro.analysis.runs.find_regressions` times a row by — and
    non-numeric fields (``kind``, ``winner_lane``) are dropped.
    """
    stats = {}
    for key, value in suite.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        stats["seconds" if key == "wall_seconds" else key] = value
    return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny", action="store_true",
        help="shrunken suites for CI smoke runs (microbench label kept, "
             "but throughput is NOT comparable to full runs)",
    )
    parser.add_argument(
        "--no-prune", action="store_true",
        help="run the exact-solve suites with the switchable "
             "search-space reductions disabled",
    )
    parser.add_argument(
        "--kernel", default=None,
        choices=BACKEND_NAMES,
        help="kernel backend for every suite (default: best available); "
             "the resolved backend is part of each ledger row's config, "
             "so pure and compiled rows never gate each other",
    )
    parser.add_argument(
        "--ledger-dir", default=None, metavar="DIR",
        help="record one bench row per suite in the run ledger at DIR "
             "(also honors $REPRO_LEDGER_DIR)",
    )
    args = parser.parse_args(argv)

    from repro.obs.ledger import LEDGER_ENV, RunLedger

    ledger_root = args.ledger_dir or os.environ.get(LEDGER_ENV)
    ledger = RunLedger(ledger_root) if ledger_root else None
    backend = resolve_backend(args.kernel).name
    mode = "tiny" if args.tiny else "full"
    pruning = "off" if args.no_prune else "on"

    print(f"{'kernel backend':22s} {backend:>18s}  "
          f"(python {platform.python_version()}, {os.cpu_count()} cpu)")
    for name, run in suite_plan(
        args.tiny, pruned=not args.no_prune, kernel=args.kernel
    ).items():
        ledger_run = None
        if ledger is not None:
            ledger_run = ledger.open_run("bench", {
                "suite": name, "mode": mode, "pruning": pruning,
                "kernel": backend,
            })
        suite = run()
        if ledger_run is not None:
            ledger_run.finish("ok", stats=ledger_stats(suite))
        rate = suite.get("nodes_per_sec")
        rate_txt = f"{rate:,.0f} nodes/s" if rate else "—"
        memo = suite.get("memo_hit_rate")
        memo_txt = f"memo {memo:.1%}" if memo is not None else "memo —"
        print(f"{name:22s} {rate_txt:>18s}  "
              f"{suite['wall_seconds']:.3f}s  {memo_txt}")
    if ledger is not None:
        print(f"recorded bench rows in ledger {ledger.root}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
