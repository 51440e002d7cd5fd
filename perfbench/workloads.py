"""Workload definitions: which requests each benchmark workload sends.

Every workload is a fixed list of mapping requests that the runner pushes
through ``repro.analysis.batch.map_many(max_workers=1)`` as one pass
(a closed loop: the next request starts when the previous one has a
verified schedule).  NOTES.md says why each workload was chosen.

Reference depths for ``exact_paper`` name their source: the paper's
closed forms (4n-7 for QFT on LNN, 3n-7 for QFT on 2xN, both for
uniform 1-cycle gates and SWAPs) are an independent oracle; the mode-2
depths are the values this repository recorded in
``benchmarks/results/BENCH_search.json`` and only guard against
regressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro import (
    IBM_LATENCY,
    HeuristicMapper,
    OptimalMapper,
    grid,
    ibm_tokyo,
    lnn,
    uniform_latency,
)
from repro.analysis.corpus import build_corpus
from repro.benchcircuits import benchmark_circuit
from repro.circuit.generators import qft_skeleton

WORKLOADS = ("exact_paper", "heuristic_table3", "stream_corpus")

#: Paper closed forms (Figs. 11 and 12), independent of this code base.
SOURCE_LNN = "paper closed form 4n-7 (QFT on LNN, Fig. 11)"
SOURCE_2XN = "paper closed form 3n-7 (QFT on 2xN, Fig. 12)"
#: Regression references recorded by this repository's own history.
SOURCE_QFT5_LNN_M2 = (
    "repo history: qft5_lnn_solve in benchmarks/results/BENCH_search.json"
)
SOURCE_QFT6_2X3_M2 = (
    "repo history: qft6_2xn_solve in benchmarks/results/BENCH_search.json"
)
SOURCE_TINY = "this repo when the benchmark was added (self-test only)"

#: Table-3 rows of ``heuristic_table3`` and their gate cap.
TABLE3_ROWS = ("z4_268", "cm82a_208", "qft_10")
TABLE3_GATE_CAP = 300

#: ``stream_corpus`` size.  With repeat factor 6 the draw covers all 18
#: base circuits of ``build_corpus``, so the seed draws the request order
#: but the cost of a pass does not depend on it (a 2-of-3 draw of the
#: Table-3 rows moves pass time by half between seeds).  108 requests
#: leave 10 samples above the nearest-rank p90.
STREAM_SIZE = 108
STREAM_REPEAT = 6


@dataclass(frozen=True)
class Request:
    """One mapping request and, when known, the depth it must reach."""

    label: str
    circuit: object
    mapper: object
    reference_depth: Optional[int] = None
    reference_source: Optional[str] = None


@dataclass(frozen=True)
class Workload:
    """The inputs of one workload, built from the benchmark seed."""

    name: str
    requests: Tuple[Request, ...]
    #: ``map_many(warm_cache=...)``: on only where requests repeat.
    warm_cache: bool
    #: Per-request wall budget; a slower request counts as failed.
    budget_s: float
    #: False when the workload is a fixed instance list and ignores the
    #: seed.
    uses_seed: bool


def _exact(label, n, arch, latency, mode2, depth, source) -> Request:
    mapper = OptimalMapper(arch, latency, search_initial_mapping=mode2)
    return Request(label, qft_skeleton(n), mapper, depth, source)


def exact_paper(tiny: bool = False) -> Workload:
    """Exact search to a proven optimum on four paper instances."""
    one, three = uniform_latency(1, 1), uniform_latency(1, 3)
    if tiny:
        requests = (
            _exact("qft5_lnn", 5, lnn(5), one, False, 13, SOURCE_LNN),
            _exact("qft5_2x3", 5, grid(2, 3), one, False, 8, SOURCE_2XN),
            _exact("qft4_lnn_m2", 4, lnn(4), three, True, 14, SOURCE_TINY),
            _exact("qft4_2x2_m2", 4, grid(2, 2), three, True, 9, SOURCE_TINY),
        )
    else:
        requests = (
            _exact("qft6_lnn", 6, lnn(6), one, False, 17, SOURCE_LNN),
            _exact("qft7_2x4", 7, grid(2, 4), one, False, 14, SOURCE_2XN),
            _exact("qft5_lnn_m2", 5, lnn(5), three, True, 22,
                   SOURCE_QFT5_LNN_M2),
            _exact("qft6_2x3_m2", 6, grid(2, 3), three, True, 19,
                   SOURCE_QFT6_2X3_M2),
        )
    return Workload("exact_paper", requests, warm_cache=False,
                    budget_s=120.0, uses_seed=False)


def heuristic_table3(tiny: bool = False) -> Workload:
    """One-shot practical-mapper runs on Table-3 rows (cold, no repeats)."""
    coupling = ibm_tokyo()
    rows = TABLE3_ROWS[:2] if tiny else TABLE3_ROWS
    cap = 40 if tiny else TABLE3_GATE_CAP
    requests = tuple(
        Request(name, benchmark_circuit(name, scale_gate_cap=cap),
                HeuristicMapper(coupling, IBM_LATENCY))
        for name in rows
    )
    return Workload("heuristic_table3", requests, warm_cache=False,
                    budget_s=60.0, uses_seed=False)


def stream_corpus(seed: int, tiny: bool = False) -> Workload:
    """A seeded request stream with repeats, warm cache on."""
    coupling = ibm_tokyo()
    size, repeat = (12, 4) if tiny else (STREAM_SIZE, STREAM_REPEAT)
    stream = build_corpus(size, max_qubits=coupling.num_qubits,
                          repeat_factor=repeat, seed=seed)
    requests = tuple(
        Request(label, circuit, HeuristicMapper(coupling, IBM_LATENCY))
        for label, circuit in stream
    )
    return Workload("stream_corpus", requests, warm_cache=True,
                    budget_s=30.0, uses_seed=True)


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload ``name`` for ``seed``."""
    if name == "exact_paper":
        return exact_paper(tiny)
    if name == "heuristic_table3":
        return heuristic_table3(tiny)
    if name == "stream_corpus":
        return stream_corpus(seed, tiny)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


#: Instances that get per-instance metrics (fixed-instance workloads).
INSTANCE_NAMES = (
    "qft6_lnn", "qft7_2x4", "qft5_lnn_m2", "qft6_2x3_m2",
) + TABLE3_ROWS
