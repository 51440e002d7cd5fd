"""Per-process architecture warm cache for corpus-scale batch mapping.

A corpus sweep maps hundreds of circuits against the *same* device
(coupling graph + latency model).  Much of the per-task setup cost is
architecture-bound and identical across tasks: the all-pairs distance
matrix and automorphism group of the coupling graph and the SWAP-split
LUT (a function of the latency model only).  When the same circuit
recurs in a request stream, the whole :class:`MappingProblem` is shared
too, with its pending-row / window-plan / active-mask caches and the
compiled kernel's packed capsule — and so is every finished result
mapped from it (:meth:`ArchContext.reuse`).

This module keys those artifacts by an explicit **architecture
fingerprint** (coupling + latency, hashed structurally) so every task a
worker process executes against the same device shares one
:class:`ArchContext`.  Contexts live in a process-level registry: in a
batch worker the first task pays the warm-up and the rest hit.

Sharing is *transparent by construction*.  The cached structures are
pure deterministic functions of (circuit, coupling, latency), and a
reused result is the one the same settings computed for the same
problem, so warm-cache runs are bit-identical to cold runs — search
counters included, since every search builds its own heuristic memo.
The counters exist so the fleet rollup can prove the cache is actually
hitting (see ``obs/export.py``).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import replace
from typing import Callable, Dict, Hashable, Optional

from ..arch.coupling import CouplingGraph
from ..circuit.circuit import Circuit
from ..circuit.latency import LatencyModel, uniform_latency
from ..obs.schema import STAT_RESULT_REUSED
from .problem import MappingProblem
from .result import MappingResult

#: Default cap on fully-built ``MappingProblem`` instances retained per
#: context (LRU).  Each problem carries per-circuit caches and the
#: results reused from it, so this bounds memory on corpora with many
#: distinct circuits while keeping repeated circuits (the request-stream
#: case) fully warm.
DEFAULT_MAX_PROBLEMS = 64


def coupling_fingerprint(coupling: CouplingGraph) -> str:
    """Structural digest of a coupling graph (qubit count + edge set)."""
    payload = f"{coupling.num_qubits}|{sorted(coupling.edges)!r}"
    return hashlib.sha256(payload.encode()).hexdigest()


def latency_fingerprint(latency: LatencyModel) -> str:
    """Structural digest of a latency model (defaults + sorted table)."""
    payload = (
        f"{latency.single_qubit_cycles}|{latency.two_qubit_cycles}|"
        f"{latency.swap_cycles}|{sorted(latency.table.items())!r}"
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def arch_fingerprint(
    coupling: CouplingGraph, latency: Optional[LatencyModel]
) -> str:
    """Digest identifying one (device, latency model) pair.

    ``latency=None`` resolves to the uniform default exactly as
    :class:`MappingProblem` resolves it, so the fingerprint never
    conflates an explicit model with the implicit default it happens to
    equal — both hash the same resolved structure.
    """
    resolved = latency if latency is not None else uniform_latency()
    payload = coupling_fingerprint(coupling) + "/" + latency_fingerprint(resolved)
    return hashlib.sha256(payload.encode()).hexdigest()


def circuit_fingerprint(circuit: Circuit) -> str:
    """Structural digest of a circuit (qubit count + full gate list)."""
    digest = hashlib.sha256()
    digest.update(str(circuit.num_qubits).encode())
    for gate in circuit:
        digest.update(
            f"|{gate.name}:{gate.qubits!r}:{gate.params!r}".encode()
        )
    return digest.hexdigest()


class ArchContext:
    """Shared per-device artifacts plus an LRU of built problems.

    Attributes:
        coupling / latency: The canonical device pair every cached
            problem is built against.
        split_lut: One SWAP-split LUT shared by every problem in the
            context (the split delay depends only on the latency model's
            ``swap_len``, never on the circuit).
        problem_hits / problem_misses / problem_evictions: LRU counters.
        result_hits / result_misses: :meth:`reuse` counters.
    """

    def __init__(
        self,
        coupling: CouplingGraph,
        latency: Optional[LatencyModel] = None,
        max_problems: int = DEFAULT_MAX_PROBLEMS,
    ) -> None:
        self.coupling = coupling
        self.latency = latency if latency is not None else uniform_latency()
        self.fingerprint = arch_fingerprint(coupling, self.latency)
        self.max_problems = max_problems
        self.split_lut: Dict[int, int] = {}
        self._problems: "OrderedDict[str, MappingProblem]" = OrderedDict()
        self.problem_hits = 0
        self.problem_misses = 0
        self.problem_evictions = 0
        self.result_hits = 0
        self.result_misses = 0
        # Pay the architecture-bound warm-up once, up front: the
        # distance matrix is built by CouplingGraph.__init__, the
        # automorphism group and flattened distance table are memoized
        # on the graph instance by their first use.
        coupling.automorphisms()
        if getattr(coupling, "_dist_flat", None) is None:
            coupling._dist_flat = tuple(
                d for row in coupling.distance_matrix for d in row
            )

    def problem(self, circuit: Circuit) -> MappingProblem:
        """The shared :class:`MappingProblem` for ``circuit``.

        Hits return the retained instance — pending-row and active-mask
        caches, the compiled kernel's packed capsule and row cache all
        stay warm.  Misses build a fresh problem wired to the shared
        SWAP-split LUT, evicting the least-recently-used entry past
        ``max_problems``.
        """
        key = circuit_fingerprint(circuit)
        cached = self._problems.get(key)
        if cached is not None:
            self.problem_hits += 1
            self._problems.move_to_end(key)
            return cached
        self.problem_misses += 1
        built = MappingProblem(circuit, self.coupling, self.latency)
        built.split_lut = self.split_lut
        self._problems[key] = built
        while len(self._problems) > self.max_problems:
            self._problems.popitem(last=False)
            self.problem_evictions += 1
        return built

    def reuse(
        self,
        problem: MappingProblem,
        key: Hashable,
        circuit: Circuit,
        compute: Callable[[], MappingResult],
    ) -> MappingResult:
        """The result ``compute`` returns for ``(problem, key)``, once.

        ``key`` must pin every mapper setting the result depends on; the
        problem already pins circuit structure, device and latency.  The
        first call runs ``compute`` and keeps a private copy on the
        problem, so the problem LRU bounds the stored results.  Every
        call returns a fresh copy bound to the caller's ``circuit``
        (circuits with equal structure share one problem) with its own
        ``ops`` list and ``stats`` dict; hits carry
        ``stats["result_reused"] = 1``.  Exceptions from ``compute``
        propagate and nothing is stored.
        """
        results = getattr(problem, "_warm_results", None)
        if results is None:
            results = problem._warm_results = {}
        stored = results.get(key)
        if stored is None:
            self.result_misses += 1
            stored = compute()
            results[key] = replace(
                stored, ops=list(stored.ops), stats=dict(stored.stats)
            )
            return replace(stored, circuit=circuit)
        self.result_hits += 1
        return replace(
            stored,
            circuit=circuit,
            ops=list(stored.ops),
            stats={**stored.stats, STAT_RESULT_REUSED: 1},
        )

    def counters(self) -> Dict[str, int]:
        """Snapshot of this context's hit/miss/evict counters."""
        return {
            "problem_hits": self.problem_hits,
            "problem_misses": self.problem_misses,
            "problem_evictions": self.problem_evictions,
            "problems_retained": len(self._problems),
            "result_hits": self.result_hits,
            "result_misses": self.result_misses,
        }


class WarmCachePool:
    """A registry of :class:`ArchContext` keyed by architecture fingerprint.

    Distinct coupling-graph *instances* with identical structure resolve
    to the same context — that is the point: batch tasks each unpickle
    their own copy of the architecture, and the fingerprint collapses
    them back onto one shared set of artifacts.

    The batch runner gives every worker process one pool spanning its
    batch lifetime, and the in-process (``max_workers=1``) path a fresh
    pool per call — so sequential reference runs see exactly the warmth
    a fresh worker process would, independent of process history.
    """

    def __init__(self, max_problems: int = DEFAULT_MAX_PROBLEMS) -> None:
        self.max_problems = max_problems
        self._contexts: Dict[str, ArchContext] = {}
        self.arch_hits = 0
        self.arch_misses = 0

    def context(
        self,
        coupling: CouplingGraph,
        latency: Optional[LatencyModel] = None,
    ) -> ArchContext:
        """The shared :class:`ArchContext` for a (device, latency) pair."""
        key = arch_fingerprint(coupling, latency)
        context = self._contexts.get(key)
        if context is not None:
            self.arch_hits += 1
            return context
        self.arch_misses += 1
        context = ArchContext(
            coupling, latency, max_problems=self.max_problems
        )
        self._contexts[key] = context
        return context

    def counters(self) -> Dict[str, int]:
        """Cumulative warm-cache counters across every context."""
        totals = {
            "arch_hits": self.arch_hits,
            "arch_misses": self.arch_misses,
            "problem_hits": 0,
            "problem_misses": 0,
            "problem_evictions": 0,
            "result_hits": 0,
            "result_misses": 0,
            "contexts": len(self._contexts),
        }
        for context in self._contexts.values():
            totals["problem_hits"] += context.problem_hits
            totals["problem_misses"] += context.problem_misses
            totals["problem_evictions"] += context.problem_evictions
            totals["result_hits"] += context.result_hits
            totals["result_misses"] += context.result_misses
        return totals

    def reset(self) -> None:
        """Drop every context and zero the registry counters."""
        self._contexts.clear()
        self.arch_hits = 0
        self.arch_misses = 0


#: Process-level pool (the default shared registry for long-lived
#: processes; batch worker processes are short-lived, so for them this
#: is effectively per-batch state).
_GLOBAL_POOL = WarmCachePool()


def get_arch_context(
    coupling: CouplingGraph,
    latency: Optional[LatencyModel] = None,
) -> ArchContext:
    """Process-level :meth:`WarmCachePool.context` convenience."""
    return _GLOBAL_POOL.context(coupling, latency)


def warm_cache_counters() -> Dict[str, int]:
    """Cumulative warm-cache counters for the process-level pool."""
    return _GLOBAL_POOL.counters()


def reset_warm_cache() -> None:
    """Reset the process-level pool (tests)."""
    _GLOBAL_POOL.reset()
