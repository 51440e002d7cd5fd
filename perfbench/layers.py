"""Per-layer tracing from outside the program.

:func:`instrument` replaces the public entry points of each layer with
timing wrappers for the duration of a ``with`` block and restores the
originals on exit.  Each wrapper records its call count, inclusive time
and self time (inclusive time minus the time of wrapped calls made from
inside it).  Hot layers (admit, expand, heap, heuristic evaluation) are
aggregated per name; coarse layers (a mapper's ``map``, problem builds,
the incumbent seed, the checker) also keep one span per call, with the
request it belongs to, in memory until the run ends.

Wrapping happens where each caller looks the function up: a module that
did ``from .heuristic import heuristic_cost`` holds its own binding, so
that binding is replaced, and the kernel backend's methods are replaced
on the instance the searches resolve.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Dict, List, Optional

from repro.analysis import batch as _batch
from repro.arch.coupling import CouplingGraph
from repro.core import astar as _astar
from repro.core import heuristic as _heuristic
from repro.core import heuristic_mapper as _heuristic_mapper
from repro.core.filters import StateFilter
from repro.core.kernels import api as _kernel_api
from repro.core.kernels import resolve_backend
from repro.core.kernels import vector as _vector
from repro.core.problem import MappingProblem
from repro.core.warmcache import ArchContext

#: Search counters from ``MappingResult.stats``: summed per mapper over
#: every ``map`` call of a traced pass, and required to repeat exactly,
#: request by request, across passes and with tracing on.
RESULT_COUNTERS = (
    "nodes_expanded", "nodes_generated", "filtered_equivalent",
    "filtered_dominated", "pruned_by_bound", "closed_dominated",
    "queue_trims", "memo_hits", "memo_misses",
)


class Layer:
    """Aggregate for one wrapped entry point."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class LayerTrace:
    """In-memory trace of one instrumented pass."""

    def __init__(self) -> None:
        self.layers: Dict[str, Layer] = {}
        #: Sums of :data:`RESULT_COUNTERS` per mapper name.
        self.results: Dict[str, Dict[str, int]] = {}
        self.admitted = 0
        self.warm_hits = 0
        self.warm_misses = 0
        #: Coarse spans: (request, name, start, end, depth).
        self.spans: List[tuple] = []
        self.request = 0
        # One child-time accumulator per open wrapped call.
        self._stack: List[List[float]] = []

    def layer(self, name: str) -> Layer:
        layer = self.layers.get(name)
        if layer is None:
            layer = self.layers[name] = Layer()
        return layer

    def wrap(self, name: str, fn: Callable, coarse: bool = False,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` timed under ``name``; ``after(args, result)`` on return."""
        layer = self.layer(name)
        stack = self._stack
        clock = time.perf_counter
        spans = self.spans

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                layer.calls += 1
                layer.total_s += elapsed
                layer.self_s += elapsed - frame[0]
                if coarse:
                    spans.append((self.request, name, start, end, len(stack)))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def wrap_map(self, name: str, fn: Callable) -> Callable:
        """A mapper's ``map``: opens a request at top level, sums stats."""
        totals = self.results.setdefault(name, dict.fromkeys(RESULT_COUNTERS, 0))

        def after(args, result) -> None:
            stats = result.stats
            for key in RESULT_COUNTERS:
                totals[key] += int(stats.get(key) or 0)

        timed = self.wrap(name, fn, coarse=True, after=after)

        def wrapper(*args, **kwargs):
            if not self._stack:
                self.request += 1
            return timed(*args, **kwargs)

        return wrapper


@contextlib.contextmanager
def instrument(trace: LayerTrace):
    """Install ``trace``'s wrappers on every layer; restore them on exit."""
    patches = []

    def patch(owner, attr: str, new) -> None:
        had = attr in vars(owner)
        patches.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, new)

    def count_admitted(args, admitted) -> None:
        if admitted:
            trace.admitted += 1

    original_problem = ArchContext.problem

    def warm_problem(context, circuit):
        hits = context.problem_hits
        built = original_problem(context, circuit)
        if context.problem_hits > hits:
            trace.warm_hits += 1
        else:
            trace.warm_misses += 1
        return built

    kernel = resolve_backend()
    eval_wrapper = trace.wrap("heuristic.eval", _heuristic.heuristic_cost)
    expand_wrapper = trace.wrap("expander.expand", _kernel_api._py_expand)
    try:
        patch(_astar.OptimalMapper, "map",
              trace.wrap_map("astar.map", _astar.OptimalMapper.map))
        patch(_heuristic_mapper.HeuristicMapper, "map",
              trace.wrap_map("heuristic_mapper.map",
                             _heuristic_mapper.HeuristicMapper.map))
        patch(_astar, "incumbent_result",
              trace.wrap("heuristic_mapper.incumbent",
                         _astar.incumbent_result, coarse=True))
        patch(StateFilter, "admit",
              trace.wrap("filters.admit", StateFilter.admit,
                         after=count_admitted))
        for attr, name in (("expand", "kernels.expand"),
                           ("heuristic_batch", "kernels.heuristic_batch"),
                           ("heappush", "kernels.heap"),
                           ("heappop", "kernels.heap")):
            patch(kernel, attr, trace.wrap(name, getattr(kernel, attr)))
        patch(_kernel_api, "_py_expand", expand_wrapper)
        patch(_heuristic_mapper, "expand", expand_wrapper)
        for module in (_kernel_api, _vector, _heuristic_mapper):
            patch(module, "heuristic_cost", eval_wrapper)
        patch(MappingProblem, "__init__",
              trace.wrap("problem.build", MappingProblem.__init__,
                         coarse=True))
        patch(ArchContext, "problem",
              trace.wrap("warmcache.problem", warm_problem))
        patch(CouplingGraph, "automorphisms",
              trace.wrap("arch.automorphisms", CouplingGraph.automorphisms))
        patch(_batch, "validate_result",
              trace.wrap("checker.validate", _batch.validate_result,
                         coarse=True))
        yield trace
    finally:
        for owner, attr, had, old in reversed(patches):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


def layer_metrics(trace: LayerTrace) -> Dict[str, float]:
    """The per-layer metric values of one traced pass (units in run.py)."""
    def calls(name):
        return trace.layer(name).calls

    def total(name):
        return trace.layer(name).total_s

    def selftime(name):
        return trace.layer(name).self_s

    zero = dict.fromkeys(RESULT_COUNTERS, 0)
    exact = trace.results.get("astar.map", zero)
    heur = trace.results.get("heuristic_mapper.map", zero)
    admit_calls = calls("filters.admit")
    memo_hits = exact["memo_hits"] + heur["memo_hits"]
    memo_lookups = memo_hits + exact["memo_misses"] + heur["memo_misses"]
    return {
        "filters.admit_calls": admit_calls,
        "filters.admit_s": total("filters.admit"),
        "filters.admit_rate": trace.admitted / admit_calls if admit_calls else 0.0,
        "filters.equivalent_dropped":
            exact["filtered_equivalent"] + heur["filtered_equivalent"],
        "filters.dominated_dropped":
            exact["filtered_dominated"] + heur["filtered_dominated"],
        "kernels.expand_calls": calls("kernels.expand"),
        "kernels.expand_s": total("kernels.expand"),
        "kernels.heuristic_batch_s": total("kernels.heuristic_batch"),
        "kernels.heap_s": total("kernels.heap"),
        "astar.nodes_expanded": exact["nodes_expanded"],
        "astar.nodes_generated": exact["nodes_generated"],
        "astar.pruned_by_bound": exact["pruned_by_bound"],
        "astar.closed_dominated": exact["closed_dominated"],
        "astar.self_s": selftime("astar.map"),
        "expander.expand_calls": calls("expander.expand"),
        "expander.expand_s": total("expander.expand"),
        "heuristic.evals": calls("heuristic.eval"),
        "heuristic.s": total("heuristic.eval"),
        "heuristic.memo_hit_rate":
            memo_hits / memo_lookups if memo_lookups else 0.0,
        "heuristic_mapper.nodes_expanded": heur["nodes_expanded"],
        "heuristic_mapper.queue_trims": heur["queue_trims"],
        "heuristic_mapper.self_s": selftime("heuristic_mapper.map"),
        "heuristic_mapper.incumbent_s": total("heuristic_mapper.incumbent"),
        "problem.builds": calls("problem.build"),
        "problem.build_s": total("problem.build"),
        "warmcache.hits": trace.warm_hits,
        "warmcache.misses": trace.warm_misses,
        "arch.automorphisms_s": total("arch.automorphisms"),
        "checker.calls": calls("checker.validate"),
        "checker.s": total("checker.validate"),
    }
