"""The ``compiled`` backend: C-extension hot kernels.

Requires the optional ``repro.core.kernels._ckernels`` extension (built
by ``python setup.py build_ext --inplace`` or a binary wheel);
importing this module raises ``ImportError`` when it is absent, which
the registry turns into "backend unavailable".

The problem is packed once per instance (flat int64 arrays behind a
capsule, cached on the problem object), and the pending-gate rows per
``ptr`` are packed into a reusable bytes buffer mirroring the
``problem.pending_rows`` cache.  Windowed evaluation stays on the pure
path — the practical mapper's truncated lookahead is not worth a C
variant (set building dominates it).
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional

from ..expander import redundancy_fallback, startable_actions
from ..problem import PROBLEM_CACHE_CAP, MappingProblem
from ..state import SearchNode
from .api import KernelBackend


class CompiledBackend(KernelBackend):
    name = "compiled"

    def __init__(self) -> None:
        from . import _ckernels

        self._ck = _ckernels
        self.make_entry = _ckernels.Entry
        self.admit_scan = _ckernels.admit_scan

    def _packed(self, problem: MappingProblem):
        packed = getattr(problem, "_ck_packed", None)
        if packed is None:
            packed = self._ck.pack_problem(
                problem.num_logical,
                problem.num_physical,
                problem.swap_len,
                1 if problem.has_singles else 0,
                problem.dist_flat,
                problem.gate_l1,
                problem.gate_l2,
                tuple(len(chain) for chain in problem.seq),
                tuple(problem.single_prefix),
                problem.gate_latency,
                problem.gate_p1,
                problem.gate_p2,
                tuple(g for chain in problem.seq for g in chain),
                tuple(e[0] for e in problem.edges),
                tuple(e[1] for e in problem.edges),
            )
            problem._ck_packed = packed
        return packed

    def _rows(self, problem: MappingProblem, ptr) -> bytes:
        cache = getattr(problem, "_ck_rows", None)
        if cache is None:
            cache = {}
            problem._ck_rows = cache
        buf = cache.get(ptr)
        if buf is None:
            flat = array("q")
            for row in problem.pending_rows(ptr):
                flat.extend(row)
            flat.extend(ptr)  # singles-fold seed; see _ckernels.c
            buf = flat.tobytes()
            if len(cache) < PROBLEM_CACHE_CAP:
                cache[ptr] = buf
            else:
                problem.note_cache_overflow("ck_rows")
        return buf

    def _eval_nodes(
        self,
        problem: MappingProblem,
        nodes: List[SearchNode],
        window: Optional[int],
        swap_aware: bool,
    ) -> List[int]:
        if window is not None:
            return super()._eval_nodes(problem, nodes, window, swap_aware)
        packed = self._packed(problem)
        heuristic = self._ck.heuristic
        rows = self._rows
        out: List[int] = []
        for node in nodes:
            if node.inflight:
                pos_after = node.mapping_after_swaps()[0]
            else:
                pos_after = node.pos
            out.append(
                heuristic(
                    packed,
                    rows(problem, node.ptr),
                    node.time,
                    node.inflight,
                    pos_after,
                    node.inv,
                    swap_aware,
                )
            )
        return out

    def expand(
        self,
        problem: MappingProblem,
        node: SearchNode,
        config,
        counters: Optional[Dict[str, int]] = None,
    ) -> List[SearchNode]:
        # The C expander mirrors exactly the optimal-mode path: plain
        # subset enumeration with the redundancy rule fused in, no
        # greedy/frontier/protection restrictions, no SWAP budget.  It
        # also packs qubit sets into int64 masks and bounds its action
        # stack, hence the size gates.
        if (
            config.greedy_gates
            or config.frontier_swaps_only
            or config.protect_satisfied_frontier
            or config.max_swaps_per_step is not None
            or config.max_candidate_swaps is not None
            or problem.num_physical >= 63
            or problem.num_logical + len(problem.edges) > 160
        ):
            return super().expand(problem, node, config, counters=counters)
        children, restricted, has_startable = self._ck.expand(
            self._packed(problem),
            SearchNode,
            node,
            self._rows(problem, node.ptr),
            1 if config.active_swaps_only else 0,
        )
        if restricted and counters is not None:
            counters["swaps_restricted"] = (
                counters.get("swaps_restricted", 0) + restricted
            )
        if not children and has_startable:
            # Every action set was redundant: regenerate without the rule
            # (see expander.redundancy_fallback).  Rare — only
            # bounded-queue searches reach it — so the python path is
            # fine.  ``counters=None``: the C call above already
            # accounted the restricted SWAPs.
            gates, swaps = startable_actions(problem, node, config, None)
            children = redundancy_fallback(problem, node, config, gates, swaps)
        return children

    def profile(self, problem: MappingProblem, node: SearchNode):
        cached = node._profile
        if cached is not None:
            return cached
        profile = self._ck.profile(
            self._packed(problem), node.time, node.inflight, node.pos
        )
        node._profile = profile
        return profile
