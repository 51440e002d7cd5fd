"""Tests for the per-worker architecture warm cache (``repro.core.warmcache``)."""

import pytest

from repro.analysis.batch import SharedBound
from repro.arch import grid, lnn
from repro.circuit import IBM_LATENCY, uniform_latency
from repro.circuit.generators import qft_skeleton, random_circuit
from repro.core import HeuristicMapper, OptimalMapper
from repro.core.astar import SearchBudgetExceeded
from repro.core.result import MappingResult
from repro.core.warmcache import (
    ArchContext,
    WarmCachePool,
    arch_fingerprint,
    circuit_fingerprint,
    coupling_fingerprint,
    latency_fingerprint,
)
from repro.obs import Telemetry


class TestFingerprints:
    def test_structural_equality_across_instances(self):
        assert coupling_fingerprint(lnn(4)) == coupling_fingerprint(lnn(4))
        assert circuit_fingerprint(qft_skeleton(5)) == circuit_fingerprint(
            qft_skeleton(5)
        )

    def test_distinct_structures_do_not_collide(self):
        assert coupling_fingerprint(lnn(4)) != coupling_fingerprint(lnn(5))
        assert coupling_fingerprint(lnn(6)) != coupling_fingerprint(
            grid(2, 3)
        )
        assert circuit_fingerprint(qft_skeleton(4)) != circuit_fingerprint(
            qft_skeleton(5)
        )
        assert circuit_fingerprint(
            random_circuit(4, 6, seed=0)
        ) != circuit_fingerprint(random_circuit(4, 6, seed=1))

    def test_latency_model_distinguishes_arch_fingerprint(self):
        device = lnn(4)
        assert arch_fingerprint(device, uniform_latency(1, 3)) != (
            arch_fingerprint(device, IBM_LATENCY)
        )
        assert latency_fingerprint(uniform_latency(1, 3)) != (
            latency_fingerprint(IBM_LATENCY)
        )

    def test_none_latency_resolves_like_mapping_problem(self):
        # None must hash identically to the explicit default it resolves
        # to — otherwise one device would get two contexts.
        device = lnn(4)
        assert arch_fingerprint(device, None) == arch_fingerprint(
            device, uniform_latency()
        )


class TestArchContextLru:
    def test_problem_hit_miss_and_eviction_counters(self):
        context = ArchContext(lnn(4), uniform_latency(1, 3), max_problems=2)
        a, b, c = (random_circuit(4, 6, seed=s) for s in range(3))
        first = context.problem(a)
        assert context.problem(a) is first
        assert (context.problem_hits, context.problem_misses) == (1, 1)
        context.problem(b)
        context.problem(c)  # evicts a (LRU)
        assert context.problem_evictions == 1
        assert context.problem(a) is not first  # rebuilt after eviction
        assert context.problem_misses == 4  # a, b, c, and a again

    def test_problems_share_split_lut(self):
        context = ArchContext(lnn(4), uniform_latency(1, 3))
        p1 = context.problem(random_circuit(4, 6, seed=0))
        p2 = context.problem(random_circuit(4, 6, seed=1))
        assert p1.split_lut is p2.split_lut is context.split_lut

    def test_reuse_computes_once_per_key(self):
        context = ArchContext(lnn(4), uniform_latency(1, 3))
        circuit = random_circuit(4, 6, seed=0)
        problem = context.problem(circuit)
        calls = []

        def compute():
            calls.append(1)
            return MappingResult(circuit, context.coupling, context.latency,
                                 (0, 1, 2, 3), [], 0, stats={"n": 1})

        first = context.reuse(problem, "a", circuit, compute)
        again = context.reuse(problem, "a", circuit, compute)
        other = context.reuse(problem, "b", circuit, compute)
        assert len(calls) == 2  # "a" once, "b" once
        assert (context.result_hits, context.result_misses) == (1, 2)
        assert "result_reused" not in first.stats
        assert "result_reused" not in other.stats
        assert again.stats == {"n": 1, "result_reused": 1}
        assert again is not first and again.ops is not first.ops

    def test_reuse_stores_nothing_when_compute_raises(self):
        context = ArchContext(lnn(4), uniform_latency(1, 3))
        circuit = random_circuit(4, 6, seed=0)
        problem = context.problem(circuit)

        def compute():
            raise RuntimeError("boom")

        for _ in range(2):
            with pytest.raises(RuntimeError, match="boom"):
                context.reuse(problem, "a", circuit, compute)
        assert (context.result_hits, context.result_misses) == (0, 2)


class TestWarmCachePool:
    def test_structurally_equal_devices_share_a_context(self):
        pool = WarmCachePool()
        first = pool.context(lnn(4), uniform_latency(1, 3))
        again = pool.context(lnn(4), uniform_latency(1, 3))  # new instances
        assert again is first
        assert (pool.arch_hits, pool.arch_misses) == (1, 1)

    def test_distinct_devices_get_distinct_contexts(self):
        pool = WarmCachePool()
        a = pool.context(lnn(4), uniform_latency(1, 3))
        b = pool.context(lnn(4), IBM_LATENCY)
        c = pool.context(grid(2, 3), uniform_latency(1, 3))
        assert len({id(a), id(b), id(c)}) == 3
        assert pool.counters()["contexts"] == 3

    def test_counters_aggregate_across_contexts(self):
        pool = WarmCachePool()
        circuit = random_circuit(4, 6, seed=0)
        pool.context(lnn(4)).problem(circuit)
        pool.context(lnn(4)).problem(circuit)
        totals = pool.counters()
        assert totals["problem_hits"] == 1
        assert totals["problem_misses"] == 1
        assert totals["result_hits"] == totals["result_misses"] == 0
        pool.reset()
        assert pool.counters()["contexts"] == 0


#: Every search counter a result carries; warm runs must match cold ones.
SEARCH_COUNTERS = (
    "nodes_expanded", "nodes_generated", "filtered_equivalent",
    "filtered_dominated", "pruned_by_bound", "closed_dominated",
    "queue_trims", "killed", "distinct_states", "incumbent_updates",
    "swaps_restricted", "symmetry_pruned", "root_candidates_restricted",
    "memo_hits", "memo_misses",
)


def _warm(mapper, device, latency):
    mapper.arch_context = WarmCachePool().context(device, latency)
    return mapper


class TestWarmBitIdentity:
    """Warm-cache runs must be bit-identical to cold runs."""

    @pytest.mark.parametrize("mapper_cls", [HeuristicMapper, OptimalMapper])
    def test_repeat_maps_identical_cold_vs_warm(self, mapper_cls):
        device, latency = lnn(5), uniform_latency(1, 3)
        circuit = qft_skeleton(5)

        cold = mapper_cls(device, latency).map(circuit)
        warm_mapper = _warm(mapper_cls(device, latency), device, latency)
        runs = [warm_mapper.map(circuit) for _ in range(3)]

        for result in runs:
            assert result.depth == cold.depth
            assert result.ops == cold.ops
            assert result.initial_mapping == cold.initial_mapping
            for key in SEARCH_COUNTERS:
                assert result.stats.get(key) == cold.stats.get(key), key

    @pytest.mark.parametrize("mapper_cls", [HeuristicMapper, OptimalMapper])
    def test_warm_repeat_is_served_from_the_context(self, mapper_cls):
        device, latency = lnn(5), uniform_latency(1, 3)
        mapper = _warm(mapper_cls(device, latency), device, latency)
        first = mapper.map(qft_skeleton(5))
        caller_circuit = qft_skeleton(5)  # equal structure, new object
        second = mapper.map(caller_circuit)
        context = mapper.arch_context
        assert (context.result_hits, context.result_misses) == (1, 1)
        assert second.stats["result_reused"] == 1
        assert "result_reused" not in first.stats
        assert second.ops == first.ops
        assert second.depth == first.depth
        assert second.initial_mapping == first.initial_mapping
        assert second.circuit is caller_circuit

    @pytest.mark.parametrize("mapper_cls", [HeuristicMapper, OptimalMapper])
    def test_mutating_a_result_does_not_leak_into_the_next_hit(
        self, mapper_cls
    ):
        device, latency = lnn(5), uniform_latency(1, 3)
        circuit = qft_skeleton(5)
        mapper = _warm(mapper_cls(device, latency), device, latency)
        for result in (mapper.map(circuit), mapper.map(circuit)):
            ops, depth = list(result.ops), result.depth
            result.ops.clear()
            result.stats["nodes_expanded"] = -1
            result.stats["extra"] = "mine"
            hit = mapper.map(circuit)
            assert hit.ops == ops and hit.depth == depth
            assert hit.stats["nodes_expanded"] > 0
            assert "extra" not in hit.stats


class TestResultReuseBypass:
    """Results that depend on timing or carry telemetry are recomputed."""

    @staticmethod
    def _assert_recomputed(mapper, circuit):
        _warm(mapper, mapper.coupling, mapper.latency)
        first, second = mapper.map(circuit), mapper.map(circuit)
        assert mapper.arch_context.result_hits == 0
        assert mapper.arch_context.result_misses == 0
        assert "result_reused" not in second.stats
        assert second.depth == first.depth

    @pytest.mark.parametrize("mapper_cls", [HeuristicMapper, OptimalMapper])
    def test_telemetry_enabled_recomputes(self, mapper_cls):
        device, latency = lnn(4), uniform_latency(1, 3)
        mapper = mapper_cls(device, latency, telemetry=Telemetry())
        self._assert_recomputed(mapper, qft_skeleton(4))

    @pytest.mark.parametrize("setting", [
        {"deadline": 30.0},
        {"mode2_workers": 1, "search_initial_mapping": True},
    ])
    def test_timing_dependent_settings_recompute(self, setting):
        mapper = OptimalMapper(lnn(4), uniform_latency(1, 3), **setting)
        self._assert_recomputed(mapper, qft_skeleton(4))

    def test_shared_incumbent_recomputes(self):
        device, latency = lnn(4), uniform_latency(1, 3)
        mapper = _warm(OptimalMapper(device, latency), device, latency)
        for _ in range(2):
            # A bound shared with the first run would prune the second
            # run to exhaustion; each request gets its own.
            mapper.shared_incumbent = SharedBound()
            result = mapper.map(qft_skeleton(4))
            assert "result_reused" not in result.stats
        context = mapper.arch_context
        assert (context.result_hits, context.result_misses) == (0, 0)

    def test_budget_failure_is_not_stored(self):
        device, latency = lnn(6), uniform_latency(1, 3)
        mapper = _warm(
            OptimalMapper(device, latency, max_nodes=5), device, latency
        )
        for _ in range(2):
            with pytest.raises(SearchBudgetExceeded):
                mapper.map(qft_skeleton(6))
        context = mapper.arch_context
        assert (context.result_hits, context.result_misses) == (0, 2)


class TestResultReuseKeys:
    """Requests differing in any result-affecting setting never collide."""

    def test_window_is_part_of_the_key(self):
        device, latency = lnn(5), uniform_latency(1, 3)
        context = WarmCachePool().context(device, latency)
        for window in (1, 10):
            mapper = HeuristicMapper(device, latency, window=window)
            mapper.arch_context = context
            circuit = qft_skeleton(5)  # one shared problem, new objects
            warm = mapper.map(circuit)
            cold = HeuristicMapper(device, latency, window=window).map(
                circuit
            )
            assert "result_reused" not in warm.stats
            assert warm.stats["memo_misses"] == cold.stats["memo_misses"]
            assert warm.circuit is circuit
        assert context.result_hits == 0

    @pytest.mark.parametrize("mapper_cls", [HeuristicMapper, OptimalMapper])
    def test_initial_mapping_is_part_of_the_key(self, mapper_cls):
        device, latency = lnn(4), uniform_latency(1, 3)
        circuit = qft_skeleton(4)
        mapper = _warm(mapper_cls(device, latency), device, latency)
        for mapping in ((0, 1, 2, 3), (3, 2, 1, 0)):
            warm = mapper.map(circuit, initial_mapping=list(mapping))
            assert warm.initial_mapping == mapping
        assert mapper.arch_context.result_hits == 0
        again = mapper.map(circuit, initial_mapping=(3, 2, 1, 0))
        assert again.initial_mapping == (3, 2, 1, 0)
        assert mapper.arch_context.result_hits == 1

    def test_max_nodes_is_part_of_the_key(self):
        device, latency = lnn(6), uniform_latency(1, 3)
        circuit = qft_skeleton(6)
        context = WarmCachePool().context(device, latency)
        unbounded = OptimalMapper(device, latency)
        unbounded.arch_context = context
        unbounded.map(circuit)
        budgeted = OptimalMapper(device, latency, max_nodes=5)
        budgeted.arch_context = context
        with pytest.raises(SearchBudgetExceeded):
            budgeted.map(circuit)
        assert (context.result_hits, context.result_misses) == (0, 2)
