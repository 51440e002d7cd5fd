"""Kernel backend registry + cross-backend bit-identity properties.

The backends (``pure`` / ``compiled``) promise *identical* search
behaviour — same schedules, same node counts, same prune counters —
differing only in speed.  These tests pin that contract with hypothesis
over random circuits, for every backend that constructs on this
interpreter (the CI matrix runs the suite with and without the C
extension built), with telemetry off and on.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.arch import grid, lnn
from repro.circuit import Circuit, uniform_latency
from repro.circuit.generators import qft_skeleton
from repro.core import HeuristicMapper, OptimalMapper
from repro.core.heuristic import HeuristicMemo, heuristic_cost
from repro.core.kernels import (
    BACKEND_NAMES,
    PROBE_ORDER,
    available_backends,
    get_backend,
    resolve_backend,
)
from repro.core.kernels.api import KernelBackend
from repro.core.problem import MappingProblem
from repro.obs import Telemetry
from repro.obs.schema import STAT_KERNEL_BACKEND

from .test_heuristic import make_node

BACKENDS = available_backends()

#: Counters that must match bit-for-bit across backends.  ``depth`` is
#: the result itself; the rest prove the backends walked the same tree
#: in the same order (generation order feeds the heap tie-break).
PARITY_KEYS = (
    "nodes_expanded",
    "nodes_generated",
    "filtered_equivalent",
    "filtered_dominated",
    "killed",
    "pruned_by_bound",
    "swaps_restricted",
    "memo_hits",
    "memo_misses",
)


def _parity_signature(result):
    stats = result.stats
    return (result.depth, result.initial_mapping) + tuple(
        stats.get(key) for key in PARITY_KEYS
    )


def _signatures(make_mapper, circuit):
    """Parity signature per backend, with telemetry off and on.

    Telemetry observes the one search loop and must not steer it: the
    instrumented run of every backend is held to the same tree.
    """
    signatures = {}
    for name in BACKENDS:
        signatures[name] = _parity_signature(
            make_mapper(kernel=name).map(circuit)
        )
        signatures[f"{name}+telemetry"] = _parity_signature(
            make_mapper(kernel=name, telemetry=Telemetry()).map(circuit)
        )
    return signatures


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def circuits(draw, min_qubits=2, max_qubits=4, max_gates=8):
    n = draw(st.integers(min_qubits, max_qubits))
    circuit = Circuit(n)
    for _ in range(draw(st.integers(1, max_gates))):
        if n >= 2 and draw(st.booleans()):
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(0, n - 2))
            if b >= a:
                b += 1
            circuit.cx(a, b)
        else:
            circuit.h(draw(st.integers(0, n - 1)))
    return circuit


@st.composite
def latencies(draw):
    return uniform_latency(draw(st.integers(1, 2)), draw(st.integers(1, 4)))


# ---------------------------------------------------------------------------
# Registry / capability probe
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_pure_always_available(self):
        assert "pure" in BACKENDS

    def test_available_is_subset_of_names(self):
        assert set(BACKENDS) <= set(BACKEND_NAMES)

    def test_unknown_name_rejected(self, monkeypatch):
        for name in ("nope", "vector"):
            match = f"unknown kernel backend '{name}'.*choose from"
            with pytest.raises(ValueError, match=match):
                resolve_backend(name)
            monkeypatch.setenv("REPRO_KERNEL_BACKEND", name)
            with pytest.raises(ValueError, match=match):
                resolve_backend(None)
            monkeypatch.delenv("REPRO_KERNEL_BACKEND")

    def test_instances_are_cached(self):
        assert get_backend("pure") is get_backend("pure")

    def test_instance_passthrough(self):
        backend = get_backend("pure")
        assert resolve_backend(backend) is backend

    def test_env_var_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "pure")
        assert resolve_backend(None).name == "pure"

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "definitely-not-real")
        assert resolve_backend("pure").name == "pure"

    def test_probe_prefers_fastest_available(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        resolved = resolve_backend(None).name
        # The probe must pick the first *available* name in fastest-first
        # order, never something that failed to construct.
        assert PROBE_ORDER == ("compiled", "pure")
        for candidate in PROBE_ORDER:
            if candidate in BACKENDS:
                assert resolved == candidate
                break

    def test_every_backend_is_kernel_backend(self):
        for name in BACKENDS:
            assert isinstance(get_backend(name), KernelBackend)


# ---------------------------------------------------------------------------
# Whole-search parity: every backend walks the identical tree
# ---------------------------------------------------------------------------


class TestSearchParity:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(circuit=circuits(), latency=latencies(), data=st.data())
    def test_mode1_identical(self, circuit, latency, data):
        arch = lnn(circuit.num_qubits)
        signatures = _signatures(
            lambda **kw: OptimalMapper(arch, latency, **kw), circuit
        )
        reference = signatures["pure"]
        assert all(sig == reference for sig in signatures.values()), signatures

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(circuit=circuits(max_qubits=4, max_gates=6), latency=latencies())
    def test_mode2_identical(self, circuit, latency):
        arch = lnn(circuit.num_qubits)
        signatures = _signatures(
            lambda **kw: OptimalMapper(
                arch, latency, search_initial_mapping=True, **kw
            ),
            circuit,
        )
        reference = signatures["pure"]
        assert all(sig == reference for sig in signatures.values()), signatures

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(circuit=circuits(max_qubits=5, max_gates=10), latency=latencies())
    def test_heuristic_mapper_identical(self, circuit, latency):
        arch = grid(2, 3)
        signatures = _signatures(
            lambda **kw: HeuristicMapper(arch, latency, **kw), circuit
        )
        reference = signatures["pure"]
        assert all(sig == reference for sig in signatures.values()), signatures

    def test_ablations_survive_backends(self):
        # Pruning toggles route through the same kernel seam; a backend
        # must not silently re-enable what the config switched off.
        circuit = Circuit(4).cx(0, 3).cx(1, 2).cx(0, 2)
        arch = lnn(4)
        for kwargs in (
            {"prune_swaps": False},
            {"dominance": False},
            {"memoize": False},
            {"reduce_symmetry": False, "search_initial_mapping": True},
        ):
            signatures = _signatures(
                lambda **kw: OptimalMapper(
                    arch, uniform_latency(1, 3), **kwargs, **kw
                ),
                circuit,
            )
            assert len(set(signatures.values())) == 1, (kwargs, signatures)


# ---------------------------------------------------------------------------
# heuristic_batch: windowed truncation + memo transparency
# ---------------------------------------------------------------------------


def _frontier_nodes(circuit, arch):
    """The root plus its reference expansion, unscored."""
    from repro.core.expander import ExpansionConfig, expand

    problem = MappingProblem(circuit, arch)
    root = make_node(problem)
    children = expand(problem, root, ExpansionConfig())
    return problem, [root] + children


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestHeuristicBatch:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(circuit=circuits(max_qubits=4, max_gates=8), window=st.one_of(
        st.none(), st.integers(1, 4)
    ))
    def test_matches_scalar_reference(self, backend_name, circuit, window):
        # Windowed truncation must batch exactly like the scalar path:
        # the window trims the per-qubit look-ahead before scoring.
        problem, nodes = _frontier_nodes(circuit, lnn(circuit.num_qubits))
        expected = [
            heuristic_cost(problem, node, window=window) for node in nodes
        ]
        backend = get_backend(backend_name)
        backend.heuristic_batch(problem, nodes, window=window)
        assert [node.h for node in nodes] == expected

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(circuit=circuits(max_qubits=4, max_gates=8))
    def test_memo_transparent(self, backend_name, circuit):
        # A memo must never change scores, only skip work — and its
        # hit/miss totals must match scalar evaluation in list order.
        problem, nodes = _frontier_nodes(circuit, lnn(circuit.num_qubits))
        bare = list(nodes)
        backend = get_backend(backend_name)
        backend.heuristic_batch(problem, bare)
        expected = [node.h for node in bare]

        memo = HeuristicMemo()
        for node in nodes:
            node.h = None
        backend.heuristic_batch(problem, nodes, memo=memo)
        assert [node.h for node in nodes] == expected
        assert memo.hits + memo.misses == len(nodes)
        assert memo.misses == len(memo.table)

        # Second pass over the same states: all hits, same values.
        before = memo.hits
        for node in nodes:
            node.h = None
        backend.heuristic_batch(problem, nodes, memo=memo)
        assert [node.h for node in nodes] == expected
        assert memo.hits == before + len(nodes)


# ---------------------------------------------------------------------------
# Stats surface
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestTelemetryRidesTheKernel:
    """An instrumented search calls the kernel steps a bare one calls."""

    @staticmethod
    def _count_calls(monkeypatch, backend_name, attrs):
        backend = resolve_backend(backend_name)
        calls = dict.fromkeys(attrs, 0)
        for attr in attrs:
            original = getattr(backend, attr)

            def counting(*args, _attr=attr, _original=original, **kwargs):
                calls[_attr] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(backend, attr, counting)
        return calls

    def test_optimal_mapper(self, backend_name, monkeypatch):
        calls = self._count_calls(
            monkeypatch, backend_name, ("expand", "heuristic_batch")
        )
        result = OptimalMapper(
            lnn(4), uniform_latency(1, 3), search_initial_mapping=True,
            kernel=backend_name, telemetry=Telemetry(trace=True),
        ).map(qft_skeleton(4))
        assert calls["expand"] > 0
        assert calls["heuristic_batch"] > 0
        assert result.stats[STAT_KERNEL_BACKEND] == backend_name

    def test_heuristic_mapper(self, backend_name, monkeypatch):
        calls = self._count_calls(
            monkeypatch, backend_name, ("heuristic_batch",)
        )
        result = HeuristicMapper(
            lnn(4), uniform_latency(1, 3), kernel=backend_name,
            telemetry=Telemetry(trace=True),
        ).map(qft_skeleton(4))
        assert calls["heuristic_batch"] > 0
        assert result.stats[STAT_KERNEL_BACKEND] == backend_name


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestStatsRecordBackend:
    def test_optimal_mapper_records_backend(self, backend_name):
        circuit = Circuit(3).cx(0, 2).cx(0, 1)
        result = OptimalMapper(
            lnn(3), uniform_latency(1, 3), kernel=backend_name
        ).map(circuit)
        assert result.stats[STAT_KERNEL_BACKEND] == backend_name

    def test_heuristic_mapper_records_backend(self, backend_name):
        circuit = Circuit(3).cx(0, 2).cx(1, 2)
        result = HeuristicMapper(
            lnn(3), uniform_latency(1, 3), kernel=backend_name
        ).map(circuit)
        assert result.stats[STAT_KERNEL_BACKEND] == backend_name
