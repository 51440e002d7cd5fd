"""Unit tests for MappingProblem preprocessing and SearchNode mechanics."""

import pytest

from repro.arch import lnn
from repro.circuit import Circuit, uniform_latency
from repro.core.problem import MappingProblem
from repro.core.state import K_GATE, K_SWAP, SearchNode

from .test_heuristic import make_node


def sample_problem():
    circuit = Circuit(3).h(0).cx(0, 1).cx(1, 2)
    return MappingProblem(circuit, lnn(4), uniform_latency(1, 3))


class TestMappingProblem:
    def test_rejects_too_many_logicals(self):
        with pytest.raises(ValueError):
            MappingProblem(Circuit(5).cx(0, 1), lnn(3))

    def test_per_qubit_sequences(self):
        problem = sample_problem()
        assert problem.seq[0] == [0, 1]
        assert problem.seq[1] == [1, 2]
        assert problem.seq[2] == [2]

    def test_gate_positions(self):
        problem = sample_problem()
        assert problem.gate_pos[1] == {0: 1, 1: 0}

    def test_latencies_precomputed(self):
        problem = sample_problem()
        assert problem.gate_latency == (1, 1, 1)
        assert problem.swap_len == 3

    def test_is_gate_started(self):
        problem = sample_problem()
        assert not problem.is_gate_started(0, (0, 0, 0))
        assert problem.is_gate_started(0, (1, 0, 0))

    def test_ideal_depth_and_trivial_mapping(self):
        problem = sample_problem()
        assert problem.ideal_depth() == 3
        assert problem.trivial_mapping() == (0, 1, 2)


class TestSearchNode:
    def test_terminal_detection(self):
        problem = sample_problem()
        done = make_node(problem, time=3, ptr=[2, 2, 1], started=3)
        assert done.is_terminal(problem.num_gates)
        busy = make_node(
            problem, time=3, ptr=[2, 2, 1], started=3,
            inflight=((5, K_GATE, 2, 0),),
        )
        assert not busy.is_terminal(problem.num_gates)
        partial = make_node(problem, time=3, ptr=[2, 1, 0], started=2)
        assert not partial.is_terminal(problem.num_gates)

    def test_busy_physical_resolves_gate_operands(self):
        problem = sample_problem()
        node = make_node(
            problem, mapping=(2, 1, 0), ptr=[1, 1, 0], started=1,
            inflight=((2, K_GATE, 1, 0),),  # cx(q0,q1) at Q2,Q1
        )
        assert node.busy_physical(problem.gate_qubits) == {1, 2}

    def test_busy_physical_includes_swaps(self):
        problem = sample_problem()
        node = make_node(problem, inflight=((3, K_SWAP, 2, 3),))
        assert node.busy_physical(problem.gate_qubits) == {2, 3}

    def test_mapping_after_swaps(self):
        problem = sample_problem()
        node = make_node(problem, inflight=((3, K_SWAP, 0, 1),))
        pos, inv = node.mapping_after_swaps()
        assert pos[0] == 1 and pos[1] == 0
        assert inv[0] == 1 and inv[1] == 0
        # The node's own mapping is untouched (effect is hypothetical).
        assert node.pos[0] == 0

    def test_mapping_after_swaps_with_free_qubit(self):
        problem = sample_problem()  # 3 logicals on 4 physicals
        node = make_node(problem, inflight=((3, K_SWAP, 2, 3),))
        pos, inv = node.mapping_after_swaps()
        assert pos[2] == 3
        assert inv[2] == -1 and inv[3] == 2

    def test_filter_key_distinguishes_progress(self):
        problem = sample_problem()
        a = make_node(problem)
        b = make_node(problem, ptr=[1, 0, 0], started=1)
        assert a.filter_key() != b.filter_key()

    def test_path_actions_from_root(self):
        problem = sample_problem()
        root = make_node(problem)
        child = SearchNode(
            time=1, pos=root.pos, inv=root.inv, ptr=(1, 0, 0), started=1,
            inflight=(), last_swaps=frozenset(), prev_startable=frozenset(),
            parent=root, actions=(("g", 0),),
        )
        grandchild = SearchNode(
            time=2, pos=root.pos, inv=root.inv, ptr=(2, 1, 0), started=2,
            inflight=(), last_swaps=frozenset(), prev_startable=frozenset(),
            parent=child, actions=(("g", 1),),
        )
        trail = list(grandchild.path_actions())
        assert [(t, a) for t, a, _ in trail] == [
            (0, (("g", 0),)),
            (1, (("g", 1),)),
        ]

    def test_repr_mentions_prefix(self):
        problem = sample_problem()
        node = make_node(problem)
        node.prefix_layers = 2
        assert "prefix" in repr(node)
