"""Tests for the Section 5.3 initial-mapping machinery (mode 2)."""

import pytest

from repro.arch import CouplingGraph, grid, ibm_qx2, lnn
from repro.circuit import Circuit, uniform_latency
from repro.circuit.generators import ghz_circuit, qft_skeleton, random_circuit
from repro.core import HeuristicMapper, OptimalMapper, SearchBudgetExceeded
from repro.verify import validate_result


class TestPrefixSearch:
    def test_prefix_swaps_not_counted(self):
        """A circuit solvable swap-free under some mapping costs only its
        ideal depth, no matter how far that mapping is from identity."""
        circuit = Circuit(4).cx(0, 3).cx(3, 0).cx(0, 3)
        latency = uniform_latency(1, 3)
        result = OptimalMapper(
            lnn(4), latency, search_initial_mapping=True,
            try_swap_free_fast_path=False,  # force the prefix machinery
        ).map(circuit)
        validate_result(result)
        assert result.depth == circuit.depth(latency)
        assert result.num_inserted_swaps == 0
        # The chosen mapping must place q0 and q3 adjacently.
        assert abs(result.initial_mapping[0] - result.initial_mapping[3]) == 1

    def test_prefix_and_fast_path_agree(self):
        circuit = random_circuit(4, 8, two_qubit_fraction=0.8, seed=21)
        latency = uniform_latency(1, 3)
        with_fast = OptimalMapper(
            ibm_qx2(), latency, search_initial_mapping=True
        ).map(circuit)
        without_fast = OptimalMapper(
            ibm_qx2(), latency, search_initial_mapping=True,
            try_swap_free_fast_path=False,
        ).map(circuit)
        assert with_fast.depth == without_fast.depth

    def test_unused_physical_qubits_exploited(self):
        """With more physical than logical qubits, mode 2 may spread the
        logicals out over the larger graph."""
        circuit = Circuit(3).cx(0, 1).cx(1, 2).cx(0, 2)
        latency = uniform_latency(1, 3)
        result = OptimalMapper(
            ibm_qx2(), latency, search_initial_mapping=True
        ).map(circuit)
        validate_result(result)
        # The triangle {0,1,2} of QX2 hosts this swap-free.
        assert result.num_inserted_swaps == 0
        assert result.depth == circuit.depth(latency)

    def test_mode2_never_worse_than_identity(self):
        latency = uniform_latency(1, 3)
        for seed in range(4):
            circuit = random_circuit(4, 8, two_qubit_fraction=0.7, seed=seed)
            identity = OptimalMapper(lnn(4), latency).map(
                circuit, initial_mapping=[0, 1, 2, 3]
            )
            searched = OptimalMapper(
                lnn(4), latency, search_initial_mapping=True
            ).map(circuit)
            assert searched.depth <= identity.depth


class TestBudgets:
    def test_time_budget_raises(self):
        circuit = random_circuit(6, 40, two_qubit_fraction=0.9, seed=1)
        mapper = OptimalMapper(
            lnn(6), uniform_latency(1, 3), max_seconds=0.01
        )
        with pytest.raises(SearchBudgetExceeded):
            mapper.map(circuit, initial_mapping=list(range(6)))

    def test_node_budget_message(self):
        circuit = random_circuit(5, 20, two_qubit_fraction=0.9, seed=2)
        mapper = OptimalMapper(lnn(5), uniform_latency(1, 3), max_nodes=5)
        with pytest.raises(SearchBudgetExceeded, match="nodes"):
            mapper.map(circuit, initial_mapping=list(range(5)))


class TestPrefixCap:
    def test_longest_path_bound_reaches_any_mapping(self):
        """The d-layer prefix cap suffices to reach the optimal mapping
        even on a path graph where relayouts need many layers."""
        # Force q0 next to q4 — the farthest relabeling from identity.
        circuit = Circuit(5).cx(0, 4).cx(4, 0).cx(0, 4).cx(4, 0)
        latency = uniform_latency(1, 3)
        result = OptimalMapper(
            lnn(5), latency, search_initial_mapping=True,
            try_swap_free_fast_path=False,
        ).map(circuit)
        validate_result(result)
        assert result.num_inserted_swaps == 0
        assert result.depth == circuit.depth(latency)


class TestExplicitMappingValidation:
    """Both mappers reject a mode-1 mapping that is not a placement."""

    @pytest.mark.parametrize("mapper_type", [OptimalMapper, HeuristicMapper])
    @pytest.mark.parametrize("mapping", [[0, 1, -1], [0, 1, 7]])
    def test_out_of_range_entry_rejected(self, mapper_type, mapping):
        mapper = mapper_type(lnn(4), uniform_latency(1, 3))
        with pytest.raises(ValueError, match="outside physical qubits 0..3"):
            mapper.map(qft_skeleton(3), initial_mapping=mapping)

    @pytest.mark.parametrize("mapper_type", [OptimalMapper, HeuristicMapper])
    @pytest.mark.parametrize("mapping", [[0, 1, 1], [0, 1]])
    def test_duplicate_or_short_mapping_rejected(self, mapper_type, mapping):
        mapper = mapper_type(lnn(4), uniform_latency(1, 3))
        with pytest.raises(ValueError, match="initial mapping"):
            mapper.map(qft_skeleton(3), initial_mapping=mapping)

    @pytest.mark.parametrize("mapper_type", [OptimalMapper, HeuristicMapper])
    def test_valid_mapping_is_kept(self, mapper_type):
        result = mapper_type(lnn(4), uniform_latency(1, 3)).map(
            qft_skeleton(3), initial_mapping=[3, 2, 1]
        )
        validate_result(result)
        assert result.initial_mapping == (3, 2, 1)
