"""Unit tests for the cost models."""

import math

import pytest

from repro import CoutCostModel, PhysicalCostModel
from repro.cost.physical import HashJoin, NestedLoopJoin, SortMergeJoin
from repro.errors import OptimizationError


class TestCout:
    def test_cost_is_output_cardinality(self):
        model = CoutCostModel()
        cost, impl = model.join_cost(100.0, 200.0, 5000.0)
        assert cost == 5000.0
        assert impl == "join"

    def test_symmetric(self):
        model = CoutCostModel()
        assert model.is_symmetric()
        a, _ = model.join_cost(10.0, 99.0, 42.0)
        b, _ = model.join_cost(99.0, 10.0, 42.0)
        assert a == b

    def test_name(self):
        assert CoutCostModel().name == "cout"


class TestImplementations:
    def test_nested_loop(self):
        nl = NestedLoopJoin(buffer_pages=10.0)
        assert nl.cost(100.0, 50.0, 1.0) == 100.0 + 100.0 * 50.0 / 10.0

    def test_nested_loop_asymmetric(self):
        nl = NestedLoopJoin(buffer_pages=10.0)
        assert nl.cost(10.0, 1000.0, 1.0) != nl.cost(1000.0, 10.0, 1.0)

    def test_hash_join(self):
        hj = HashJoin(build_factor=2.0, probe_factor=1.0)
        assert hj.cost(100.0, 1000.0, 1.0) == 1200.0
        # Building on the smaller side is cheaper.
        assert hj.cost(100.0, 1000.0, 1.0) < hj.cost(1000.0, 100.0, 1.0)

    def test_sort_merge(self):
        smj = SortMergeJoin()
        cost = smj.cost(8.0, 8.0, 1.0)
        assert math.isclose(cost, 2 * (8 * 3) + 16)

    def test_sort_merge_tiny_inputs(self):
        smj = SortMergeJoin()
        # Cardinalities <= 1 must not produce negative log costs.
        assert smj.cost(1.0, 1.0, 1.0) > 0


class TestPhysicalModel:
    def test_picks_cheapest(self):
        model = PhysicalCostModel(
            implementations=(
                NestedLoopJoin(buffer_pages=1.0),
                HashJoin(),
            ),
            output_weight=0.0,
        )
        cost, impl = model.join_cost(1000.0, 1000.0, 1.0)
        assert impl == "hash"
        assert cost == HashJoin().cost(1000.0, 1000.0, 1.0)

    def test_nested_loop_wins_for_tiny_inputs(self):
        model = PhysicalCostModel(output_weight=0.0)
        _, impl = model.join_cost(2.0, 2.0, 1.0)
        assert impl == "nestedloop"

    def test_output_weight_added(self):
        base = PhysicalCostModel(output_weight=0.0)
        weighted = PhysicalCostModel(output_weight=1.0)
        c0, _ = base.join_cost(10.0, 10.0, 77.0)
        c1, _ = weighted.join_cost(10.0, 10.0, 77.0)
        assert math.isclose(c1 - c0, 77.0)

    def test_asymmetric(self):
        model = PhysicalCostModel()
        assert not model.is_symmetric()

    def test_requires_implementations(self):
        with pytest.raises(OptimizationError):
            PhysicalCostModel(implementations=())


class TestParameterValidation:
    """Parameters that break pricing are refused at construction."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: NestedLoopJoin(buffer_pages=0),
            lambda: NestedLoopJoin(buffer_pages=-1.0),
            lambda: NestedLoopJoin(buffer_pages=math.inf),
            lambda: HashJoin(build_factor=math.nan),
            lambda: HashJoin(probe_factor=-0.5),
            lambda: HashJoin(build_factor="2"),
            lambda: HashJoin(build_factor=True),
            lambda: HashJoin(build_factor=10**400),
            lambda: PhysicalCostModel(output_weight=math.nan),
            lambda: PhysicalCostModel(output_weight=-1.0),
            lambda: PhysicalCostModel(output_weight=None),
        ],
        ids=[
            "buffer-0", "buffer-negative", "buffer-inf", "build-nan",
            "probe-negative", "build-string", "build-bool", "build-huge-int",
            "weight-nan", "weight-negative", "weight-none",
        ],
    )
    def test_refused(self, make):
        with pytest.raises(OptimizationError, match="finite number"):
            make()

    def test_edge_values_accepted(self):
        model = PhysicalCostModel(
            [NestedLoopJoin(buffer_pages=1e-300), HashJoin(0.0, 0.0)],
            output_weight=0,
        )
        assert model.output_weight == 0
        assert model.implementations[1].build_factor == 0.0

    def test_optimize_request_gets_a_typed_error(self):
        # Was a bare ZeroDivisionError from inside the enumeration.
        from repro import serialize

        document = {
            "kind": "cost_model",
            "version": 1,
            "class": "PhysicalCostModel",
            "params": {
                "output_weight": 1.0,
                "implementations": [
                    {"class": "NestedLoopJoin", "name": "nestedloop", "buffer_pages": 0}
                ],
            },
        }
        with pytest.raises(OptimizationError, match="buffer_pages"):
            serialize.cost_model_from_dict(document)
        document["params"] = {"output_weight": math.nan}
        with pytest.raises(OptimizationError, match="output_weight"):
            serialize.cost_model_from_dict(document)
