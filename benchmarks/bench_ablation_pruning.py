"""Ablation: branch-and-bound pruning for the top-down driver.

The paper measures raw enumeration without pruning (fair comparison with
bottom-up) but notes pruning is exactly the top-down advantage.  This
bench quantifies what the advantage buys on skewed statistics.
"""

import math

import pytest

from repro.optimizer.api import make_optimizer

from .conftest import make_instances

_GEN = make_instances(seed=66)
_INSTANCES = {
    "star9": _GEN.fixed_shape("star", 9),
    "clique8": _GEN.fixed_shape("clique", 8),
    "cyclic10": _GEN.random_cyclic(10, 20),
}


@pytest.mark.benchmark(group="ablation-pruning")
@pytest.mark.parametrize("name", sorted(_INSTANCES))
@pytest.mark.parametrize(
    "pruning", [False, True], ids=["pruning-off", "pruning-on"]
)
def test_topdown_with_and_without_pruning(benchmark, name, pruning):
    catalog = _INSTANCES[name].catalog

    def run():
        return make_optimizer(
            "tdmincutbranch", catalog, enable_pruning=pruning
        ).optimize()

    benchmark(run)


@pytest.mark.parametrize("name", sorted(_INSTANCES))
def test_pruning_preserves_optimality(name):
    catalog = _INSTANCES[name].catalog
    plain = make_optimizer("tdmincutbranch", catalog).optimize()
    pruned = make_optimizer(
        "tdmincutbranch", catalog, enable_pruning=True
    ).optimize()
    assert math.isclose(plain.cost, pruned.cost, rel_tol=1e-12)
