"""`==` and `hash` on the frozen dataclasses that hold numpy arrays.

A generated `__eq__` compares the fields as a tuple, which raises numpy's
"truth value ... is ambiguous" for arrays of two or more elements, and the
generated `__hash__` fails on an array field. These classes compare and
hash by identity instead.
"""

import numpy as np
import pytest

from distreg import (
    GAUSSIAN,
    Basis,
    DayCounts,
    Disruption,
    FittedMixture,
    Graph,
    KernelConfig,
    MixtureDistributionModel,
    MixtureEmbeddingModel,
    PerturbedObservation,
    SampleSet,
    SimplexQPProblem,
    SimplexQPSolution,
    TrainingPairs,
    embed,
)
from distreg.data_io import DatasetBundle, SyntheticDataset
from distreg.regression import NonParametricOperator

KERNEL = KernelConfig(GAUSSIAN, 0.5)
PAIR = (0.5, 0.5)


def samples():
    return SampleSet(np.zeros((2, 1)))


def embedding():
    return embed(KERNEL, samples())


def graph():
    return Graph.from_edges(2, [(0, 1)])


def basis():
    return Basis(KERNEL, (samples(), SampleSet(np.ones((2, 1)))))


# class name -> a function that builds a fresh instance holding two-element arrays
FACTORIES = {
    "SampleSet": samples,
    "Embedding": embedding,
    "Basis": basis,
    "FittedMixture": lambda: FittedMixture(basis(), PAIR, 0.0),
    "SimplexQPProblem": lambda: SimplexQPProblem(np.eye(2), PAIR),
    "SimplexQPSolution": lambda: SimplexQPSolution(PAIR, 0.0, 0.0, 1),
    "TrainingPairs": lambda: TrainingPairs(((embedding(),), (embedding(),)), (embedding(),) * 2),
    "NonParametricOperator": lambda: NonParametricOperator(
        (embedding(),) * 2, (embedding(),) * 2, np.eye(2), 1e-8
    ),
    "MixtureEmbeddingModel": lambda: MixtureEmbeddingModel(PAIR),
    "MixtureDistributionModel": lambda: MixtureDistributionModel(PAIR),
    "PerturbedObservation": lambda: PerturbedObservation(
        Disruption(day=0, t_start=0, t_end=1, roi=(0, 1)), PAIR
    ),
    "Graph": graph,
    "SyntheticDataset": lambda: SyntheticDataset(
        graph(), {0: np.zeros((2, 4), dtype=np.int64)}, [], [], (0, 1)
    ),
    "DatasetBundle": lambda: DatasetBundle(
        graph(),
        {0: DayCounts(day=0, origin=[0, 1], destination=[1, 0], t_exit=[1, 1])},
        [],
        (0, 1),
        (),
    ),
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_compares_and_hashes_without_raising(name):
    a, same = FACTORIES[name](), FACTORIES[name]()
    assert type(a).__name__ == name
    assert a == a
    assert isinstance(a == same, bool)
    hash(a)
