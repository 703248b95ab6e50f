"""Shared fixtures: tiny random instances and small hand-built graphs."""

import numpy as np
import pytest

from gcn_cert.graph_core import Graph
from gcn_cert.oracle import random_tiny_graph, random_tiny_instance  # noqa: F401  (re-exported)


def path_graph():
    """Path 0 - 1 - 2 with two binary features."""
    A = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    X = np.array([[1, 0], [0, 1], [1, 1]], dtype=float)
    return Graph(
        num_nodes=3,
        num_features=2,
        num_classes=2,
        adjacency=A,
        attributes=X,
        labels=np.array([0, 1, -1]),
    )


@pytest.fixture
def path():
    return path_graph()


@pytest.fixture
def rng():
    return np.random.default_rng(0)
