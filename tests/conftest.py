import numpy as np
import pytest
from hypothesis import settings

from hubsim import netgraph
from hubsim.oracles import build_oracle_set

# reproducible property tests: a fixed example sequence, no example
# database, no per-example deadline (solve times vary with machine load)
# and few examples
settings.register_profile("hubsim", derandomize=True, database=None,
                          deadline=None, max_examples=10)
settings.load_profile("hubsim")


@pytest.fixture(scope="session")
def dg8():
    return netgraph.dg8()


@pytest.fixture(scope="session")
def dg8_split(dg8):
    return netgraph.split(dg8)


@pytest.fixture()
def dg8_oracles(dg8):
    # function-scoped: tests mutate the query counter
    return build_oracle_set(dg8)


@pytest.fixture(scope="session")
def dg8_dense(dg8):
    return {
        "A": dg8.dense_adjacency().astype(np.complex128),
        "G": dg8.dense_link_matrix().astype(np.complex128),
    }


def random_graph_params():
    """Feasible parameter tuples used across randomized tests."""
    return [
        (8, 2, 4, 2), (8, 1, 2, 2), (8, 0, 2, 1), (16, 2, 4, 2),
        (16, 4, 4, 4), (32, 2, 8, 4), (64, 2, 8, 2), (64, 4, 8, 4),
    ]
