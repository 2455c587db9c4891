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


def basis_state(layout, values=0):
    """Amplitudes of one basis state, given as a flat index or as register
    values."""
    idx = values if isinstance(values, int) else layout.basis_index(values)
    amps = np.zeros(2 ** layout.width, dtype=np.complex128)
    amps[idx] = 1.0
    return amps


def random_state(layout, seed=0):
    """Normalized complex Gaussian amplitudes drawn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    dim = 2 ** layout.width
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amps / np.linalg.norm(amps)


def run(op, amps, adjoint=False):
    """Apply an operator over its full width to one amplitude vector."""
    return op.apply_to_array(amps.reshape(-1, 1), op.width,
                             adjoint=adjoint)[:, 0]


def random_unitary(dim, seed=0):
    """Haar-distributed dim x dim unitary drawn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_graph_params():
    """Feasible parameter tuples used across randomized tests."""
    return [
        (8, 2, 4, 2), (8, 1, 2, 2), (8, 0, 2, 1), (16, 2, 4, 2),
        (16, 4, 4, 4), (32, 2, 8, 4), (64, 2, 8, 2), (64, 4, 8, 4),
    ]


def flat_counts(op):
    """(gates, oracle queries) of one application of ``op``, walking its
    flattened primitive stream: the reference for the compositional
    ``gate_count`` and ``query_profile``."""
    gates, profile = 0, {}
    for prim, _, _, _ in op._instructions(tuple(range(op.width)), (), False):
        gates += 1
        name = getattr(prim, "oracle_name", None)
        if name:
            profile[name] = profile.get(name, 0) + 1
    return gates, profile
