import numpy as np
import pytest

from hubsim import netgraph, refcheck
from hubsim.errors import ParameterError


def test_expm_zero_matrix():
    out = refcheck.dense_expm(np.zeros((4, 4)), 2.5)
    assert np.allclose(out, np.eye(4), atol=1e-14)


def test_expm_diagonal_pi():
    out = refcheck.dense_expm(np.diag([1.0, -1.0]), np.pi)
    assert np.allclose(out, -np.eye(2), atol=1e-12)


def test_expm_eigenvector_phase(dg8, dg8_dense):
    from hubsim.ffhub import spectrum_G
    spec = spectrum_G(dg8)
    out = refcheck.dense_expm(dg8_dense["G"], 1.3) @ spec.psi_plus
    expected = np.exp(-1j * spec.lambda_plus * 1.3) * spec.psi_plus
    assert np.linalg.norm(out - expected) < 1e-11


def test_expm_group_property():
    rng = np.random.default_rng(0)
    h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = (h + h.conj().T) / 2
    u1 = refcheck.dense_expm(h, 0.7)
    u2 = refcheck.dense_expm(h, 1.9)
    u12 = refcheck.dense_expm(h, 2.6)
    assert np.linalg.norm(u1 @ u2 - u12) < 1e-10


def test_expm_unitarity():
    rng = np.random.default_rng(1)
    h = rng.normal(size=(8, 8))
    h = (h + h.T) / 2
    u = refcheck.dense_expm(h, 3.3)
    assert np.linalg.norm(u @ u.conj().T - np.eye(8)) < 1e-11


def test_expm_non_hermitian_raises():
    with pytest.raises(ParameterError):
        refcheck.dense_expm(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
def test_expm_rejects_non_finite_t(t):
    with pytest.raises(ParameterError, match="t must be finite"):
        refcheck.dense_expm(np.eye(4), t)


def test_rotated_hub_free_reduces_to_expm():
    g = netgraph.generate(8, 0, 2, 1, rng_seed=2)
    a = g.dense_adjacency().astype(np.complex128)
    psi0 = np.zeros(8, dtype=np.complex128)
    psi0[1] = 1.0
    out = refcheck.rotated_reference(g, 1.2, psi0, tol=1e-10)
    ref = refcheck.dense_expm(a, 1.2) @ psi0
    assert np.linalg.norm(out - ref) < 1e-9


def test_rotated_dg8_cross_check(dg8, dg8_dense):
    psi0 = np.zeros(8, dtype=np.complex128)
    psi0[0] = 1.0
    out = refcheck.rotated_reference(dg8, 1.0, psi0, tol=1e-10)
    ref = refcheck.dense_expm(dg8_dense["A"], 1.0) @ psi0
    assert np.linalg.norm(out - ref) < 1e-9


def test_rotated_norm_preserved(dg8):
    rng = np.random.default_rng(3)
    psi0 = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi0 /= np.linalg.norm(psi0)
    out = refcheck.rotated_reference(dg8, 2.0, psi0, tol=1e-10)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-9


def test_rotated_propagator_matches_direct(dg8, dg8_dense):
    tau = 1.0 / 16.0
    prop = refcheck.rotated_propagator(dg8, tau, tol=1e-12)
    exact = refcheck.dense_expm(dg8_dense["G"], -tau) \
        @ refcheck.dense_expm(dg8_dense["A"], tau)
    assert np.max(np.abs(prop - exact)) < 1e-10


def test_rotated_integration_runs_backward_in_time(dg8, dg8_dense):
    # a negative time integrates the time-reversed equation; it must not
    # return the initial state unchanged
    psi0 = np.zeros(8, dtype=np.complex128)
    psi0[0] = 1.0
    out = refcheck.rotated_reference(dg8, -0.5, psi0, tol=1e-10)
    ref = refcheck.dense_expm(dg8_dense["A"], -0.5) @ psi0
    assert np.linalg.norm(out - ref) < 1e-9
    tau = -0.3
    prop = refcheck.rotated_propagator(dg8, tau, tol=1e-12)
    exact = refcheck.dense_expm(dg8_dense["G"], -tau) \
        @ refcheck.dense_expm(dg8_dense["A"], tau)
    assert np.max(np.abs(prop - exact)) < 1e-10


def test_distance_trivials():
    a = np.array([1.0, 0.0], dtype=complex)
    b = np.array([0.0, 1.0], dtype=complex)
    assert refcheck.distance(a, a) == 0.0
    assert abs(refcheck.distance(a, b) - np.sqrt(2)) < 1e-14
    phase = np.exp(0.7j)
    assert abs(refcheck.distance(a, phase * a) - abs(phase - 1.0)) < 1e-14


def test_distance_dimension_mismatch():
    with pytest.raises(ParameterError):
        refcheck.distance(np.zeros(2), np.zeros(4))
