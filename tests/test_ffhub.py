import numpy as np
import pytest
from conftest import random_graph_params
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hubsim import ffhub, netgraph, refcheck
from hubsim.errors import ParameterError
from hubsim.oracles import build_oracle_set
from hubsim.qstate import extract_block, spectral_norm


def test_spectrum_values_dg8(dg8):
    spec = ffhub.spectrum_G(dg8)
    assert spec.lambda_plus == pytest.approx(np.sqrt(12))
    assert spec.lambda_minus == pytest.approx(-np.sqrt(12))


def test_spectrum_values_half_hubs():
    g = netgraph.generate(8, 4, 4, 4, rng_seed=1)
    spec = ffhub.spectrum_G(g)
    assert spec.lambda_plus == pytest.approx(4.0)


def test_spectrum_eigvector_property(dg8, dg8_dense):
    spec = ffhub.spectrum_G(dg8)
    g = dg8_dense["G"]
    assert np.linalg.norm(g @ spec.psi_plus - spec.lambda_plus * spec.psi_plus) < 1e-12
    assert np.linalg.norm(g @ spec.psi_minus - spec.lambda_minus * spec.psi_minus) < 1e-12
    assert abs(np.vdot(spec.psi_plus, spec.psi_minus)) < 1e-14


def test_zero_eigenvalue_count(dg8_dense):
    evals = np.linalg.eigvalsh(dg8_dense["G"])
    assert np.sum(np.abs(evals) < 1e-10) == 6


@pytest.mark.parametrize("n,m", [(8, 1), (8, 2), (16, 4), (32, 2)])
def test_link_matrix_spectrum_families(n, m):
    g = netgraph.generate(n, m, max(4, m), 4 if n > 8 else 2, rng_seed=2)
    evals = np.sort(np.abs(np.linalg.eigvalsh(g.dense_link_matrix().astype(float))))
    lam = np.sqrt(m * (n - m))
    assert np.all(evals[:-2] < 1e-9)
    assert np.allclose(evals[-2:], lam, atol=1e-9)


def test_spectrum_degenerate_raises():
    g = netgraph.generate(8, 0, 2, 1, rng_seed=0)
    with pytest.raises(ParameterError):
        ffhub.spectrum_G(g)


def test_p_pm_alpha_and_direction(dg8, dg8_oracles):
    # the preparations are exact unitaries (factor 1, no ancilla): V+ |0>
    # is psi+ and V- |0> is -psi-
    spec = ffhub.spectrum_G(dg8)
    for sign, target in ((+1, spec.psi_plus), (-1, -spec.psi_minus)):
        prepared = ffhub.prepared_state(dg8_oracles, sign)
        assert np.max(np.abs(prepared - target)) < 1e-15


def test_p_pm_alpha_half_hubs():
    # M = N/2 leaves one upper qubit: S+ is a single rotation
    g = netgraph.generate(8, 4, 4, 4, rng_seed=1)
    spec = ffhub.spectrum_G(g)
    oracles = build_oracle_set(g)
    v_plus, v_minus = (ffhub.prepared_state(oracles, s) for s in (+1, -1))
    assert np.max(np.abs(v_plus - spec.psi_plus)) < 1e-15
    assert np.max(np.abs(v_minus + spec.psi_minus)) < 1e-15


@pytest.mark.parametrize("k", range(1, 7))
def test_split_prep_is_uniform_over_nonzero_values(k):
    # (|0> + w)/sqrt 2 with w uniform over the 2^k - 1 nonzero values; a
    # Hadamard layer controlled on its own bit alone would break k >= 3
    column = extract_block(ffhub._split_prep(k), k)[:, 0]
    target = np.full(2 ** k, 1.0 / np.sqrt(2.0 * (2 ** k - 1)))
    target[0] = 1.0 / np.sqrt(2.0)
    assert np.max(np.abs(column - target)) <= 4e-16


def test_expg_t0_is_identity(dg8_oracles):
    be = ffhub.build_expG(dg8_oracles, 0.0)
    assert np.max(np.abs(np.eye(8) - be.block())) <= 1e-14


def test_expg_prefactor_dg8(dg8_oracles):
    # an exact circuit: unit factor and no ancilla at every t
    for t in (0.0, 0.3, 100.0):
        be = ffhub.build_expG(dg8_oracles, t)
        assert (be.alpha, be.m, be.eps) == (1.0, 0, 0.0)


def test_expg_dg8_vs_dense(dg8, dg8_dense, dg8_oracles):
    be = ffhub.build_expG(dg8_oracles, 1.7)
    target = refcheck.dense_expm(dg8_dense["G"], 1.7)
    assert spectral_norm(target - be.block()) <= 1e-12


def test_expg_gate_count_independent_of_t(dg8_oracles):
    counts = {ffhub.build_expG(dg8_oracles, t).gate_count()
              for t in (1.0, 1000.0)}
    assert len(counts) == 1


def test_expg_hub_free_identity():
    g = netgraph.generate(8, 0, 2, 1, rng_seed=0)
    be = ffhub.build_expG(build_oracle_set(g), 5.0)
    assert be.m == 0
    assert be.gate_count() == 0 and be.query_profile() == {}
    assert np.array_equal(be.block(), np.eye(8))


@pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
def test_expg_rejects_non_finite_t(dg8_oracles, t):
    with pytest.raises(ParameterError, match="finite"):
        ffhub.build_expG(dg8_oracles, t)
    hub_free = build_oracle_set(netgraph.generate(8, 0, 2, 1, rng_seed=0))
    with pytest.raises(ParameterError, match="finite"):
        ffhub.build_expG(hub_free, t)


def test_marked_projector_circuit_action(dg8, dg8_dense, dg8_oracles):
    # the rank-two circuit acts as e^{-i lambda t} on each eigenvector and
    # as the identity on the zero eigenspace
    t = 1.3
    spec = ffhub.spectrum_G(dg8)
    block = extract_block(ffhub._rank_two_circuit(dg8_oracles, t), 3)
    for lam, vec in ((spec.lambda_plus, spec.psi_plus),
                     (spec.lambda_minus, spec.psi_minus)):
        assert np.max(np.abs(block @ vec - np.exp(-1j * lam * t) * vec)) < 1e-14
    evals, evecs = np.linalg.eigh(dg8_dense["G"])
    zero_vecs = evecs[:, np.abs(evals) < 1e-10]
    assert np.max(np.abs(block @ zero_vecs - zero_vecs)) < 1e-14


def test_classical_expg_matches_dense(dg8, dg8_dense):
    rng = np.random.default_rng(5)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    out = ffhub.classical_expG_apply(dg8, 2.3, psi)
    ref = refcheck.dense_expm(dg8_dense["G"], 2.3) @ psi
    assert np.linalg.norm(out - ref) < 1e-12
    # a matrix of columns: applied to the identity it is the dense block
    block = ffhub.classical_expG_apply(dg8, 2.3, np.eye(8))
    dense = refcheck.dense_expm(dg8_dense["G"], 2.3)
    assert np.max(np.abs(block - dense)) < 1e-12


def test_classical_expg_t0_and_perp(dg8, dg8_dense):
    psi = np.zeros(8, dtype=np.complex128)
    psi[0] = 1.0
    assert np.array_equal(ffhub.classical_expG_apply(dg8, 0.0, psi), psi)
    evals, evecs = np.linalg.eigh(dg8_dense["G"])
    zero_vec = evecs[:, np.argmin(np.abs(evals))].astype(np.complex128)
    out = ffhub.classical_expG_apply(dg8, 7.7, zero_vec)
    assert np.linalg.norm(out - zero_vec) < 1e-12


def test_classical_expg_group_property(dg8):
    rng = np.random.default_rng(6)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    one_shot = ffhub.classical_expG_apply(dg8, 3.0, psi)
    two_step = ffhub.classical_expG_apply(
        dg8, 1.25, ffhub.classical_expG_apply(dg8, 1.75, psi))
    assert np.linalg.norm(one_shot - two_step) < 1e-11


def test_expg_query_profile_formula(dg8):
    # two O_H queries and nothing else, whatever t; running the circuit on a
    # fresh oracle set moves its counter by exactly that
    for t in (0.25, 100.0):
        oracles = build_oracle_set(dg8)
        be = ffhub.build_expG(oracles, t)
        assert be.query_profile() == {"O_H": 2}
        be.block()
        assert {k: v for k, v in oracles.counter.snapshot().items() if v} \
            == {"O_H": 2}


_EXACT_PARAMS = [p for p in random_graph_params() if p[0] <= 32 and p[1] > 0]


@settings(max_examples=25)
@given(params=st.sampled_from(_EXACT_PARAMS + [(16, 1, 4, 1), (8, 4, 4, 4)]),
       seed=st.integers(0, 2 ** 16), t=st.floats(0.0, 100.0))
@example(params=(32, 2, 8, 4), seed=3, t=100.0)
@example(params=(16, 1, 4, 1), seed=5, t=0.0)
def test_expg_block_is_exact(params, seed, t):
    graph = netgraph.generate(*params, rng_seed=seed)
    be = ffhub.build_expG(build_oracle_set(graph), t)
    target = refcheck.dense_expm(graph.dense_link_matrix().astype(complex), t)
    assert np.max(np.abs(be.block() - target)) <= 1e-12
