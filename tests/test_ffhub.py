import numpy as np
import pytest

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
    spec = ffhub.spectrum_G(dg8)
    expect_alpha = (1.0 / np.sqrt(2.0)) * (1.0 + np.sqrt(8.0 / 6.0))
    for sign, target in ((+1, spec.psi_plus), (-1, spec.psi_minus)):
        be = ffhub.build_P_pm(dg8_oracles, sign)
        assert be.alpha == pytest.approx(expect_alpha)
        assert be.m == 2
        column = be.alpha * be.block()[:, 0]
        assert np.linalg.norm(column - target) < 1e-10


def test_p_pm_alpha_half_hubs():
    g = netgraph.generate(8, 4, 4, 4, rng_seed=1)
    be = ffhub.build_P_pm(build_oracle_set(g), +1)
    assert be.alpha == pytest.approx((1.0 / np.sqrt(2.0)) * (1.0 + np.sqrt(2.0)))


def test_hub_block_factor_dg8(dg8):
    assert ffhub.hub_block_factor(dg8) == pytest.approx(2.321367205, abs=1e-8)


def test_expg_prefactor_dg8(dg8):
    beta = ffhub.hub_block_factor(dg8)
    assert 2 * beta + 1 == pytest.approx(5.64273441, abs=1e-7)


def test_expg_t0_is_identity(dg8_oracles):
    be = ffhub.build_expG(dg8_oracles, 0.0, 1e-6)
    assert spectral_norm(np.eye(8) - be.block()) <= 1e-6


def test_expg_dg8_vs_dense(dg8, dg8_dense, dg8_oracles):
    be = ffhub.build_expG(dg8_oracles, 1.7, 1e-6)
    target = refcheck.dense_expm(dg8_dense["G"], 1.7)
    assert spectral_norm(target - be.block()) <= 1e-6
    assert be.alpha == 1.0
    assert be.m == 8
    # pre-amplification stage: combination factor 2 beta + 1 on 7 ancillas
    beta = ffhub.hub_block_factor(dg8)
    assert be.pre_alpha == pytest.approx(2 * beta + 1)
    assert be.pre_ancillas == 7


def test_expg_gate_count_independent_of_t(dg8_oracles):
    counts = {ffhub.build_expG(dg8_oracles, t, 1e-6).gate_count()
              for t in (1.0, 1000.0)}
    assert len(counts) == 1


def test_expg_hub_free_identity():
    g = netgraph.generate(8, 0, 2, 1, rng_seed=0)
    be = ffhub.build_expG(build_oracle_set(g), 5.0, 1e-8)
    assert be.m == 8
    assert spectral_norm(np.eye(8) - be.block()) == 0.0


def test_expg_amplified_circuit_matches_block(dg8_oracles):
    be = ffhub.build_expG(dg8_oracles, 0.9, 1e-4)
    circ_block = extract_block(be.unitary, 3)
    assert np.max(np.abs(circ_block - be.block())) < 1e-9


def test_marked_projector_circuit_action(dg8, dg8_dense, dg8_oracles):
    # the phased projector stage acts as e^{-i lambda t}/beta on each
    # eigenvector and annihilates the zero eigenspace
    from hubsim.ffhub import (_marked_projector_circuit, build_P_pm,
                              hub_block_factor, spectrum_G)
    t = 1.3
    spec = spectrum_G(dg8)
    beta = hub_block_factor(dg8)
    u_plus = build_P_pm(dg8_oracles, +1)
    u_minus = build_P_pm(dg8_oracles, -1)
    circ = _marked_projector_circuit(dg8, u_plus, u_minus, t, with_phase=True)
    block = extract_block(circ, 3)
    amp_plus = spec.psi_plus.conj() @ block @ spec.psi_plus
    amp_minus = spec.psi_minus.conj() @ block @ spec.psi_minus
    assert abs(amp_plus - np.exp(-1j * spec.lambda_plus * t) / beta) < 1e-12
    assert abs(amp_minus - np.exp(-1j * spec.lambda_minus * t) / beta) < 1e-12
    # zero eigenspace: columns orthogonal to both eigenvectors map to zero
    evals, evecs = np.linalg.eigh(dg8_dense["G"])
    zero_vecs = evecs[:, np.abs(evals) < 1e-10]
    assert np.max(np.abs(block @ zero_vecs)) < 1e-12


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


def test_expg_query_profile_formula(dg8_oracles):
    be = ffhub.build_expG(dg8_oracles, 1.0, 1e-6)
    profile = be.query_profile()
    big_l = be.aa_degree
    assert profile == {"O_K": 8 * big_l, "O_H": 8 * big_l}


@pytest.mark.parametrize("graph_name", ["dg8", "n16"])
def test_expg_shared_bundle_matches_standalone(graph_name, dg8):
    graph = dg8 if graph_name == "dg8" else netgraph.generate(
        16, 2, 4, 2, rng_seed=3)
    oracles = build_oracle_set(graph)
    bundle = ffhub.expG_bundle(oracles)
    for t in (0.0, 0.3, 1.7, 5.0):
        shared = ffhub.build_expG(oracles, t, 1e-6, bundle=bundle)
        alone = ffhub.build_expG(build_oracle_set(graph), t, 1e-6)
        assert np.max(np.abs(shared.block() - alone.block())) <= 1e-12
        assert shared.gate_count() == alone.gate_count()
        assert shared.query_profile() == alone.query_profile()


def test_expg_rejects_a_bundle_from_another_oracle_set(dg8, dg8_oracles):
    g1 = netgraph.generate(16, 2, 4, 2, rng_seed=1)
    g2 = netgraph.generate(16, 2, 4, 2, rng_seed=2)
    with pytest.raises(ParameterError):
        ffhub.build_expG(build_oracle_set(g1), 0.7, 1e-6,
                         bundle=ffhub.expG_bundle(build_oracle_set(g2)))
    # a second oracle set of the same graph is another oracle set too
    with pytest.raises(ParameterError):
        ffhub.build_expG(dg8_oracles, 0.7, 1e-6,
                         bundle=ffhub.expG_bundle(build_oracle_set(dg8)))


def test_expg_shared_bundle_circuit_matches_block(dg8_oracles):
    bundle = ffhub.expG_bundle(dg8_oracles)
    ffhub.build_expG(dg8_oracles, 0.3, 1e-4, bundle=bundle).block()
    be = ffhub.build_expG(dg8_oracles, 0.9, 1e-4, bundle=bundle)
    circ_block = extract_block(be.unitary, 3)
    assert np.max(np.abs(circ_block - be.block())) <= 1e-10
