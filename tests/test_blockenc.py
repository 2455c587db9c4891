import numpy as np
import pytest
from conftest import run

from hubsim import blockenc
from hubsim.blockenc import (BlockEncoding, fixed_point_aa, identity_encoding,
                             lcu, product, unitary_encoding, verify,
                             zero_encoding)
from hubsim.errors import EncodingError, ParameterError, RegisterError
from hubsim.qstate import (DenseGate, RegisterLayout, extract_block,
                           random_unitary, spectral_norm, x_gate)


def dilated_encoding(matrix: np.ndarray, alpha: float, seed_label="dilated"):
    """(alpha, 1)-encoding of `matrix` via a one-ancilla unitary dilation."""
    b = matrix / alpha
    gram = np.eye(b.shape[0]) - b @ b.conj().T
    evals, evecs = np.linalg.eigh(gram)
    c = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    w = np.block([[b, c], [c, -b.conj().T]])
    n = int(np.log2(b.shape[0]))
    return BlockEncoding(DenseGate(w, label=seed_label), alpha, 1, n,
                         label=seed_label)


def test_identity_encoding_verifies():
    be = identity_encoding(2)
    assert verify(be, np.eye(4)) == 0.0


def test_false_claim_raises():
    be = unitary_encoding(x_gate(), 1, label="claimed-identity")
    with pytest.raises(EncodingError):
        verify(be, np.eye(2))
    # the measured error is indeed 2
    assert abs(spectral_norm(np.eye(2) - be.block()) - 2.0) < 1e-12


def test_verify_dimension_mismatch():
    with pytest.raises(ParameterError):
        verify(identity_encoding(2), np.eye(8))


def test_lcu_single_term():
    u = random_unitary(4, seed=0)
    be = unitary_encoding(DenseGate(u), 2)
    combo = lcu([1.0], [be])
    assert combo.alpha == 1.0
    assert np.allclose(combo.block(), u, atol=1e-12)
    assert np.allclose(extract_block(combo.unitary, 2), u, atol=1e-12)


def test_lcu_convex_identity():
    be1, be2 = identity_encoding(2), identity_encoding(2)
    combo = lcu([0.5, 0.5], [be1, be2])
    assert combo.alpha == 1.0
    assert verify(combo, np.eye(4)) < 1e-12


def test_lcu_signed_combination_dense_check():
    rng = np.random.default_rng(1)
    mats = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            for _ in range(3)]
    mats = [0.3 * m / spectral_norm(m) for m in mats]
    alphas = [1.5, 2.0, 1.25]
    bes = [dilated_encoding(m, a) for m, a in zip(mats, alphas)]
    ys = [-1.0, 1.0, 0.5]
    combo = lcu(ys, bes)
    target = sum(y * m for y, m in zip(ys, mats))
    assert combo.alpha == pytest.approx(sum(abs(y) * a for y, a in zip(ys, alphas)))
    assert combo.m == 1 + 2  # shared bank + index register
    assert spectral_norm(target - combo.alpha * combo.block()) < 1e-12
    # honest circuit agrees with the algebraic block
    circ_block = extract_block(combo.unitary, 2)
    assert np.max(np.abs(circ_block - combo.block())) < 1e-12


def test_lcu_pads_to_power_of_two():
    bes = [identity_encoding(1) for _ in range(3)]
    combo = lcu([1.0, 1.0, 1.0], bes)
    assert combo.m == 2  # ceil(log2 3) index qubits, no bank
    assert combo.alpha == pytest.approx(3.0)
    assert verify(combo, 3.0 * np.eye(2)) < 1e-12


def test_lcu_eps_propagation():
    u = random_unitary(2, seed=2)
    noisy = BlockEncoding(DenseGate(u), 1.0, 0, 1, eps=0.25)
    combo = lcu([1.0, -2.0], [noisy, identity_encoding(1)])
    assert combo.eps == pytest.approx(3.0 * 0.25)


def test_lcu_bad_inputs():
    with pytest.raises(ParameterError):
        lcu([], [])
    with pytest.raises(RegisterError):
        lcu([1.0, 1.0], [identity_encoding(1), identity_encoding(2)])
    with pytest.raises(ParameterError):
        lcu([0.0], [identity_encoding(1)])


def test_product_identity_factor():
    u = random_unitary(4, seed=3)
    be = unitary_encoding(DenseGate(u), 2)
    combined = product(identity_encoding(2), be)
    assert np.allclose(combined.block(), u, atol=1e-12)


def test_product_composition_bare_unitaries():
    u1, u2 = random_unitary(4, seed=4), random_unitary(4, seed=5)
    combined = product(unitary_encoding(DenseGate(u1), 2),
                       unitary_encoding(DenseGate(u2), 2))
    assert np.allclose(combined.block(), u1 @ u2, atol=1e-12)


def test_product_disjoint_banks_match_circuit():
    rng = np.random.default_rng(6)
    m1 = 0.4 * random_unitary(4, seed=7)
    m2 = 0.7 * random_unitary(4, seed=8)
    be1, be2 = dilated_encoding(m1, 1.5), dilated_encoding(m2, 2.0)
    combined = product(be1, be2)
    assert combined.alpha == pytest.approx(3.0)
    assert combined.m == 2
    assert spectral_norm(m1 @ m2 - combined.alpha * combined.block()) < 1e-12
    circ_block = extract_block(combined.unitary, 2)
    assert np.max(np.abs(circ_block - combined.block())) < 1e-12


def test_product_eps_formula():
    u = random_unitary(2, seed=9)
    a = BlockEncoding(DenseGate(u), 2.0, 0, 1, eps=0.1)
    b = BlockEncoding(DenseGate(u), 3.0, 0, 1, eps=0.2)
    combined = product(a, b)
    assert combined.eps == pytest.approx(2.0 * 0.2 + 3.0 * 0.1)


def test_product_associativity_at_block_level():
    bes = [dilated_encoding(0.5 * random_unitary(4, seed=s), 1.25)
           for s in (10, 11, 12)]
    left = product(product(bes[0], bes[1]), bes[2])
    right = product(bes[0], product(bes[1], bes[2]))
    assert np.max(np.abs(left.block() - right.block())) < 1e-10


def test_aa_contract_and_accuracy():
    target = random_unitary(4, seed=13)
    be = dilated_encoding(target, 2.5)
    for eps in (1e-4, 1e-6):
        amp = fixed_point_aa(be, eps)
        assert amp.alpha == 1.0
        assert amp.m == be.m + 1
        assert spectral_norm(amp.block() - target) <= eps


def test_aa_circuit_matches_algebraic_block():
    target = random_unitary(4, seed=14)
    be = dilated_encoding(target, 1.8)
    amp = fixed_point_aa(be, 1e-5)
    circ_block = extract_block(amp.unitary, 2)
    assert np.max(np.abs(circ_block - amp.block())) < 1e-10


def test_aa_success_amplitude_on_random_states():
    target = random_unitary(4, seed=15)
    be = dilated_encoding(target, 2.0)
    eps = 1e-5
    amp = fixed_point_aa(be, eps)
    layout = RegisterLayout(("anc", amp.m), ("sys", 2))
    for seed in range(3):
        sys_state = np.random.default_rng(seed).normal(size=4) \
            + 1j * np.random.default_rng(seed + 50).normal(size=4)
        sys_state /= np.linalg.norm(sys_state)
        amps = np.zeros(2 ** layout.width, dtype=np.complex128)
        amps[:4] = sys_state
        out = run(amp.unitary, amps)
        good = np.linalg.norm(out[:4])
        assert good >= 1.0 - eps


def test_aa_degree_grows_logarithmically():
    target = random_unitary(2, seed=16)
    be = dilated_encoding(target, 2.5)
    degrees = []
    for eps in (1e-2, 1e-4, 1e-6):
        amp = fixed_point_aa(be, eps)
        degrees.append(amp.aa_degree)
    assert degrees[0] < degrees[1] < degrees[2]
    # increments per 100x of accuracy stay roughly constant
    inc1 = degrees[1] - degrees[0]
    inc2 = degrees[2] - degrees[1]
    assert abs(inc1 - inc2) <= max(4, 0.35 * max(inc1, inc2))


def test_aa_alpha_validation():
    # the band [0.9/alpha, 1] is empty for alpha <= 0.9
    u = random_unitary(2, seed=17)
    for alpha in (0.9, 0.5):
        be = BlockEncoding(DenseGate(u), alpha, 0, 1)
        with pytest.raises(ParameterError):
            fixed_point_aa(be, 1e-3)
        with pytest.raises(ParameterError):
            blockenc.amplification_degree(alpha, 1e-3)


def test_aa_eps_validation():
    # an unreachable eps raises before any degree search
    be = dilated_encoding(random_unitary(2, seed=17), 2.0)
    for eps in (0.0, -1.0, 1e-15, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            fixed_point_aa(be, eps)
    amp = fixed_point_aa(be, blockenc.EPS_FLOOR)
    assert spectral_norm(amp.block() - random_unitary(2, seed=17)) <= 1e-12


def test_aa_near_unit_input():
    # an already unit-factor encoding passes through within eps
    u = random_unitary(4, seed=18)
    be = dilated_encoding(u, 1.0 + 1e-12)
    amp = fixed_point_aa(be, 1e-8)
    assert spectral_norm(amp.block() - u) <= 1e-8


def test_zero_encoding():
    be = zero_encoding(2)
    assert verify(be, np.zeros((4, 4))) == 0.0
