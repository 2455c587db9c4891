import numpy as np
import pytest
from conftest import random_unitary, run
from hypothesis import example, given
from hypothesis import strategies as st

from hubsim import blockenc
from hubsim.blockenc import (BlockEncoding, fixed_point_aa, lcu,
                             unitary_with_first_column, verify, zero_encoding)
from hubsim.errors import EncodingError, ParameterError, RegisterError
from hubsim.qstate import (DenseGate, RegisterLayout, extract_block,
                           spectral_norm, x_gate)


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


def identity(n: int) -> BlockEncoding:
    """Bare (1, 0)-encoding of the identity on n qubits."""
    return BlockEncoding(DenseGate(np.eye(2 ** n)), 1.0, 0, n)


@pytest.mark.parametrize("dim", [1, 2, 4, 8])
def test_unitary_with_first_column(dim):
    # random complex columns, a column whose first entry is zero, and e0:
    # the completion is unitary and starts with the normalized column
    rng = np.random.default_rng(dim)
    random = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    zero_first = np.concatenate(([0.0], random[1:]))
    columns = [random, 3.0 * random, np.eye(dim)[0]]
    if dim > 1:  # one entry cannot be zero in a nonzero column
        columns.append(zero_first)
    for col in columns:
        u = unitary_with_first_column(col)
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= 1e-14
        assert np.max(np.abs(u[:, 0] - col / np.linalg.norm(col))) <= 1e-15


def test_false_claim_raises():
    be = BlockEncoding(x_gate(), 1.0, 0, 1, label="claimed-identity")
    with pytest.raises(EncodingError):
        verify(be, np.eye(2))
    # the measured error is indeed 2
    assert abs(spectral_norm(np.eye(2) - be.block()) - 2.0) < 1e-12


def test_verify_fails_on_a_non_finite_error():
    nan_block = BlockEncoding(x_gate(), 1.0, 0, 1,
                              block_fn=lambda: np.full((2, 2), np.nan))
    with pytest.raises(EncodingError):
        verify(nan_block, np.eye(2))


def test_verify_dimension_mismatch():
    with pytest.raises(ParameterError):
        verify(identity(2), np.eye(8))


def test_lcu_single_term():
    u = random_unitary(4, seed=0)
    be = BlockEncoding(DenseGate(u), 1.0, 0, 2)
    combo = lcu([1.0], [be])
    assert combo.alpha == 1.0
    assert np.allclose(combo.block(), u, atol=1e-12)
    assert np.allclose(extract_block(combo.unitary, 2), u, atol=1e-12)


def test_lcu_convex_identity():
    be1, be2 = identity(2), identity(2)
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
    bes = [identity(1) for _ in range(3)]
    combo = lcu([1.0, 1.0, 1.0], bes)
    assert combo.m == 2  # ceil(log2 3) index qubits, no bank
    assert combo.alpha == pytest.approx(3.0)
    assert verify(combo, 3.0 * np.eye(2)) < 1e-12


def test_lcu_eps_propagation():
    u = random_unitary(2, seed=2)
    noisy = BlockEncoding(DenseGate(u), 1.0, 0, 1, eps=0.25)
    combo = lcu([1.0, -2.0], [noisy, identity(1)])
    assert combo.eps == pytest.approx(3.0 * 0.25)


def test_lcu_bad_inputs():
    with pytest.raises(ParameterError):
        lcu([], [])
    with pytest.raises(RegisterError):
        lcu([1.0, 1.0], [identity(1), identity(2)])
    with pytest.raises(ParameterError):
        lcu([0.0], [identity(1)])


# (factor ancillas, |coefficient|, coefficient phase, factor alpha)
_LCU_TERMS = st.lists(st.tuples(st.sampled_from([0, 1, 2]),
                                st.floats(0.1, 2.0),
                                st.floats(0.0, 2.0 * np.pi),
                                st.floats(1.0, 3.0)),
                      min_size=1, max_size=5)


@given(n=st.sampled_from([1, 2]), terms=_LCU_TERMS)
@example(n=1, terms=[(0, 1.0, 0.0, 1.0)])  # empty index and bank
@example(n=2, terms=[(0, 1.0, 0.0, 1.0), (0, 0.5, np.pi, 2.0)])  # empty bank
def test_lcu_circuit_matches_block_with_empty_registers(n, terms):
    bes = [BlockEncoding(DenseGate(random_unitary(2 ** (m + n), seed=j)),
                         alpha, m, n)
           for j, (m, _, _, alpha) in enumerate(terms)]
    combo = lcu([r * np.exp(1j * phi) for _, r, phi, _ in terms], bes)
    assert combo.unitary.width == combo.m + n
    circ_block = extract_block(combo.unitary, n)
    assert np.max(np.abs(circ_block - combo.block())) < 1e-10


@given(n=st.sampled_from([1, 2]), alpha=st.floats(1.0, 3.0),
       eps=st.sampled_from([1e-3, 1e-6]))
def test_aa_of_a_bare_unitary_circuit_matches_block(n, alpha, eps):
    # m = 0: the projector phases act on the flag alone
    be = BlockEncoding(DenseGate(random_unitary(2 ** n, seed=19)), alpha, 0, n)
    amp = fixed_point_aa(be, eps)
    assert (amp.unitary.width, amp.m) == (1 + n, 1)
    circ_block = extract_block(amp.unitary, n)
    assert np.max(np.abs(circ_block - amp.block())) < 1e-10


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
