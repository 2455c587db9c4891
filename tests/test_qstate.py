import numpy as np
import pytest

from hubsim import qstate
from hubsim.errors import ParameterError, RegisterError, ResourceError
from hubsim.qstate import (Circuit, DenseGate, GlobalPhase, PermutationGate,
                           RegisterLayout, StateVector, extract_block,
                           hadamard_layer, random_unitary, register_swap,
                           spectral_norm, x_gate)


def test_hadamard_layer_uniform():
    layout = RegisterLayout(("r", 3))
    circ = Circuit(layout).append(hadamard_layer(3), on=["r"])
    out = circ.apply(StateVector.basis(layout))
    assert np.allclose(out.amps, np.full(8, 1 / np.sqrt(8)))


def test_identity_circuit_unchanged():
    layout = RegisterLayout(("r", 4))
    state = StateVector.random(layout, seed=0)
    out = Circuit(layout).apply(state)
    assert np.array_equal(out.amps, state.amps)


def test_adjoint_roundtrip_random():
    layout = RegisterLayout(("a", 2), ("b", 3))
    state = StateVector.random(layout, seed=1)
    circ = Circuit(layout)
    circ.append(DenseGate(random_unitary(8, seed=2)), on=["b"])
    circ.append(DenseGate(random_unitary(4, seed=3)), on=["a"])
    circ.append(x_gate(), on=[("b", 0, 1)], controls=[("a", 2)])
    mid = circ.apply(state)
    back = circ.apply(mid, adjoint=True)
    assert np.linalg.norm(back.amps - state.amps) < 1e-10


def test_apply_embedded_binding():
    op_layout = RegisterLayout(("x", 2))
    op = Circuit(op_layout).append(DenseGate(random_unitary(4, seed=4)), on=["x"])
    state_layout = RegisterLayout(("p", 3), ("q", 2))
    state = StateVector.random(state_layout, seed=5)
    out = op.apply(state, binding={"x": "q"})
    # q is the trailing register: action on the last two qubits
    tens = state.amps.reshape(8, 4)
    expected = (op.steps[0].op.matrix @ tens.T).T.reshape(-1)
    assert np.allclose(out.amps, expected, atol=1e-12)


def test_binding_errors():
    op_layout = RegisterLayout(("x", 2))
    op = Circuit(op_layout)
    state = StateVector.basis(RegisterLayout(("p", 3)))
    with pytest.raises(RegisterError):
        op.apply(state, binding={"x": "p"})  # width mismatch
    with pytest.raises(RegisterError):
        op.apply(state, binding={"x": "nope"})


def test_extract_block_bare_unitary():
    u = random_unitary(8, seed=6)
    blk = extract_block(DenseGate(u), 3)
    assert np.allclose(blk, u, atol=1e-13)


def test_extract_block_orthogonal_flag_is_zero():
    layout = RegisterLayout(("anc", 1), ("sys", 2))
    circ = Circuit(layout).append(x_gate(), on=["anc"])
    blk = extract_block(circ, 2)
    assert np.max(np.abs(blk)) == 0.0


def test_unitary_norm_preservation():
    layout = RegisterLayout(("a", 2), ("s", 3))
    rng = np.random.default_rng(7)
    circ = Circuit(layout)
    circ.append(hadamard_layer(3), on=["s"])
    circ.append(DenseGate(random_unitary(4, seed=8)), on=["a"])
    perm = rng.permutation(32).astype(np.int64)
    circ.append(PermutationGate(perm), qubits=range(5))
    circ.append(GlobalPhase(0.3), qubits=[], controls=[("a", 1)])
    for seed in range(5):
        state = StateVector.random(layout, seed=seed)
        out = circ.apply(state)
        assert abs(out.norm() - state.norm()) < 1e-10


def test_extracted_block_norm_at_most_one():
    rng = np.random.default_rng(9)
    for seed in range(4):
        layout = RegisterLayout(("anc", 2), ("sys", 2))
        circ = Circuit(layout)
        circ.append(DenseGate(random_unitary(16, seed=seed)), qubits=range(4))
        blk = extract_block(circ, 2)
        assert spectral_norm(blk) <= 1.0 + 1e-10


def test_controlled_on_zero_register_is_identity():
    layout = RegisterLayout(("c", 2), ("s", 2))
    circ = Circuit(layout)
    circ.append(DenseGate(random_unitary(4, seed=10)), on=["s"],
                controls=[("c", 1)])
    state = StateVector.basis(layout, {"c": 0, "s": 2})
    out = circ.apply(state)
    assert np.array_equal(out.amps, state.amps)


def test_control_values_select_branch():
    layout = RegisterLayout(("c", 2), ("s", 1))
    circ = Circuit(layout)
    circ.append(x_gate(), on=["s"], controls=[("c", 2)])
    out = circ.apply(StateVector.basis(layout, {"c": 2, "s": 0}))
    assert out.amps[layout.basis_index({"c": 2, "s": 1})] == 1.0
    out = circ.apply(StateVector.basis(layout, {"c": 3, "s": 0}))
    assert out.amps[layout.basis_index({"c": 3, "s": 0})] == 1.0


def test_register_layout_cap(monkeypatch):
    monkeypatch.setenv("HUBSIM_QUBIT_CAP", "5")
    with pytest.raises(ResourceError):
        RegisterLayout(("big", 6))
    RegisterLayout(("ok", 5))


def test_register_layout_helpers():
    layout = RegisterLayout(("a", 2), ("b", 3))
    assert layout.width == 5
    assert layout.axes("a") == (0, 1)
    assert layout.axes("b") == (2, 3, 4)
    assert layout.basis_index({"a": 3, "b": 5}) == 3 * 8 + 5
    with pytest.raises(RegisterError):
        layout.axes("c")
    with pytest.raises(RegisterError):
        RegisterLayout(("a", 2), ("a", 1))


def test_permutation_gate_contract():
    with pytest.raises(ParameterError):
        PermutationGate(np.array([0, 0, 1, 1]))
    perm = np.array([2, 0, 3, 1], dtype=np.int64)
    gate = PermutationGate(perm)
    layout = RegisterLayout(("r", 2))
    for k in range(4):
        out = gate.apply(StateVector.basis(layout, k), qubits=[0, 1])
        assert out.amps[perm[k]] == 1.0
        back = gate.apply(out, qubits=[0, 1], adjoint=True)
        assert back.amps[k] == 1.0


def test_register_swap():
    layout = RegisterLayout(("a", 2), ("b", 2))
    swap = register_swap(2)
    state = StateVector.basis(layout, {"a": 1, "b": 2})
    out = swap.apply(state, qubits=range(4))
    assert out.amps[layout.basis_index({"a": 2, "b": 1})] == 1.0


def test_global_phase_plain_and_controlled():
    layout = RegisterLayout(("c", 1), ("s", 1))
    circ = Circuit(layout).append(GlobalPhase(np.pi / 2), qubits=[],
                                  controls=[("c", 1)])
    state = StateVector(layout, np.array([0.5, 0.5, 0.5, 0.5]))
    out = circ.apply(state)
    assert np.allclose(out.amps, [0.5, 0.5, 0.5j, 0.5j])


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(11)
    for _ in range(5):
        mat = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        assert abs(spectral_norm(mat) - np.linalg.svd(mat, compute_uv=False)[0]) < 1e-8
    assert spectral_norm(np.zeros((3, 3))) == 0.0


def test_statevector_norm_check():
    layout = RegisterLayout(("r", 1))
    with pytest.raises(ParameterError):
        StateVector(layout, np.array([1.0, 1.0]))
    StateVector(layout, np.array([1.0, 1.0]), normalized=False)


def test_extract_block_system_cap():
    with pytest.raises(ResourceError):
        extract_block(DenseGate(np.eye(2)), 1, max_sys=0)


def test_extract_block_other_projector_value():
    u = random_unitary(8, seed=20)
    gate = DenseGate(u)
    blk = extract_block(gate, 2, projector_value=1)
    assert np.allclose(blk, u[4:8, 4:8], atol=1e-13)
    with pytest.raises(RegisterError):
        extract_block(gate, 2, projector_value=2)


def test_qubit_cap_env(monkeypatch):
    monkeypatch.setenv("HUBSIM_QUBIT_CAP", "30")
    assert qstate.qubit_cap() == 30
    monkeypatch.delenv("HUBSIM_QUBIT_CAP")
    assert qstate.qubit_cap() == 26
    monkeypatch.setenv("HUBSIM_QUBIT_CAP", "bogus")
    with pytest.raises(ParameterError):
        qstate.qubit_cap()
