import numpy as np
import pytest
from conftest import basis_state, random_state, run

from hubsim import qstate
from hubsim.errors import ParameterError, RegisterError, ResourceError
from hubsim.qstate import (Circuit, DenseGate, GlobalPhase, LazyCircuit,
                           PermutationGate, RegisterLayout, extract_block,
                           hadamard_layer, random_unitary, register_swap,
                           spectral_norm, x_gate)


def test_hadamard_layer_uniform():
    layout = RegisterLayout(("r", 3))
    circ = Circuit(layout).append(hadamard_layer(3), on=["r"])
    out = run(circ, basis_state(layout))
    assert np.allclose(out, np.full(8, 1 / np.sqrt(8)))


def test_identity_circuit_unchanged():
    layout = RegisterLayout(("r", 4))
    state = random_state(layout, seed=0)
    out = run(Circuit(layout), state)
    assert np.array_equal(out, state)


def test_adjoint_roundtrip_random():
    layout = RegisterLayout(("a", 2), ("b", 3))
    state = random_state(layout, seed=1)
    circ = Circuit(layout)
    circ.append(DenseGate(random_unitary(8, seed=2)), on=["b"])
    circ.append(DenseGate(random_unitary(4, seed=3)), on=["a"])
    circ.append(x_gate(), on=[("b", 0, 1)], controls=[("a", 2)])
    mid = run(circ, state)
    back = run(circ, mid, adjoint=True)
    assert np.linalg.norm(back - state) < 1e-10


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
        state = random_state(layout, seed=seed)
        out = run(circ, state)
        assert abs(np.linalg.norm(out) - np.linalg.norm(state)) < 1e-10


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
    state = basis_state(layout, {"c": 0, "s": 2})
    out = run(circ, state)
    assert np.array_equal(out, state)


def test_control_values_select_branch():
    layout = RegisterLayout(("c", 2), ("s", 1))
    circ = Circuit(layout)
    circ.append(x_gate(), on=["s"], controls=[("c", 2)])
    out = run(circ, basis_state(layout, {"c": 2, "s": 0}))
    assert out[layout.basis_index({"c": 2, "s": 1})] == 1.0
    out = run(circ, basis_state(layout, {"c": 3, "s": 0}))
    assert out[layout.basis_index({"c": 3, "s": 0})] == 1.0


def test_extract_block_width_cap(monkeypatch):
    # a layout allocates nothing, so a wide one builds; extracting from a
    # circuit over it would allocate 2^width columns and is refused
    monkeypatch.setenv("HUBSIM_QUBIT_CAP", "5")
    circ = Circuit(RegisterLayout(("anc", 4), ("sys", 2)))
    assert circ.width == 6
    with pytest.raises(ResourceError) as err:
        extract_block(circ, 2)
    assert err.value.stage == "extract_block"
    narrow = Circuit(RegisterLayout(("anc", 3), ("sys", 2)))
    assert np.array_equal(extract_block(narrow, 2), np.eye(4))


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
        out = run(gate, basis_state(layout, k))
        assert out[perm[k]] == 1.0
        back = run(gate, out, adjoint=True)
        assert back[k] == 1.0


def test_register_swap():
    layout = RegisterLayout(("a", 2), ("b", 2))
    swap = register_swap(2)
    state = basis_state(layout, {"a": 1, "b": 2})
    out = run(swap, state)
    assert out[layout.basis_index({"a": 2, "b": 1})] == 1.0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_register_swap_is_an_involution(k):
    # FunctionalPermutation is its own adjoint only for an involution
    fn = register_swap(k).fn
    idx = np.arange(2 ** (2 * k), dtype=np.int64)
    assert np.array_equal(fn(fn(idx)), idx)


def test_global_phase_plain_and_controlled():
    layout = RegisterLayout(("c", 1), ("s", 1))
    circ = Circuit(layout).append(GlobalPhase(np.pi / 2), qubits=[],
                                  controls=[("c", 1)])
    state = np.array([0.5, 0.5, 0.5, 0.5], dtype=np.complex128)
    out = run(circ, state)
    assert np.allclose(out, [0.5, 0.5, 0.5j, 0.5j])


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(11)
    for _ in range(5):
        mat = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        assert abs(spectral_norm(mat) - np.linalg.svd(mat, compute_uv=False)[0]) < 1e-8
    assert spectral_norm(np.zeros((3, 3))) == 0.0


def test_extract_block_system_cap():
    # the system cap fires before the operator is built or any array is
    # allocated
    def builder():
        raise AssertionError("built past the extraction cap")

    with pytest.raises(ResourceError):
        extract_block(LazyCircuit(13, builder), 13)


def test_lazy_circuit_checks_its_declared_width():
    def narrow():
        return Circuit(RegisterLayout(("r", 2)))

    with pytest.raises(RegisterError):
        LazyCircuit(3, narrow, label="narrow").materialize()
    assert LazyCircuit(2, narrow).materialize().width == 2


def test_qubit_cap_env(monkeypatch):
    monkeypatch.setenv("HUBSIM_QUBIT_CAP", "30")
    assert qstate.qubit_cap() == 30
    monkeypatch.delenv("HUBSIM_QUBIT_CAP")
    assert qstate.qubit_cap() == 26
    monkeypatch.setenv("HUBSIM_QUBIT_CAP", "bogus")
    with pytest.raises(ParameterError):
        qstate.qubit_cap()
