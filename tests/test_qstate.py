import functools
import itertools
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from conftest import (basis_state, flat_counts, random_state,
                      random_unitary, run)
from hypothesis import given, settings
from hypothesis import strategies as st

from hubsim import netgraph, qstate, sparse_enc
from hubsim.errors import ParameterError, RegisterError, ResourceError
from hubsim.oracles import (ORACLE_NAMES, OracleGate, QueryCounter,
                            build_oracle_set)
from hubsim.qstate import (Circuit, DenseGate, FunctionalPermutation,
                           GlobalPhase, LazyCircuit, PermutationGate,
                           RegisterLayout, extract_block, hadamard_layer,
                           register_swap, spectral_norm, x_gate)


def test_hadamard_layer_uniform():
    layout = RegisterLayout(("r", 3))
    circ = Circuit(layout).append(hadamard_layer(3), on=["r"])
    out = run(circ, basis_state(layout))
    assert np.allclose(out, np.full(8, 1 / np.sqrt(8)))


_H1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


@pytest.mark.parametrize("k", range(1, 9))
def test_hadamard_layer_matches_the_kron_form(k):
    # plain and adjoint, uncontrolled and controlled on either polarity,
    # through both extraction and dense application
    kron = functools.reduce(np.kron, [_H1] * k)
    eye = np.eye(2 ** k)
    zero = np.zeros((2 ** k, 2 ** k))
    for control, adjoint in itertools.product((None, 0, 1), (False, True)):
        layout = RegisterLayout(("c", 1), ("s", k))
        circ = Circuit(layout)
        controls = [] if control is None else [("c", control)]
        circ.append(hadamard_layer(k), on=["s"], controls=controls,
                    adjoint=adjoint)
        target = {None: np.block([[kron, zero], [zero, kron]]),
                  0: np.block([[kron, zero], [zero, eye]]),
                  1: np.block([[eye, zero], [zero, kron]])}[control]
        dim = 2 ** (k + 1)
        applied = circ.apply_to_array(np.eye(dim), k + 1, adjoint=adjoint)
        assert np.max(np.abs(extract_block(circ, k + 1) - target)) <= 1e-15
        assert np.max(np.abs(applied - target)) <= 1e-15


def test_hadamard_layer_allocates_no_matrix():
    # as a dense gate, 15 qubits would be a 2^15 x 2^15 matrix of 16 GiB
    tracemalloc.start()
    try:
        layer = hadamard_layer(15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert (layer.width, layer.gate_count()) == (15, 1)


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


def test_empty_register():
    layout = RegisterLayout(("e", 0), ("s", 1))
    assert layout.width == 1
    assert layout.axes("e") == ()
    assert layout.axes("s") == (0,)
    assert layout.basis_index({"e": 0, "s": 1}) == 1


def test_control_on_empty_register_always_holds():
    layout = RegisterLayout(("e", 0), ("s", 1))
    circ = Circuit(layout).append(x_gate(), on=["s"], controls=[("e", 0)])
    assert circ.steps[0].controls == ()
    assert np.array_equal(run(circ, basis_state(layout, 0)), [0.0, 1.0])


def test_empty_register_bad_values_raise():
    layout = RegisterLayout(("e", 0), ("s", 1))
    with pytest.raises(RegisterError):
        Circuit(layout).append(x_gate(), on=["s"], controls=[("e", 1)])
    with pytest.raises(RegisterError):
        RegisterLayout(("e", -1), ("s", 1))


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


# -- sparse-support extraction --------------------------------------------------


def _draw_operator(data, width, depth, counter):
    """A random operator over ``width`` qubits from the package's
    primitives, with nested circuits down to ``depth`` more levels."""
    kinds = ["dense", "hadamard", "table", "oracle", "involution", "phase"]
    kind = data.draw(st.sampled_from(kinds + ["nested"] * (depth > 0)))
    if kind == "phase":
        return GlobalPhase(data.draw(st.floats(-np.pi, np.pi)))
    if kind == "dense":
        k = data.draw(st.integers(1, min(3, width)))
        return DenseGate(random_unitary(2 ** k, seed=data.draw(st.integers(0, 99))))
    k = data.draw(st.integers(1, width))
    if kind == "hadamard":
        return hadamard_layer(k)
    if kind in ("table", "oracle"):
        perm = data.draw(st.permutations(range(2 ** k)))
        if kind == "table":
            return PermutationGate(np.array(perm))
        return OracleGate(np.array(perm),
                          data.draw(st.sampled_from(ORACLE_NAMES)), counter)
    if kind == "involution":
        if 2 * k <= width and data.draw(st.booleans()):
            return register_swap(k)
        flip = data.draw(st.integers(0, 2 ** k - 1))
        return FunctionalPermutation(k, lambda idx: idx ^ flip)
    sub = _draw_circuit(data, k, depth - 1, counter)
    if data.draw(st.booleans()):
        return LazyCircuit(k, lambda: sub)
    return sub


def _draw_circuit(data, width, depth, counter):
    circ = Circuit(RegisterLayout(("q", width)))
    for _ in range(data.draw(st.integers(1, 4))):
        op = _draw_operator(data, width, depth, counter)
        order = data.draw(st.permutations(range(width)))
        free = order[op.width:]
        n_ctrl = data.draw(st.integers(0, min(2, len(free))))
        controls = [(q, data.draw(st.integers(0, 1))) for q in free[:n_ctrl]]
        circ.append(op, qubits=order[:op.width], controls=controls,
                    adjoint=data.draw(st.booleans()))
    return circ


@settings(max_examples=60)
@given(data=st.data())
def test_sparse_extraction_matches_dense_application(data):
    # circuits of dense gates, permutation tables, oracle gates, functional
    # involutions, global phases and nested (lazy) circuits under controls
    # of either polarity and adjoints; a full-width dense gate in the middle
    # spreads every column past the dense switch
    counter = QueryCounter()
    width = data.draw(st.integers(2, 6))
    n_sys = data.draw(st.integers(1, width))
    spread = data.draw(st.booleans())
    circ = Circuit(RegisterLayout(("q", width)))
    circ.append(_draw_circuit(data, width, 2, counter), on=["q"])
    if spread:
        circ.append(DenseGate(random_unitary(2 ** width, seed=width)), on=["q"])
    circ.append(_draw_circuit(data, width, 2, counter), on=["q"])
    dim = 2 ** n_sys

    before = counter.snapshot()
    with mock.patch.object(qstate, "_run", wraps=qstate._run) as dense_path:
        sparse = extract_block(circ, n_sys)
    sparse_hits = _tally_delta(before, counter.snapshot())
    before = counter.snapshot()
    columns = np.eye(2 ** width, dtype=np.complex128)[:, :dim]
    dense = circ.apply_to_array(columns, width)[:dim]
    dense_hits = _tally_delta(before, counter.snapshot())

    assert np.max(np.abs(sparse - dense)) <= 1e-12
    assert sparse_hits == dense_hits
    if spread:
        assert dense_path.called


@settings(max_examples=60)
@given(data=st.data())
def test_counts_follow_composition(data):
    # one part appears twice, once as its adjoint, so the per-count memo
    # is hit; controls, adjoints and lazy parts inside the drawn circuits
    counter = QueryCounter()
    width = data.draw(st.integers(2, 6))
    part = _draw_circuit(data, width, 2, counter)
    circ = Circuit(RegisterLayout(("q", width)))
    circ.append(part, on=["q"])
    circ.append(_draw_circuit(data, width, 2, counter), on=["q"])
    circ.append(part, on=["q"], adjoint=True)
    assert (circ.gate_count(), circ.query_profile()) == flat_counts(circ)


def _tally_delta(before, after):
    return {name: after[name] - before[name] for name in after}


def test_controlled_gate_on_a_real_array_keeps_the_phase():
    u = np.diag([1j, -1j])
    circ = Circuit(RegisterLayout(("c", 1), ("s", 1)))
    circ.append(DenseGate(u), on=["s"], controls=[("c", 0)])
    out = circ.apply_to_array(np.eye(4)[:, :2], 2)
    assert np.array_equal(out[:2], u)


def test_sparse_extraction_stays_sparse_on_permutations():
    # permutations and controlled X gates never spread a column, so the
    # dense path is never reached
    layout = RegisterLayout(("a", 3), ("s", 3))
    circ = Circuit(layout)
    circ.append(PermutationGate(np.roll(np.arange(64), 5)), on=["a", "s"])
    circ.append(x_gate(), on=[("a", 0, 1)], controls=[("s", 2)])
    circ.append(register_swap(3), on=["a", "s"])
    with mock.patch.object(qstate, "_run", wraps=qstate._run) as dense_path:
        blk = extract_block(circ, 3)
    assert not dense_path.called
    dense = circ.apply_to_array(np.eye(64)[:, :8], 6)[:8]
    assert np.array_equal(blk, dense)


@pytest.mark.parametrize("wide", [True, False])
def test_extract_block_caps_refuse_before_allocating(monkeypatch, wide):
    # past either cap nothing is built and nothing is allocated
    def builder():
        raise AssertionError("built past a cap")

    if wide:
        monkeypatch.setenv("HUBSIM_QUBIT_CAP", "20")
        op, n_sys = LazyCircuit(40, builder), 2
    else:
        op, n_sys = LazyCircuit(14, builder), 13
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            extract_block(op, n_sys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_residual_pieces_extract_over_their_support():
    # at N=64 the pieces span 15-16 qubits; a dense pass over 2^16
    # amplitudes per column took over 128 MB, their support needs well
    # under 8 MB
    graph = netgraph.generate(64, 2, 8, 2, rng_seed=3)
    oracles = build_oracle_set(graph)
    parts = netgraph.split(graph)
    pieces = [(sparse_enc.encode_Aminus(oracles), parts.dense_a_minus()),
              (sparse_enc.encode_Ar(oracles), parts.dense_a_r()),
              (sparse_enc.encode_Ah(oracles), parts.dense_a_h())]
    tracemalloc.start()
    try:
        blocks = [extract_block(be.unitary, be.n_sys) for be, _ in pieces]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    for blk, (be, target) in zip(blocks, pieces):
        assert be.unitary.width >= 15
        assert np.max(np.abs(be.alpha * blk - target)) <= 1e-10


def test_spectral_norm_stops_at_a_non_finite_iterate():
    mat = np.ones((64, 64))
    mat[3, 5] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(spectral_norm(mat))
