import dataclasses
import importlib
import itertools
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from conftest import flat_counts, random_graph_params
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hubsim
from hubsim import dyson, netgraph, refcheck
from hubsim.blockenc import EPS_FLOOR, fixed_point_aa
from hubsim.dyson import DysonConfig, LeafBlocks, default_config
from hubsim.errors import (ConfigurationError, EncodingError,
                           GraphStructureError, ParameterError, ResourceError)
from hubsim.ffhub import build_expG, classical_expG_apply
from hubsim.oracles import build_oracle_set
from hubsim.qstate import DenseGate, LazyCircuit, extract_block, spectral_norm


def exact_segment_propagator(graph, tau):
    """Rotated-frame propagator over [0, tau]: e^{+iG tau} e^{-iA tau}."""
    a = graph.dense_adjacency().astype(np.complex128)
    g = graph.dense_link_matrix().astype(np.complex128)
    return refcheck.dense_expm(g, -tau) @ refcheck.dense_expm(a, tau)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        DysonConfig(0.0, 4, 1, 1e-3)
    with pytest.raises(ConfigurationError):
        DysonConfig(0.1, 3, 1, 1e-3)  # not a power of two
    with pytest.raises(ConfigurationError):
        DysonConfig(0.1, 4, -1, 1e-3)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            DysonConfig(bad, 4, 1, 1e-3)
        with pytest.raises(ConfigurationError):
            DysonConfig(1.0 / 16.0, 4, 1, bad)


def test_default_config_schedule(dg8):
    cfg = default_config(dg8, t=1.0, eps=1e-3)
    assert cfg.tau == pytest.approx(1.0 / 16.0)
    assert cfg.eps_segment == pytest.approx(1e-3 * 0.0625)
    assert cfg.big_d >= 2 * (np.sqrt(12) + 8) * cfg.tau / cfg.eps_segment
    assert dyson.truncation_bound(8.0, cfg.tau, cfg.big_k) <= cfg.eps_segment / 2
    # one segment shorter than 1/(2 alpha2) covers a short t with all of eps
    short = default_config(dg8, t=0.01, eps=1e-3)
    assert (short.tau, short.eps_segment) == (0.01, 1e-3)
    assert (short.big_k, short.big_d) == (3, 256)
    for t in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ParameterError):
            default_config(dg8, t, 1e-3)
    for eps in (0.0, -1e-3, float("inf"), float("nan")):
        with pytest.raises(ParameterError):
            default_config(dg8, 1.0, eps)


def test_selectg_d0_identity(dg8):
    sel = dyson.build_selectG(LeafBlocks(dg8), tau=0.5, big_d=4)
    assert spectral_norm(sel.d_block(0) - np.eye(8)) <= 1e-8


def test_selectg_last_grid_point(dg8, dg8_dense):
    sel = dyson.build_selectG(LeafBlocks(dg8), tau=0.5, big_d=4)
    target = refcheck.dense_expm(dg8_dense["G"], (3.0 / 4.0) * 0.5)
    assert spectral_norm(sel.d_block(3) - target) <= 1e-8


def test_selectg_all_grid_points_within_eps(dg8, dg8_dense):
    sel = dyson.build_selectG(LeafBlocks(dg8), tau=0.7, big_d=8)
    for d in range(8):
        target = refcheck.dense_expm(dg8_dense["G"], (d / 8.0) * 0.7)
        assert spectral_norm(sel.d_block(d) - target) <= 1e-10


@pytest.mark.parametrize("log_d", [1, 2, 3])
def test_select_slices_are_the_per_t_evolutions(dg8, log_d):
    # sum_d |d><d| (x) exp(-iG tau d/D) with no ancilla and two O_H
    # queries whatever D is; each d_block is the per-t circuit's block
    big_d = 2 ** log_d
    tau = 0.37 * big_d
    leaves = LeafBlocks(dg8)
    sel = dyson.build_selectG(leaves, tau, big_d)
    assert (sel.m, sel.query_profile()) == (0, {"O_H": 2})
    for d in range(big_d):
        per_t = build_expG(leaves.oracles, tau * d / big_d).block()
        assert np.max(np.abs(sel.d_block(d) - per_t)) <= 1e-13


def test_selectg_requires_power_of_two(dg8):
    with pytest.raises(ConfigurationError):
        dyson.build_selectG(LeafBlocks(dg8), tau=0.5, big_d=6)


def test_selectg_honest_circuit_block_diagonal(dg8):
    # 5-qubit extraction of the whole select (no ancilla): the grid
    # register never mixes, and diagonal blocks match the algebraic path
    sel = dyson.build_selectG(LeafBlocks(dg8), tau=0.5, big_d=4)
    assert (sel.m, sel.unitary.width) == (0, 5)
    circ_block = extract_block(sel.unitary, sel.n_sys)
    alg_block = sel.block()
    assert np.max(np.abs(circ_block - alg_block)) < 1e-13
    dim = 8
    for d1 in range(4):
        for d2 in range(4):
            if d1 != d2:
                sub = circ_block[d1 * dim:(d1 + 1) * dim,
                                 d2 * dim:(d2 + 1) * dim]
                assert np.max(np.abs(sub)) <= 1e-10


def test_full_grid_blocks_are_resource_guarded(dg8):
    # log2(4096) + 3 = 15 system qubits: a (D 2^n)^2 dense block of 16 GiB
    sel = dyson.build_selectG(LeafBlocks(dg8, "classical-ff"), tau=1.0 / 16.0,
                              big_d=4096)
    with pytest.raises(ResourceError) as err:
        sel.block()
    assert err.value.stage == "select_g"
    dr = dyson.build_dressed_H2(LeafBlocks(dg8, "classical-ff"),
                                tau=1.0 / 16.0, big_d=4096)
    with pytest.raises(ResourceError) as err:
        dr.block()
    assert err.value.stage == "dressed_h2"


def test_dressed_d0_is_residual(dg8, dg8_dense):
    dr = dyson.build_dressed_H2(LeafBlocks(dg8), tau=0.5, big_d=4)
    target = (dg8_dense["A"] - dg8_dense["G"]) / dr.alpha
    assert spectral_norm(dr.d_block(0) - target) <= 1e-10


def test_dressed_blocks_match_dense_conjugation(dg8, dg8_dense):
    dr = dyson.build_dressed_H2(LeafBlocks(dg8), tau=0.5, big_d=4)
    residual = dg8_dense["A"] - dg8_dense["G"]
    for d in range(4):
        s = (d / 4.0) * 0.5
        rot = refcheck.dense_expm(dg8_dense["G"], s)
        target = rot.conj().T @ residual @ rot / dr.alpha
        assert spectral_norm(dr.d_block(d) - target) <= 1e-8


def test_dressed_blocks_unitarily_similar(dg8):
    dr = dyson.build_dressed_H2(LeafBlocks(dg8), tau=0.5, big_d=4)
    base = np.sort(np.linalg.eigvalsh(dr.d_block(0)))
    for d in range(1, 4):
        evals = np.sort(np.linalg.eigvalsh(dr.d_block(d)))
        assert np.max(np.abs(evals - base)) < 1e-9


def test_dressed_register_bookkeeping(dg8):
    dr = dyson.build_dressed_H2(LeafBlocks(dg8), tau=0.5, big_d=4)
    assert dr.alpha == 8.0
    assert dr.m == 3 + 6  # the residual's ancillas; the select has none
    # the circuit: select on (d, sys), residual on (h2bank, sys), select^dag
    circ = dr.unitary.materialize()
    assert circ.width == dr.m + dr.n_sys == 14
    assert [s.op.label for s in circ.steps] == ["select_g", "lcu", "select_g"]
    assert [s.adjoint for s in circ.steps] == [False, False, True]
    layout = circ.layout
    d_sys = layout.axes("d") + layout.axes("sys")
    assert [s.qubits for s in circ.steps] == [
        d_sys, layout.axes("h2bank") + layout.axes("sys"), d_sys]


def test_segment_order_zero_is_identity(dg8):
    cfg = DysonConfig(1.0 / 16.0, 4, 0, 2.0)
    seg = dyson.dyson_segment(LeafBlocks(dg8, "classical-ff"), cfg)
    assert spectral_norm(seg.alpha * seg.block() - np.eye(8)) == 0.0


_SMALL_HUB_PARAMS = [p for p in random_graph_params()
                     if p[0] <= 16 and p[1] > 0]
_TOTALS_GRAPHS = [("dg8", "circuit"),
                  pytest.param("dg8", "classical-ff", id="dg8-dense"),
                  (_SMALL_HUB_PARAMS[0], "circuit"),
                  (_SMALL_HUB_PARAMS[-1], "circuit")]


@pytest.mark.parametrize("big_d", [2, 8])
@pytest.mark.parametrize("graph_key,method", _TOTALS_GRAPHS)
def test_series_totals_match_brute_force_ordered_sum(graph_key, method,
                                                     big_d):
    # T_k = sum over d_1 <= ... <= d_k of B(d_k) ... B(d_1), enumerated
    # directly from the dressed residual blocks
    if graph_key == "dg8":
        graph = netgraph.dg8()
    else:
        graph = netgraph.generate(*graph_key, rng_seed=3)
    _, alpha2 = dyson.evolution_scales(graph)
    tau = 1.0 / (2.0 * alpha2)
    dressed = dyson.build_dressed_H2(LeafBlocks(graph, method), tau, big_d)
    b_grid = [dressed.d_block(d) for d in range(big_d)]
    dim = 2 ** graph.n_qubits
    log_d = int(np.log2(big_d))
    # doubling conjugates whole products by one bit evolution, which equals
    # the product of conjugated factors only up to the unitarity defect of
    # the bit evolutions formed from the columns (rounding in both tiers)
    defect = max(spectral_norm(e.conj().T @ e - np.eye(dim))
                 for e in (dressed.evolution.at(tau * 2 ** j / big_d)
                           for j in range(log_d)))
    for big_k in (1, 2, 3):
        seg = dyson.dyson_segment(LeafBlocks(graph, method),
                                  DysonConfig(tau, big_d, big_k, 2.0))
        for k in range(1, big_k + 1):
            brute = np.zeros((dim, dim), dtype=np.complex128)
            for combo in itertools.combinations_with_replacement(
                    range(big_d), k):
                prod = np.eye(dim, dtype=np.complex128)
                for d in combo:
                    prod = b_grid[d] @ prod
                brute += prod
            scale = max(1.0, np.max(np.abs(brute)))
            assert np.max(np.abs(seg.series_totals[k] - brute)) \
                <= (1e-10 + k * log_d * defect) * scale


def test_series_totals_reject_noncommuting_bit_blocks(dg8):
    # the bit evolutions commute, and are unitary, when the exp(-iGt)
    # columns are orthonormal, so the check reads their Gram matrix: dg8's
    # own columns pass, and columns with an overlap <v+|v-> of 1e-6 or a
    # column of norm 1 + 1e-6 are refused
    dressed = dyson.build_dressed_H2(LeafBlocks(dg8, "classical-ff"), 0.5, 8)
    evolution = dressed.evolution
    assert len(dyson._ordered_series_totals(dressed, 2)) == 3
    v_plus, v_minus = evolution.v.T
    tilted = v_minus + 1e-6 * v_plus
    tilted /= np.linalg.norm(tilted)
    for columns in ((v_plus, tilted), ((1.0 + 1e-6) * v_plus, v_minus)):
        dressed.evolution = dataclasses.replace(
            evolution, v=np.stack(columns, axis=1))
        with pytest.raises(EncodingError):
            dyson._ordered_series_totals(dressed, 2)


def test_segment_first_order_hub_free():
    g = netgraph.generate(8, 0, 2, 1, rng_seed=0)
    a = g.dense_adjacency().astype(np.complex128)
    tau = 1.0 / 4.0
    cfg = DysonConfig(tau, 4, 1, 2.0)
    seg = dyson.dyson_segment(LeafBlocks(g, "classical-ff"), cfg)
    expected = np.eye(8) - 1j * tau * a
    assert spectral_norm(seg.alpha * seg.block() - expected) < 1e-12


def test_segment_dg8_against_reference(dg8):
    # frozen from the independent references: at tau=1/16, D=64, K=4 the
    # grid discretization floor sits at 1.4e-4 (first-order in 1/D)
    tau = 1.0 / 16.0
    cfg = DysonConfig(tau, 64, 4, 2.0)
    seg = dyson.dyson_segment(LeafBlocks(dg8), cfg)
    block = seg.alpha * seg.block()
    exact = exact_segment_propagator(dg8, tau)
    err = spectral_norm(block - exact)
    assert err <= 2.0e-4
    ode = refcheck.rotated_propagator(dg8, tau, tol=1e-10)
    assert spectral_norm(block - ode) <= 2.0e-4


def test_segment_truncation_ratio(dg8):
    tau = 1.0 / 16.0
    exact = exact_segment_propagator(dg8, tau)
    cfg = DysonConfig(tau, 16384, 4, 2.0)
    seg = dyson.dyson_segment(LeafBlocks(dg8, "classical-ff"), cfg)
    errs = {big_k: spectral_norm(dyson.segment_block_at_order(seg, big_k)
                                 - exact)
            for big_k in (1, 2, 3, 4)}
    for big_k in (1, 2, 3):
        bound = (np.e * 8.0 * tau) / (big_k + 1) * 1.5
        assert errs[big_k + 1] / errs[big_k] <= bound


def test_segment_block_at_order_rejects_orders_out_of_range(dg8):
    cfg = DysonConfig(1.0 / 16.0, 8, 2, 2.0)
    seg = dyson.dyson_segment(LeafBlocks(dg8, "classical-ff"), cfg)
    assert np.array_equal(dyson.segment_block_at_order(seg, 0), np.eye(8))
    for big_k in (-1, 3):
        with pytest.raises(ParameterError):
            dyson.segment_block_at_order(seg, big_k)


def test_segment_grid_halving(dg8):
    tau = 1.0 / 16.0
    exact = exact_segment_propagator(dg8, tau)
    errs = []
    for big_d in (16, 32, 64, 128):
        cfg = DysonConfig(tau, big_d, 8, 2.0)
        seg = dyson.dyson_segment(LeafBlocks(dg8, "classical-ff"), cfg)
        errs.append(spectral_norm(seg.alpha * seg.block() - exact))
    for prev, nxt in zip(errs, errs[1:]):
        assert nxt <= prev / 2.0 * 1.05


def test_segment_alpha_and_ancillas(dg8):
    cfg = DysonConfig(1.0 / 16.0, 64, 4, 2.0)
    seg = dyson.dyson_segment(LeafBlocks(dg8, "classical-ff"), cfg)
    assert seg.alpha == pytest.approx(sum(0.5 ** k for k in range(5)))
    log_d = 6
    # unary order index (K qubits), K time registers, two flag banks of
    # K - 1 and the residual's ancillas (the time select has none)
    expected_m = 4 + 4 * log_d + 2 * 3 + 9
    assert seg.m == expected_m


def test_segment_config_budget_errors(dg8):
    with pytest.raises(ConfigurationError, match="truncation"):
        dyson.dyson_segment(LeafBlocks(dg8, "classical-ff"),
                            DysonConfig(1.0 / 16.0, 4096, 1, 1e-6))
    with pytest.raises(ConfigurationError, match="grid"):
        dyson.dyson_segment(LeafBlocks(dg8, "classical-ff"),
                            DysonConfig(1.0 / 16.0, 16, 12, 1e-6))
    with pytest.raises(ConfigurationError, match="tau"):
        dyson.dyson_segment(LeafBlocks(dg8, "classical-ff"),
                            DysonConfig(0.5, 64, 4, 1e-3))


def test_segment_tiers_agree(dg8):
    cfg = DysonConfig(1.0 / 16.0, 32, 3, 2.0)
    seg_c = dyson.dyson_segment(LeafBlocks(dg8), cfg)
    seg_d = dyson.dyson_segment(LeafBlocks(dg8, "classical-ff"), cfg)
    assert spectral_norm(seg_c.block() - seg_d.block()) < 1e-6


def test_segment_unitary_is_resource_guarded(dg8):
    # running the segment would allocate 2^width amplitudes per column:
    # extraction refuses it before the circuit is built or anything is
    # allocated
    cfg = DysonConfig(1.0 / 16.0, 64, 4, 2.0)
    seg = dyson.dyson_segment(LeafBlocks(dg8, "classical-ff"), cfg)
    assert seg.unitary.width == seg.m + 3
    refuse = AssertionError("built past the qubit cap")
    with mock.patch.object(LazyCircuit, "materialize", side_effect=refuse):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError) as err:
                extract_block(seg.unitary, seg.n_sys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert err.value.stage == "extract_block"
    assert peak < 2 ** 20


def test_segment_circuit_constructs(dg8):
    # the assembled circuit is never runnable at default widths, but its
    # structural construction must be sound
    cfg = DysonConfig(1.0 / 16.0, 2, 2, 2.0)
    seg = dyson.dyson_segment(LeafBlocks(dg8, "classical-ff"), cfg)
    circ = seg.unitary.materialize()
    assert circ.width == seg.m + 3
    assert len(circ.steps) > 4


def _dilated_dressed(log_d, seed):
    """Stand-in dressed residual on one system qubit and a one-qubit bank:
    a dense unitary whose bank-zero block is sum_d |d><d| (x) B(d), with
    B(d) = E(d)^dag H E(d) for commuting unitaries E(d).  Returns it and
    the grid blocks B(d)."""
    rng = np.random.default_rng(seed)

    def hermitian():
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        return z + z.conj().T

    h = hermitian()
    h /= 1.5 * np.linalg.norm(h, 2)
    gen = hermitian()
    big_d = 2 ** log_d
    grid = [refcheck.dense_expm(gen, 0.3 * d / big_d) for d in range(big_d)]
    b_grid = [e.conj().T @ h @ e for e in grid]
    top = np.zeros((2 * big_d, 2 * big_d), dtype=np.complex128)
    for d, blk in enumerate(b_grid):
        top[2 * d:2 * d + 2, 2 * d:2 * d + 2] = blk
    evals, evecs = np.linalg.eigh(np.eye(2 * big_d) - top @ top)
    root = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    dilation = np.block([[top, root], [root, -top]])
    dressed = SimpleNamespace(m=1, alpha=1.7, unitary=DenseGate(dilation))
    return dressed, b_grid


@pytest.mark.parametrize("log_d", [1, 2])
def test_segment_circuit_block_matches_series(log_d):
    # the assembled circuit, extracted, is the truncated ordered series
    # sum_k (-i tau alpha / D)^k T_k / lambda, with T_k enumerated directly
    dressed, b_grid = _dilated_dressed(log_d, seed=log_d)
    big_d, tau = 2 ** log_d, 0.3
    for big_k in range(5):
        cfg = DysonConfig(tau, big_d, big_k, 1e-3)
        circ = dyson._build_segment_circuit(SimpleNamespace(n_qubits=1), cfg,
                                            dressed)
        series = np.zeros((2, 2), dtype=np.complex128)
        for k in range(big_k + 1):
            for combo in itertools.combinations_with_replacement(
                    range(big_d), k):
                prod = np.eye(2, dtype=np.complex128)
                for d in combo:
                    prod = b_grid[d] @ prod
                series += (-1j * tau * dressed.alpha / big_d) ** k * prod
        lam = sum((tau * dressed.alpha) ** k for k in range(big_k + 1))
        assert np.max(np.abs(extract_block(circ, 1) - series / lam)) <= 1e-12


@pytest.mark.parametrize("big_k", [1, 3, 4])
def test_segment_applies_each_slot_once(dg8, big_k):
    # order k sets the first k qubits of the unary order index, so slot j
    # runs its Hadamard pair, its dressed residual and its order test once
    # each, under the single control kidx[j-1] = 1
    cfg = DysonConfig(1.0 / 16.0, 4, big_k, 2.0)
    seg = dyson.dyson_segment(LeafBlocks(dg8, "classical-ff"), cfg)
    circ = seg.unitary.materialize()
    kidx = circ.layout.axes("kidx")
    assert len(kidx) == big_k
    controls = {}
    for step in circ.steps:
        controls.setdefault(step.op.label, []).append(step.controls)
    slot = [((axis, 1),) for axis in kidx]
    assert controls["dressed_h2"] == slot
    assert controls["H^2"] == slot + slot
    assert controls.get("order_test", []) == slot[1:]
    assert controls.get("bank_flag", []) == [()] * (big_k - 1)


def test_segment_index_maps_are_involutions(dg8):
    # FunctionalPermutation is its own adjoint only for an involution
    cfg = DysonConfig(1.0 / 16.0, 2, 2, 2.0)
    seg = dyson.dyson_segment(LeafBlocks(dg8, "classical-ff"), cfg)
    maps = {s.op.label: s.op for s in seg.unitary.materialize().steps
            if s.op.label in ("bank_flag", "order_test")}
    assert maps["bank_flag"].width == 9 + 1  # residual bank and one flag
    rng = np.random.default_rng(0)
    for op in maps.values():
        idx = rng.integers(0, 2 ** op.width, size=4096, dtype=np.int64)
        assert np.array_equal(op.fn(op.fn(idx)), idx)


@pytest.mark.parametrize("big_k", [0, 1, 3])
def test_segment_width_matches_materialized_circuit(dg8, big_k):
    cfg = DysonConfig(1.0 / 16.0, 4, big_k, 2.0)
    seg = dyson.dyson_segment(LeafBlocks(dg8, "classical-ff"), cfg)
    assert seg.unitary.materialize().width == seg.m + 3


def test_segment_counts_follow_composition(dg8):
    # D=4, K=2 is small enough to walk the flattened primitive stream
    cfg = DysonConfig(1.0 / 16.0, 4, 2, 2.0)
    seg = dyson.dyson_segment(LeafBlocks(dg8, "classical-ff"), cfg)
    amp = fixed_point_aa(seg, 0.5)
    # 2 dressed residuals of 85 gates (two 22-gate selects around the
    # 41-gate residual), 4 Hadamard layers, an order test, a bank flag,
    # 4 prepare gates and 2 phases
    assert seg.gate_count() == 2 * 85 + 12 == 182
    for be in (seg, amp):
        assert (be.gate_count(), be.query_profile()) == flat_counts(be.unitary)


def test_amplified_segment_counts_without_allocating(dg8):
    # dg8's t=1, eps=1e-3 schedule: the amplified segment spans 173
    # qubits; counting builds every description and runs none.  L=27
    # segment applications of K=9 dressed residuals each, every one a
    # residual (10 O_K, 2 O_H) between two time selects (2 O_H each)
    cfg = default_config(dg8, 1.0, 1e-3)
    amp = fixed_point_aa(dyson.dyson_segment(LeafBlocks(dg8), cfg), 6.25e-6)
    tracemalloc.start()
    try:
        profile = amp.query_profile()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20
    assert (amp.unitary.width, amp.aa_degree) == (173, 27)
    # per segment application 9 G + 61 with G = 2 * 48 + 41, plus 79 for
    # the phase sequence
    assert amp.gate_count() == 27 * (9 * 137 + 61) + 79 == 35017
    assert profile == {"O_K": 243 * 10, "O_H": 243 * (2 + 2 * 2),
                       "O_A": 243 * 6, "O_L": 243 * 2, "O_Z": 243 * 2}
    assert profile["O_K"] == 2430


def test_segment_amplification(dg8):
    tau = 1.0 / 16.0
    cfg = DysonConfig(tau, 256, 6, 2.0)
    seg = dyson.dyson_segment(LeafBlocks(dg8, "classical-ff"), cfg)
    amp = fixed_point_aa(seg, 1e-6)
    exact = exact_segment_propagator(dg8, tau)
    assert spectral_norm(amp.block() - exact) < 5e-5
    assert amp.alpha == 1.0


def test_simulate_t0(dg8):
    psi0 = np.zeros(8, dtype=np.complex128)
    psi0[0] = 1.0
    out, report = dyson.simulate_full(dg8, 0.0, 1e-3, psi0)
    assert np.array_equal(out, psi0)
    assert report.segments == 0


def test_simulate_dg8_both_methods(dg8, dg8_dense):
    psi0 = np.zeros(8, dtype=np.complex128)
    psi0[0] = 1.0
    ref = refcheck.dense_expm(dg8_dense["A"], 1.0) @ psi0
    outs = {}
    for method in ("circuit", "classical-ff"):
        out, report = dyson.simulate_full(dg8, 1.0, 1e-3, psi0, method=method)
        assert refcheck.distance(out, ref) <= 1e-3
        assert abs(np.linalg.norm(out) - 1.0) <= 2e-3
        assert report.segments == 16
        outs[method] = out
    assert np.linalg.norm(outs["circuit"] - outs["classical-ff"]) < 1e-5


def test_simulate_fractional_time(dg8, dg8_dense):
    psi0 = np.full(8, 1.0 / np.sqrt(8.0), dtype=np.complex128)
    out, report = dyson.simulate_full(dg8, 0.7, 1e-3, psi0,
                                      method="classical-ff")
    ref = refcheck.dense_expm(dg8_dense["A"], 0.7) @ psi0
    assert refcheck.distance(out, ref) <= 1e-3
    assert report.segments == 12  # 11 full slices plus the remainder


def test_simulate_hub_free():
    g = netgraph.generate(8, 0, 2, 1, rng_seed=0)
    a = g.dense_adjacency().astype(np.complex128)
    psi0 = np.zeros(8, dtype=np.complex128)
    psi0[0] = 1.0
    out, report = dyson.simulate_full(g, 1.0, 1e-3, psi0,
                                      method="classical-ff")
    ref = refcheck.dense_expm(a, 1.0) @ psi0
    assert refcheck.distance(out, ref) <= 1e-3


def test_simulate_input_validation(dg8):
    good = np.zeros(8, dtype=np.complex128)
    good[0] = 1.0
    with pytest.raises(ParameterError):
        dyson.simulate_full(dg8, 1.0, 1e-3, good * 2.0)
    with pytest.raises(ParameterError):
        dyson.simulate_full(dg8, -1.0, 1e-3, good)
    with pytest.raises(ParameterError):
        dyson.simulate_full(dg8, 1.0, 1e-3, np.zeros(4))
    with pytest.raises(ParameterError):
        dyson.simulate_full(dg8, 1.0, 1e-3, good, method="bogus")
    for eps in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            dyson.simulate_full(dg8, 1.0, eps, good)
    for t in (float("inf"), float("nan")):
        with pytest.raises(ParameterError):
            dyson.simulate_full(dg8, t, 1e-3, good)
    # a NaN amplitude makes the norm NaN, which no tolerance test passes
    nan_state = good.copy()
    nan_state[1] = np.nan
    for method, t in itertools.product(("circuit", "classical-ff"),
                                       (0.0, 0.1)):
        with pytest.raises(ParameterError):
            dyson.simulate_full(dg8, t, 1e-2, nan_state, method=method)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["circuit", "classical-ff"])
@pytest.mark.parametrize("eps", [1e-11, 1e-16])
def test_simulate_refuses_eps_below_the_floor_before_building(
        dg8, monkeypatch, method, eps):
    # at t=1 the amplification gets eps/16/10, below EPS_FLOOR for both;
    # at 1e-16 the series totals (K=21, D=2^58) would overflow first
    def refuse(*args, **kwargs):
        raise AssertionError("segment built for an unreachable eps")

    monkeypatch.setattr(dyson, "dyson_segment", refuse)
    psi0 = np.zeros(8, dtype=np.complex128)
    psi0[0] = 1.0
    assert default_config(dg8, 1.0, eps).eps_segment / 10.0 < EPS_FLOOR
    with pytest.raises(ParameterError, match=f"eps={eps}:"):
        dyson.simulate_full(dg8, 1.0, eps, psi0, method=method)


@pytest.mark.parametrize("method", ["circuit", "classical-ff"])
@pytest.mark.parametrize("fraction", [1.0 / 3.0, 1.0, 2.5])
def test_report_describes_the_first_segment_built(dg8, monkeypatch, method,
                                                  fraction):
    # K, D and tau in the report are those of the first segment the solve
    # assembled, also when t is shorter than one scheduled segment
    configs = []
    original = dyson.dyson_segment

    def recording(leaves, config):
        configs.append(config)
        return original(leaves, config)

    monkeypatch.setattr(dyson, "dyson_segment", recording)
    psi0 = np.zeros(8, dtype=np.complex128)
    psi0[0] = 1.0
    t = fraction / 16.0
    _, report = dyson.simulate_full(dg8, t, 1e-2, psi0, method=method)
    first = configs[0]
    assert (report.big_k, report.big_d, report.tau) == \
        (first.big_k, first.big_d, first.tau)


def test_simulate_builds_each_exp_g_once(dg8, monkeypatch):
    # every exp(-iGt) of a solve (bit evolutions, grid points, rotations of
    # the full pieces and the fractional one) is read off one evolution,
    # the two eigenvector preparations run once each on |0>: no
    # build_expG call and two O_H queries, and none of either without hubs.
    # The tallies still count every rank-two circuit the algorithm runs.
    def refuse(*args, **kwargs):
        raise AssertionError("build_expG called by a solve")

    monkeypatch.setattr(dyson, "build_expG", refuse)
    oracles = build_oracle_set(dg8)
    leaves = LeafBlocks(dg8, "circuit", oracles)
    leaves.evolution
    assert {k: v for k, v in oracles.counter.snapshot().items() if v} \
        == {"O_H": 2}
    psi0 = np.zeros(8, dtype=np.complex128)
    psi0[0] = 1.0
    _, report = dyson.simulate_full(dg8, 1.3, 1e-2, psi0, method="circuit")
    assert report.queries == {"O_H": 22920, "O_A": 22878, "O_K": 38130,
                              "O_L": 7626, "O_Z": 7626}
    hub_free = build_oracle_set(netgraph.generate(8, 0, 2, 1, 0))
    LeafBlocks(hub_free.graph, "circuit", hub_free).evolution
    assert not any(hub_free.counter.snapshot().values())
    dyson.simulate_full(hub_free.graph, 1.3, 1e-2, psi0, method="circuit")


@pytest.mark.parametrize("method", ["circuit", "classical-ff"])
def test_hub_free_triple_is_the_identity(monkeypatch, method):
    # lambda = 0: the evolution has no columns, with no exp(-iGt) built
    # or applied and no division by lambda, and the solve still reaches
    # the exact evolution
    def refuse(*args, **kwargs):
        raise AssertionError("exp(-iGt) built on a hub-free graph")

    monkeypatch.setattr(dyson, "build_expG", refuse)
    monkeypatch.setattr(dyson, "classical_expG_apply", refuse)
    g = netgraph.generate(8, 0, 2, 1, 0)
    evolution = LeafBlocks(g, method).evolution
    assert evolution.lam == 0.0
    assert evolution.v.shape == (8, 0)
    for t in (0.0, 0.3, 100.0):
        assert np.array_equal(evolution.at(t), np.eye(8))
    psi0 = np.full(8, 1.0 / np.sqrt(8.0), dtype=np.complex128)
    psi, _ = dyson.simulate_full(g, 1.0, 1e-2, psi0, method=method)
    ref = refcheck.dense_expm(g.dense_adjacency(), 1.0) @ psi0
    assert refcheck.distance(psi, ref) <= 1e-2


@pytest.mark.parametrize("method", ["circuit", "classical-ff"])
def test_exp_g_block_at_t0_is_the_identity(dg8, method):
    block = LeafBlocks(dg8, method).evolution.at(0.0)
    assert np.max(np.abs(block - np.eye(8))) <= 1e-15


_TRIPLE_PARAMS = [p for p in random_graph_params() if p[0] <= 32] \
    + [(16, 1, 4, 1), (8, 4, 4, 4), (32, 4, 8, 4), (32, 1, 8, 4)]


@settings(max_examples=25)
@given(params=st.sampled_from(_TRIPLE_PARAMS), seed=st.integers(0, 2 ** 16),
       t=st.floats(0.0, 100.0),
       method=st.sampled_from(["circuit", "classical-ff"]))
@example(params=(32, 2, 8, 4), seed=3, t=100.0, method="circuit")
@example(params=(32, 4, 8, 4), seed=1, t=100.0, method="classical-ff")
@example(params=(16, 1, 4, 1), seed=5, t=0.0, method="circuit")
@example(params=(16, 1, 4, 1), seed=5, t=2.5, method="classical-ff")
@example(params=(8, 4, 4, 4), seed=1, t=2.5, method="circuit")
@example(params=(8, 4, 4, 4), seed=1, t=0.0, method="classical-ff")
@example(params=(8, 0, 2, 1), seed=0, t=1.7, method="circuit")
@example(params=(8, 0, 2, 1), seed=0, t=0.0, method="classical-ff")
def test_triple_forms_every_exp_g_block(params, seed, t, method):
    # the block formed from the two eigenvector columns is the block of the
    # exp(-iGt) circuit at t, and the exact evolution: M=1 (no Hadamard
    # layer), M=N/2 (one upper qubit), hub-free and t=0 in both tiers;
    # classical_expG_apply on a batch of unit columns matches it too
    graph = netgraph.generate(*params, rng_seed=seed)
    leaves = LeafBlocks(graph, method)
    block = leaves.evolution.at(t)
    direct = build_expG(leaves.oracles, t).block()
    dense = refcheck.dense_expm(
        graph.dense_link_matrix().astype(np.complex128), t)
    assert np.max(np.abs(block - direct)) <= 1e-12
    assert np.max(np.abs(block - dense)) <= 1e-12
    rng = np.random.default_rng(seed)
    columns = rng.normal(size=(graph.n_nodes, 3, 2)) @ [1.0, 1j]
    columns /= np.linalg.norm(columns, axis=0)
    applied = classical_expG_apply(graph, t, columns)
    assert np.max(np.abs(applied - dense @ columns)) <= 1e-12


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("method", ["circuit", "classical-ff"])
@pytest.mark.parametrize("hubs", [2, 0])
def test_exp_g_rejects_non_finite_t(method, hubs, t):
    graph = netgraph.generate(8, hubs, 2, 1, rng_seed=0)
    evolution = LeafBlocks(graph, method).evolution
    with pytest.raises(ParameterError):
        evolution.at(t)
    with pytest.raises(ParameterError):
        evolution.apply(t, np.eye(8))
    with pytest.raises(ParameterError):
        classical_expG_apply(graph, t, np.eye(8))


def test_simulate_builds_leaf_encodings_once_per_solve(dg8, monkeypatch):
    # t=1.3 runs a full piece and a fractional one; both draw on the one
    # leaf source of the solve, so the residual is built once
    counts = {"encode_H2": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(dyson, "encode_H2")
    psi0 = np.zeros(8, dtype=np.complex128)
    psi0[0] = 1.0
    dyson.simulate_full(dg8, 1.3, 1e-2, psi0, method="circuit")
    assert counts == {"encode_H2": 1}


def test_leaf_blocks_take_the_simulate_tier_names(dg8):
    assert LeafBlocks(dg8).method == "circuit"
    assert LeafBlocks(dg8, "classical-ff").method == "classical-ff"
    with pytest.raises(ParameterError):
        LeafBlocks(dg8, "dense")


def test_leaf_blocks_reject_an_invalid_graph():
    edges = {(u, v) for u in range(8) for v in range(u + 1, 8)}
    g = netgraph._from_edges(8, [], edges, 0, 1, 2)
    with pytest.raises(GraphStructureError):
        LeafBlocks(g)
    psi0 = np.zeros(8, dtype=np.complex128)
    psi0[0] = 1.0
    with pytest.raises(GraphStructureError):
        dyson.simulate_full(g, 0.0, 1e-2, psi0)


@pytest.mark.parametrize("method", ["circuit", "classical-ff"])
def test_leaf_blocks_refuse_graphs_past_the_dense_cap(monkeypatch, method):
    # 8192 nodes = 13 qubits: the guard fires before the oracle tables
    # (circuit) or the N x N identity (classical-ff) are built
    def refuse(*args, **kwargs):
        raise AssertionError("built past the dense-block cap")

    monkeypatch.setattr(dyson, "build_oracle_set", refuse)
    monkeypatch.setattr(dyson, "classical_expG_apply", refuse)
    g = netgraph._from_edges(8192, [], set(), 0, 1, 2)
    with pytest.raises(ResourceError) as err:
        LeafBlocks(g, method)
    assert err.value.stage == "leaf_blocks"
    psi0 = np.zeros(8192, dtype=np.complex128)
    psi0[0] = 1.0
    with pytest.raises(ResourceError):
        dyson.simulate_full(g, 0.5, 1e-2, psi0, method=method)


def test_leaf_blocks_reject_a_foreign_oracle_set():
    g1 = netgraph.generate(16, 2, 4, 2, rng_seed=1)
    foreign = build_oracle_set(netgraph.generate(16, 2, 4, 2, rng_seed=2))
    with pytest.raises(ParameterError):
        LeafBlocks(g1, "circuit", foreign)
    psi0 = np.zeros(16, dtype=np.complex128)
    psi0[0] = 1.0
    for method in ("circuit", "classical-ff"):
        with pytest.raises(ParameterError):
            dyson.simulate_full(g1, 0.5, 1e-2, psi0, method=method,
                                oracle_set=foreign)
    # an oracle set of an equal graph is accepted
    same = build_oracle_set(netgraph.generate(16, 2, 4, 2, rng_seed=1))
    assert LeafBlocks(g1, "circuit", same).oracles is same


@pytest.mark.parametrize(
    "params", [p for p in random_graph_params() if p[0] <= 16])
@settings(max_examples=3)
@given(seed=st.integers(0, 2 ** 16), t=st.floats(0.01, 1.5))
def test_tiers_agree_across_generated_graphs(params, seed, t):
    # the parameter list covers M=0, M=1 and h=1; both tiers reach the
    # exact evolution at t=0 and at t, report the same schedule and
    # tallies, and book the same residual encoding (alpha2, ancillas)
    g = netgraph.generate(*params, rng_seed=seed)
    eps = 1e-2
    dim = 2 ** g.n_qubits
    psi0 = np.random.default_rng(seed).normal(size=dim).astype(np.complex128)
    psi0 /= np.linalg.norm(psi0)
    a = g.dense_adjacency().astype(np.complex128)
    for t_val in (0.0, t):
        ref = refcheck.dense_expm(a, t_val) @ psi0
        docs = {}
        for method in ("circuit", "classical-ff"):
            psi, report = dyson.simulate_full(g, t_val, eps, psi0,
                                              method=method)
            assert refcheck.distance(psi, ref) <= eps
            docs[method] = report.as_dict()
            del docs[method]["method"], docs[method]["norm_deficit"]
        assert docs["circuit"] == docs["classical-ff"]
    assert LeafBlocks(g).h2_block()[1:] \
        == LeafBlocks(g, "classical-ff").h2_block()[1:]


@pytest.mark.parametrize("graph_key,t,eps", [
    pytest.param("dg8", 1.3, 1e-2, id="dg8"),
    pytest.param((32, 2, 8, 2, 3), 1.0, 0.1, id="n32"),
    pytest.param((16, 1, 4, 1, 5), 1.0, 1e-2, id="one-hub"),
    pytest.param((64, 2, 8, 2, 3), 1.0, 0.1, id="n64"),
])
def test_circuit_tier_psi_equals_classical_ff(graph_key, t, eps):
    # every circuit-tier leaf block comes from an exact circuit, so the two
    # tiers evolve the same blocks and agree to rounding
    graph = (netgraph.dg8() if graph_key == "dg8"
             else netgraph.generate(*graph_key))
    dim = 2 ** graph.n_qubits
    rng = np.random.default_rng(11)
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi0 /= np.linalg.norm(psi0)
    psi_c, _ = dyson.simulate_full(graph, t, eps, psi0, method="circuit")
    psi_d, _ = dyson.simulate_full(graph, t, eps, psi0, method="classical-ff")
    assert np.max(np.abs(psi_c - psi_d)) <= 1e-12


def test_layer_tracer_finds_its_entry_points(dg8, monkeypatch):
    # perfbench/layertrace.py rebinds these names in the modules that look
    # them up; renaming one must fail here, not in a traced benchmark run
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "perfbench"))
    layertrace = importlib.import_module("layertrace")
    psi0 = np.zeros(8, dtype=np.complex128)
    psi0[0] = 1.0
    tracer = layertrace.Tracer()
    with tracer.installed(hubsim):
        tracer.solve = 0
        hubsim.simulate_full(dg8, 0.1, 1e-2, psi0, method="circuit")
    traced = {span.func for span in tracer.spans}
    assert {"dyson.simulate_full", "dyson.dyson_segment",
            "dyson.build_selectG", "sparse_enc.encode_H2"} <= traced


def test_export_list_resolves():
    assert len(set(hubsim.__all__)) == len(hubsim.__all__)
    assert [name for name in hubsim.__all__ if not hasattr(hubsim, name)] == []


def test_simulate_report_contents(dg8):
    psi0 = np.zeros(8, dtype=np.complex128)
    psi0[0] = 1.0
    _, report = dyson.simulate_full(dg8, 0.5, 1e-2, psi0,
                                    method="classical-ff")
    doc = report.as_dict()
    for key in ("t", "eps", "segments", "K", "D", "queries",
                "norm_deficit"):
        assert key in doc
    # the rotation and the time select are exact and claim no budget
    assert set(doc["budget"]) == {"segment_series", "segment_amplification"}
    assert not [key for key in doc if key.startswith("expG_")]
    assert set(doc["queries"]) == {"O_A", "O_H", "O_K", "O_L", "O_Z"}
    from hubsim.jsonio import dump_json
    assert dump_json(doc)  # serializable


def _built_queries(graph, t, eps, method, monkeypatch):
    """(report, queries of the circuits the solve built): per piece, its
    segment count times the profile of the amplified segment plus the
    rotation encoding of the piece's length."""
    amplified = []
    amplify = dyson.fixed_point_aa

    def recording(be, eps_aa):
        amplified.append((be, amplify(be, eps_aa)))
        return amplified[-1][1]

    monkeypatch.setattr(dyson, "fixed_point_aa", recording)
    psi0 = np.zeros(2 ** graph.n_qubits, dtype=np.complex128)
    psi0[0] = 1.0
    _, report = dyson.simulate_full(graph, t, eps, psi0, method=method)
    # the full pieces come first, and a fractional piece runs once
    fractional = len(amplified) - 1
    counts = [report.segments - fractional] + [1] * fractional
    oracles = LeafBlocks(graph, method).oracles
    total = Counter()
    for (seg, amp), count in zip(amplified, counts):
        rotation = build_expG(oracles, seg.config.tau)
        for profile in (amp.query_profile(), rotation.query_profile()):
            total.update({key: count * val for key, val in profile.items()})
    return report, dict(total)


@pytest.mark.parametrize("method", ["circuit", "classical-ff"])
@pytest.mark.parametrize("graph_key,t,eps", [
    pytest.param("dg8", 1.3, 1e-2, id="dg8-fractional"),
    pytest.param("dg8", 0.01, 1e-3, id="dg8-short"),
    pytest.param((16, 1, 4, 1, 5), 1.0, 1e-2, id="one-hub"),
    pytest.param((8, 0, 2, 1, 0), 1.0, 1e-2, id="hub-free"),
])
def test_report_queries_equal_built_circuits(graph_key, t, eps, method,
                                             monkeypatch):
    graph = (netgraph.dg8() if graph_key == "dg8"
             else netgraph.generate(*graph_key))
    report, built = _built_queries(graph, t, eps, method, monkeypatch)
    assert report.queries == built
    # each dressed residual queries O_L twice and O_H twice itself, and
    # applies two time selects; each segment applies one rotation; every
    # rank-two circuit queries O_H twice
    if graph.m_hubs:
        n_h2 = report.queries["O_L"] // 2
        assert report.queries["O_H"] == 6 * n_h2 + 2 * report.segments


def test_dg8_segment_counts_are_pinned(dg8):
    # the assembled dg8 segment at t=1.3, eps=1e-2 (K=8, D=4096): its
    # rank-two, residual and flag circuits keep their gates and queries
    # whatever primitive the engine remaps or multiplies
    leaves = LeafBlocks(dg8)
    seg = dyson.dyson_segment(leaves, default_config(dg8, 1.3, 1e-2))
    assert seg.gate_count() == 1054
    assert seg.query_profile() == {"O_H": 48, "O_Z": 16, "O_A": 48,
                                   "O_K": 80, "O_L": 16}


def test_structural_profile_matches_enumeration(dg8):
    # the arithmetic oracle tallies in the run report are grounded in the
    # actual circuit profiles: one rotation, one time select and one
    # residual, with and without hubs
    from hubsim.dyson import _structural_oracle_profile
    for graph in (dg8, netgraph.generate(8, 0, 2, 1, 0)):
        leaves = LeafBlocks(graph)
        parts = (build_expG(leaves.oracles, 0.25),
                 dyson.build_selectG(leaves, 0.25, 8),
                 leaves.h2_encoding())
        combined = Counter()
        for be in parts:
            combined.update(be.query_profile())
        assert _structural_oracle_profile(graph, 2, 1) == dict(combined)
