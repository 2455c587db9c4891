import importlib
import itertools
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import flat_counts, random_graph_params
from hypothesis import given, settings
from hypothesis import strategies as st

import hubsim
from hubsim import dyson, netgraph, refcheck
from hubsim.blockenc import fixed_point_aa
from hubsim.dyson import DysonConfig, LeafBlocks, default_config
from hubsim.errors import (ConfigurationError, EncodingError,
                           GraphStructureError, ParameterError, ResourceError)
from hubsim.qstate import LazyCircuit, extract_block, spectral_norm


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
    sel = dyson.build_selectG(LeafBlocks(dg8), tau=0.5, big_d=4, eps=1e-8)
    assert spectral_norm(sel.d_block(0) - np.eye(8)) <= 1e-8


def test_selectg_last_grid_point(dg8, dg8_dense):
    sel = dyson.build_selectG(LeafBlocks(dg8), tau=0.5, big_d=4, eps=1e-8)
    target = refcheck.dense_expm(dg8_dense["G"], (3.0 / 4.0) * 0.5)
    assert spectral_norm(sel.d_block(3) - target) <= 1e-8


def test_selectg_all_grid_points_within_eps(dg8, dg8_dense):
    eps = 1e-10
    sel = dyson.build_selectG(LeafBlocks(dg8), tau=0.7, big_d=8, eps=eps)
    for d in range(8):
        target = refcheck.dense_expm(dg8_dense["G"], (d / 8.0) * 0.7)
        assert spectral_norm(sel.d_block(d) - target) <= eps


def test_selectg_requires_power_of_two(dg8):
    with pytest.raises(ConfigurationError):
        dyson.build_selectG(LeafBlocks(dg8), tau=0.5, big_d=6, eps=1e-6)


def test_selectg_honest_circuit_block_diagonal(dg8):
    # 13-qubit extraction of the full cascade: the grid register never
    # mixes, and diagonal blocks match the algebraic path
    sel = dyson.build_selectG(LeafBlocks(dg8), tau=0.5, big_d=4, eps=1e-2)
    circ_block = extract_block(sel.unitary, sel.n_sys)
    alg_block = sel.block()
    assert np.max(np.abs(circ_block - alg_block)) < 1e-6
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
                              big_d=4096, eps=1e-2)
    with pytest.raises(ResourceError) as err:
        sel.block()
    assert err.value.stage == "select_g"
    dr = dyson.build_dressed_H2(LeafBlocks(dg8, "classical-ff"),
                                tau=1.0 / 16.0, big_d=4096, eps=1e-2)
    with pytest.raises(ResourceError) as err:
        dr.block()
    assert err.value.stage == "dressed_h2"


def test_dressed_d0_is_residual(dg8, dg8_dense):
    dr = dyson.build_dressed_H2(LeafBlocks(dg8), tau=0.5, big_d=4, eps=1e-8)
    target = (dg8_dense["A"] - dg8_dense["G"]) / dr.alpha
    assert spectral_norm(dr.d_block(0) - target) <= 1e-10


def test_dressed_blocks_match_dense_conjugation(dg8, dg8_dense):
    eps = 1e-8
    dr = dyson.build_dressed_H2(LeafBlocks(dg8), tau=0.5, big_d=4, eps=eps)
    residual = dg8_dense["A"] - dg8_dense["G"]
    for d in range(4):
        s = (d / 4.0) * 0.5
        rot = refcheck.dense_expm(dg8_dense["G"], s)
        target = rot.conj().T @ residual @ rot / dr.alpha
        assert spectral_norm(dr.d_block(d) - target) <= eps


def test_dressed_blocks_unitarily_similar(dg8):
    dr = dyson.build_dressed_H2(LeafBlocks(dg8), tau=0.5, big_d=4, eps=1e-9)
    base = np.sort(np.linalg.eigvalsh(dr.d_block(0)))
    for d in range(1, 4):
        evals = np.sort(np.linalg.eigvalsh(dr.d_block(d)))
        assert np.max(np.abs(evals - base)) < 1e-9


def test_dressed_register_bookkeeping(dg8):
    dr = dyson.build_dressed_H2(LeafBlocks(dg8), tau=0.5, big_d=4, eps=1e-6)
    assert dr.alpha == 8.0
    assert dr.m == 16 + (3 + 6)  # two cascade banks + residual ancillas
    # the circuit: cascade on cga, residual on h2bank, cascade^dag on cgb
    circ = dr.unitary.materialize()
    assert circ.width == dr.m + dr.n_sys == 30
    assert [s.op.label for s in circ.steps] == ["select_g", "lcu", "select_g"]
    assert [s.adjoint for s in circ.steps] == [False, False, True]
    for step, bank in zip(circ.steps, ("cga", "h2bank", "cgb")):
        axes = circ.layout.axes(bank)
        assert step.qubits[:len(axes)] == axes


def test_segment_order_zero_is_identity(dg8):
    cfg = DysonConfig(1.0 / 16.0, 4, 0, 1e-3)
    seg = dyson.dyson_segment(LeafBlocks(dg8, "classical-ff"), cfg,
                              check_budget=False)
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
    eps = 1e-3
    # same per-unitary budget as the segment's own select cascade
    dressed = dyson.build_dressed_H2(LeafBlocks(graph, method), tau, big_d,
                                     eps * 2.5 / 4.0)
    b_grid = [dressed.d_block(d) for d in range(big_d)]
    dim = 2 ** graph.n_qubits
    # doubling conjugates whole products by one bit evolution, which equals
    # the product of conjugated factors only up to the unitarity defect of
    # the extracted blocks (about 1e-10 in the circuit tier, 0 when dense)
    defect = max(spectral_norm(e.conj().T @ e - np.eye(dim))
                 for e in dressed.bit_blocks)
    log_d = int(np.log2(big_d))
    for big_k in (1, 2, 3):
        seg = dyson.dyson_segment(LeafBlocks(graph, method),
                                  DysonConfig(tau, big_d, big_k, eps),
                                  check_budget=False)
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


def test_series_totals_reject_noncommuting_bit_blocks():
    rng = np.random.default_rng(5)

    def random_unitary(dim):
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, r = np.linalg.qr(z)
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    h2 = np.diag(np.linspace(-1.0, 1.0, 8)).astype(np.complex128)
    diagonal = [np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 8)))
                for _ in range(3)]
    assert len(dyson._ordered_series_totals(diagonal, h2, 2)) == 3
    blocks = [random_unitary(8) for _ in range(3)]
    with pytest.raises(EncodingError):
        dyson._ordered_series_totals(blocks, h2, 2)


def test_segment_first_order_hub_free():
    g = netgraph.generate(8, 0, 2, 1, rng_seed=0)
    a = g.dense_adjacency().astype(np.complex128)
    tau = 1.0 / 4.0
    cfg = DysonConfig(tau, 4, 1, 1e-3)
    seg = dyson.dyson_segment(LeafBlocks(g, "classical-ff"), cfg,
                              check_budget=False)
    expected = np.eye(8) - 1j * tau * a
    assert spectral_norm(seg.alpha * seg.block() - expected) < 1e-12


def test_segment_dg8_against_reference(dg8):
    # frozen from the independent references: at tau=1/16, D=64, K=4 the
    # grid discretization floor sits at 1.4e-4 (first-order in 1/D)
    tau = 1.0 / 16.0
    cfg = DysonConfig(tau, 64, 4, 1e-3)
    seg = dyson.dyson_segment(LeafBlocks(dg8), cfg, check_budget=False)
    block = seg.alpha * seg.block()
    exact = exact_segment_propagator(dg8, tau)
    err = spectral_norm(block - exact)
    assert err <= 2.0e-4
    ode = refcheck.rotated_propagator(dg8, tau, tol=1e-10)
    assert spectral_norm(block - ode) <= 2.0e-4


def test_segment_truncation_ratio(dg8):
    tau = 1.0 / 16.0
    exact = exact_segment_propagator(dg8, tau)
    cfg = DysonConfig(tau, 16384, 4, 1e-3)
    seg = dyson.dyson_segment(LeafBlocks(dg8, "classical-ff"), cfg,
                              check_budget=False)
    errs = {big_k: spectral_norm(dyson.segment_block_at_order(seg, big_k)
                                 - exact)
            for big_k in (1, 2, 3, 4)}
    for big_k in (1, 2, 3):
        bound = (np.e * 8.0 * tau) / (big_k + 1) * 1.5
        assert errs[big_k + 1] / errs[big_k] <= bound


def test_segment_grid_halving(dg8):
    tau = 1.0 / 16.0
    exact = exact_segment_propagator(dg8, tau)
    errs = []
    for big_d in (16, 32, 64, 128):
        cfg = DysonConfig(tau, big_d, 8, 1e-3)
        seg = dyson.dyson_segment(LeafBlocks(dg8, "classical-ff"), cfg,
                                  check_budget=False)
        errs.append(spectral_norm(seg.alpha * seg.block() - exact))
    for prev, nxt in zip(errs, errs[1:]):
        assert nxt <= prev / 2.0 * 1.05


def test_segment_alpha_and_ancillas(dg8):
    cfg = DysonConfig(1.0 / 16.0, 64, 4, 1e-3)
    seg = dyson.dyson_segment(LeafBlocks(dg8, "classical-ff"), cfg,
                              check_budget=False)
    assert seg.alpha == pytest.approx(sum(0.5 ** k for k in range(5)))
    log_d = 6
    expected_m = 3 + 4 * log_d + 2 * 3 + 16 + 9
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
                            DysonConfig(0.5, 64, 4, 1e-3), check_budget=False)


def test_segment_tiers_agree(dg8):
    cfg = DysonConfig(1.0 / 16.0, 32, 3, 1e-3)
    seg_c = dyson.dyson_segment(LeafBlocks(dg8), cfg, check_budget=False)
    seg_d = dyson.dyson_segment(LeafBlocks(dg8, "classical-ff"), cfg,
                                check_budget=False)
    assert spectral_norm(seg_c.block() - seg_d.block()) < 1e-6


def test_segment_unitary_is_resource_guarded(dg8):
    # running the segment would allocate 2^width amplitudes per column:
    # extraction refuses it before the circuit is built or anything is
    # allocated
    cfg = DysonConfig(1.0 / 16.0, 64, 4, 1e-3)
    seg = dyson.dyson_segment(LeafBlocks(dg8, "classical-ff"), cfg,
                              check_budget=False)
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
    cfg = DysonConfig(1.0 / 16.0, 2, 2, 1e-1)
    seg = dyson.dyson_segment(LeafBlocks(dg8, "classical-ff"), cfg,
                              check_budget=False)
    circ = seg.unitary.materialize()
    assert circ.width == seg.m + 3
    assert len(circ.steps) > 4


def test_segment_index_maps_are_involutions(dg8):
    # FunctionalPermutation is its own adjoint only for an involution
    cfg = DysonConfig(1.0 / 16.0, 2, 2, 1e-1)
    seg = dyson.dyson_segment(LeafBlocks(dg8, "classical-ff"), cfg,
                              check_budget=False)
    maps = {s.op.label: s.op for s in seg.unitary.materialize().steps
            if s.op.label in ("bank_flag", "order_test")}
    assert maps["bank_flag"].width == 26
    rng = np.random.default_rng(0)
    for op in maps.values():
        idx = rng.integers(0, 2 ** op.width, size=4096, dtype=np.int64)
        assert np.array_equal(op.fn(op.fn(idx)), idx)


@pytest.mark.parametrize("big_k", [0, 1, 3])
def test_segment_width_matches_materialized_circuit(dg8, big_k):
    cfg = DysonConfig(1.0 / 16.0, 4, big_k, 1e-1)
    seg = dyson.dyson_segment(LeafBlocks(dg8, "classical-ff"), cfg,
                              check_budget=False)
    assert seg.unitary.materialize().width == seg.m + 3


def test_segment_counts_follow_composition(dg8):
    # D=4, K=2 is small enough to walk the flattened primitive stream
    cfg = DysonConfig(1.0 / 16.0, 4, 2, 1e-1)
    seg = dyson.dyson_segment(LeafBlocks(dg8, "classical-ff"), cfg,
                              check_budget=False)
    amp = fixed_point_aa(seg, 0.5)
    assert seg.gate_count() == 31069
    for be in (seg, amp):
        assert (be.gate_count(), be.query_profile()) == flat_counts(be.unitary)


def test_amplified_segment_counts_without_allocating(dg8):
    # dg8's t=1, eps=1e-3 schedule: the amplified segment spans 184
    # qubits and runs 2.5e8 primitives; counting builds every description
    # and runs none
    cfg = default_config(dg8, 1.0, 1e-3)
    amp = fixed_point_aa(dyson.dyson_segment(LeafBlocks(dg8), cfg), 6.25e-6)
    tracemalloc.start()
    try:
        profile = amp.query_profile()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20
    assert (amp.unitary.width, amp.aa_degree) == (184, 27)
    assert amp.gate_count() == 247111666
    assert profile == {"O_K": 32962950, "O_H": 32953230, "O_A": 7290,
                       "O_L": 2430, "O_Z": 2430}


def test_segment_amplification(dg8):
    tau = 1.0 / 16.0
    cfg = DysonConfig(tau, 256, 6, 1e-4)
    seg = dyson.dyson_segment(LeafBlocks(dg8, "classical-ff"), cfg,
                              check_budget=False)
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


@pytest.mark.parametrize("method", ["circuit", "classical-ff"])
@pytest.mark.parametrize("fraction", [1.0 / 3.0, 1.0, 2.5])
def test_report_describes_the_first_segment_built(dg8, monkeypatch, method,
                                                  fraction):
    # K, D and tau in the report are those of the first segment the solve
    # assembled, also when t is shorter than one scheduled segment
    configs = []
    original = dyson.dyson_segment

    def recording(leaves, config, *args, **kwargs):
        configs.append(config)
        return original(leaves, config, *args, **kwargs)

    monkeypatch.setattr(dyson, "dyson_segment", recording)
    psi0 = np.zeros(8, dtype=np.complex128)
    psi0[0] = 1.0
    t = fraction / 16.0
    _, report = dyson.simulate_full(dg8, t, 1e-2, psi0, method=method)
    first = configs[0]
    assert (report.big_k, report.big_d, report.tau) == \
        (first.big_k, first.big_d, first.tau)


def test_simulate_builds_each_exp_g_once(dg8, monkeypatch):
    # one full segment and a fractional one; every build_expG call of the
    # solve must ask for a distinct (t, eps)
    calls = []
    build = dyson.build_expG

    def counting(oracles, t, eps, *args, **kwargs):
        calls.append((t, eps))
        return build(oracles, t, eps, *args, **kwargs)

    monkeypatch.setattr(dyson, "build_expG", counting)
    psi0 = np.zeros(8, dtype=np.complex128)
    psi0[0] = 1.0
    dyson.simulate_full(dg8, 0.1, 1e-2, psi0, method="circuit")
    assert calls
    assert len(calls) == len(set(calls))


def test_simulate_builds_leaf_encodings_once_per_solve(dg8, monkeypatch):
    # t=1.3 runs a full piece and a fractional one; both draw on the one
    # leaf source of the solve, so the residual and the eigenvector
    # preparations are built once
    from hubsim import ffhub
    counts = {"encode_H2": 0, "build_P_pm": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(dyson, "encode_H2")
    counting(ffhub, "build_P_pm")
    psi0 = np.zeros(8, dtype=np.complex128)
    psi0[0] = 1.0
    dyson.simulate_full(dg8, 1.3, 1e-2, psi0, method="circuit")
    assert counts == {"encode_H2": 1, "build_P_pm": 2}


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
    from hubsim.oracles import build_oracle_set
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
            "dyson.build_selectG", "ffhub.build_expG",
            "sparse_enc.encode_H2"} <= traced


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
                "expG_stage_calls", "expG_grid_calls", "norm_deficit"):
        assert key in doc
    assert doc["expG_stage_calls"] == doc["segments"]
    assert set(doc["queries"]) == {"O_A", "O_H", "O_K", "O_L", "O_Z"}
    from hubsim.jsonio import dump_json
    assert dump_json(doc)  # serializable


def test_structural_profile_matches_enumeration(dg8, dg8_oracles):
    # the arithmetic oracle tallies in the run report are grounded in the
    # actual circuit profiles
    from hubsim.dyson import _structural_oracle_profile
    from hubsim.ffhub import build_expG
    from hubsim.sparse_enc import encode_H2
    be_g = build_expG(dg8_oracles, 0.25, 1e-4)
    be_h2 = encode_H2(dg8_oracles)
    formula = _structural_oracle_profile(dg8, be_g.aa_degree, 1, 1)
    combined = dict(be_g.query_profile())
    for key, val in be_h2.query_profile().items():
        combined[key] = combined.get(key, 0) + val
    assert formula == combined
