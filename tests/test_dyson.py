import itertools

import numpy as np
import pytest
from conftest import random_graph_params

from hubsim import dyson, netgraph, refcheck
from hubsim.blockenc import fixed_point_aa
from hubsim.dyson import DysonConfig, default_config
from hubsim.errors import (ConfigurationError, EncodingError, ParameterError,
                           ResourceError)
from hubsim.qstate import RegisterLayout, StateVector, extract_block, spectral_norm


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
    cfg = DysonConfig(0.0625, 64, 4, 1e-3, t_total=1.0)
    assert cfg.eps_segment == pytest.approx(1e-3 * 0.0625)


def test_default_config_schedule(dg8):
    cfg = default_config(dg8, t=1.0, eps=1e-3)
    assert cfg.tau == pytest.approx(1.0 / 16.0)
    assert cfg.big_d >= 2 * (np.sqrt(12) + 8) * cfg.tau / cfg.eps_segment
    assert dyson.truncation_bound(8.0, cfg.tau, cfg.big_k) <= cfg.eps_segment / 2


def test_selectg_d0_identity(dg8):
    sel = dyson.build_selectG(dg8, tau=0.5, big_d=4, eps=1e-8)
    assert spectral_norm(sel.d_block(0) - np.eye(8)) <= 1e-8


def test_selectg_last_grid_point(dg8, dg8_dense):
    sel = dyson.build_selectG(dg8, tau=0.5, big_d=4, eps=1e-8)
    target = refcheck.dense_expm(dg8_dense["G"], (3.0 / 4.0) * 0.5)
    assert spectral_norm(sel.d_block(3) - target) <= 1e-8


def test_selectg_all_grid_points_within_eps(dg8, dg8_dense):
    eps = 1e-10
    sel = dyson.build_selectG(dg8, tau=0.7, big_d=8, eps=eps)
    for d in range(8):
        target = refcheck.dense_expm(dg8_dense["G"], (d / 8.0) * 0.7)
        assert spectral_norm(sel.d_block(d) - target) <= eps


def test_selectg_requires_power_of_two(dg8):
    with pytest.raises(ConfigurationError):
        dyson.build_selectG(dg8, tau=0.5, big_d=6, eps=1e-6)


def test_selectg_honest_circuit_block_diagonal(dg8):
    # 13-qubit extraction of the full cascade: the grid register never
    # mixes, and diagonal blocks match the algebraic path
    sel = dyson.build_selectG(dg8, tau=0.5, big_d=4, eps=1e-2)
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
    sel = dyson.build_selectG(dg8, tau=1.0 / 16.0, big_d=4096, eps=1e-2,
                              backend="dense")
    with pytest.raises(ResourceError) as err:
        sel.block()
    assert err.value.stage == "select_g"
    dr = dyson.build_dressed_H2(dg8, tau=1.0 / 16.0, big_d=4096, eps=1e-2,
                                backend="dense")
    with pytest.raises(ResourceError) as err:
        dr.block()
    assert err.value.stage == "dressed_h2"


def test_dressed_d0_is_residual(dg8, dg8_dense):
    dr = dyson.build_dressed_H2(dg8, tau=0.5, big_d=4, eps=1e-8)
    target = (dg8_dense["A"] - dg8_dense["G"]) / dr.alpha
    assert spectral_norm(dr.d_block(0) - target) <= 1e-10


def test_dressed_blocks_match_dense_conjugation(dg8, dg8_dense):
    eps = 1e-8
    dr = dyson.build_dressed_H2(dg8, tau=0.5, big_d=4, eps=eps)
    residual = dg8_dense["A"] - dg8_dense["G"]
    for d in range(4):
        s = (d / 4.0) * 0.5
        rot = refcheck.dense_expm(dg8_dense["G"], s)
        target = rot.conj().T @ residual @ rot / dr.alpha
        assert spectral_norm(dr.d_block(d) - target) <= eps


def test_dressed_blocks_unitarily_similar(dg8):
    dr = dyson.build_dressed_H2(dg8, tau=0.5, big_d=4, eps=1e-9)
    base = np.sort(np.linalg.eigvalsh(dr.d_block(0)))
    for d in range(1, 4):
        evals = np.sort(np.linalg.eigvalsh(dr.d_block(d)))
        assert np.max(np.abs(evals - base)) < 1e-9


def test_dressed_register_bookkeeping(dg8):
    dr = dyson.build_dressed_H2(dg8, tau=0.5, big_d=4, eps=1e-6)
    assert dr.alpha == 8.0
    assert dr.m == 16 + (3 + 6)  # two cascade banks + residual ancillas


def test_segment_order_zero_is_identity(dg8):
    cfg = DysonConfig(1.0 / 16.0, 4, 0, 1e-3)
    seg = dyson.dyson_segment(dg8, cfg, backend="dense", check_budget=False)
    assert spectral_norm(seg.alpha * seg.block() - np.eye(8)) == 0.0


_SMALL_HUB_PARAMS = [p for p in random_graph_params()
                     if p[0] <= 16 and p[1] > 0]
_TOTALS_GRAPHS = [("dg8", "circuit"), ("dg8", "dense"),
                  (_SMALL_HUB_PARAMS[0], "circuit"),
                  (_SMALL_HUB_PARAMS[-1], "circuit")]


@pytest.mark.parametrize("big_d", [2, 8])
@pytest.mark.parametrize("graph_key,backend", _TOTALS_GRAPHS)
def test_series_totals_match_brute_force_ordered_sum(graph_key, backend,
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
    dressed = dyson.build_dressed_H2(graph, tau, big_d, eps * 2.5 / 4.0,
                                     backend=backend)
    b_grid = [dressed.d_block(d) for d in range(big_d)]
    dim = 2 ** graph.n_qubits
    # doubling conjugates whole products by one bit evolution, which equals
    # the product of conjugated factors only up to the unitarity defect of
    # the extracted blocks (about 1e-10 in the circuit tier, 0 when dense)
    defect = max(spectral_norm(e.conj().T @ e - np.eye(dim))
                 for e in dressed.bit_blocks)
    log_d = int(np.log2(big_d))
    for big_k in (1, 2, 3):
        seg = dyson.dyson_segment(graph, DysonConfig(tau, big_d, big_k, eps),
                                  backend=backend, check_budget=False)
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
    seg = dyson.dyson_segment(g, cfg, backend="dense", check_budget=False)
    expected = np.eye(8) - 1j * tau * a
    assert spectral_norm(seg.alpha * seg.block() - expected) < 1e-12


def test_segment_dg8_against_reference(dg8):
    # frozen from the independent references: at tau=1/16, D=64, K=4 the
    # grid discretization floor sits at 1.4e-4 (first-order in 1/D)
    tau = 1.0 / 16.0
    cfg = DysonConfig(tau, 64, 4, 1e-3)
    seg = dyson.dyson_segment(dg8, cfg, backend="circuit", check_budget=False)
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
    seg = dyson.dyson_segment(dg8, cfg, backend="dense", check_budget=False)
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
        seg = dyson.dyson_segment(dg8, cfg, backend="dense",
                                  check_budget=False)
        errs.append(spectral_norm(seg.alpha * seg.block() - exact))
    for prev, nxt in zip(errs, errs[1:]):
        assert nxt <= prev / 2.0 * 1.05


def test_segment_alpha_and_ancillas(dg8):
    cfg = DysonConfig(1.0 / 16.0, 64, 4, 1e-3)
    seg = dyson.dyson_segment(dg8, cfg, backend="dense", check_budget=False)
    assert seg.alpha == pytest.approx(sum(0.5 ** k for k in range(5)))
    log_d = 6
    expected_m = 3 + 4 * log_d + 2 * 3 + 16 + 9
    assert seg.m == expected_m


def test_segment_config_budget_errors(dg8):
    with pytest.raises(ConfigurationError, match="truncation"):
        dyson.dyson_segment(dg8, DysonConfig(1.0 / 16.0, 4096, 1, 1e-6),
                            backend="dense")
    with pytest.raises(ConfigurationError, match="grid"):
        dyson.dyson_segment(dg8, DysonConfig(1.0 / 16.0, 16, 12, 1e-6),
                            backend="dense")
    with pytest.raises(ConfigurationError, match="tau"):
        dyson.dyson_segment(dg8, DysonConfig(0.5, 64, 4, 1e-3),
                            backend="dense", check_budget=False)


def test_segment_tiers_agree(dg8):
    cfg = DysonConfig(1.0 / 16.0, 32, 3, 1e-3)
    seg_c = dyson.dyson_segment(dg8, cfg, backend="circuit",
                                check_budget=False)
    seg_d = dyson.dyson_segment(dg8, cfg, backend="dense",
                                check_budget=False)
    assert spectral_norm(seg_c.block() - seg_d.block()) < 1e-6


def test_segment_unitary_is_resource_guarded(dg8):
    cfg = DysonConfig(1.0 / 16.0, 64, 4, 1e-3)
    seg = dyson.dyson_segment(dg8, cfg, backend="dense", check_budget=False)
    assert seg.unitary.width == seg.m + 3
    layout = RegisterLayout(("sys", 3))
    with pytest.raises(ResourceError) as err:
        seg.unitary.apply(StateVector.basis(layout), qubits=range(seg.unitary.width))
    assert "dyson_segment" in str(err.value)


def test_segment_circuit_constructs_under_raised_cap(dg8, monkeypatch):
    # the assembled circuit is never runnable at default widths, but its
    # structural construction must be sound
    cfg = DysonConfig(1.0 / 16.0, 2, 2, 1e-1)
    seg = dyson.dyson_segment(dg8, cfg, backend="dense", check_budget=False)
    monkeypatch.setenv("HUBSIM_QUBIT_CAP", "64")
    circ = seg.unitary.materialize()
    assert circ.width == seg.m + 3
    assert len(circ.steps) > 4


@pytest.mark.parametrize("big_k", [0, 1, 3])
def test_segment_width_matches_materialized_circuit(dg8, monkeypatch,
                                                    big_k):
    cfg = DysonConfig(1.0 / 16.0, 4, big_k, 1e-1)
    seg = dyson.dyson_segment(dg8, cfg, backend="dense", check_budget=False)
    monkeypatch.setenv("HUBSIM_QUBIT_CAP", "64")
    assert seg.unitary.materialize().width == seg.m + 3


def test_segment_amplification(dg8):
    tau = 1.0 / 16.0
    cfg = DysonConfig(tau, 256, 6, 1e-4)
    seg = dyson.dyson_segment(dg8, cfg, backend="dense", check_budget=False)
    amp = fixed_point_aa(seg, 0.9 / seg.alpha, 1e-6)
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
    be_g = build_expG(dg8, 0.25, 1e-4, dg8_oracles)
    be_h2 = encode_H2(dg8, dg8_oracles)
    formula = _structural_oracle_profile(dg8, be_g.aa_degree, 1, 1)
    combined = dict(be_g.query_profile())
    for key, val in be_h2.query_profile().items():
        combined[key] = combined.get(key, 0) + val
    assert formula == combined
