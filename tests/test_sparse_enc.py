import numpy as np
import pytest

from hubsim import netgraph, sparse_enc
from hubsim.blockenc import verify
from hubsim.errors import EncodingError
from hubsim.oracles import build_oracle_set
from hubsim.qstate import RegisterLayout, spectral_norm

from conftest import basis_state, random_graph_params, run


def test_ah_dg8_exact(dg8, dg8_split, dg8_oracles):
    be = sparse_enc.encode_Ah(dg8_oracles)
    assert be.alpha == 2.0
    assert be.m == 3 + 3
    err = verify(be, dg8_split.dense_a_h().astype(np.complex128))
    assert err <= 1e-12
    assert np.max(np.abs(be.alpha * be.block()
                         - dg8_split.dense_a_h())) < 1e-12


def test_ah_no_hub_links_zero_block():
    edges = {(u, 7) for u in range(7) if u != 6} | \
            {(u, 6) for u in range(6)} | {(1, 2)}
    g = netgraph._from_edges(8, [6, 7], edges, 2, 2, 4)
    assert netgraph.validate(g).passed
    be = sparse_enc.encode_Ah(build_oracle_set(g))
    assert np.max(np.abs(be.block())) < 1e-14


def test_ah_block_symmetric(dg8, dg8_oracles):
    blk = sparse_enc.encode_Ah(dg8_oracles).block()
    assert np.max(np.abs(blk - blk.T)) < 1e-12


def test_ar_dg8(dg8, dg8_split, dg8_oracles):
    be = sparse_enc.encode_Ar(dg8_oracles)
    assert be.alpha == 4.0
    assert be.m == 3 + 4
    assert verify(be, dg8_split.dense_a_r().astype(np.complex128)) <= 1e-12


def test_ar_hub_free_equals_adjacency():
    g = netgraph.generate(8, 0, 4, 1, rng_seed=4)
    be = sparse_enc.encode_Ar(build_oracle_set(g))
    assert verify(be, g.dense_adjacency().astype(np.complex128)) <= 1e-12


def test_ar_star_with_hub_center_is_zero():
    edges = {(0, v) for v in range(1, 8)}
    g = netgraph._from_edges(8, [0], edges, 1, 1, 2)
    assert netgraph.validate(g).passed
    be = sparse_enc.encode_Ar(build_oracle_set(g))
    assert np.max(np.abs(be.block())) < 1e-14


def test_aminus_dg8(dg8, dg8_split, dg8_oracles):
    be = sparse_enc.encode_Aminus(dg8_oracles)
    assert be.alpha == 2.0
    assert be.m == 3 + 4
    assert verify(be, dg8_split.dense_a_minus().astype(np.complex128)) <= 1e-12
    expected = np.zeros((8, 8))
    expected[6, 0] = expected[0, 6] = 1.0
    assert np.max(np.abs(be.alpha * be.block() - expected)) < 1e-12


def test_aminus_saturated_hubs_zero():
    edges = {(u, 7) for u in range(7)} | {(u, 6) for u in range(6)} | {(6, 7)}
    g = netgraph._from_edges(8, [6, 7], edges, 2, 2, 4)
    be = sparse_enc.encode_Aminus(build_oracle_set(g))
    assert np.max(np.abs(be.block())) < 1e-14


def test_aminus_block_values(dg8, dg8_oracles):
    blk = sparse_enc.encode_Aminus(dg8_oracles).block()
    vals = np.unique(np.round(np.abs(blk), 12))
    assert set(vals).issubset({0.0, 0.5})


def test_aminus_coverage_guard():
    # four hubs each missing the same regular node: coverage exceeds h
    hubs = [0, 1, 2, 3]
    edges = set()
    for i, u in enumerate(hubs):
        for v in hubs[i + 1:]:
            edges.add((u, v))
        for v in range(4, 8):
            if v != 7:
                edges.add((u, v))
    g = netgraph._from_edges(8, hubs, edges, 4, 2, 4)
    assert netgraph.validate(g).passed
    with pytest.raises(EncodingError):
        sparse_enc.encode_Aminus(build_oracle_set(g))


def test_h2_dg8(dg8, dg8_dense, dg8_oracles):
    be = sparse_enc.encode_H2(dg8_oracles)
    assert be.alpha == 8.0
    assert be.m == 3 + 6
    target = dg8_dense["A"] - dg8_dense["G"]
    assert verify(be, target) <= 1e-11
    assert np.max(np.abs(be.alpha * be.block() - target)) < 1e-11


def test_h2_hub_free_alpha_is_s():
    g = netgraph.generate(8, 0, 2, 1, rng_seed=0)
    be = sparse_enc.encode_H2(build_oracle_set(g))
    assert be.alpha == 2.0
    assert verify(be, g.dense_adjacency().astype(np.complex128)) <= 1e-11


def test_h2_norm_below_alpha_50_graphs():
    checked = 0
    for n, m, s, h in random_graph_params()[:5]:
        for seed in range(10):
            g = netgraph.generate(n, m, s, h, rng_seed=seed)
            alpha2 = float(s if m == 0 else h + m + s)
            residual = (g.dense_adjacency()
                        - g.dense_link_matrix()).astype(complex)
            assert spectral_norm(residual) <= alpha2 + 1e-9
            checked += 1
    assert checked == 50


def test_split_identity_through_blocks():
    for seed in range(6):
        g = netgraph.generate(8, 2, 4, 2, rng_seed=seed)
        oracles = build_oracle_set(g)
        parts = netgraph.split(g)
        total = (2.0 * sparse_enc.encode_Ah(oracles).block()
                 + 4.0 * sparse_enc.encode_Ar(oracles).block()
                 - 2.0 * sparse_enc.encode_Aminus(oracles).block()
                 + g.dense_link_matrix())
        assert np.max(np.abs(total - g.dense_adjacency())) < 1e-10


def test_oracle_queries_per_application(dg8, dg8_oracles):
    be_h = sparse_enc.encode_Ah(dg8_oracles)
    be_r = sparse_enc.encode_Ar(dg8_oracles)
    be_m = sparse_enc.encode_Aminus(dg8_oracles)
    assert be_h.query_profile() == {"O_H": 2, "O_A": 2, "O_K": 2}
    assert be_r.query_profile() == {"O_L": 2, "O_A": 2, "O_K": 4}
    assert be_m.query_profile() == {"O_Z": 2, "O_A": 2, "O_K": 4}
    # live counter agrees when a circuit is applied once
    layout = RegisterLayout(("anc", be_h.m), ("sys", 3))
    dg8_oracles.counter.reset()
    run(be_h.unitary, basis_state(layout))
    assert dg8_oracles.counter.snapshot() == {
        "O_A": 2, "O_L": 0, "O_H": 2, "O_K": 2, "O_Z": 0}


def test_encodings_on_random_graphs():
    for n, m, s, h in [(8, 2, 4, 2), (16, 2, 4, 2), (16, 4, 4, 4)]:
        for seed in (21, 22):
            g = netgraph.generate(n, m, s, h, rng_seed=seed)
            oracles = build_oracle_set(g)
            parts = netgraph.split(g)
            assert verify(sparse_enc.encode_Ah(oracles),
                          parts.dense_a_h().astype(complex)) <= 1e-12
            assert verify(sparse_enc.encode_Ar(oracles),
                          parts.dense_a_r().astype(complex)) <= 1e-12
            assert verify(sparse_enc.encode_Aminus(oracles),
                          parts.dense_a_minus().astype(complex)) <= 1e-12


def test_invalid_graph_rejected():
    edges = {(u, v) for u in range(8) for v in range(u + 1, 8)}
    g = netgraph._from_edges(8, [], edges, 0, 1, 2)
    with pytest.raises(EncodingError):
        sparse_enc.encode_Ar(build_oracle_set(g))
