import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hubsim import netgraph
from hubsim.errors import GraphStructureError, ParameterError

from conftest import random_graph_params


def test_dg8_validates(dg8):
    report = netgraph.validate(dg8)
    assert report.passed, report.failures()


def test_dg8_degrees(dg8):
    assert dg8.hubs == (6, 7)
    assert dg8.degree(7) == 7
    assert dg8.degree(6) == 6
    assert all(dg8.degree(v) <= 4 for v in dg8.regulars)


def test_generate_example_params():
    g = netgraph.generate(8, 2, 4, 2, rng_seed=7)
    assert len(g.hubs) == 2
    assert all(g.degree(u) >= 8 - 2 for u in g.hubs)
    assert all(g.degree(v) <= 4 for v in g.regulars)
    assert netgraph.validate(g).passed


def test_generate_hub_free():
    g = netgraph.generate(8, 0, 2, 1, rng_seed=0)
    assert g.hubs == ()
    assert np.all(g.dense_link_matrix() == 0)
    assert netgraph.validate(g).passed


def test_generate_deterministic():
    g1 = netgraph.generate(16, 2, 4, 2, rng_seed=123)
    g2 = netgraph.generate(16, 2, 4, 2, rng_seed=123)
    assert g1.edges() == g2.edges()
    assert g1.hubs == g2.hubs
    g3 = netgraph.generate(16, 2, 4, 2, rng_seed=124)
    assert g1.edges() != g3.edges()


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), n_reg=st.integers(2, 2 ** 20),
       count=st.integers(0, 300), earlier=st.integers(0, 3))
@example(seed=0, n_reg=2, count=50, earlier=1)
@example(seed=1, n_reg=70_000, count=300, earlier=0)
@example(seed=2, n_reg=3, count=0, earlier=3)
def test_pair_draws_match_sequential_choice(seed, n_reg, count, earlier):
    # ``earlier`` unrelated 32-bit draws leave PCG64's buffered half of a
    # 64-bit output either used or pending, so both alignments are covered
    bulk, loop = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (bulk, loop):
        rng.integers(0, 1000, size=earlier)
    pairs = netgraph._pair_draws(bulk, n_reg, count)
    expected = [loop.choice(n_reg, 2, replace=False) for _ in range(count)]
    assert pairs.shape == (count, 2)
    assert pairs.tolist() == [[int(a), int(b)] for a, b in expected]
    assert bulk.bit_generator.state == loop.bit_generator.state


# sha256 of repr((adj, hubs)) for seeds 0-31 at each parameter set, as the
# per-attempt rng.choice loop drew them; the benchmark inputs and their
# fingerprints rest on these graphs
GOLDEN_PARAMS = [(16, 2, 4, 2), (32, 2, 8, 2), (8, 2, 4, 2), (64, 4, 8, 4),
                 (16, 0, 4, 2), (16, 1, 4, 1)]
GOLDEN_DIGEST = \
    "3a65328583274b11c98436928d3746dea66a9b4dde351a6a18717ef23bbf27c9"


def test_generate_golden_digest():
    digest = hashlib.sha256()
    for params in GOLDEN_PARAMS:
        for seed in range(32):
            g = netgraph.generate(*params, rng_seed=seed)
            digest.update(repr((g.adj, g.hubs)).encode())
    assert digest.hexdigest() == GOLDEN_DIGEST


def test_generate_and_validate_large_graph():
    # N=4096 stays cheap because the symmetry test is linear, not a scan of
    # a hub's full row per edge.  A fresh graph on the same rows, so that
    # nothing is read from the report ``generate`` kept on ``g``
    g = netgraph.generate(4096, 2, 8, 2, rng_seed=3)
    report = netgraph.validate(netgraph.HubSparseGraph(
        g.n_nodes, g.adj, g.hubs, g.m_hubs, g.h_param, g.s_param))
    assert report.passed, report.failures()
    assert all(g.degree(u) >= 4096 - 2 for u in g.hubs)
    assert len(g.regulars) == 4094


def test_generate_infeasible_raises():
    # more hubs than the regular degree cap can host
    with pytest.raises(ParameterError):
        netgraph.generate(16, 8, 4, 2, rng_seed=0)
    with pytest.raises(ParameterError):
        netgraph.generate(12, 2, 4, 2, rng_seed=0)  # N not a power of two
    with pytest.raises(ParameterError):
        netgraph.generate(8, 3, 4, 2, rng_seed=0)  # M not a power of two


def test_validate_names_weak_hub(dg8):
    # drop one edge of hub 6 below the degree floor
    adj = [list(row) for row in dg8.adj]
    adj[6].remove(1)
    adj[1].remove(6)
    g = netgraph.HubSparseGraph(8, tuple(tuple(r) for r in adj), (6, 7), 2, 2, 4)
    report = netgraph.validate(g)
    assert not report.passed
    assert any("hub_min_degree" in name and "6" in detail
               for name, ok, detail in report.conditions if not ok)


def test_validate_names_a_missing_back_link(dg8):
    # hub 7's row lacks regular 3 while 3 still lists 7, and the other way
    # round; the graph's own edge set is symmetric, so only the rows tell
    for drop_from, keep_in in ((7, 3), (3, 7)):
        adj = [list(row) for row in dg8.adj]
        adj[drop_from].remove(keep_in)
        g = netgraph.HubSparseGraph(8, tuple(tuple(r) for r in adj), (6, 7),
                                    2, 2, 4)
        assert g.has_edge(drop_from, keep_in)
        conditions = {name: (ok, detail)
                      for name, ok, detail in netgraph.validate(g).conditions}
        assert conditions["simple_symmetric"] == (
            False, f"edge {keep_in}-{drop_from} not symmetric")


def test_validate_complete_graph_m0():
    edges = {(u, v) for u in range(8) for v in range(u + 1, 8)}
    g = netgraph._from_edges(8, [], edges, 0, 1, 2)
    report = netgraph.validate(g)
    assert not report.passed
    failed = [name for name, ok, _ in report.conditions if not ok]
    assert "regular_max_degree" in failed


def test_validate_reports_are_not_exceptions():
    g = netgraph._from_edges(4, [], set(), 0, 1, 1)
    assert netgraph.validate(g).passed
    # hub lists out of range or with repeats fail hub_count, not an index
    edges = netgraph.dg8().edges()
    for hubs in ([6, 9], [6, 6]):
        report = netgraph.validate(netgraph._from_edges(8, hubs, edges, 2, 2, 4))
        assert not report.passed
        assert [name for name, ok, _ in report.conditions if not ok][0] \
            == "hub_count"


def test_split_dg8_exact(dg8_split):
    assert set(dg8_split.a_minus) == {(6, 0)}
    assert set(dg8_split.a_h) == {(6, 7)}
    assert set(dg8_split.a_r) == {(1, 2)}


def test_split_identity_dg8(dg8, dg8_split):
    assert np.array_equal(dg8_split.reconstruct(), dg8.dense_adjacency())


def test_split_hub_free():
    g = netgraph.generate(8, 0, 2, 1, rng_seed=3)
    parts = netgraph.split(g)
    assert not parts.a_minus and not parts.a_h
    assert len(parts.a_r) == len(g.edges())
    assert np.all(parts.dense_link_matrix() == 0)


def test_split_saturated_hubs():
    # every hub connected to every regular node: nothing missing
    edges = {(u, 7) for u in range(7)} | {(u, 6) for u in range(6)} | {(6, 7)}
    g = netgraph._from_edges(8, [6, 7], edges, 2, 2, 4)
    assert netgraph.validate(g).passed
    parts = netgraph.split(g)
    assert not parts.a_minus


def test_split_invalid_graph_raises():
    edges = {(u, v) for u in range(8) for v in range(u + 1, 8)}
    g = netgraph._from_edges(8, [], edges, 0, 1, 2)
    with pytest.raises(GraphStructureError):
        netgraph.split(g)


def test_split_pair_orientations(dg8_split):
    for u, v in dg8_split.a_minus:
        assert u in dg8_split.hubs and v not in dg8_split.hubs
    for u, v in dg8_split.a_h | dg8_split.a_r:
        assert u < v


def test_link_matrix_ones_count():
    for n, m, s, h in random_graph_params():
        if m == 0:
            continue
        g = netgraph.generate(n, m, s, h, rng_seed=5)
        upper = np.triu(g.dense_link_matrix(), 1).sum()
        assert upper == m * (n - m)


def test_split_matrices_symmetric_zero_diagonal():
    g = netgraph.generate(16, 2, 4, 2, rng_seed=11)
    parts = netgraph.split(g)
    for mat in (parts.dense_a_minus(), parts.dense_a_h(), parts.dense_a_r(),
                parts.dense_link_matrix()):
        assert np.array_equal(mat, mat.T)
        assert np.all(np.diag(mat) == 0)


def test_split_identity_random_graphs():
    for n, m, s, h in random_graph_params():
        for seed in range(8):
            g = netgraph.generate(n, m, s, h, rng_seed=seed)
            parts = netgraph.split(g)
            assert np.array_equal(parts.reconstruct(), g.dense_adjacency())


def test_generate_validates_over_many_seeds():
    for n, m, s, h in [(8, 2, 4, 2), (16, 4, 4, 4), (32, 2, 8, 4)]:
        for seed in range(100):
            g = netgraph.generate(n, m, s, h, rng_seed=seed)
            assert netgraph.validate(g).passed


def test_json_roundtrip(tmp_path, dg8):
    path = tmp_path / "g.json"
    netgraph.save_graph(dg8, str(path))
    loaded = netgraph.load_graph(str(path))
    assert loaded.edges() == dg8.edges()
    assert loaded.hubs == dg8.hubs
    assert (loaded.m_hubs, loaded.h_param, loaded.s_param) == (2, 2, 4)


def test_json_rejects_bad_edges():
    base = {"nodes": 8, "hubs": [6, 7],
            "params": {"M": 2, "h": 2, "s": 4}}
    with pytest.raises(GraphStructureError):
        netgraph.from_json_dict({**base, "edges": [[1, 1]]})
    with pytest.raises(GraphStructureError):
        netgraph.from_json_dict({**base, "edges": [[0, 1], [1, 0]]})
    with pytest.raises(GraphStructureError):
        netgraph.from_json_dict({**base, "edges": [[0, 9]]})
    with pytest.raises(GraphStructureError):
        netgraph.from_json_dict({"nodes": 8, "edges": []})
    for hubs in ([6, 9], [-1, 6], [6, 6], [6], [5, 6, 7]):
        with pytest.raises(GraphStructureError):
            netgraph.from_json_dict({**base, "hubs": hubs, "edges": []})


def test_missing_hub_cap_respected():
    # generator promise used by the missing-link encoder
    for n, m, s, h in random_graph_params():
        if m == 0:
            continue
        g = netgraph.generate(n, m, s, h, rng_seed=9)
        hubset = set(g.hubs)
        for v in g.regulars:
            missed = sum(1 for u in hubset if not g.has_edge(u, v))
            assert missed <= h


def test_validate_report_is_kept_on_the_graph():
    g = netgraph.generate(16, 2, 4, 2, rng_seed=2)
    report = netgraph.validate(g)
    assert netgraph.validate(g) is report
    assert report.passed
