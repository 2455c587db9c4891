import math

import numpy as np
import pytest
from conftest import basis_state, random_graph_params, run
from hypothesis import example, given
from hypothesis import strategies as st

from hubsim import netgraph
from hubsim.errors import OracleContractError
from hubsim.oracles import (_RowProbe, build_oracle_set, derive_OK_by_query,
                            derive_OZ_by_query)
from hubsim.qstate import RegisterLayout


def test_oa_reads_edge(dg8_oracles):
    # row 6, column 7, flag 0 -> flag 1 (edge present)
    idx = ((6 * 8) + 7) * 2 + 0
    assert dg8_oracles.o_a.perm[idx] == idx + 1
    # row 6, column 0: no edge
    idx = ((6 * 8) + 0) * 2 + 0
    assert dg8_oracles.o_a.perm[idx] == idx


def test_ol_first_neighbor_of_full_hub(dg8_oracles):
    # node 0 is hub 7's first neighbor
    assert dg8_oracles.o_l.perm[7 * 8 + 0] == 7 * 8 + 0
    # hub 6's neighbors start at node 1
    assert dg8_oracles.o_l.perm[6 * 8 + 0] == 6 * 8 + 1


def test_oa_self_inverse(dg8, dg8_oracles):
    layout = RegisterLayout(("i", 3), ("j", 3), ("z", 1))
    rng = np.random.default_rng(0)
    for _ in range(10):
        k = int(rng.integers(0, 128))
        state = basis_state(layout, k)
        once = run(dg8_oracles.o_a, state)
        twice = run(dg8_oracles.o_a, once)
        assert twice[k] == 1.0


def test_all_oracles_map_basis_to_basis(dg8_oracles):
    for gate in dg8_oracles.gates().values():
        dim = 2 ** gate.width
        layout = RegisterLayout(("r", gate.width))
        for k in np.random.default_rng(1).integers(0, dim, size=8):
            out = run(gate, basis_state(layout, int(k)))
            nonzero = np.nonzero(out)[0]
            assert len(nonzero) == 1
            assert abs(out[nonzero[0]]) == 1.0


def test_beyond_degree_positions_are_zeros(dg8):
    oracles = build_oracle_set(dg8)
    for i in range(8):
        deg = dg8.degree(i)
        for l in range(deg, 8):
            pos = oracles._r_rows[i][l]
            assert not dg8.has_edge(i, pos) or pos == i


def test_query_ok_agrees_with_table(dg8, dg8_oracles):
    qok = derive_OK_by_query(dg8_oracles)
    for i in range(8):
        _, bit = qok.classical_apply(i)
        assert bit == int(dg8.is_hub(i))


def test_query_ok_counts_dg8(dg8_oracles):
    qok = derive_OK_by_query(dg8_oracles)
    for i, expect_hub in [(6, True), (0, False)]:
        dg8_oracles.counter.reset()
        _, bit = qok.classical_apply(i)
        assert bit == int(expect_hub)
        assert dg8_oracles.counter.counts["O_L"] <= 8  # 2*log2(8) + 2


@pytest.mark.parametrize("n,m,s,h,seed", [
    (8, 2, 4, 2, 0), (16, 2, 4, 2, 1), (32, 4, 8, 4, 2), (64, 2, 8, 2, 3),
])
def test_query_ok_counts_scale(n, m, s, h, seed):
    g = netgraph.generate(n, m, s, h, rng_seed=seed)
    oracles = build_oracle_set(g)
    qok = derive_OK_by_query(oracles)
    bound = 2 * math.ceil(math.log2(n)) + 2
    for i in range(n):
        oracles.counter.reset()
        _, bit = qok.classical_apply(i)
        assert bit == int(g.is_hub(i))
        assert oracles.counter.counts["O_L"] <= bound


def test_query_oz_values_dg8(dg8_oracles):
    qoz = derive_OZ_by_query(dg8_oracles)
    assert qoz.zeros_by_query(6) == [0, 6]
    assert qoz.zeros_by_query(7) == [7]
    assert qoz.classical_apply(6, 0) == (6, 0)
    assert qoz.classical_apply(6, 1) == (6, 6)
    assert qoz.classical_apply(7, 0) == (7, 7)


def test_query_oz_matches_table_on_hub_rows():
    for n, m, s, h, seed in [(8, 2, 4, 2, 4), (16, 2, 4, 2, 5),
                             (16, 4, 4, 4, 6), (32, 2, 8, 4, 7)]:
        g = netgraph.generate(n, m, s, h, rng_seed=seed)
        oracles = build_oracle_set(g)
        qoz = derive_OZ_by_query(oracles)
        for i in g.hubs:
            for l in range(n):
                _, pos = qoz.classical_apply(i, l)
                assert pos == oracles._q_rows[i][l], (i, l)


def test_query_oz_counts():
    for n, m, s, h, seed in [(8, 2, 4, 2, 0), (16, 2, 4, 2, 1),
                             (32, 4, 8, 4, 2), (64, 2, 8, 2, 3)]:
        g = netgraph.generate(n, m, s, h, rng_seed=seed)
        oracles = build_oracle_set(g)
        qoz = derive_OZ_by_query(oracles)
        bound = 4 * h * math.log2(n)
        for i in g.hubs:
            oracles.counter.reset()
            qoz.zeros_by_query(i)
            assert oracles.counter.counts["O_L"] <= bound


def test_query_oz_non_hub_raises(dg8_oracles):
    qoz = derive_OZ_by_query(dg8_oracles)
    with pytest.raises(OracleContractError):
        qoz.zeros_by_query(0)


def test_query_oz_single_zero_shortcut():
    # a hub connected to everything else: only the diagonal is missing
    edges = {(u, 7) for u in range(7)} | {(u, 6) for u in range(6)} | {(6, 7)}
    g = netgraph._from_edges(8, [6, 7], edges, 2, 2, 4)
    oracles = build_oracle_set(g)
    qoz = derive_OZ_by_query(oracles)
    oracles.counter.reset()
    assert qoz.zeros_by_query(7) == [7]
    # degree search only: no per-zero searches
    assert oracles.counter.counts["O_L"] <= 8


def test_counters_are_per_context(dg8):
    first = build_oracle_set(dg8)
    second = build_oracle_set(dg8)
    layout = RegisterLayout(("r", 7))
    run(first.o_a, basis_state(layout, 3))
    assert first.counter.counts["O_A"] == 1
    assert second.counter.counts["O_A"] == 0


def test_counter_counts_adjoint_and_controlled(dg8, dg8_oracles):
    from hubsim.qstate import Circuit
    layout = RegisterLayout(("c", 1), ("r", 7))
    circ = Circuit(layout)
    circ.append(dg8_oracles.o_a, on=["r"], controls=[("c", 1)])
    circ.append(dg8_oracles.o_a, on=["r"], adjoint=True)
    dg8_oracles.counter.reset()
    run(circ, basis_state(layout, 0))
    assert dg8_oracles.counter.counts["O_A"] == 2


def test_oz_regular_rows_enumerate_missing_hubs(dg8):
    oracles = build_oracle_set(dg8)
    # node 0 misses hub 6 only; its first missing-link entry must be 6
    assert oracles._q_rows[0][0] == 6
    # node 1 is adjacent to both hubs: no missing-hub head, tail starts at 0
    assert oracles._q_rows[1][0] == 0


def _tables_by_loops(graph):
    """r(l, i), q(l, i) and the five oracle tables as loops over the
    neighbor lists build them: the reference for the array form."""
    n = graph.n_nodes
    hubset = set(graph.hubs)
    r_rows, q_rows = [], []
    for i in range(n):
        nbrs = list(graph.adj[i])
        nbr_set = set(nbrs)
        zeros = sorted(v for v in range(n) if v not in nbr_set and v != i)
        zeros_with_diag = sorted(zeros + [i])
        r_rows.append(nbrs + zeros_with_diag)
        if i in hubset:
            q_head, q_tail = zeros_with_diag, nbrs
        else:
            q_head = [u for u in sorted(hubset) if not graph.has_edge(i, u)]
            head_set = set(q_head)
            q_tail = [v for v in range(n) if v not in head_set]
        q_rows.append(q_head + q_tail)
    perm_l = [i * n + r for i in range(n) for r in r_rows[i]]
    perm_z = [i * n + q for i in range(n) for q in q_rows[i]]
    perm_h = list(graph.hubs) + [v for v in range(n) if v not in hubset]
    perm_a = [(i * n + j) << 1 | (z ^ graph.has_edge(i, j))
              for i in range(n) for j in range(n) for z in (0, 1)]
    perm_k = [i << 1 | (z ^ graph.is_hub(i)) for i in range(n) for z in (0, 1)]
    return r_rows, q_rows, {"O_A": perm_a, "O_L": perm_l, "O_H": perm_h,
                            "O_K": perm_k, "O_Z": perm_z}


_TABLE_PARAMS = [p for p in random_graph_params() if p[0] <= 32] \
    + [(16, 1, 4, 1), (32, 1, 8, 1), (8, 4, 4, 4), (32, 2, 8, 1)]


@given(params=st.sampled_from(_TABLE_PARAMS), seed=st.integers(0, 2 ** 16))
@example(params=(8, 0, 2, 1), seed=0)
@example(params=(16, 1, 4, 1), seed=5)
@example(params=(32, 1, 8, 1), seed=2)
def test_tables_match_the_row_loops(params, seed):
    # M=0, M=1 and h=1 included; the tables are equal entry for entry
    graph = netgraph.generate(*params, rng_seed=seed)
    oracles = build_oracle_set(graph)
    r_rows, q_rows, tables = _tables_by_loops(graph)
    assert np.array_equal(oracles._r_rows, r_rows)
    assert np.array_equal(oracles._q_rows, q_rows)
    for name, gate in oracles.gates().items():
        assert gate.perm.dtype == np.int64
        assert np.array_equal(gate.perm, tables[name]), name
    probe = _RowProbe(oracles, graph.n_nodes - 1)
    assert type(probe.r(0)) is int and probe.r(0) == r_rows[-1][0]
