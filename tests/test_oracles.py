import math

import numpy as np
import pytest
from conftest import basis_state, run

from hubsim import netgraph
from hubsim.errors import OracleContractError
from hubsim.oracles import (build_oracle_set, derive_OK_by_query,
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
