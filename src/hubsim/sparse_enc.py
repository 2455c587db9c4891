"""Explicit block-encoding circuits for the three sparse pieces of the
adjacency split, and their signed combination.

One builder, ``_sparse_row``, implements the sparse-row pattern all three
pieces share: spread an index register over the relevant column positions
of the input row (neighbors for the regular piece, located hubs for the
hub piece, missing-link positions for the difference piece), test the
entry and the endpoint types into flag qubits, fold the test results into
a single ancilla, uncompute, then undo the same preparation read against
the output row.  The pieces differ only in the index oracle, the type-flag
registers and the fold.  Normalization factors are the superposition
widths: M, s and h respectively.

Every constructor takes the graph's ``OracleSet`` and reads the graph from
it.  Encoded blocks are exact up to floating point; claimed eps is 0.
"""

from __future__ import annotations

import numpy as np

from .blockenc import BlockEncoding, lcu, zero_encoding
from .errors import EncodingError
from .netgraph import HubSparseGraph, validate
from .oracles import OracleSet
from .qstate import Circuit, RegisterLayout, hadamard_layer, register_swap, x_gate


def _valid_graph(oracles: OracleSet) -> HubSparseGraph:
    report = validate(oracles.graph)
    if not report.passed:
        raise EncodingError("graph fails validation: " + "; ".join(report.failures()))
    return oracles.graph


def _sparse_row(oracles: OracleSet, label: str, width: int, index,
                index_on: list[str], flags, fold) -> BlockEncoding:
    """(width, n + 2 + len(flags))-encoding of one sparse piece.

    ``index`` spreads the index register over ``index_on``.  ``flags``
    lists (flag register, tested register) in layout order; the type tests
    run in reverse order after the entry test.  ``fold`` lists the
    controlled X gates (target, controls) that fold the tests into ``t``.
    """
    n = oracles.graph.n_qubits
    layout = RegisterLayout(("t", 1), *((flag, 1) for flag, _ in flags),
                            ("a", 1), ("work", n), ("sys", n))
    circ = Circuit(layout, label=label)
    log_w = int(np.log2(width))
    tests = [(oracles.o_a, ["work", "sys", "a"])]
    tests += [(oracles.o_k, [reg, flag]) for flag, reg in reversed(flags)]
    if log_w:
        circ.append(hadamard_layer(log_w), on=[("work", n - log_w, n)])
    circ.append(index, on=index_on)
    for oracle, on in tests:
        circ.append(oracle, on=on)
    for target, controls in fold:
        circ.append(x_gate(), on=[target], controls=controls)
    for oracle, on in reversed(tests):
        circ.append(oracle, on=on)
    circ.append(register_swap(n), on=["work", "sys"])
    circ.append(index, on=index_on, adjoint=True)
    if log_w:
        circ.append(hadamard_layer(log_w), on=[("work", n - log_w, n)])
    circ.append(x_gate(), on=["t"])
    return BlockEncoding(circ, float(width), n + 2 + len(flags), n, label=label)


def encode_Ah(oracles: OracleSet) -> BlockEncoding:
    """(M, n+3)-encoding of the hub-hub link matrix."""
    graph = _valid_graph(oracles)
    if graph.m_hubs == 0:
        return zero_encoding(graph.n_qubits, label="a_hub_empty")
    return _sparse_row(oracles, "a_hub", graph.m_hubs,
                       oracles.o_h, ["work"], [("k", "sys")],
                       [("t", [("k", 1), ("a", 1)])])


def encode_Ar(oracles: OracleSet) -> BlockEncoding:
    """(s, n+4)-encoding of the regular-regular link matrix."""
    graph = _valid_graph(oracles)
    return _sparse_row(oracles, "a_reg", graph.s_param,
                       oracles.o_l, ["sys", "work"],
                       [("kr", "work"), ("kc", "sys")],
                       [("t", [("kr", 0), ("kc", 0), ("a", 1)])])


def encode_Aminus(oracles: OracleSet) -> BlockEncoding:
    """(h, n+4)-encoding of the missing hub-regular link matrix.

    The missing-link read q(., row) must cover every absent hub-regular
    pair from both endpoints within index range h: hub rows have at most h
    zero entries by the degree condition, and regular rows enumerate their
    non-adjacent hubs first.  A regular node missing more than h hubs
    breaks that coverage, so it is rejected here (the bundled generator
    never produces one).
    """
    graph = _valid_graph(oracles)
    h = graph.h_param
    for v in graph.regulars:
        miss = sum(1 for u in graph.hubs if not graph.has_edge(u, v))
        if miss > h:
            raise EncodingError(
                f"regular node {v} misses {miss} hubs > h={h}; the index "
                "superposition cannot reach all of its missing links")
    kx_from_kc = ("kx", [("kc", 1)])
    return _sparse_row(oracles, "a_minus", h,
                       oracles.o_z, ["sys", "work"],
                       [("kx", "work"), ("kc", "sys")],
                       [kx_from_kc, ("t", [("kx", 1), ("a", 0)]), kx_from_kc])


def encode_H2(oracles: OracleSet) -> BlockEncoding:
    """Signed combination -A_minus + A_hub + A_reg.

    With hubs present this is an (h + M + s, n+6)-encoding; a hub-free
    graph reduces to the regular piece alone (factor s).
    """
    graph = _valid_graph(oracles)
    be_r = encode_Ar(oracles)
    if graph.m_hubs == 0:
        be_r.label = "h2"
        return be_r
    be = lcu([-1.0, 1.0, 1.0], [encode_Aminus(oracles), encode_Ah(oracles), be_r])
    be.label = "h2"
    return be
