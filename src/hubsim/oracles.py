"""Graph input oracles and the derived node-type / missing-link oracles.

Five reversible maps, all realized as basis-state permutations:

  O_A |i, j, z> = |i, j, z ^ A[i,j]>      adjacency test (self-inverse)
  O_L |i, l>    = |i, r(l, i)>            l-th neighbor of row i
  O_H |l>       = |h(l)>                  l-th hub
  O_K |i, z>    = |i, z ^ hub?(i)>        node type flag (self-inverse)
  O_Z |i, l>    = |i, q(l, i)>            l-th missing link of row i

Beyond-range conventions (each row map must be a full permutation):

  * r(l, i) for l >= degree(i) walks the zero entries of row i ascending
    (diagonal included), so "l past the degree" is detectable with one
    adjacency test instead of a dedicated flag state.
  * q(l, i) for a hub row walks the zero entries of row i ascending (the
    diagonal counts as a zero), then the nonzero entries.  For a regular
    row it walks the hubs NOT adjacent to i ascending, then the rest of
    [N]; the missing-link encoder needs exactly that coverage on both
    sides of a missing hub-regular pair.
  * h(l) for l >= M walks the non-hub nodes ascending.

Query counters live on the OracleSet (one set per execution context), so
parallel contexts never share tallies.  Controlled and adjoint
applications count like plain ones.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import OracleContractError
from .netgraph import HubSparseGraph
from .qstate import PermutationGate

ORACLE_NAMES = ("O_A", "O_L", "O_H", "O_K", "O_Z")


class QueryCounter:
    """Mutable per-context tally of oracle applications."""

    def __init__(self):
        self.counts = {name: 0 for name in ORACLE_NAMES}

    def hit(self, name: str, times: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + times

    def snapshot(self) -> dict[str, int]:
        return dict(self.counts)

    def reset(self) -> None:
        for key in self.counts:
            self.counts[key] = 0


class OracleGate(PermutationGate):
    """Permutation gate that reports each application to a counter."""

    def __init__(self, perm, name: str, counter: QueryCounter):
        super().__init__(perm, label=name)
        self.oracle_name = name
        self.counter = counter

    def on_applied(self):
        self.counter.hit(self.oracle_name)


class OracleSet:
    """The five oracle gates for one graph, sharing one query counter.

    The node count is checked here; every table is built on first use,
    so a solve that never applies a gate or reads a row builds none.
    The set also keeps the results that depend on the graph alone, such as
    a solve tier's leaf blocks (``leaf_result``), so every solve that
    reuses it reuses them, and they are freed with it."""

    def __init__(self, graph: HubSparseGraph):
        self.graph = graph
        self.counter = QueryCounter()
        if 2 ** graph.n_qubits != graph.n_nodes:
            raise OracleContractError("node count must be a power of two")
        self._leaf_results: dict = {}

    def leaf_result(self, key, build):
        """The graph-only result stored under ``key``: ``build()`` on the
        first request, the stored object on every later one.  The builder
        should return read-only arrays, since every later caller shares
        them."""
        if key not in self._leaf_results:
            self._leaf_results[key] = build()
        return self._leaf_results[key]

    @cached_property
    def _zero(self) -> np.ndarray:
        """N x N: True where the adjacency matrix is zero."""
        return self.graph.dense_adjacency() == 0

    @cached_property
    def _hub_flag(self) -> np.ndarray:
        return self.graph.hub_mask()

    @cached_property
    def _r_rows(self) -> np.ndarray:
        """Neighbor order r(l, i) as an N x N int64 array, by one stable
        sort: each row lists its neighbors first, then its zero entries,
        both ascending."""
        return np.argsort(self._zero, axis=1, kind="stable")

    @cached_property
    def _q_rows(self) -> np.ndarray:
        """Missing-link order q(l, i), by one stable sort: a hub row lists
        its zero entries first (the diagonal counts as a zero, the
        neighbors follow), a regular row its non-adjacent hubs first, each
        part ascending."""
        zero, hub_flag = self._zero, self._hub_flag
        q_first = np.where(hub_flag[:, None], zero, zero & hub_flag[None, :])
        return np.argsort(~q_first, axis=1, kind="stable")

    def _row_gate(self, rows: np.ndarray, name: str) -> OracleGate:
        n = self.graph.n_nodes
        row_base = np.arange(n, dtype=np.int64)[:, None] * n
        return OracleGate((row_base + rows).reshape(-1), name, self.counter)

    @cached_property
    def o_a(self) -> OracleGate:
        n = self.graph.n_nodes
        base = np.arange(n * n * 2, dtype=np.int64)
        ij = base >> 1
        flip = (~self._zero).reshape(-1).astype(np.int64)
        perm_a = (ij << 1) | ((base & 1) ^ flip[ij])
        return OracleGate(perm_a, "O_A", self.counter)

    @cached_property
    def o_l(self) -> OracleGate:
        return self._row_gate(self._r_rows, "O_L")

    @cached_property
    def o_h(self) -> OracleGate:
        # hubs ascending, then the non-hub nodes ascending
        return OracleGate(np.argsort(~self._hub_flag, kind="stable"), "O_H",
                          self.counter)

    @cached_property
    def o_k(self) -> OracleGate:
        base = np.arange(self.graph.n_nodes * 2, dtype=np.int64)
        i_part = base >> 1
        hub_bit = self._hub_flag.astype(np.int64)
        perm_k = (i_part << 1) | ((base & 1) ^ hub_bit[i_part])
        return OracleGate(perm_k, "O_K", self.counter)

    @cached_property
    def o_z(self) -> OracleGate:
        return self._row_gate(self._q_rows, "O_Z")

    def gates(self) -> dict[str, OracleGate]:
        return {"O_A": self.o_a, "O_L": self.o_l, "O_H": self.o_h,
                "O_K": self.o_k, "O_Z": self.o_z}


def build_oracle_set(graph: HubSparseGraph) -> OracleSet:
    return OracleSet(graph)


# -- query-model reconstructions ---------------------------------------------


class _RowProbe:
    """Counted, memoized access to one row's neighbor list.

    Each distinct l costs one neighbor-list call plus its uncompute (two
    O_L hits); an adjacency test at the returned position costs two O_A
    hits.  Memoization models a classical controller that remembers
    answers it has already queried.
    """

    def __init__(self, oracle_set: OracleSet, i: int):
        self.oracles = oracle_set
        self.i = i
        self._r_cache: dict[int, int] = {}
        self._edge_cache: dict[int, bool] = {}

    def r(self, l: int) -> int:
        if l not in self._r_cache:
            self.oracles.counter.hit("O_L", 2)
            self._r_cache[l] = int(self.oracles._r_rows[self.i, l])
        return self._r_cache[l]

    def is_edge_at(self, l: int) -> bool:
        if l not in self._edge_cache:
            pos = self.r(l)
            self.oracles.counter.hit("O_A", 2)
            self._edge_cache[l] = self.oracles.graph.has_edge(self.i, pos)
        return self._edge_cache[l]


def _degree_search(probe: _RowProbe, n: int) -> int:
    """Largest l with an actual edge at r(l, .), via binary search.

    Costs at most 2*ceil(log2 N) + 2 neighbor-list calls.
    """
    if not probe.is_edge_at(0):
        return 0
    lo, hi = 0, n - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if probe.is_edge_at(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo + 1


class QueryDerivedOK:
    """Node-type oracle rebuilt from neighbor-list queries: binary-search
    the degree, compare with N - h."""

    def __init__(self, oracle_set: OracleSet):
        self.oracles = oracle_set
        self.graph = oracle_set.graph

    def classical_apply(self, i: int, z: int = 0) -> tuple[int, int]:
        probe = _RowProbe(self.oracles, i)
        degree = _degree_search(probe, self.graph.n_nodes)
        is_hub = degree >= self.graph.n_nodes - self.graph.h_param
        return i, z ^ int(is_hub)


class QueryDerivedOZ:
    """Missing-link positions of a hub row rebuilt from neighbor queries.

    r(l, i) - l counts the zeros of the row below the (l+1)-th neighbor, so
    each of the at most h zeros is located by one binary search over l.  A
    single-zero row needs no search at all: the zero is the diagonal.
    """

    def __init__(self, oracle_set: OracleSet):
        self.oracles = oracle_set
        self.graph = oracle_set.graph

    def zeros_by_query(self, i: int) -> list[int]:
        if not self.graph.is_hub(i):
            raise OracleContractError(
                f"row {i} is not a hub; missing-link reconstruction is only "
                "specified for hub rows")
        n = self.graph.n_nodes
        probe = _RowProbe(self.oracles, i)
        degree = _degree_search(probe, n)
        n_zeros = n - degree
        if n_zeros == 1:
            return [i]  # diagonal only
        last = probe.r(degree - 1)
        below_last = last - (degree - 1)
        zeros = []
        for j in range(n_zeros):
            if below_last < j + 1:
                zeros.append(last + (j + 1 - below_last))
                continue
            lo, hi = 0, degree - 1
            while lo < hi:
                mid = (lo + hi) // 2
                if probe.r(mid) - mid >= j + 1:
                    hi = mid
                else:
                    lo = mid + 1
            # lo neighbors sit below the j-th zero, so its position is lo + j
            zeros.append(lo + j)
        return zeros

    def classical_apply(self, i: int, l: int) -> tuple[int, int]:
        zeros = self.zeros_by_query(i)
        if l < len(zeros):
            return i, zeros[l]
        zero_set = set(zeros)
        tail = [v for v in range(self.graph.n_nodes) if v not in zero_set]
        return i, tail[l - len(zeros)]


def derive_OK_by_query(oracle_set: OracleSet) -> QueryDerivedOK:
    return QueryDerivedOK(oracle_set)


def derive_OZ_by_query(oracle_set: OracleSet) -> QueryDerivedOZ:
    return QueryDerivedOZ(oracle_set)
