"""Hub-sparse graph model: generator, validator, and four-way adjacency split.

A hub-sparse graph on N nodes has M hub nodes of degree at least N - h and
N - M regular nodes of degree at most s, with N, h, s (and M, when nonzero)
powers of two.  Graphs are simple and undirected: symmetric adjacency, zero
diagonal.  All objects here are immutable after construction and safe for
concurrent reads; generation is single-threaded per call.

The split decomposes the adjacency matrix A into four pieces built around
the complete hub/regular link matrix G (G[i,j] = 1 iff exactly one of i, j
is a hub):

    A = G - A_minus + A_hub + A_reg

where A_minus holds hub-regular links present in G but absent from A,
A_hub the hub-hub links, and A_reg the regular-regular links.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import GraphStructureError, ParameterError


def is_power_of_two(x: int) -> bool:
    return x >= 1 and (x & (x - 1)) == 0


class _HubLinks:
    """Hub mask and dense link matrix G of a class with ``n_nodes`` and
    ``hubs`` fields."""

    def hub_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_nodes, dtype=bool)
        mask[list(self.hubs)] = True
        return mask

    def dense_link_matrix(self) -> np.ndarray:
        """Dense G: ones exactly where one endpoint is a hub and one is not."""
        mask = self.hub_mask()
        return (mask[:, None] ^ mask[None, :]).astype(np.int64)


@dataclass(frozen=True)
class HubSparseGraph(_HubLinks):
    """Immutable hub-sparse graph.

    ``adj`` holds one ascending-sorted neighbor tuple per node; ``hubs`` is
    the ascending-sorted tuple of hub indices.  Hubs may sit at arbitrary
    indices; nothing downstream assumes a contiguous hub block.
    """

    n_nodes: int
    adj: tuple[tuple[int, ...], ...]
    hubs: tuple[int, ...]
    m_hubs: int
    h_param: int
    s_param: int

    def __post_init__(self):
        if len(self.adj) != self.n_nodes:
            raise GraphStructureError("adjacency length does not match node count")
        object.__setattr__(self, "_hub_set", frozenset(self.hubs))
        object.__setattr__(
            self, "_edge_set",
            frozenset((min(u, v), max(u, v)) for u in range(self.n_nodes) for v in self.adj[u]),
        )

    # -- basic queries ----------------------------------------------------

    def is_hub(self, i: int) -> bool:
        return i in self._hub_set

    def degree(self, i: int) -> int:
        return len(self.adj[i])

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self._edge_set

    def edges(self) -> list[tuple[int, int]]:
        """All edges once, as (u, v) with u < v, sorted."""
        return sorted(self._edge_set)

    @property
    def regulars(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n_nodes) if i not in self._hub_set)

    @property
    def n_qubits(self) -> int:
        return (self.n_nodes - 1).bit_length()

    # -- dense views -------------------------------------------------------

    def dense_adjacency(self) -> np.ndarray:
        a = np.zeros((self.n_nodes, self.n_nodes), dtype=np.int64)
        for u, v in self._edge_set:
            a[u, v] = 1
            a[v, u] = 1
        return a


@dataclass(frozen=True)
class GraphSplit(_HubLinks):
    """Edge-set decomposition A = G - A_minus + A_hub + A_reg.

    ``a_minus`` pairs are stored (hub, regular); ``a_h`` and ``a_r`` pairs
    are stored (u, v) with u < v.
    """

    n_nodes: int
    hubs: tuple[int, ...]
    a_minus: frozenset[tuple[int, int]]
    a_h: frozenset[tuple[int, int]]
    a_r: frozenset[tuple[int, int]]

    def _dense_from(self, pairs) -> np.ndarray:
        m = np.zeros((self.n_nodes, self.n_nodes), dtype=np.int64)
        for u, v in pairs:
            m[u, v] = 1
            m[v, u] = 1
        return m

    def dense_a_minus(self) -> np.ndarray:
        return self._dense_from(self.a_minus)

    def dense_a_h(self) -> np.ndarray:
        return self._dense_from(self.a_h)

    def dense_a_r(self) -> np.ndarray:
        return self._dense_from(self.a_r)

    def reconstruct(self) -> np.ndarray:
        """Dense G - A_minus + A_hub + A_reg (integer arithmetic)."""
        return (self.dense_link_matrix() - self.dense_a_minus()
                + self.dense_a_h() + self.dense_a_r())


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    conditions: tuple[tuple[str, bool, str], ...]

    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, ok, detail in self.conditions if not ok]

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "conditions": [
                {"name": name, "passed": ok, "detail": detail}
                for name, ok, detail in self.conditions
            ],
        }


def validate(graph: HubSparseGraph) -> ValidationReport:
    """Check the hub-sparse conditions and structural invariants.

    Violations are reported, never raised; the report names every offending
    node per condition.  The graph is immutable, so the report is computed
    once and kept on the graph.
    """
    cached = graph.__dict__.get("_validation")
    if cached is not None:
        return cached
    n, m, h, s = graph.n_nodes, graph.m_hubs, graph.h_param, graph.s_param
    conditions = []

    ok_sizes = is_power_of_two(n) and is_power_of_two(h) and is_power_of_two(s) \
        and (m == 0 or is_power_of_two(m)) and m < n
    conditions.append((
        "power_of_two_parameters", ok_sizes,
        f"N={n} M={m} h={h} s={s}" if ok_sizes else
        f"N={n} M={m} h={h} s={s} must be powers of two (M may be 0) with M < N",
    ))

    ok_count = len(graph.hubs) == m and len(set(graph.hubs)) == len(graph.hubs) \
        and all(0 <= u < n for u in graph.hubs)
    conditions.append((
        "hub_count", ok_count,
        f"|hubs|={len(graph.hubs)} matches M={m}" if ok_count else
        f"hubs {list(graph.hubs)} must be M={m} distinct nodes in [0, {n})",
    ))

    structural = []
    for u in range(n):
        row = graph.adj[u]
        if list(row) != sorted(set(row)):
            structural.append(f"node {u}: neighbor list not sorted/unique")
        if any(v == u for v in row):
            structural.append(f"node {u}: self-loop")
        if any(not (0 <= v < n) for v in row):
            structural.append(f"node {u}: neighbor out of range")
        for v in row:
            if 0 <= v < n and u not in graph.adj[v]:
                structural.append(f"edge {u}-{v} not symmetric")
    conditions.append((
        "simple_symmetric", not structural,
        "; ".join(structural) if structural else "symmetric, zero diagonal",
    ))

    bad_hubs = [u for u in graph.hubs
                if 0 <= u < n and graph.degree(u) < n - h]
    conditions.append((
        "hub_min_degree", not bad_hubs,
        f"hubs below degree {n - h}: {bad_hubs}" if bad_hubs else
        f"all hub degrees >= {n - h}",
    ))

    bad_regs = [u for u in graph.regulars if graph.degree(u) > s]
    conditions.append((
        "regular_max_degree", not bad_regs,
        f"regular nodes above degree {s}: {bad_regs}" if bad_regs else
        f"all regular degrees <= {s}",
    ))

    report = ValidationReport(all(ok for _, ok, _ in conditions),
                              tuple(conditions))
    object.__setattr__(graph, "_validation", report)
    return report


def split(graph: HubSparseGraph) -> GraphSplit:
    """Decompose the adjacency into missing hub-regular, hub-hub and
    regular-regular edge sets so that A = G - A_minus + A_hub + A_reg
    holds entrywise."""
    report = validate(graph)
    if not report.passed:
        raise GraphStructureError(
            "cannot split an invalid graph: " + "; ".join(report.failures()))
    hubset = set(graph.hubs)
    a_minus, a_h, a_r = set(), set(), set()
    for u in graph.hubs:
        for v in range(graph.n_nodes):
            if v not in hubset and not graph.has_edge(u, v):
                a_minus.add((u, v))
    for u, v in graph.edges():
        u_hub, v_hub = u in hubset, v in hubset
        if u_hub and v_hub:
            a_h.add((u, v))
        elif not u_hub and not v_hub:
            a_r.add((u, v))
    return GraphSplit(graph.n_nodes, graph.hubs,
                      frozenset(a_minus), frozenset(a_h), frozenset(a_r))


def _feasibility_check(n: int, m: int, s: int, h: int) -> None:
    for name, val in (("n_nodes", n), ("s_param", s), ("h_param", h)):
        if not is_power_of_two(val):
            raise ParameterError(f"{name}={val} must be a power of two")
    if m != 0 and not is_power_of_two(m):
        raise ParameterError(f"m_hubs={m} must be 0 or a power of two")
    if m >= n:
        raise ParameterError(f"m_hubs={m} must be smaller than n_nodes={n}")
    if m > s:
        raise ParameterError(
            f"m_hubs={m} exceeds s_param={s}: regular nodes cannot host all "
            "hub links while every hub keeps its minimum degree")
    if h >= n:
        raise ParameterError(f"h_param={h} must be smaller than n_nodes={n}")


def generate(n_nodes: int, m_hubs: int, s_param: int, h_param: int,
             rng_seed: int) -> HubSparseGraph:
    """Draw a random hub-sparse graph satisfying the degree conditions.

    Strategy: connect every hub to every regular node, wire hub-hub links
    (completely when M > h, randomly otherwise), delete a random budget of
    hub-regular links per hub, then sprinkle regular-regular links under
    the degree cap s.  Deletions are capped so no regular node misses more
    than h hubs, which the missing-link encodings rely on.  Deterministic
    for a fixed seed.
    """
    _feasibility_check(n_nodes, m_hubs, s_param, h_param)
    rng = np.random.default_rng(rng_seed)
    n, m, s, h = n_nodes, m_hubs, s_param, h_param

    hubs = sorted(int(x) for x in rng.choice(n, size=m, replace=False)) if m else []
    hubset = set(hubs)
    regulars = [v for v in range(n) if v not in hubset]
    edges: set[tuple[int, int]] = set()

    def add(u, v):
        edges.add((min(u, v), max(u, v)))

    for u in hubs:
        for v in regulars:
            add(u, v)

    hh_degree = dict.fromkeys(hubs, 0)
    if m >= 2:
        complete_hub_core = m > h
        for i, u in enumerate(hubs):
            for v in hubs[i + 1:]:
                if complete_hub_core or rng.random() < 0.5:
                    add(u, v)
                    hh_degree[u] += 1
                    hh_degree[v] += 1

    missing = dict.fromkeys(regulars, 0)
    for u in hubs:
        degree_u = (n - m) + hh_degree[u]
        budget = min(h - 1, degree_u - (n - h))
        if budget <= 0:
            continue
        n_delete = int(rng.integers(0, budget + 1))
        candidates = [v for v in regulars if missing[v] < h]
        rng.shuffle(candidates)
        for v in candidates[:n_delete]:
            edges.discard((min(u, v), max(u, v)))
            missing[v] += 1

    reg_degree = {v: m - missing[v] for v in regulars}
    n_attempts = 2 * n * max(1, s // 2)
    for _ in range(n_attempts):
        if len(regulars) < 2:
            break
        u, v = (int(x) for x in rng.choice(len(regulars), size=2, replace=False))
        u, v = regulars[u], regulars[v]
        if reg_degree[u] >= s or reg_degree[v] >= s:
            continue
        key = (min(u, v), max(u, v))
        if key in edges:
            continue
        edges.add(key)
        reg_degree[u] += 1
        reg_degree[v] += 1

    graph = _from_edges(n, hubs, edges, m, h, s)
    report = validate(graph)
    if not report.passed:
        raise ParameterError(
            "generated graph failed validation (infeasible parameters?): "
            + "; ".join(report.failures()))
    return graph


def _from_edges(n, hubs, edges, m, h, s) -> HubSparseGraph:
    neighbors = [[] for _ in range(n)]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    adj = tuple(tuple(sorted(row)) for row in neighbors)
    return HubSparseGraph(n, adj, tuple(sorted(hubs)), m, h, s)


def dg8() -> HubSparseGraph:
    """Canonical 8-node fixture: hubs {6, 7}, one missing hub link (6-0),
    one hub-hub link (6-7), one regular link (1-2); M=2, h=2, s=4.

    The smallest instance in which all four split matrices are nonzero
    at once.
    """
    edges = {(j, 7) for j in range(7)} | {(j, 6) for j in range(1, 6)} | {(6, 7), (1, 2)}
    edges = {(min(u, v), max(u, v)) for u, v in edges}
    return _from_edges(8, [6, 7], edges, 2, 2, 4)


# -- JSON interface --------------------------------------------------------

def to_json_dict(graph: HubSparseGraph) -> dict:
    return {
        "nodes": graph.n_nodes,
        "hubs": list(graph.hubs),
        "edges": [[u, v] for u, v in graph.edges()],
        "params": {"M": graph.m_hubs, "h": graph.h_param, "s": graph.s_param},
    }


def from_json_dict(data: dict) -> HubSparseGraph:
    try:
        n = int(data["nodes"])
        hubs = [int(x) for x in data["hubs"]]
        raw_edges = [(int(u), int(v)) for u, v in data["edges"]]
        params = data["params"]
        m, h, s = int(params["M"]), int(params["h"]), int(params["s"])
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphStructureError(f"malformed graph document: {exc}") from exc
    if len(hubs) != m:
        raise GraphStructureError(f"hub list {hubs} must have M={m} entries")
    if any(not (0 <= u < n) for u in hubs):
        raise GraphStructureError(f"hub index out of range in {hubs}")
    if len(set(hubs)) != len(hubs):
        raise GraphStructureError(f"duplicate hub in {hubs}")
    seen = set()
    for u, v in raw_edges:
        if u == v:
            raise GraphStructureError(f"self-loop edge [{u}, {v}] rejected")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphStructureError(f"edge [{u}, {v}] out of range")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphStructureError(f"duplicate edge [{u}, {v}] rejected")
        seen.add(key)
    return _from_edges(n, hubs, seen, m, h, s)


def save_graph(graph: HubSparseGraph, path: str) -> None:
    from .jsonio import dump_json
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(to_json_dict(graph)))


def load_graph(path: str) -> HubSparseGraph:
    with open(path, encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))
