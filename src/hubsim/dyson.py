"""Interaction-picture evolution: controlled link-matrix evolutions, dressed
time-indexed residual encodings, truncated ordered-series segments, and the
end-to-end pipeline.

The full evolution is sliced into segments of length tau.  Per segment, the
frame rotated by the link evolution exp(-iGs) turns the adjacency generator
into the bounded, time-dependent residual  Hr(s) = e^{iGs} (A - G) e^{-iGs},
whose time-ordered propagator is expanded as a truncated ordered series over
a time grid of size D:

    C_k = D^{-k} sum_{d_1 <= ... <= d_k} Hr(d_k tau/D) ... Hr(d_1 tau/D)
    segment block  ~  sum_{k<=K} (-i tau)^k C_k

and the original-frame step is exp(-iG tau) applied after the segment.

The per-order totals D^k C_k are evaluated by grid doubling (Chen's
identity for iterated sums over joined intervals): the grid evolutions
E(d) are products of log2(D) bit evolutions E_j, all functions of G, so
they commute and the residual on the upper half of a doubled grid is the
lower half conjugated by one bit evolution.  That turns the D-point sums
into log2(D) merge steps of (K+1)(K+2)/2 matmuls each; the bit evolutions
are checked to commute before the merge.

Every Dyson object is built from two leaf encodings, exp(-iGt) and the
residual H2 = A - G.  A solve's ``LeafBlocks`` supplies both and is the one
place that knows the graph, the oracle set and the evaluation tier; every
builder here takes it and nothing it already carries.  The "circuit" tier
extracts each leaf block from its circuit (controlled-evolution cascades,
the sparse-piece encodings); the "classical-ff" tier substitutes the
verified dense blocks, which keeps the combinatorial assembly testable up
to larger N.  The rotation stage applies the same exp(-iG tau) block in
both tiers.  Combined blocks follow the exact composition rules for
disjoint ancilla banks, so no full-width state is ever materialized.  The
composite circuits (the select cascade, the dressed residual, the segment)
carry complete register bookkeeping but are built on first use, never
eagerly.  Building one allocates no amplitudes, so any of them can be
counted (``gate_count``, ``query_profile``) at any width; running one
through ``extract_block`` past the qubit cap raises a resource error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blockenc import (BlockEncoding, amplification_degree, fixed_point_aa,
                       unitary_with_first_column)
from .errors import (ConfigurationError, EncodingError, GraphStructureError,
                     ParameterError)
from .ffhub import (build_expG, classical_expG_apply, expG_bundle,
                    hub_block_factor, link_norm)
from .netgraph import HubSparseGraph, validate
from .oracles import OracleSet, build_oracle_set
from .qstate import (Circuit, DenseGate, FunctionalPermutation, LazyCircuit,
                     RegisterLayout, check_dense_block, hadamard_layer)
from .sparse_enc import encode_H2


def evolution_scales(graph: HubSparseGraph) -> tuple[float, float]:
    """(alpha1, alpha2): the link-matrix norm and the residual combination
    factor h + M + s (s alone when hub-free)."""
    alpha1 = link_norm(graph)
    if graph.m_hubs == 0:
        alpha2 = float(graph.s_param)
    else:
        alpha2 = float(graph.h_param + graph.m_hubs + graph.s_param)
    return alpha1, alpha2


def truncation_bound(alpha2: float, tau: float, big_k: int) -> float:
    """(e alpha2 tau)^(K+1) / (K+1)! - the ordered-series tail estimate."""
    x = math.e * alpha2 * tau
    return x ** (big_k + 1) / math.factorial(big_k + 1)


def _next_pow2(x: int) -> int:
    return 1 << max(1, (int(x) - 1).bit_length())


@dataclass(frozen=True)
class DysonConfig:
    """Segment parameters: length tau, grid size D, truncation order K, and
    the error budget of one segment."""

    tau: float
    big_d: int
    big_k: int
    eps_segment: float

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ConfigurationError("tau must be finite and positive")
        if self.big_d < 2 or (self.big_d & (self.big_d - 1)):
            raise ConfigurationError(
                f"D={self.big_d} must be a power of two >= 2")
        if self.big_k < 0:
            raise ConfigurationError("K must be >= 0")
        if not (math.isfinite(self.eps_segment) and self.eps_segment > 0):
            raise ConfigurationError("eps_segment must be finite and positive")


def check_eps(eps: float) -> None:
    """Raise ``ParameterError`` unless eps is finite and positive."""
    if not (math.isfinite(eps) and eps > 0):
        raise ParameterError(f"eps must be finite and positive, got {eps}")


def default_config(graph: HubSparseGraph, t: float, eps: float) -> DysonConfig:
    """Segment schedule for evolving time t within eps: tau = min(t,
    1/(2 alpha2)) with budget eps_segment = eps tau / t (eps when one
    segment covers t); K the smallest order whose tail bound clears half
    that budget; D the grid bound 2 (alpha1 + alpha2) tau / eps_segment,
    rounded up to a power of two.  t and eps must be finite and
    positive."""
    if not (math.isfinite(t) and t > 0):
        raise ParameterError(f"no segment to schedule for t={t}")
    check_eps(eps)
    alpha1, alpha2 = evolution_scales(graph)
    tau = min(t, 1.0 / (2.0 * alpha2))
    # eps itself when one segment covers t: eps * t / t can round
    eps_seg = eps * tau / t if t > tau else eps
    big_k = 1
    while truncation_bound(alpha2, tau, big_k) > eps_seg / 2.0 and big_k < 60:
        big_k += 1
    big_d = _next_pow2(math.ceil(2.0 * (alpha1 + alpha2) * tau / eps_seg))
    return DysonConfig(tau, big_d, big_k, eps_seg)


# -- leaf blocks --------------------------------------------------------------


class LeafBlocks:
    """Leaf-block source of one solve, and the one holder of its graph,
    oracle set and tier.

    ``method`` names the tier as in ``simulate_full``: "circuit" extracts
    every leaf block from its circuit, "classical-ff" substitutes the
    verified dense forms.  The graph is validated here, once.  One source
    per solve builds the residual encoding, the t-independent exp(-iGt)
    bundle and each distinct exp(-iGt) encoding once, and drops them with
    the solve.  The oracle set is built on first use when none is given;
    one built on another graph raises ``ParameterError``.  Both tiers hold
    dense N x N blocks, so a graph past the dense-block cap raises
    ``ResourceError`` before anything is validated or built.
    """

    def __init__(self, graph: HubSparseGraph, method: str = "circuit",
                 oracle_set: OracleSet | None = None):
        if method not in ("circuit", "classical-ff"):
            raise ParameterError(f"unknown method {method!r}")
        check_dense_block(graph.n_qubits, "leaf_blocks")
        report = validate(graph)
        if not report.passed:
            raise GraphStructureError("; ".join(report.failures()))
        if oracle_set is not None and oracle_set.graph != graph:
            raise ParameterError("oracle set was built on another graph")
        self.graph = graph
        self.method = method
        self._oracles = oracle_set
        self._h2 = None
        self._exp_g_bundle = None
        self._exp_g: dict[tuple[float, float], BlockEncoding] = {}

    @property
    def oracles(self) -> OracleSet:
        if self._oracles is None:
            self._oracles = build_oracle_set(self.graph)
        return self._oracles

    def exp_g_encoding(self, t: float, eps: float) -> BlockEncoding:
        """Encoding of exp(-iGt) to eps, built once per (t, eps) on the
        shared t-independent bundle."""
        key = (t, eps)
        if key not in self._exp_g:
            if self._exp_g_bundle is None and self.graph.m_hubs:
                self._exp_g_bundle = expG_bundle(self.oracles)
            self._exp_g[key] = build_expG(self.oracles, t, eps,
                                          bundle=self._exp_g_bundle)
        return self._exp_g[key]

    def exp_g_block(self, t: float, eps: float) -> np.ndarray:
        """The N x N block of exp(-iGt): extracted from its encoding to eps,
        or exact from the rank-two fast path."""
        if self.method == "circuit":
            return self.exp_g_encoding(t, eps).block()
        eye = np.eye(2 ** self.graph.n_qubits, dtype=np.complex128)
        return classical_expG_apply(self.graph, t, eye)

    def h2_encoding(self) -> BlockEncoding:
        if self._h2 is None:
            self._h2 = encode_H2(self.oracles)
        return self._h2

    def h2_block(self) -> tuple[np.ndarray, float, int]:
        """(normalized residual block, alpha2, ancilla count)."""
        if self.method == "circuit":
            be = self.h2_encoding()
            return be.block(), be.alpha, be.m
        _, alpha2 = evolution_scales(self.graph)
        n = self.graph.n_qubits
        dense = (self.graph.dense_adjacency()
                 - self.graph.dense_link_matrix()).astype(np.complex128)
        m_book = n + 6 if self.graph.m_hubs else n + 4
        return dense / alpha2, alpha2, m_book


def _grid_blocks(bit_blocks: list[np.ndarray], lo: int, hi: int,
                 dim: int) -> np.ndarray:
    """E(d) for d in [lo, hi): products of the selected bit evolutions,
    later bits applied later (left)."""
    count = hi - lo
    out = np.broadcast_to(np.eye(dim, dtype=np.complex128),
                          (count, dim, dim)).copy()
    d_vals = np.arange(lo, hi)
    for j, blk in enumerate(bit_blocks):
        mask = (d_vals >> j) & 1 == 1
        if np.any(mask):
            out[mask] = blk @ out[mask]
    return out


# -- controlled-evolution select and dressed residual -------------------------


class SelectGEncoding(BlockEncoding):
    """Encoding of sum_d |d><d| (x) exp(-iG d tau / D); block-diagonal in d.

    D = 2^len(bit_blocks), and the ancillas are the qubits of the unitary
    beyond the log2(D) + n system qubits.  Subclasses change only ``_at``,
    the block at one grid point as a function of its evolution E(d)."""

    stage = "select_g"

    def __init__(self, unitary, bit_blocks, eps, alpha=1.0):
        self.bit_blocks = bit_blocks
        self.big_d = 2 ** len(bit_blocks)
        self._dim = bit_blocks[0].shape[0]
        n_sys = len(bit_blocks) + int(math.log2(self._dim))
        super().__init__(unitary, alpha, unitary.width - n_sys, n_sys,
                         eps=eps, label=self.stage)

    def _at(self, e_d: np.ndarray) -> np.ndarray:
        return e_d

    def d_block(self, d: int) -> np.ndarray:
        return self._at(_grid_blocks(self.bit_blocks, d, d + 1, self._dim)[0])

    def _full_block(self) -> np.ndarray:
        # the dense block spans log2(D) + n system qubits
        check_dense_block(self.n_sys, self.stage)
        dim = self._dim
        total = np.zeros((self.big_d * dim, self.big_d * dim),
                         dtype=np.complex128)
        grid = _grid_blocks(self.bit_blocks, 0, self.big_d, dim)
        for d in range(self.big_d):
            total[d * dim:(d + 1) * dim, d * dim:(d + 1) * dim] = \
                self._at(grid[d])
        return total


def build_selectG(leaves: LeafBlocks, tau: float, big_d: int,
                  eps: float) -> SelectGEncoding:
    """Cascade of controlled link evolutions over a log2(D)-qubit grid
    register.

    Bit j of the grid register controls one evolution of length
    tau 2^j / D, each built to per-unitary error below eps / (2 log2 D) so
    the cascaded error telescopes within eps; the cascade shares a single
    8-qubit ancilla bank, which is sound because each factor is a
    unit-factor encoding of a unitary.  The cascade circuit is built on
    first use, from the same bit encodings of ``leaves``, the solve's leaf
    source, as the blocks.
    """
    if big_d < 2 or big_d & (big_d - 1):
        raise ConfigurationError(f"D={big_d} must be a power of two >= 2")
    n = leaves.graph.n_qubits
    log_d = int(math.log2(big_d))
    eps_unit = eps / (2.0 * log_d * (log_d + 1))
    bit_blocks = [leaves.exp_g_block(tau * (2 ** j) / big_d, eps_unit)
                  for j in range(log_d)]

    def build_circuit():
        layout = RegisterLayout(("bank", 8), ("d", log_d), ("sys", n))
        circ = Circuit(layout, label="select_g")
        bank_sys = list(layout.axes("bank")) + list(layout.axes("sys"))
        d_axes = layout.axes("d")
        for j in range(log_d):
            be = leaves.exp_g_encoding(tau * (2 ** j) / big_d, eps_unit)
            ctrl_axis = d_axes[log_d - 1 - j]  # bit of weight 2^j
            circ.append(be.unitary, qubits=bank_sys,
                        controls=[(ctrl_axis, 1)])
        return circ

    unitary = LazyCircuit(8 + log_d + n, build_circuit, label="select_g")
    return SelectGEncoding(unitary, bit_blocks, eps)


class DressedResidualEncoding(SelectGEncoding):
    """Encoding of sum_d |d><d| (x) e^{iG d tau/D} (A - G) e^{-iG d tau/D}."""

    stage = "dressed_h2"

    def __init__(self, unitary, bit_blocks, h2_block, alpha2, eps):
        self.h2_norm_block = h2_block
        super().__init__(unitary, bit_blocks, eps, alpha=alpha2)

    def _at(self, e_d: np.ndarray) -> np.ndarray:
        return e_d.conj().T @ self.h2_norm_block @ e_d


def build_dressed_H2(leaves: LeafBlocks, tau: float, big_d: int,
                     eps: float) -> DressedResidualEncoding:
    """Conjugate the residual encoding by the controlled-evolution cascade.

    The two cascades and the residual encoding keep three disjoint ancilla
    banks (8 + m + 8 qubits), so the combined block is exactly the product
    of the three sub-blocks, grid value by grid value.  The cascade gets
    eps / 2.5 of the budget.  The circuit is built on first use.
    """
    n = leaves.graph.n_qubits
    log_d = int(math.log2(big_d))
    select = build_selectG(leaves, tau, big_d, eps / 2.5)
    h2_block, alpha2, m_h2 = leaves.h2_block()

    def build_circuit():
        layout = RegisterLayout(("cga", 8), ("h2bank", m_h2), ("cgb", 8),
                                ("d", log_d), ("sys", n))
        circ = Circuit(layout, label="dressed_h2")
        d_sys = list(layout.axes("d")) + list(layout.axes("sys"))
        circ.append(select.unitary,
                    qubits=list(layout.axes("cga")) + d_sys)
        circ.append(leaves.h2_encoding().unitary,
                    qubits=list(layout.axes("h2bank")) + list(layout.axes("sys")))
        circ.append(select.unitary,
                    qubits=list(layout.axes("cgb")) + d_sys, adjoint=True)
        return circ

    unitary = LazyCircuit(16 + m_h2 + log_d + n, build_circuit,
                          label="dressed_h2")
    return DressedResidualEncoding(unitary, select.bit_blocks, h2_block,
                                   alpha2, eps)


# -- segment assembly ----------------------------------------------------------


def _check_commuting(bit_blocks) -> None:
    """Raise EncodingError unless every pair of bit evolutions commutes to
    within 1e-12 (largest entry of the commutator)."""
    stack = np.stack(bit_blocks)
    for i in range(len(bit_blocks) - 1):
        rest = stack[i + 1:]
        comm = stack[i] @ rest - rest @ stack[i]
        worst = float(np.max(np.abs(comm)))
        if worst > 1e-12:
            raise EncodingError(
                f"bit evolutions do not commute: max|[E_{i}, E_j]| = "
                f"{worst:.3e} > 1e-12")


def _ordered_series_totals(bit_blocks, h2_block: np.ndarray,
                           big_k: int) -> list[np.ndarray]:
    """T_k = sum over d_1 <= ... <= d_k of B(d_k) ... B(d_1), k = 0 .. K,
    with B(d) = E(d)^dag H2 E(d) the normalized dressed residual at grid
    point d.

    Grid doubling (Chen's identity for iterated sums over joined
    intervals): the totals over [0, 2^(j+1)) split by how many indices fall
    in the upper half [2^j, 2^(j+1)), where B(d + 2^j) = E_j^dag B(d) E_j
    because all bit evolutions E_j are functions of G and commute.  Starting
    from the single point d=0, where T_k = H2^k, each bit block, low to
    high, updates

        T_k <- sum_{a+b=k} U_a T_b,   U_0 = I,  U_a = E_j^dag T_a E_j,

    for log2(D) (K+1)(K+2)/2 matmuls in all.  U_0 is the exact identity
    because extracted circuit-tier blocks are unitary only to within their
    encoding error; a block with unitarity defect delta moves T_k off the
    D-point sum by about k log2(D) delta relative.  Raises EncodingError
    when the bit blocks do not commute to 1e-12.
    """
    dim = h2_block.shape[0]
    eye = np.eye(dim, dtype=np.complex128)
    if big_k == 0:
        return [eye]
    _check_commuting(bit_blocks)
    # series[k - 1] holds T_k for k = 1 .. K; the a = 1 .. k-1 products of
    # one order are batched into a single matmul call
    series = np.empty((big_k, dim, dim), dtype=np.complex128)
    series[0] = h2_block
    for k in range(1, big_k):
        series[k] = h2_block @ series[k - 1]
    for e_j in bit_blocks:
        upper = e_j.conj().T @ series @ e_j
        joined = series + upper
        for k in range(2, big_k + 1):
            joined[k - 1] += np.sum(upper[:k - 1] @ series[k - 2::-1], axis=0)
        series = joined
    return [eye] + list(series)


def _segment_registers(big_k: int, log_d: int, m_bank: int,
                       n: int) -> list[tuple[str, int]]:
    """Register list of the assembled segment circuit, ancillas first and
    the system register last.  The flag banks hold one qubit per boundary
    between adjacent time slots; at K = 0 the order index is empty too."""
    n_flags = max(0, big_k - 1)
    return ([("kidx", big_k.bit_length())]
            + [(f"t{j}", log_d) for j in range(1, big_k + 1)]
            + [("pflag", n_flags), ("oflag", n_flags),
               ("bank", m_bank), ("sys", n)])


def _build_segment_circuit(graph, config, dressed):
    """Honest assembled segment circuit: order-index prepare, per-slot time
    registers with ordering tests, shared-bank dressed applications with
    carry flags, and the unprepare.  Construction only; running it needs a
    width far past any sensible cap."""
    n = graph.n_qubits
    big_k, big_d = config.big_k, config.big_d
    log_d = int(math.log2(big_d))
    layout = RegisterLayout(*_segment_registers(big_k, log_d, dressed.m, n))
    circ = Circuit(layout, label="dyson_segment")
    kw = layout.reg_width("kidx")

    weights = [(-1j * config.tau * dressed.alpha) ** k
               for k in range(big_k + 1)]
    col = np.zeros(2 ** kw, dtype=np.complex128)
    col[:len(weights)] = np.sqrt(np.asarray(weights)
                                 / np.sum(np.abs(weights)))
    circ.append(DenseGate(unitary_with_first_column(col), label="prep_k"),
                on=["kidx"])
    bank = list(layout.axes("bank"))
    bank_w = len(bank)

    def bank_flag_gate():
        # flips the flag qubit unless the shared bank reads all-zero
        def fn(idx):
            bank_val = idx >> 1
            return np.where(bank_val == 0, idx, idx ^ 1)
        return FunctionalPermutation(bank_w + 1, fn, label="bank_flag")

    def order_gate():
        mask = (1 << log_d) - 1

        def fn(idx):
            a = idx >> (log_d + 1)
            b = (idx >> 1) & mask
            return np.where(a > b, idx ^ 1, idx)
        return FunctionalPermutation(2 * log_d + 1, fn, label="order_test")

    for j in range(1, big_k + 1):
        for k_val in range(j, big_k + 1):
            circ.append(hadamard_layer(log_d), on=[f"t{j}"],
                        controls=[("kidx", k_val)])
    for j in range(1, big_k + 1):
        for k_val in range(j, big_k + 1):
            circ.append(dressed.unitary,
                        qubits=bank + list(layout.axes(f"t{j}"))
                        + list(layout.axes("sys")),
                        controls=[("kidx", k_val)])
        if j < big_k:
            flag_axis = layout.axes("pflag")[j - 1]
            circ.append(bank_flag_gate(), qubits=bank + [flag_axis])
            oflag_axis = layout.axes("oflag")[j - 1]
            for k_val in range(j + 1, big_k + 1):
                circ.append(order_gate(),
                            qubits=list(layout.axes(f"t{j}"))
                            + list(layout.axes(f"t{j + 1}")) + [oflag_axis],
                            controls=[("kidx", k_val)])
    for j in range(1, big_k + 1):
        for k_val in range(j, big_k + 1):
            circ.append(hadamard_layer(log_d), on=[f"t{j}"],
                        controls=[("kidx", k_val)])
    circ.append(DenseGate(unitary_with_first_column(np.conj(col)),
                          label="unprep_k"), on=["kidx"], adjoint=True)
    return circ


class _SegmentEncoding(BlockEncoding):
    """Segment encoding whose block is its own truncated series."""

    def _full_block(self) -> np.ndarray:
        return segment_block_at_order(self, self.config.big_k) / self.alpha


def dyson_segment(leaves: LeafBlocks, config: DysonConfig,
                  check_budget: bool = True) -> BlockEncoding:
    """Block encoding of the rotated-frame segment propagator over [0, tau].

    The combination factor is sum_k (alpha2 tau)^k; with tau = 1/(2 alpha2)
    it stays below 2, which keeps the final amplification cheap.  Raises a
    configuration error when the truncation or grid bounds cannot reach the
    per-segment budget.
    """
    graph = leaves.graph
    alpha1, alpha2 = evolution_scales(graph)
    tau, big_d, big_k = config.tau, config.big_d, config.big_k
    eps_seg = config.eps_segment
    if tau > 1.0 / (2.0 * alpha2) + 1e-12:
        raise ConfigurationError(
            f"tau={tau:.6g} exceeds 1/(2 alpha2)={1.0 / (2 * alpha2):.6g}")
    if check_budget and big_k >= 1:
        tail = truncation_bound(alpha2, tau, big_k)
        if tail > eps_seg / 2.0:
            raise ConfigurationError(
                f"truncation order K={big_k} leaves tail bound {tail:.3e} "
                f"> eps_segment/2 = {eps_seg / 2.0:.3e}")
        d_needed = 2.0 * (alpha1 + alpha2) * tau / eps_seg
        if big_d < d_needed:
            raise ConfigurationError(
                f"grid size D={big_d} below the bound "
                f"2(alpha1+alpha2)tau/eps_segment = {d_needed:.3e}")

    n = graph.n_qubits
    log_d = int(math.log2(big_d))
    # the select cascade inside gets eps_seg / 4
    dressed = build_dressed_H2(leaves, tau, big_d, 2.5 * eps_seg / 4.0)
    lam = float(sum((tau * dressed.alpha) ** k for k in range(big_k + 1)))
    totals = _ordered_series_totals(dressed.bit_blocks, dressed.h2_norm_block,
                                    big_k)

    m_seg = sum(width for _, width in
                _segment_registers(big_k, log_d, dressed.m, n)[:-1])
    unitary = LazyCircuit(
        m_seg + n, lambda: _build_segment_circuit(graph, config, dressed),
        label="dyson_segment")
    be = _SegmentEncoding(unitary, lam, m_seg, n, eps=eps_seg,
                          label="dyson_segment")
    be.config = config
    be.series_totals = totals
    be.alpha2_enc = dressed.alpha
    return be


def segment_block_at_order(be: BlockEncoding, big_k: int) -> np.ndarray:
    """Unnormalized segment block truncated at a lower order, from the
    per-order totals of an already assembled segment encoding."""
    totals = be.series_totals
    if big_k >= len(totals):
        raise ParameterError(f"segment was assembled only up to order "
                             f"{len(totals) - 1}")
    tau = be.config.tau
    big_d = be.config.big_d
    out = np.zeros_like(totals[0])
    for k in range(big_k + 1):
        out += ((-1j * tau * be.alpha2_enc) ** k / big_d ** k) * totals[k]
    return out


# -- end-to-end pipeline -------------------------------------------------------


def _merge_profiles(*scaled):
    out: dict[str, int] = {}
    for profile, factor in scaled:
        for key, val in profile.items():
            out[key] = out.get(key, 0) + val * factor
    return out


def _structural_oracle_profile(graph, l_expg, n_expg_stage, n_h2):
    """Oracle tallies from the circuit structure: each evolution-stage call
    runs l_expg reflections of the two projector-marking circuits (four
    eigenvector preparations each, one type query and one hub lookup per
    preparation); each residual application touches every oracle O(1)
    times."""
    per_expg = {"O_K": 8 * l_expg, "O_H": 8 * l_expg}
    if graph.m_hubs:
        per_h2 = {"O_A": 6, "O_K": 10, "O_H": 2, "O_L": 2, "O_Z": 2}
    else:
        per_h2 = {"O_A": 2, "O_K": 4, "O_L": 2}
    return _merge_profiles((per_expg, n_expg_stage), (per_h2, n_h2))


@dataclass
class RunReport:
    t: float
    eps: float
    method: str
    segments: int
    big_k: int
    big_d: int
    tau: float
    alpha1: float
    alpha2: float
    expg_stage_calls: int
    expg_grid_calls: int
    queries: dict
    budget: dict
    norm_deficit: float
    final_error_vs_reference: float | None = None

    def as_dict(self) -> dict:
        out = {
            "t": self.t, "eps": self.eps, "method": self.method,
            "segments": self.segments, "K": self.big_k, "D": self.big_d,
            "tau": self.tau, "alpha1": self.alpha1, "alpha2": self.alpha2,
            "expG_stage_calls": self.expg_stage_calls,
            "expG_grid_calls": self.expg_grid_calls,
            "queries": dict(sorted(self.queries.items())),
            "budget": self.budget,
            "norm_deficit": self.norm_deficit,
        }
        if self.final_error_vs_reference is not None:
            out["final_error_vs_reference"] = self.final_error_vs_reference
        return out


def simulate_full(graph: HubSparseGraph, t: float, eps: float,
                  psi0: np.ndarray, method: str = "circuit",
                  oracle_set: OracleSet | None = None
                  ) -> tuple[np.ndarray, RunReport]:
    """Evolve psi0 under the adjacency generator for time t within eps.

    Slices [0, t] into segments of length tau, applies the amplified
    segment propagator followed by the link-matrix rotation per segment,
    and a reduced-length final segment for the remainder.  ``method``
    selects the tier of the solve's ``LeafBlocks``: "circuit" extracts
    every leaf from its circuit, "classical-ff" substitutes the verified
    dense forms.  The rotation applies that source's exp(-iG tau) block.
    """
    check_eps(eps)
    if not (math.isfinite(t) and t >= 0):
        raise ParameterError(f"t must be finite and nonnegative, got {t}")
    leaves = LeafBlocks(graph, method, oracle_set)
    psi = np.asarray(psi0, dtype=np.complex128).copy()
    dim = 2 ** graph.n_qubits
    if psi.shape != (dim,):
        raise ParameterError(f"psi0 must have length {dim}")
    # written so that a NaN norm fails too
    if not abs(np.linalg.norm(psi) - 1.0) <= 1e-10:
        raise ParameterError("psi0 must be normalized")
    alpha1, alpha2 = evolution_scales(graph)

    if t == 0.0:
        report = RunReport(t, eps, method, 0, 0, 0, 0.0, alpha1, alpha2, 0,
                           0, {}, {}, 0.0)
        return psi, report

    cfg = default_config(graph, t, eps)
    tau = cfg.tau
    n_full = int(math.floor(t / tau + 1e-12))
    t_frac = t - n_full * tau
    if t_frac < 1e-12 * max(1.0, t):
        t_frac = 0.0

    eps_seg = cfg.eps_segment
    eps_aa = eps_seg / 10.0
    eps_g = eps_seg / 10.0

    expg_stage = 0
    expg_grid = 0
    queries: dict[str, int] = {}
    segments = 0

    if graph.m_hubs:
        l_expg = amplification_degree(2.0 * hub_block_factor(graph) + 1.0,
                                      eps_g)
    else:
        l_expg = 0

    def run_piece(length: float, piece_cfg: DysonConfig, count: int):
        nonlocal psi, expg_stage, expg_grid, queries, segments
        seg_be = dyson_segment(leaves, piece_cfg)
        amplified = fixed_point_aa(seg_be, eps_aa)
        g_block = leaves.exp_g_block(length, eps_g)
        log_d = int(math.log2(piece_cfg.big_d))
        l_seg = amplified.aa_degree
        # the length-tau rotation stage runs once per segment; the grid
        # cascade fires 2 K log2(D) length-(tau 2^j / D) evolutions per
        # reflection of the segment oracle
        per_seg_grid = l_seg * 2 * piece_cfg.big_k * log_d
        for _ in range(count):
            psi = g_block @ amplified.apply_block(psi)
            segments += 1
            expg_stage += 1
            expg_grid += per_seg_grid
        queries = _merge_profiles(
            (queries, 1),
            (_structural_oracle_profile(graph, l_expg,
                                        (per_seg_grid + 1) * count,
                                        l_seg * piece_cfg.big_k * count), 1))

    run_piece(tau, cfg, n_full)
    if t_frac > 0.0:
        run_piece(t_frac, default_config(graph, t_frac, eps_seg), 1)

    norm_deficit = float(1.0 - np.linalg.norm(psi))
    report = RunReport(
        t, eps, method, segments, cfg.big_k, cfg.big_d, tau, alpha1, alpha2,
        expg_stage, expg_grid, queries,
        {"segment_series": eps_seg, "segment_amplification": eps_aa,
         "rotation": eps_g},
        norm_deficit)
    return psi, report
