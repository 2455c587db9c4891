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

Two evaluation tiers share this assembly.  The circuit tier draws every
leaf block from honest circuit extraction (controlled-evolution cascades,
the sparse-piece encodings); the dense tier substitutes the verified dense
blocks, which keeps the combinatorial assembly testable up to larger N.
Combined blocks follow the exact composition rules for disjoint ancilla
banks, so no full-width state is ever materialized; the assembled unitaries
are still constructed (lazily) with complete register bookkeeping, and
raise a resource error if someone tries to run one past the qubit cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blockenc import (BlockEncoding, amplification_degree, fixed_point_aa,
                       unitary_with_first_column)
from .errors import (ConfigurationError, EncodingError, GraphStructureError,
                     ParameterError, ResourceError)
from .ffhub import (build_expG, classical_expG_apply, hub_block_factor,
                    link_norm, spectrum_G)
from .netgraph import HubSparseGraph, validate
from .oracles import OracleSet, build_oracle_set
from .qstate import (DEFAULT_EXTRACT_SYSTEM_CAP, Circuit, DenseGate,
                     FunctionalPermutation, LazyCircuit, RegisterLayout,
                     hadamard_layer, qubit_cap)
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
    the overall error budget (eps_total for evolution time t_total; a
    standalone segment uses eps_total directly)."""

    tau: float
    big_d: int
    big_k: int
    eps_total: float
    t_total: float | None = None

    def __post_init__(self):
        if self.tau <= 0:
            raise ConfigurationError("tau must be positive")
        if self.big_d < 2 or (self.big_d & (self.big_d - 1)):
            raise ConfigurationError(
                f"D={self.big_d} must be a power of two >= 2")
        if self.big_k < 0:
            raise ConfigurationError("K must be >= 0")
        if self.eps_total <= 0:
            raise ConfigurationError("eps_total must be positive")

    @property
    def eps_segment(self) -> float:
        if self.t_total is None or self.t_total <= self.tau:
            return self.eps_total
        return self.eps_total * self.tau / self.t_total


def default_config(graph: HubSparseGraph, t: float, eps: float,
                   tau: float | None = None) -> DysonConfig:
    """Parameter schedule: tau = 1/(2 alpha2); K the smallest order whose
    tail bound clears half the per-segment budget; D from the grid bound
    2 (alpha1 + alpha2) tau / eps_segment, rounded up to a power of two."""
    alpha1, alpha2 = evolution_scales(graph)
    tau = tau if tau is not None else 1.0 / (2.0 * alpha2)
    eps_seg = eps * tau / t if t > tau else eps
    big_k = 1
    while truncation_bound(alpha2, tau, big_k) > eps_seg / 2.0 and big_k < 60:
        big_k += 1
    big_d = _next_pow2(math.ceil(2.0 * (alpha1 + alpha2) * tau / eps_seg))
    return DysonConfig(tau, big_d, big_k, eps, t_total=t if t > tau else None)


# -- leaf blocks --------------------------------------------------------------


class _LeafBlocks:
    """Leaf-block source for one graph: either circuit extraction or the
    verified dense forms."""

    def __init__(self, graph: HubSparseGraph, backend: str,
                 oracle_set: OracleSet | None = None):
        if backend not in ("circuit", "dense"):
            raise ParameterError(f"unknown block backend {backend!r}")
        self.graph = graph
        self.backend = backend
        self.oracles = oracle_set
        self._h2 = None
        if backend == "circuit" and self.oracles is None:
            self.oracles = build_oracle_set(graph)

    def exp_g_encoding(self, t: float, eps: float) -> BlockEncoding:
        return build_expG(self.graph, t, eps, self.oracles)

    def exp_g_block(self, t: float, eps: float) -> np.ndarray:
        if self.backend == "circuit":
            return self.exp_g_encoding(t, eps).block()
        return self._dense_exp_g(t)

    def _dense_exp_g(self, t: float) -> np.ndarray:
        dim = 2 ** self.graph.n_qubits
        eye = np.eye(dim, dtype=np.complex128)
        if self.graph.m_hubs == 0 or t == 0.0:
            return eye
        spec = spectrum_G(self.graph)
        out = eye.copy()
        out += (np.exp(-1j * spec.lambda_plus * t) - 1.0) \
            * np.outer(spec.psi_plus, spec.psi_plus.conj())
        out += (np.exp(-1j * spec.lambda_minus * t) - 1.0) \
            * np.outer(spec.psi_minus, spec.psi_minus.conj())
        return out

    def h2_encoding(self) -> BlockEncoding:
        if self._h2 is None:
            self._h2 = encode_H2(self.graph, self.oracles)
        return self._h2

    def h2_block(self) -> tuple[np.ndarray, float, int]:
        """(normalized residual block, alpha2, ancilla count)."""
        _, alpha2 = evolution_scales(self.graph)
        n = self.graph.n_qubits
        if self.backend == "circuit":
            be = self.h2_encoding()
            return be.block(), be.alpha, be.m
        dense = (self.graph.dense_adjacency()
                 - self.graph.dense_link_matrix()).astype(np.complex128)
        m_book = n + 6 if self.graph.m_hubs else n + 4
        return dense / alpha2, alpha2, m_book


def _bit_blocks(leaves: _LeafBlocks, tau: float, big_d: int,
                eps_unit: float) -> list[np.ndarray]:
    """Blocks of exp(-iG tau 2^j / D) for j = 0 .. log2(D) - 1."""
    log_d = int(math.log2(big_d))
    return [leaves.exp_g_block(tau * (2 ** j) / big_d, eps_unit)
            for j in range(log_d)]


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


def _check_full_block_width(width: int, stage: str) -> None:
    """Refuse the dense (D 2^n)^2 block of a grid-indexed encoding whose
    system register (log2(D) + n qubits) exceeds the dense-extraction cap."""
    if width > DEFAULT_EXTRACT_SYSTEM_CAP:
        raise ResourceError(
            f"dense {stage} block over log2(D) + n = {width} qubits exceeds "
            f"dense-extraction cap {DEFAULT_EXTRACT_SYSTEM_CAP}", stage=stage)


# -- controlled-evolution select and dressed residual -------------------------


class SelectGEncoding(BlockEncoding):
    """Encoding of sum_d |d><d| (x) exp(-iG d tau / D); block-diagonal in d."""

    def __init__(self, unitary, big_d, n_sys_nodes, bit_blocks, eps, label):
        self.big_d = big_d
        self.bit_blocks = bit_blocks
        self._dim = 2 ** n_sys_nodes
        log_d = int(math.log2(big_d))
        super().__init__(unitary, 1.0, 8, log_d + n_sys_nodes, eps=eps,
                         block_fn=self._full_block, label=label)

    def d_block(self, d: int) -> np.ndarray:
        blocks = _grid_blocks(self.bit_blocks, d, d + 1, self._dim)
        return blocks[0]

    def _full_block(self) -> np.ndarray:
        _check_full_block_width(self.n_sys, "select_g")
        dim = self._dim
        total = np.zeros((self.big_d * dim, self.big_d * dim),
                         dtype=np.complex128)
        grid = _grid_blocks(self.bit_blocks, 0, self.big_d, dim)
        for d in range(self.big_d):
            total[d * dim:(d + 1) * dim, d * dim:(d + 1) * dim] = grid[d]
        return total


def build_selectG(graph: HubSparseGraph, tau: float, big_d: int, eps: float,
                  oracle_set: OracleSet | None = None,
                  backend: str = "circuit") -> SelectGEncoding:
    """Cascade of controlled link evolutions over a log2(D)-qubit grid
    register.

    Bit j of the grid register controls one evolution of length
    tau 2^j / D, each built to per-unitary error below eps / (2 log2 D) so
    the cascaded error telescopes within eps; the cascade shares a single
    8-qubit ancilla bank, which is sound because each factor is a
    unit-factor encoding of a unitary.
    """
    if big_d < 2 or big_d & (big_d - 1):
        raise ConfigurationError(f"D={big_d} must be a power of two >= 2")
    n = graph.n_qubits
    log_d = int(math.log2(big_d))
    eps_unit = eps / (2.0 * log_d * (log_d + 1))
    leaves = _LeafBlocks(graph, backend, oracle_set)
    bit_blocks = _bit_blocks(leaves, tau, big_d, eps_unit)

    def build_circuit():
        layout = RegisterLayout(("bank", 8), ("d", log_d), ("sys", n),
                                stage="select_g")
        circ = Circuit(layout, label="select_g")
        bank_sys = list(layout.axes("bank")) + list(layout.axes("sys"))
        d_axes = layout.axes("d")
        for j in range(log_d):
            be = leaves.exp_g_encoding(tau * (2 ** j) / big_d, eps_unit)
            ctrl_axis = d_axes[log_d - 1 - j]  # bit of weight 2^j
            circ.append(be.unitary, qubits=bank_sys,
                        controls=[(ctrl_axis, 1)])
        return circ

    width = 8 + log_d + n
    if backend == "circuit" and width <= qubit_cap():
        unitary = build_circuit()
    else:
        unitary = LazyCircuit(width, build_circuit, label="select_g",
                              stage="select_g")
    return SelectGEncoding(unitary, big_d, n, bit_blocks, eps, "select_g")


class DressedResidualEncoding(BlockEncoding):
    """Encoding of sum_d |d><d| (x) e^{iG d tau/D} (A - G) e^{-iG d tau/D}."""

    def __init__(self, unitary, big_d, n_sys_nodes, bit_blocks, h2_block,
                 alpha2, m_total, eps, label):
        self.big_d = big_d
        self.bit_blocks = bit_blocks
        self.h2_norm_block = h2_block
        self._dim = 2 ** n_sys_nodes
        log_d = int(math.log2(big_d))
        super().__init__(unitary, alpha2, m_total, log_d + n_sys_nodes,
                         eps=eps, block_fn=self._full_block, label=label)

    def d_block(self, d: int) -> np.ndarray:
        e_d = _grid_blocks(self.bit_blocks, d, d + 1, self._dim)[0]
        return e_d.conj().T @ self.h2_norm_block @ e_d

    def _full_block(self) -> np.ndarray:
        _check_full_block_width(self.n_sys, "dressed_h2")
        dim = self._dim
        total = np.zeros((self.big_d * dim, self.big_d * dim),
                         dtype=np.complex128)
        grid = _grid_blocks(self.bit_blocks, 0, self.big_d, dim)
        for d in range(self.big_d):
            blk = grid[d].conj().T @ self.h2_norm_block @ grid[d]
            total[d * dim:(d + 1) * dim, d * dim:(d + 1) * dim] = blk
        return total


def build_dressed_H2(graph: HubSparseGraph, tau: float, big_d: int,
                     eps: float, oracle_set: OracleSet | None = None,
                     backend: str = "circuit") -> DressedResidualEncoding:
    """Conjugate the residual encoding by the controlled-evolution cascade.

    The two cascades and the residual encoding keep three disjoint ancilla
    banks (8 + m + 8 qubits), so the combined block is exactly the product
    of the three sub-blocks, grid value by grid value.
    """
    n = graph.n_qubits
    log_d = int(math.log2(big_d))
    leaves = _LeafBlocks(graph, backend, oracle_set)
    select = build_selectG(graph, tau, big_d, eps / 2.5, leaves.oracles,
                           backend=backend)
    h2_block, alpha2, m_h2 = leaves.h2_block()
    m_total = 16 + m_h2

    def build_circuit():
        layout = RegisterLayout(("cga", 8), ("h2bank", m_h2), ("cgb", 8),
                                ("d", log_d), ("sys", n), stage="dressed_h2")
        circ = Circuit(layout, label="dressed_h2")
        d_sys = list(layout.axes("d")) + list(layout.axes("sys"))
        circ.append(select.unitary,
                    qubits=list(layout.axes("cga")) + d_sys)
        circ.append(leaves.h2_encoding().unitary,
                    qubits=list(layout.axes("h2bank")) + list(layout.axes("sys")))
        circ.append(select.unitary,
                    qubits=list(layout.axes("cgb")) + d_sys, adjoint=True)
        return circ

    width = m_total + log_d + n
    if backend == "circuit" and width <= qubit_cap():
        unitary = build_circuit()
    else:
        unitary = LazyCircuit(width, build_circuit, label="dressed_h2",
                              stage="dressed_h2")
    return DressedResidualEncoding(unitary, big_d, n, select.bit_blocks,
                                   h2_block, alpha2, m_total, eps,
                                   "dressed_h2")


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


def _segment_registers(big_k: int, log_d: int, m_h2: int,
                       n: int) -> list[tuple[str, int]]:
    """Register list of the assembled segment circuit, ancillas first and
    the system register last."""
    regs = [("kidx", max(1, big_k.bit_length()))]
    for j in range(1, big_k + 1):
        regs.append((f"t{j}", log_d))
    if big_k > 1:
        regs.append(("pflag", big_k - 1))
        regs.append(("oflag", big_k - 1))
    regs += [("cga", 8), ("h2bank", m_h2), ("cgb", 8), ("sys", n)]
    return regs


def _build_segment_circuit(graph, config, leaves, select, weights):
    """Honest assembled segment circuit: order-index prepare, per-slot time
    registers with ordering tests, shared-bank dressed applications with
    carry flags, and the unprepare.  Construction only; running it needs a
    width far past any sensible cap."""
    n = graph.n_qubits
    big_k, big_d = config.big_k, config.big_d
    log_d = int(math.log2(big_d))
    h2_be = leaves.h2_encoding()
    m_h2 = h2_be.m
    layout = RegisterLayout(*_segment_registers(big_k, log_d, m_h2, n),
                            stage="dyson_segment")
    circ = Circuit(layout, label="dyson_segment")
    kw = layout.reg_width("kidx")

    col = np.zeros(2 ** kw, dtype=np.complex128)
    col[:len(weights)] = np.sqrt(np.asarray(weights)
                                 / np.sum(np.abs(weights)))
    circ.append(DenseGate(unitary_with_first_column(col), label="prep_k"),
                on=["kidx"])
    bank = (list(layout.axes("cga")) + list(layout.axes("h2bank"))
            + list(layout.axes("cgb")))
    bank_w = len(bank)

    def bank_flag_gate():
        # flips the flag qubit unless the shared bank reads all-zero
        def fn(idx):
            bank_val = idx >> 1
            return np.where(bank_val == 0, idx, idx ^ 1)
        return FunctionalPermutation(bank_w + 1, fn, label="bank_flag",
                                     self_inverse=True)

    def order_gate():
        mask = (1 << log_d) - 1

        def fn(idx):
            a = idx >> (log_d + 1)
            b = (idx >> 1) & mask
            return np.where(a > b, idx ^ 1, idx)
        return FunctionalPermutation(2 * log_d + 1, fn, label="order_test",
                                     self_inverse=True)

    for j in range(1, big_k + 1):
        for k_val in range(j, big_k + 1):
            circ.append(hadamard_layer(log_d), on=[f"t{j}"],
                        controls=[("kidx", k_val)])
    for j in range(1, big_k + 1):
        for k_val in range(j, big_k + 1):
            circ.append(select.unitary,
                        qubits=list(layout.axes("cga")) + list(layout.axes(f"t{j}"))
                        + list(layout.axes("sys")),
                        controls=[("kidx", k_val)])
            circ.append(h2_be.unitary,
                        qubits=list(layout.axes("h2bank")) + list(layout.axes("sys")),
                        controls=[("kidx", k_val)])
            circ.append(select.unitary,
                        qubits=list(layout.axes("cgb")) + list(layout.axes(f"t{j}"))
                        + list(layout.axes("sys")),
                        controls=[("kidx", k_val)], adjoint=True)
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


def dyson_segment(graph: HubSparseGraph, config: DysonConfig,
                  oracle_set: OracleSet | None = None,
                  backend: str = "circuit",
                  check_budget: bool = True) -> BlockEncoding:
    """Block encoding of the rotated-frame segment propagator over [0, tau].

    The combination factor is sum_k (alpha2 tau)^k; with tau = 1/(2 alpha2)
    it stays below 2, which keeps the final amplification cheap.  Raises a
    configuration error when the truncation or grid bounds cannot reach the
    per-segment budget.
    """
    report = validate(graph)
    if not report.passed:
        raise GraphStructureError("; ".join(report.failures()))
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
    dim = 2 ** n
    log_d = int(math.log2(big_d))
    leaves = _LeafBlocks(graph, backend, oracle_set)
    eps_units = eps_seg / 4.0
    select = build_selectG(graph, tau, big_d, eps_units, leaves.oracles,
                           backend=backend)
    h2_block, alpha2_enc, m_h2 = leaves.h2_block()

    weights = [(tau * alpha2_enc) ** k for k in range(big_k + 1)]
    lam = float(sum(weights))
    totals = _ordered_series_totals(select.bit_blocks, h2_block, big_k)

    def block_fn():
        out = np.zeros((dim, dim), dtype=np.complex128)
        for k in range(big_k + 1):
            out += ((-1j * tau * alpha2_enc) ** k / big_d ** k / lam) * totals[k]
        return out

    m_seg = sum(width for _, width in
                _segment_registers(big_k, log_d, m_h2, n)[:-1])
    phase_weights = [(-1j * tau * alpha2_enc) ** k for k in range(big_k + 1)]
    unitary = LazyCircuit(
        m_seg + n,
        lambda: _build_segment_circuit(graph, config, leaves, select,
                                       phase_weights),
        label="dyson_segment", stage="dyson_segment")
    be = BlockEncoding(unitary, lam, m_seg, n, eps=eps_seg,
                       block_fn=block_fn, label="dyson_segment")
    be.config = config
    be.select = select
    be.series_totals = totals
    be.alpha2_enc = alpha2_enc
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
    selects the leaf-block tier: "circuit" extracts every leaf from its
    circuit, "classical-ff" substitutes the verified dense forms (the
    rotation then runs through the rank-two fast path).
    """
    if method not in ("circuit", "classical-ff"):
        raise ParameterError(f"unknown method {method!r}")
    report_v = validate(graph)
    if not report_v.passed:
        raise GraphStructureError("; ".join(report_v.failures()))
    psi = np.asarray(psi0, dtype=np.complex128).copy()
    dim = 2 ** graph.n_qubits
    if psi.shape != (dim,):
        raise ParameterError(f"psi0 must have length {dim}")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ParameterError("psi0 must be normalized")
    if t < 0:
        raise ParameterError("t must be nonnegative")
    alpha1, alpha2 = evolution_scales(graph)
    backend = "circuit" if method == "circuit" else "dense"

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

    leaves = _LeafBlocks(graph, backend, oracle_set)
    eps_seg = cfg.eps_segment
    eps_aa = eps_seg / 10.0
    eps_g = eps_seg / 10.0

    expg_stage = 0
    expg_grid = 0
    queries: dict[str, int] = {}
    segments = 0

    if graph.m_hubs:
        l_expg = amplification_degree(
            0.9 / (2.0 * hub_block_factor(graph) + 1.0), eps_g)
    else:
        l_expg = 0

    def run_piece(length: float, piece_cfg: DysonConfig, count: int):
        nonlocal psi, expg_stage, expg_grid, queries, segments
        if count == 0:
            return
        seg_be = dyson_segment(graph, piece_cfg, leaves.oracles,
                               backend=backend)
        amplified = fixed_point_aa(seg_be, 0.9 / seg_be.alpha, eps_aa)
        if backend == "circuit":
            g_block = leaves.exp_g_block(length, eps_g)
        log_d = int(math.log2(piece_cfg.big_d))
        l_seg = amplified.aa_degree
        # the length-tau rotation stage runs once per segment; the grid
        # cascade fires 2 K log2(D) length-(tau 2^j / D) evolutions per
        # reflection of the segment oracle
        per_seg_grid = l_seg * 2 * piece_cfg.big_k * log_d
        for _ in range(count):
            psi = amplified.apply_block(psi)
            if backend == "circuit":
                psi = g_block @ psi
            else:
                psi = classical_expG_apply(graph, length, psi)
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
        frac_cfg = default_config(graph, t_frac, eps_seg, tau=min(t_frac, tau))
        run_piece(t_frac, frac_cfg, 1)

    norm_deficit = float(1.0 - np.linalg.norm(psi))
    report = RunReport(
        t, eps, method, segments, cfg.big_k, cfg.big_d, tau, alpha1, alpha2,
        expg_stage, expg_grid, queries,
        {"segment_series": eps_seg, "segment_amplification": eps_aa,
         "rotation": eps_g},
        norm_deficit)
    return psi, report
