"""Interaction-picture evolution: the time select of link-matrix
evolutions, dressed time-indexed residual encodings, truncated
ordered-series segments, and the end-to-end pipeline.

The full evolution is sliced into segments of length tau.  Per segment, the
frame rotated by the link evolution exp(-iGs) turns the adjacency generator
into the bounded, time-dependent residual  Hr(s) = e^{iGs} (A - G) e^{-iGs},
whose time-ordered propagator is expanded as a truncated ordered series over
a time grid of size D:

    C_k = D^{-k} sum_{d_1 <= ... <= d_k} Hr(d_k tau/D) ... Hr(d_1 tau/D)
    segment block  ~  sum_{k<=K} (-i tau)^k C_k

and the original-frame step is exp(-iG tau) applied after the segment.

The grid evolutions E(d) = exp(-iG d tau/D) are read off one rank-two
evolution, I + V diag(e^{-i lambda t} - 1, e^{i lambda t} - 1) V^dag
with V the two eigenvector columns of G (``ffhub.RankTwoEvolution``).
The per-order totals D^k C_k are evaluated by grid doubling (Chen's
identity for iterated sums over joined intervals): the bit evolutions
E(2^j) commute when the columns are orthonormal, so the residual on the
upper half of a doubled grid is the lower half conjugated by one bit
evolution.  That turns the D-point sums into log2(D) merge steps of
(K+1)(K+2)/2 matmuls.

The segment circuit holds the order k in unary: K qubits, of which order k
sets the first k.  A chain of K two-level rotations, each controlled on the
qubit before it, prepares amplitude sqrt((tau alpha2)^k / lambda) on order
k, and one phase gate per qubit supplies (-i)^k.  Time slot j runs once,
under the single control kidx[j-1]: its Hadamard pair, its dressed
residual and the order test against the slot before it, so a segment
applies the residual K times.

Every Dyson object is built from two leaf encodings, exp(-iGt) and the
residual H2 = A - G.  A solve's ``LeafBlocks`` supplies both and is the one
place that knows the graph, the oracle set and the evaluation tier; every
builder here takes it and nothing it already carries.  The "circuit" tier
extracts the residual from its sparse-piece encodings and, once per
solve, takes the exp(-iGt) columns from the preparations of ``ffhub``'s
exact rank-two circuit run on |0>; "classical-ff" takes them from the
eigenvectors of the rank-two spectrum and substitutes the dense
residual, which keeps the assembly testable up to larger N.  The tiers
agree to rounding.
The time select sum_d |d><d| (x) exp(-iG d tau/D) is the same rank-two
circuit with its phases controlled on the grid register: no ancilla and
two O_H queries whatever D is.
Combined blocks follow the exact composition rules for disjoint ancilla
banks, so no full-width state is ever materialized.  The composite
circuits (the time select, the dressed residual, the segment) carry
complete register bookkeeping but are built on first use, never
eagerly.  Building one allocates no amplitudes, so any of them can be
counted (``gate_count``, ``query_profile``) at any width; running one
through ``extract_block`` past the qubit cap raises a resource error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blockenc import (BlockEncoding, check_eps_floor, fixed_point_aa,
                       unitary_with_first_column)
from .errors import (ConfigurationError, EncodingError, GraphStructureError,
                     ParameterError)
from .ffhub import RankTwoEvolution, _rank_two_circuit, link_norm
# unused: perfbench/layertrace.py rebinds both here until it is retargeted
from .ffhub import build_expG, classical_expG_apply  # noqa: F401
from .netgraph import HubSparseGraph, validate
from .oracles import OracleSet, build_oracle_set
from .qstate import (Circuit, DenseGate, FunctionalPermutation, LazyCircuit,
                     RegisterLayout, check_dense_block, hadamard_layer,
                     phase1_gate)
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


def check_t(t: float) -> None:
    """Raise ``ParameterError`` unless the evolution time t is finite and
    nonnegative."""
    if not (math.isfinite(t) and t >= 0):
        raise ParameterError(f"t must be finite and nonnegative, got {t}")


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
    the leaf blocks from their circuits, "classical-ff" substitutes the
    verified dense forms.  The graph is validated here, once.  One source
    per solve builds the residual encoding and the exp(-iGt) columns once
    each and drops them with the solve; the evolution costs two N-entry
    columns, not an N x N extraction.  The exp(-iGt) circuits are exact,
    so they take no share of the error budget.  The oracle set is built
    on first use when none is given; one built on another graph raises
    ``ParameterError``.  Both tiers hold dense N x N blocks, so a graph
    past the dense-block cap raises ``ResourceError`` before anything is
    validated or built.
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

    @property
    def oracles(self) -> OracleSet:
        if self._oracles is None:
            self._oracles = build_oracle_set(self.graph)
        return self._oracles

    @cached_property
    def evolution(self) -> RankTwoEvolution:
        """exp(-iGt) as its two eigenvector columns: the circuit tier runs
        the preparations V+- of the rank-two circuit once each on |0>, one
        O_H query apiece; "classical-ff" takes psi+- of the rank-two
        spectrum."""
        if self.method == "circuit":
            return RankTwoEvolution.of(self.graph, self.oracles)
        return RankTwoEvolution.of(self.graph)

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


# -- time select and dressed residual ------------------------------------------


class SelectGEncoding(BlockEncoding):
    """Encoding of sum_d |d><d| (x) exp(-iG d tau / D); block-diagonal in d.

    E(d) = exp(-iG d tau/D) is read off the rank-two ``evolution``; the
    ancillas are the qubits of the unitary beyond the log2(D) + n system
    qubits.  Subclasses change only ``_at``, the block at one grid point
    as a function of E(d)."""

    stage = "select_g"

    def __init__(self, unitary, evolution: RankTwoEvolution, tau: float,
                 big_d: int, alpha=1.0):
        self.evolution = evolution
        self.tau = tau
        self.big_d = big_d
        n_sys = int(math.log2(big_d * len(evolution.v)))
        super().__init__(unitary, alpha, unitary.width - n_sys, n_sys,
                         label=self.stage)

    def _at(self, e_d: np.ndarray) -> np.ndarray:
        return e_d

    def d_block(self, d: int) -> np.ndarray:
        return self._at(self.evolution.at(self.tau * d / self.big_d))

    def _full_block(self) -> np.ndarray:
        # the dense block spans log2(D) + n system qubits
        check_dense_block(self.n_sys, self.stage)
        dim = len(self.evolution.v)
        total = np.zeros((self.big_d, dim) * 2, dtype=np.complex128)
        for d in range(self.big_d):
            total[d, :, d] = self.d_block(d)
        return total.reshape(2 ** self.n_sys, 2 ** self.n_sys)


def build_selectG(leaves: LeafBlocks, tau: float,
                  big_d: int) -> SelectGEncoding:
    """Time select over a log2(D)-qubit grid register: the exact rank-two
    circuit of ``ffhub`` with its two phases controlled bit by bit on d,
    so it has no ancilla, makes two O_H queries whatever D is and claims
    eps 0.  Its blocks are read off the exp(-iGt) evolution of ``leaves``,
    the solve's leaf source; the circuit is built on first use.
    """
    if big_d < 2 or big_d & (big_d - 1):
        raise ConfigurationError(f"D={big_d} must be a power of two >= 2")
    log_d = int(math.log2(big_d))
    unitary = LazyCircuit(
        log_d + leaves.graph.n_qubits,
        lambda: _rank_two_circuit(leaves.oracles, tau / big_d, log_d),
        label="select_g")
    return SelectGEncoding(unitary, leaves.evolution, tau, big_d)


class DressedResidualEncoding(SelectGEncoding):
    """Encoding of sum_d |d><d| (x) e^{iG d tau/D} (A - G) e^{-iG d tau/D}."""

    stage = "dressed_h2"

    def __init__(self, unitary, select, h2_block, alpha2):
        self.h2_norm_block = h2_block
        super().__init__(unitary, select.evolution, select.tau, select.big_d,
                         alpha=alpha2)

    def _at(self, e_d: np.ndarray) -> np.ndarray:
        return e_d.conj().T @ self.h2_norm_block @ e_d


def build_dressed_H2(leaves: LeafBlocks, tau: float,
                     big_d: int) -> DressedResidualEncoding:
    """Conjugate the residual encoding by the time select.

    The select has no ancilla, so the residual's bank is the only one
    (m qubits) and the combined block is exactly the product of the three
    sub-blocks, grid value by grid value.  The select and the residual are
    exact encodings, so the result claims eps 0.  The circuit is built on
    first use.
    """
    n = leaves.graph.n_qubits
    log_d = int(math.log2(big_d))
    select = build_selectG(leaves, tau, big_d)
    h2_block, alpha2, m_h2 = leaves.h2_block()

    def build_circuit():
        layout = RegisterLayout(("h2bank", m_h2), ("d", log_d), ("sys", n))
        circ = Circuit(layout, label="dressed_h2")
        circ.append(select.unitary, on=["d", "sys"])
        circ.append(leaves.h2_encoding().unitary, on=["h2bank", "sys"])
        circ.append(select.unitary, on=["d", "sys"], adjoint=True)
        return circ

    unitary = LazyCircuit(m_h2 + log_d + n, build_circuit, label="dressed_h2")
    return DressedResidualEncoding(unitary, select, h2_block, alpha2)


# -- segment assembly ----------------------------------------------------------


def _check_commuting(evolution: RankTwoEvolution) -> None:
    """Raise EncodingError unless the columns V of the evolution are
    orthonormal to 1e-12: delta = ||V^dag V - I||max <= 1e-12.

    Write V^dag V = I + Delta (so ||Delta|| <= 2 delta for the 2 x 2
    Delta, and ||V||^2 <= 1 + 2 delta) and E = I + V C V^dag with
    C = diag(c+, c-), c+- = e^{-+i lam t} - 1, |c+-| <= 2.  Diagonal C's
    commute, so [E_i, E_j] = V (C_i Delta C_j - C_j Delta C_i) V^dag: the
    diagonal of Delta cancels and each off-diagonal entry is Delta_+- times
    a term of modulus <= 8, so every bit-evolution commutator is within
    8 delta (1 + 2 delta) in spectral norm, which also bounds its largest
    entry.  As conj(c) + c + |c|^2 = 0 on |1 + c| = 1, E^dag E - I =
    V C^dag Delta C V^dag: a norm defect or an overlap alone moves it by at
    most about 4 delta, both together by 8 delta (1 + 2 delta), so
    ||E|| <= 1 + 4 delta to first order.  Columns whose evolutions commute
    but are not unitary (a column norm off 1) are refused too."""
    v = evolution.v
    gram_defect = v.conj().T @ v - np.eye(v.shape[1])
    worst = float(np.max(np.abs(gram_defect), initial=0.0))
    if worst > 1e-12:
        raise EncodingError(f"exp(-iGt) columns are not orthonormal: Gram "
                            f"defect {worst:.3e} > 1e-12")


def _ordered_series_totals(dressed: DressedResidualEncoding,
                           big_k: int) -> list[np.ndarray]:
    """T_k = sum over d_1 <= ... <= d_k of B(d_k) ... B(d_1), k = 0 .. K,
    with B(d) = E(d)^dag H2 E(d) = ``dressed.d_block(d)`` the normalized
    dressed residual at grid point d and E_j = E(2^j) the bit evolutions.

    Grid doubling (Chen's identity for iterated sums over joined
    intervals): the totals over [0, 2^(j+1)) split by how many indices fall
    in the upper half [2^j, 2^(j+1)), where B(d + 2^j) = E_j^dag B(d) E_j
    because E(d + 2^j) = E(d) E_j and the evolutions commute, as they do
    when the columns are orthonormal.  Starting from the single point
    d=0, where T_k = H2^k, each bit block, low to high, updates

        T_k <- sum_{a+b=k} U_a T_b,   U_0 = I,  U_a = E_j^dag T_a E_j,

    for log2(D) (K+1)(K+2)/2 matmuls in all.  U_0 is the exact identity
    because the bit evolutions are unitary only to rounding; one with
    unitarity defect delta moves T_k off the D-point sum by about
    k log2(D) delta relative.  Raises EncodingError when the columns are
    not orthonormal to 1e-12 (see ``_check_commuting``).
    """
    h2_block = dressed.h2_norm_block
    dim = h2_block.shape[0]
    eye = np.eye(dim, dtype=np.complex128)
    if big_k == 0:
        return [eye]
    _check_commuting(dressed.evolution)
    # series[k - 1] holds T_k for k = 1 .. K; the a = 1 .. k-1 products of
    # one order are batched into a single matmul call
    series = np.empty((big_k, dim, dim), dtype=np.complex128)
    series[0] = h2_block
    for k in range(1, big_k):
        series[k] = h2_block @ series[k - 1]
    for j in range(int(math.log2(dressed.big_d))):
        e_j = dressed.evolution.at(dressed.tau * 2 ** j / dressed.big_d)
        upper = e_j.conj().T @ series @ e_j
        joined = series + upper
        for k in range(2, big_k + 1):
            joined[k - 1] += np.sum(upper[:k - 1] @ series[k - 2::-1], axis=0)
        series = joined
    return [eye] + list(series)


def _segment_registers(big_k: int, log_d: int, m_bank: int,
                       n: int) -> list[tuple[str, int]]:
    """Register list of the assembled segment circuit, ancillas first and
    the system register last.  The order index is unary, one qubit per
    time slot; the flag banks hold one qubit per boundary between adjacent
    time slots."""
    n_flags = max(0, big_k - 1)
    return ([("kidx", big_k)]
            + [(f"t{j}", log_d) for j in range(1, big_k + 1)]
            + [("pflag", n_flags), ("oflag", n_flags),
               ("bank", m_bank), ("sys", n)])


def _build_segment_circuit(graph, config, dressed):
    """Honest assembled segment circuit: unary order-index prepare with the
    (-i)^k phases, per-slot time registers with ordering tests, one
    shared-bank dressed application per slot with carry flags, and the
    unprepare.  Order k sets the first k qubits of ``kidx``, so slot j runs
    under the single control kidx[j-1] = 1.  Construction only; running it
    needs a width far past any sensible cap."""
    n = graph.n_qubits
    big_k, big_d = config.big_k, config.big_d
    log_d = int(math.log2(big_d))
    layout = RegisterLayout(*_segment_registers(big_k, log_d, dressed.m, n))
    circ = Circuit(layout, label="dyson_segment")
    kidx = layout.axes("kidx")
    bank = list(layout.axes("bank"))

    # gate j splits order j-1 from the orders >= j: amplitude of order k
    # is sqrt(w_k / sum w), with w_k = (tau alpha)^k
    weights = [(config.tau * dressed.alpha) ** k for k in range(big_k + 1)]
    prep = Circuit(RegisterLayout(("kidx", big_k)), label="prep_k")
    for j in range(1, big_k + 1):
        col = np.sqrt([weights[j - 1], sum(weights[j:])])
        prep.append(DenseGate(unitary_with_first_column(col), label="prep_k"),
                    qubits=[j - 1],
                    controls=[(j - 2, 1)] if j > 1 else ())
    circ.append(prep, on=["kidx"])
    minus_i = phase1_gate(-0.5 * math.pi)  # (-i)^k over the k set qubits
    for axis in kidx:
        circ.append(minus_i, qubits=[axis])

    def flag_bank(idx):
        # flips the flag qubit unless the shared bank reads all-zero
        return np.where(idx >> 1 == 0, idx, idx ^ 1)

    def flag_disorder(idx):
        # flips the flag qubit when the earlier slot's time exceeds the
        # later slot's
        earlier = idx >> (log_d + 1)
        later = (idx >> 1) & ((1 << log_d) - 1)
        return np.where(earlier > later, idx ^ 1, idx)

    bank_flag = FunctionalPermutation(len(bank) + 1, flag_bank,
                                      label="bank_flag")
    order_test = FunctionalPermutation(2 * log_d + 1, flag_disorder,
                                       label="order_test")
    hadamards = hadamard_layer(log_d)
    slot_on = [[(axis, 1)] for axis in kidx]

    for j in range(1, big_k + 1):
        circ.append(hadamards, on=[f"t{j}"], controls=slot_on[j - 1])
    for j in range(1, big_k + 1):
        circ.append(dressed.unitary,
                    qubits=bank + list(layout.axes(f"t{j}"))
                    + list(layout.axes("sys")),
                    controls=slot_on[j - 1])
        if j < big_k:
            circ.append(bank_flag,
                        qubits=bank + [layout.axes("pflag")[j - 1]])
            # orders below j + 1 leave t{j+1} at zero: no test
            circ.append(order_test,
                        qubits=list(layout.axes(f"t{j}"))
                        + list(layout.axes(f"t{j + 1}"))
                        + [layout.axes("oflag")[j - 1]],
                        controls=slot_on[j])
    for j in range(1, big_k + 1):
        circ.append(hadamards, on=[f"t{j}"], controls=slot_on[j - 1])
    circ.append(prep, on=["kidx"], adjoint=True)
    return circ


class _SegmentEncoding(BlockEncoding):
    """Segment encoding whose block is its own truncated series.  It keeps
    its schedule, the per-order totals and the residual's factor alpha2."""

    def __init__(self, unitary, lam, m, n, config, series_totals, alpha2):
        super().__init__(unitary, lam, m, n, eps=config.eps_segment,
                         label="dyson_segment")
        self.config = config
        self.series_totals = series_totals
        self.alpha2_enc = alpha2

    def _full_block(self) -> np.ndarray:
        return segment_block_at_order(self, self.config.big_k) / self.alpha


def dyson_segment(leaves: LeafBlocks, config: DysonConfig) -> BlockEncoding:
    """Block encoding of the rotated-frame segment propagator over [0, tau].

    The combination factor is sum_k (alpha2 tau)^k; with tau = 1/(2 alpha2)
    it stays below 2, which keeps the final amplification cheap.  The
    circuit, built on first use, applies the dressed residual once per time
    slot under its unary order qubit (see the module docstring).  Raises a
    configuration error when the truncation or grid bounds cannot reach the
    per-segment budget, so the encoding meets the eps_segment it claims.
    """
    graph = leaves.graph
    alpha1, alpha2 = evolution_scales(graph)
    tau, big_d, big_k = config.tau, config.big_d, config.big_k
    eps_seg = config.eps_segment
    if tau > 1.0 / (2.0 * alpha2) + 1e-12:
        raise ConfigurationError(
            f"tau={tau:.6g} exceeds 1/(2 alpha2)={1.0 / (2 * alpha2):.6g}")
    if big_k >= 1:
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
    dressed = build_dressed_H2(leaves, tau, big_d)
    lam = float(sum((tau * dressed.alpha) ** k for k in range(big_k + 1)))
    totals = _ordered_series_totals(dressed, big_k)

    m_seg = sum(width for _, width in
                _segment_registers(big_k, log_d, dressed.m, n)[:-1])
    unitary = LazyCircuit(
        m_seg + n, lambda: _build_segment_circuit(graph, config, dressed),
        label="dyson_segment")
    return _SegmentEncoding(unitary, lam, m_seg, n, config, totals,
                            dressed.alpha)


def segment_block_at_order(be: BlockEncoding, big_k: int) -> np.ndarray:
    """Unnormalized segment block truncated at a lower order, from the
    per-order totals of an already assembled segment encoding."""
    totals = be.series_totals
    if big_k < 0:
        raise ParameterError(f"order {big_k} is negative")
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


def _structural_oracle_profile(graph, n_rank_two, n_h2):
    """Oracle tallies from the circuit structure: each rank-two circuit
    (a rotation or a time select) queries O_H twice, and not at all
    without hubs; each residual application touches every oracle O(1)
    times."""
    if graph.m_hubs:
        per_rank_two = {"O_H": 2}
        per_h2 = {"O_A": 6, "O_K": 10, "O_H": 2, "O_L": 2, "O_Z": 2}
    else:
        per_rank_two = {}
        per_h2 = {"O_A": 2, "O_K": 4, "O_L": 2}
    return _merge_profiles((per_rank_two, n_rank_two), (per_h2, n_h2))


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
    queries: dict
    budget: dict
    norm_deficit: float
    final_error_vs_reference: float | None = None

    def as_dict(self) -> dict:
        out = {
            "t": self.t, "eps": self.eps, "method": self.method,
            "segments": self.segments, "K": self.big_k, "D": self.big_d,
            "tau": self.tau, "alpha1": self.alpha1, "alpha2": self.alpha2,
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
    dense forms.  The rotation applies that source's exp(-iG tau) to the
    state at O(N).  The rotation and the time select are exact, so the
    report's budget names only the segment series and its amplification.
    An eps whose amplification share (eps_segment / 10) lies below
    ``blockenc.EPS_FLOOR`` raises ``ParameterError`` before any segment is
    built.
    """
    check_eps(eps)
    check_t(t)
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
        report = RunReport(t, eps, method, 0, 0, 0, 0.0, alpha1, alpha2, {},
                           {}, 0.0)
        return psi, report

    cfg = default_config(graph, t, eps)
    tau = cfg.tau
    n_full = int(math.floor(t / tau + 1e-12))
    t_frac = t - n_full * tau
    if t_frac < 1e-12 * max(1.0, t):
        t_frac = 0.0

    eps_seg = cfg.eps_segment
    eps_aa = eps_seg / 10.0
    # refused here, before the series totals of a huge K and D overflow
    check_eps_floor(eps_aa, eps)

    queries: dict[str, int] = {}
    segments = 0

    def run_piece(length: float, piece_cfg: DysonConfig, count: int):
        nonlocal psi, queries, segments
        seg_be = dyson_segment(leaves, piece_cfg)
        amplified = fixed_point_aa(seg_be, eps_aa)
        for _ in range(count):
            psi = leaves.evolution.apply(length, amplified.apply_block(psi))
        # the segment oracle runs L times, each applying K dressed
        # residuals, and each dressed residual applies the time select
        # twice; the length-tau rotation stage runs once per segment
        n_h2 = amplified.aa_degree * piece_cfg.big_k * count
        segments += count
        queries = _merge_profiles(
            (queries, 1),
            (_structural_oracle_profile(graph, 2 * n_h2 + count, n_h2), 1))

    run_piece(tau, cfg, n_full)
    if t_frac > 0.0:
        run_piece(t_frac, default_config(graph, t_frac, eps_seg), 1)

    norm_deficit = float(1.0 - np.linalg.norm(psi))
    report = RunReport(
        t, eps, method, segments, cfg.big_k, cfg.big_d, tau, alpha1, alpha2,
        queries,
        {"segment_series": eps_seg, "segment_amplification": eps_aa},
        norm_deficit)
    return psi, report
