"""Interaction-picture evolution: the time select of link-matrix
evolutions, dressed time-indexed residual encodings, truncated
ordered-series segments, and the end-to-end pipeline.

The full evolution is sliced into n = ceil(2 alpha2 t) equal segments of
length tau = t/n <= 1/(2 alpha2), each with an equal share eps/n of the
budget, so one segment encoding serves the whole solve.  Per segment, the
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
The hubs enter the dressed residual B(d) = E(d)^dag H E(d) (H the
normalized residual) only through V, so B(d) = H + (terms whose range and
co-range lie in span{V, HV}).  E(d) maps every Krylov space
S_j = span{H^i V : i <= j} into itself, because V lies in S_0, and a
product of k <= K residuals takes S_K into S_2K.  So the per-order totals
D^k C_k split exactly as

    T_k = N_k H^k + Q_S R_k Q_S^dag,   N_k = C(D + k - 1, k),

with Q_S an orthonormal basis of S_K, and R_k comes from the totals of
the compressed residual on S_2K, whose dimension is at most
min(N, 2(2K + 1)).  Those are evaluated by grid doubling (Chen's identity
for iterated sums over joined intervals): the bit evolutions E(2^j)
commute when the columns are orthonormal, so the residual on the upper
half of a doubled grid is the lower half conjugated by one bit evolution.
A solve's totals cost K - 1 N x N products for the powers of H, a thin
block Arnoldi for the basis, and log2(D) merge steps on the small
compressed operands, each a fixed number of batched numpy calls.  A
hub-free graph has no columns and its totals are N_k H^k.

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
extracts the residual from its sparse-piece encodings and takes the
exp(-iGt) columns from the preparations of ``ffhub``'s exact rank-two
circuit run on |0>; "classical-ff" takes them from the eigenvectors of
the rank-two spectrum and substitutes the dense residual, which keeps the
assembly testable up to larger N.  The tiers agree to rounding.  Either
tier builds both leaves once per oracle set and keeps them there.
The time select sum_d |d><d| (x) exp(-iG d tau/D) is the same rank-two
circuit with its phases controlled on the grid register: no ancilla and
two O_H queries whatever D is.
The composite circuits (the time select, the dressed residual, the
segment) carry complete register bookkeeping but are built on first use,
never eagerly.  Building one allocates no amplitudes, so any of them can
be counted (``gate_count``, ``query_profile``) at any width; running one
through ``extract_block`` past the qubit cap raises a resource error.
The select and dressed blocks come from their circuits by that
extraction, and a solve never asks for them: the series totals read the
leaf operands, the residual block and the exp(-iGt) columns, directly.
The segment's block is its truncated series, so no full-width state is
ever materialized.
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
    """Segment parameters: length tau, grid size D, truncation order K, the
    error budget of one segment, and the number of segments a solve applies
    (``n_slices`` x tau is the evolution time)."""

    tau: float
    big_d: int
    big_k: int
    eps_segment: float
    n_slices: int = 1

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
        if self.n_slices < 1:
            raise ConfigurationError("n_slices must be >= 1")


def check_eps(eps: float) -> None:
    """Raise ``ParameterError`` unless eps is finite and positive."""
    if not (math.isfinite(eps) and eps > 0):
        raise ParameterError(f"eps must be finite and positive, got {eps}")


def check_t(t: float) -> None:
    """Raise ``ParameterError`` unless the evolution time t is finite and
    nonnegative."""
    if not (math.isfinite(t) and t >= 0):
        raise ParameterError(f"t must be finite and nonnegative, got {t}")


def _slice_count(alpha2: float, t: float) -> int:
    """Number n of equal slices of [0, t]: the fewest, and at least one,
    of length at most 1/(2 alpha2).  A t within 1e-12 of a multiple of
    1/(2 alpha2) gets no extra slice for its rounding."""
    return max(1, math.ceil(2.0 * alpha2 * t - 1e-12))


def default_config(graph: HubSparseGraph, t: float, eps: float) -> DysonConfig:
    """Segment schedule for evolving time t within eps: n_slices =
    ``_slice_count`` equal slices of tau = t/n_slices, each with budget
    eps_segment = eps/n_slices; K the smallest order whose tail bound clears
    half that budget; D the grid bound 2 (alpha1 + alpha2) tau /
    eps_segment, rounded up to a power of two.  t and eps must be finite
    and positive."""
    if not (math.isfinite(t) and t > 0):
        raise ParameterError(f"no segment to schedule for t={t}")
    check_eps(eps)
    alpha1, alpha2 = evolution_scales(graph)
    n_slices = _slice_count(alpha2, t)
    tau = t / n_slices
    eps_seg = eps / n_slices
    big_k = 1
    while truncation_bound(alpha2, tau, big_k) > eps_seg / 2.0 and big_k < 60:
        big_k += 1
    big_d = _next_pow2(math.ceil(2.0 * (alpha1 + alpha2) * tau / eps_seg))
    return DysonConfig(tau, big_d, big_k, eps_seg, n_slices)


# -- leaf blocks --------------------------------------------------------------


class LeafBlocks:
    """Leaf-block source of one solve, and the one holder of its graph,
    oracle set and tier.

    ``method`` names the tier as in ``simulate_full``: "circuit" extracts
    the leaf blocks from their circuits, "classical-ff" substitutes the
    verified dense forms.  The graph is validated here, once per solve.
    The two leaf results depend on the graph alone, so they are kept on
    the oracle set, one entry per tier (``OracleSet.leaf_result``): the
    first solve on a set builds the normalized residual block and the
    exp(-iGt) columns, read-only, and every later solve on it reuses
    them, so a repeated circuit solve applies no oracle gate for its
    leaves.  No circuit or encoding is kept: ``h2_encoding`` belongs to
    the solve and is built only when a circuit asks for it.  The evolution
    costs two N-entry columns, not an N x N extraction.  The exp(-iGt)
    circuits are exact, so they take no share of the error budget.  The
    oracle set is built here when none is given, its tables on first use;
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
        if oracle_set is None:
            oracle_set = build_oracle_set(graph)
        elif oracle_set.graph != graph:
            raise ParameterError("oracle set was built on another graph")
        self.graph = graph
        self.method = method
        self.oracles = oracle_set

    @property
    def evolution(self) -> RankTwoEvolution:
        """exp(-iGt) as its two eigenvector columns: the circuit tier runs
        the preparations V+- of the rank-two circuit once each on |0>, one
        O_H query apiece; "classical-ff" takes psi+- of the rank-two
        spectrum.  Built once per oracle set and tier."""
        return self.oracles.leaf_result((self.method, "evolution"),
                                        self._build_evolution)

    def _build_evolution(self) -> RankTwoEvolution:
        if self.method == "circuit":
            return RankTwoEvolution.of(self.graph, self.oracles)
        return RankTwoEvolution.of(self.graph)

    @cached_property
    def h2_encoding(self) -> BlockEncoding:
        return encode_H2(self.oracles)

    def h2_block(self) -> tuple[np.ndarray, float, int]:
        """(normalized residual block, read-only; alpha2; ancilla count),
        built once per oracle set and tier."""
        return self.oracles.leaf_result((self.method, "h2"),
                                        self._build_h2_block)

    def _build_h2_block(self) -> tuple[np.ndarray, float, int]:
        if self.method == "circuit":
            # a local encoding: only its block outlives the extraction
            be = encode_H2(self.oracles)
            block, alpha2, m = be.block(), be.alpha, be.m
        else:
            _, alpha2 = evolution_scales(self.graph)
            n = self.graph.n_qubits
            dense = (self.graph.dense_adjacency()
                     - self.graph.dense_link_matrix()).astype(np.complex128)
            block = dense / alpha2
            m = n + 6 if self.graph.m_hubs else n + 4
        block.flags.writeable = False
        return block, alpha2, m


# -- time select and dressed residual ------------------------------------------


def build_selectG(leaves: LeafBlocks, tau: float,
                  big_d: int) -> BlockEncoding:
    """Time select sum_d |d><d| (x) exp(-iG d tau/D) over a log2(D)-qubit
    grid register: the exact rank-two circuit of ``ffhub`` with its two
    phases controlled bit by bit on d, so it has no ancilla, makes two O_H
    queries whatever D is and claims eps 0.  The circuit is built on first
    use, and its block is extracted from it."""
    if big_d < 2 or big_d & (big_d - 1):
        raise ConfigurationError(f"D={big_d} must be a power of two >= 2")
    log_d = int(math.log2(big_d))
    n_sys = log_d + leaves.graph.n_qubits
    unitary = LazyCircuit(
        n_sys, lambda: _rank_two_circuit(leaves.oracles, tau / big_d, log_d),
        label="select_g")
    return BlockEncoding(unitary, 1.0, 0, n_sys)


def build_dressed_H2(leaves: LeafBlocks, tau: float,
                     big_d: int) -> BlockEncoding:
    """Conjugate the residual encoding by the time select: an encoding of
    sum_d |d><d| (x) e^{iG d tau/D} (A - G) e^{-iG d tau/D}.

    The select has no ancilla, so the residual's bank is the only one
    (m qubits) and the combined block is exactly the product of the three
    sub-blocks, grid value by grid value.  The select and the residual are
    exact encodings, so the result claims eps 0.  The circuit is built on
    first use, and its block is extracted from it.
    """
    n = leaves.graph.n_qubits
    log_d = int(math.log2(big_d))
    select = build_selectG(leaves, tau, big_d)
    _, alpha2, m_h2 = leaves.h2_block()

    def build_circuit():
        layout = RegisterLayout(("h2bank", m_h2), ("d", log_d), ("sys", n))
        circ = Circuit(layout, label="dressed_h2")
        circ.append(select.unitary, on=["d", "sys"])
        circ.append(leaves.h2_encoding.unitary, on=["h2bank", "sys"])
        circ.append(select.unitary, on=["d", "sys"], adjoint=True)
        return circ

    unitary = LazyCircuit(m_h2 + log_d + n, build_circuit, label="dressed_h2")
    return BlockEncoding(unitary, alpha2, m_h2, log_d + n)


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


def _powers(h: np.ndarray, big_k: int):
    """Yield h^1, ..., h^K, each formed from the one before."""
    h_k = h
    yield h_k
    for _ in range(1, big_k):
        h_k = h @ h_k
        yield h_k


def _grid_doubling(powers: np.ndarray, evolution: RankTwoEvolution,
                   tau: float, big_d: int) -> np.ndarray:
    """The (K, r, r) stack of T_k = sum over d_1 <= ... <= d_k of
    B(d_k) ... B(d_1), k = 1 .. K, with B(d) = E(d)^dag H E(d) and
    E(d) = ``evolution.at(tau d / D)``; ``powers`` holds H^1 .. H^K.

    Chen's identity for iterated sums over joined intervals: the totals
    over [0, 2^(j+1)) split by how many indices fall in the upper half
    [2^j, 2^(j+1)), where B(d + 2^j) = E_j^dag B(d) E_j with E_j = E(2^j),
    because E(d + 2^j) = E(d) E_j and the evolutions commute, as they do
    when the columns are orthonormal.  Starting from the single point
    d=0, where T_k = H^k, each bit block, low to high, updates

        T_k <- sum_{a+b=k} U_a T_b,   U_0 = I,  U_a = E_j^dag T_a E_j.

    U_0 is the exact identity because the bit evolutions are unitary only
    to rounding; one with unitarity defect delta moves T_k off the D-point
    sum by about k log2(D) delta relative.  Per bit, one batched matmul
    forms every cross product U_a T_b with a, b >= 1 and a + b <= K, and
    one contraction with a 0/1 fold matrix sums them by order, so a merge
    step costs a fixed number of numpy calls whatever K is.
    """
    shape = powers.shape
    big_k, dim, _ = shape
    pairs = [(a, b) for a in range(1, big_k) for b in range(1, big_k + 1 - a)]
    left = np.array([a - 1 for a, _ in pairs], dtype=np.intp)
    right = np.array([b - 1 for _, b in pairs], dtype=np.intp)
    fold = np.zeros((big_k, len(pairs)))
    fold[left + right + 1, np.arange(len(pairs))] = 1.0
    series = powers
    for j in range(int(math.log2(big_d))):
        e_j = evolution.at(tau * 2 ** j / big_d)
        upper = e_j.conj().T @ (series.reshape(-1, dim) @ e_j).reshape(shape)
        joined = series + upper
        if pairs:
            cross = upper[left] @ series[right]
            joined += (fold @ cross.reshape(len(pairs), -1)).reshape(shape)
        series = joined
    return series


def _krylov_basis(h: np.ndarray, v: np.ndarray,
                  big_k: int) -> tuple[np.ndarray, int]:
    """(Q, s): orthonormal columns Q spanning S_2K and the dimension s of
    S_K, whose basis is the first s columns, where S_j = span{H^i V :
    i <= j}; H is a normalized block, ||H|| <= 1.

    Block Arnoldi from V.  Each block H Q_j has unit columns up to the
    factor ||H||; it is projected off the basis so far and deflated by an
    SVD.  A singular value below (2K + 1) N eps, the rounding that 2K + 1
    products and projections of length N leave, is a direction the basis
    already holds.  The cut stays at rounding level because a dropped
    direction costs its size relative to the block.  A kept direction was
    normalized up from its singular value, so a part of about eps / sigma
    of it still lies in the basis: it is projected off once more and the
    block re-orthonormalized, which keeps Q orthonormal to rounding even
    for a direction just above the cut.  Once a block deflates entirely,
    S is invariant under H and the basis is complete."""
    tol = (2 * big_k + 1) * len(v) * np.finfo(np.float64).eps
    q = np.empty((len(v), 0), dtype=np.complex128)
    block, widths = v, []
    for _ in range(2 * big_k + 1):
        u, sigma, _ = np.linalg.svd(block - q @ (q.conj().T @ block),
                                    full_matrices=False)
        kept = u[:, sigma > tol]
        block = np.linalg.svd(kept - q @ (q.conj().T @ kept),
                              full_matrices=False)[0]
        q = np.hstack([q, block])
        widths.append(block.shape[1])
        if not block.shape[1]:
            break
        block = h @ block
    return q, sum(widths[:big_k + 1])


def _ordered_series_totals(h: np.ndarray, evolution: RankTwoEvolution,
                           tau: float, big_d: int,
                           big_k: int) -> list[np.ndarray]:
    """T_k = sum over d_1 <= ... <= d_k of B(d_k) ... B(d_1), k = 0 .. K,
    with B(d) = E(d)^dag H E(d) the normalized dressed residual at grid
    point d of a D-point grid over [0, tau], H the normalized residual
    block and E(d) = ``evolution.at(tau d / D)``, as N_k H^k plus a
    low-rank term.

    With E = I + V C V^dag (V the orthonormal exp(-iGt) columns, C
    diagonal), B(d) = H + (terms whose range and co-range lie in
    span{V, HV}).  Multiplied out over k factors, every word but H^k holds
    such a term, and the H factors on either side of it take its range and
    co-range at most k - 1 steps further, so for k <= K

        T_k = N_k H^k + Q_S R_k Q_S^dag,   N_k = C(D + k - 1, k),

    the count of nondecreasing k-tuples, with Q_S an orthonormal basis of
    the Krylov space S_K = span{H^j V : j <= K} (``_krylov_basis``; H
    Hermitian).  R_k comes from the grid doubling itself, run on S_2K:
    E(d) maps each S_j into itself because V lies in S_0, and H maps S_j
    into S_(j+1), so k <= K factors take S_K into S_2K, where B(d) acts as
    its compression E_r^dag H_r E_r, with H_r = Q^dag H Q and E_r the
    rank-two evolution on the columns Q^dag V.  The compressed totals
    T_r,k then give R_k = (T_r,k - N_k H_r^k) on the leading s x s block.
    A hub-free graph has no columns, so T_k = N_k H^k.

    Cost: K - 1 N x N products for the powers of H, a thin block Arnoldi,
    and log2(D) batched merge steps at the reduced dimension, at most
    min(N, 2(2K + 1)).  Raises EncodingError when the columns are not
    orthonormal to 1e-12 (see ``_check_commuting``).
    """
    eye = np.eye(h.shape[0], dtype=np.complex128)
    if big_k == 0:
        return [eye]
    _check_commuting(evolution)
    counts = [float(math.comb(big_d + k - 1, k))
              for k in range(1, big_k + 1)]
    totals = [eye]
    for n_k, h_k in zip(counts, _powers(h, big_k)):
        totals.append(n_k * h_k)
    if not evolution.v.shape[1]:
        return totals
    q, dim_k = _krylov_basis(h, evolution.v, big_k)
    qh = q.conj().T
    powers_r = np.stack(list(_powers(qh @ h @ q, big_k)))
    reduced = _grid_doubling(powers_r, RankTwoEvolution(qh @ evolution.v,
                                                        evolution.lam),
                             tau, big_d)
    q_s, qh_s = q[:, :dim_k], qh[:dim_k]
    for k in range(1, big_k + 1):
        r_k = reduced[k - 1] - counts[k - 1] * powers_r[k - 1]
        totals[k] += q_s @ r_k[:dim_k, :dim_k] @ qh_s
    return totals


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
    per-segment budget, at every K (K=0 claims the identity), so the
    encoding meets the eps_segment it claims.
    """
    graph = leaves.graph
    alpha1, alpha2 = evolution_scales(graph)
    tau, big_d, big_k = config.tau, config.big_d, config.big_k
    eps_seg = config.eps_segment
    if tau > 1.0 / (2.0 * alpha2) + 1e-12:
        raise ConfigurationError(
            f"tau={tau:.6g} exceeds 1/(2 alpha2)={1.0 / (2 * alpha2):.6g}")
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
    totals = _ordered_series_totals(leaves.h2_block()[0], leaves.evolution,
                                    tau, big_d, big_k)

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


def _structural_oracle_profile(hubs: bool, n_rank_two: int,
                               n_h2: int) -> dict[str, int]:
    """Oracle tallies from the circuit structure: each rank-two circuit
    (a rotation or a time select) queries O_H twice, and not at all
    without hubs; each residual application touches every oracle O(1)
    times."""
    if hubs:
        return {"O_H": 2 * n_rank_two + 2 * n_h2, "O_A": 6 * n_h2,
                "O_K": 10 * n_h2, "O_L": 2 * n_h2, "O_Z": 2 * n_h2}
    return {"O_A": 2 * n_h2, "O_K": 4 * n_h2, "O_L": 2 * n_h2}


@dataclass(frozen=True, slots=True)
class RunReport:
    """What one solve ran: its schedule, scales, amplification degree L
    (``aa_degree``) and whether the graph has hubs.  The query tallies and
    the budget shares are derived from those on request, so a kept report
    holds no dict.  A t = 0 solve has no segment, no tallies and no
    budget."""

    t: float
    eps: float
    method: str
    segments: int
    big_k: int
    big_d: int
    tau: float
    alpha1: float
    alpha2: float
    aa_degree: int
    hubs: bool
    norm_deficit: float

    @property
    def queries(self) -> dict[str, int]:
        """Oracle tallies: each segment runs the segment oracle L times,
        each applying K dressed residuals, and each dressed residual
        applies the time select twice; the rotation stage runs once per
        segment."""
        if not self.segments:
            return {}
        n_h2 = self.aa_degree * self.big_k * self.segments
        return _structural_oracle_profile(self.hubs,
                                          2 * n_h2 + self.segments, n_h2)

    @property
    def budget(self) -> dict[str, float]:
        """Per-slice scheduled shares: eps_segment = eps/n for the series
        and eps_segment / 10 for the amplification."""
        if not self.segments:
            return {}
        eps_segment = self.eps / self.segments
        return {"segment_series": eps_segment,
                "segment_amplification": eps_segment / 10.0}

    def as_dict(self) -> dict:
        return {
            "t": self.t, "eps": self.eps, "method": self.method,
            "segments": self.segments, "K": self.big_k, "D": self.big_d,
            "tau": self.tau, "alpha1": self.alpha1, "alpha2": self.alpha2,
            "queries": dict(sorted(self.queries.items())),
            "budget": self.budget,
            "norm_deficit": self.norm_deficit,
        }


def simulate_full(graph: HubSparseGraph, t: float, eps: float,
                  psi0: np.ndarray, method: str = "circuit",
                  oracle_set: OracleSet | None = None
                  ) -> tuple[np.ndarray, RunReport]:
    """Evolve psi0 under the adjacency generator for time t within eps.

    Slices [0, t] into the n equal segments of ``default_config``, builds
    and amplifies that one segment propagator, then applies it n times,
    each time followed by the link-matrix rotation over tau.  ``method``
    selects the tier of the solve's ``LeafBlocks``: "circuit" extracts
    every leaf from its circuit, "classical-ff" substitutes the verified
    dense forms.  The rotation applies that source's exp(-iG tau) to the
    state at O(N).  Passing the same ``oracle_set`` again reuses the
    graph-only leaves, the residual block and the exp(-iGt) columns, which
    the first solve on it built: a repeated circuit solve applies no
    oracle gate for them and returns the same bytes as a solve on a fresh
    set.  The rotation and the time select are exact and claim
    nothing.  The report's ``budget`` lists the per-slice scheduled shares,
    eps_segment = eps/n and eps_aa = eps_segment / 10, but the amplified
    segment claims eps_aa + 2 eps_segment (``fixed_point_aa``), so the n
    slices claim 2.1 eps in sum, not eps.  An eps whose amplification
    share lies below ``blockenc.EPS_FLOOR`` raises ``ParameterError``
    before any segment is built.
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

    hubs = bool(graph.m_hubs)
    if t == 0.0:
        report = RunReport(t, eps, method, 0, 0, 0, 0.0, alpha1, alpha2, 0,
                           hubs, 0.0)
        return psi, report

    cfg = default_config(graph, t, eps)
    eps_aa = cfg.eps_segment / 10.0
    # refused here, before the series totals of a huge K and D overflow
    check_eps_floor(eps_aa, eps)

    amplified = fixed_point_aa(dyson_segment(leaves, cfg), eps_aa)
    evolution = leaves.evolution
    for _ in range(cfg.n_slices):
        psi = evolution.apply(cfg.tau, amplified.apply_block(psi))

    norm_deficit = float(1.0 - np.linalg.norm(psi))
    report = RunReport(
        t, eps, method, cfg.n_slices, cfg.big_k, cfg.big_d, cfg.tau, alpha1,
        alpha2, amplified.aa_degree, hubs, norm_deficit)
    return psi, report
