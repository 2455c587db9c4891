"""Fast-forwarding of the complete hub-regular link matrix G.

G = X_h X_r^T + X_r X_h^T (indicator outer products) has rank two: its only
nonzero eigenvalues are +-sqrt(M(N-M)) with eigenvectors that are balanced
combinations of the uniform hub state and the uniform regular state.  The
evolution exp(-iGt) therefore costs O(N) classically and a fixed-size
circuit quantumly, with t entering through a single rotation angle; the
circuit depth does not grow with t.

The circuit route prepares the two eigenvectors through state-preparation
encodings, marks each eigencomponent on a flag qubit, applies the rotation
phase, and combines the marked projectors with the identity through a
signed linear combination, then amplifies the result to a unit-factor
encoding.  Only the phased projector circuit depends on t: the eigenvector
preparations, the unphased projector circuit (with its extracted block)
and the identity branch form an ``ExpGBundle`` that one graph's encodings
for every t can share.  The circuit constructors take the graph's
``OracleSet`` and read the graph from it; a bundle records the oracle set
it was built on, and ``build_expG`` rejects a bundle from another one.

Since t enters only as the rotation rz(-2 lambda t) on the flag, the
phased projector block is exactly e^{i lambda t} P + e^{-i lambda t} Q for
two fixed blocks: P collects the paths on which the flag sits at 0 during
the rotation, Q those on which it sits at 1.  The unphased block is
P + Q and the phased block at lambda t = pi/2 is i(P - Q), so a bundle
extracts P and Q once, on first use, and every phased encoding on it
takes its block from them instead of extracting its own circuit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blockenc import BlockEncoding, fixed_point_aa, identity_encoding, lcu
from .errors import ParameterError
from .netgraph import HubSparseGraph
from .oracles import OracleSet
from .qstate import Circuit, RegisterLayout, hadamard_layer, rz_gate, x_gate


@dataclass(frozen=True)
class GSpectrum:
    """Nonzero eigenpairs of the link matrix G."""

    lambda_plus: float
    lambda_minus: float
    psi_plus: np.ndarray
    psi_minus: np.ndarray


def link_norm(graph: HubSparseGraph) -> float:
    """Spectral norm of G: sqrt(M(N-M)); zero when the graph has no hubs."""
    m, n = graph.m_hubs, graph.n_nodes
    return float(np.sqrt(m * (n - m))) if m else 0.0


def spectrum_G(graph: HubSparseGraph) -> GSpectrum:
    n, m = graph.n_nodes, graph.m_hubs
    if m < 1 or m >= n:
        raise ParameterError(
            f"degenerate link matrix for M={m}: no nonzero eigenpairs")
    mask = graph.hub_mask()
    u_hub = mask.astype(np.complex128) / np.sqrt(m)
    u_reg = (~mask).astype(np.complex128) / np.sqrt(n - m)
    lam = float(np.sqrt(m * (n - m)))
    psi_plus = (u_hub + u_reg) / np.sqrt(2.0)
    psi_minus = (u_hub - u_reg) / np.sqrt(2.0)
    return GSpectrum(lam, -lam, psi_plus, psi_minus)


def classical_expG_apply(graph: HubSparseGraph, t: float,
                         state: np.ndarray) -> np.ndarray:
    """exp(-iGt) state in O(N) per column: identity plus the two rotated
    eigenprojectors.  ``state`` is a vector or a matrix of columns."""
    state = np.asarray(state, dtype=np.complex128)
    if graph.m_hubs == 0 or t == 0.0:
        return state.copy()
    spec = spectrum_G(graph)
    out = state.copy()
    for lam, vec in ((spec.lambda_plus, spec.psi_plus),
                     (spec.lambda_minus, spec.psi_minus)):
        out += np.multiply.outer((np.exp(-1j * lam * t) - 1.0) * vec,
                                 vec @ state)
    return out


def hub_block_factor(graph: HubSparseGraph) -> float:
    """beta = (1/2) (1 + sqrt(N/(N-M)))^2, the marked-projector block factor."""
    n, m = graph.n_nodes, graph.m_hubs
    return 0.5 * (1.0 + np.sqrt(n / (n - m))) ** 2


def build_P_pm(oracles: OracleSet, sign: int) -> BlockEncoding:
    """State-preparation encoding mapping |0^n> to the +/- eigenvector.

    Combination of two preparation branches: a flagged uniform
    superposition restricted to regular nodes (Hadamard layer + node-type
    flag) and a uniform superposition over hubs (Hadamard layer on the low
    log2(M) qubits + hub relabeling).  The combination factor is
    (1/sqrt(2)) (1 + sqrt(N/(N-M))) with two ancilla qubits.
    """
    if sign not in (+1, -1):
        raise ParameterError("sign must be +1 or -1")
    graph = oracles.graph
    n_nodes, m_hubs = graph.n_nodes, graph.m_hubs
    if m_hubs < 1:
        raise ParameterError("no hubs: eigenvector preparation undefined")
    n = graph.n_qubits

    reg_circ = Circuit(RegisterLayout(("flag", 1), ("sys", n)), label="prep_regular")
    reg_circ.append(hadamard_layer(n), on=["sys"])
    reg_circ.append(oracles.o_k, on=["sys", "flag"])
    alpha_reg = float(np.sqrt(n_nodes / (n_nodes - m_hubs)))
    be_reg = BlockEncoding(reg_circ, alpha_reg, 1, n, label="prep_regular")

    hub_circ = Circuit(RegisterLayout(("sys", n)), label="prep_hub")
    log_m = int(np.log2(m_hubs))
    if log_m:
        hub_circ.append(hadamard_layer(log_m), on=[("sys", n - log_m, n)])
    hub_circ.append(oracles.o_h, on=["sys"])
    be_hub = BlockEncoding(hub_circ, 1.0, 0, n, label="prep_hub")

    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    be = lcu([sign * inv_sqrt2, inv_sqrt2], [be_reg, be_hub])
    be.label = f"prep_psi{'+' if sign > 0 else '-'}"
    return be


def _marked_projector_circuit(graph: HubSparseGraph, u_plus: BlockEncoding,
                              u_minus: BlockEncoding, t: float,
                              with_phase: bool) -> Circuit:
    """Mark each eigencomponent on the flag qubit ``a`` and optionally
    rotate it; the block equals (phase_+ P_+ + phase_- P_-) / beta."""
    n = graph.n_qubits
    layout = RegisterLayout(("a", 1), ("minus", 2), ("plus", 2), ("sys", n))
    circ = Circuit(layout, label="marked_projectors" + ("_phased" if with_phase else ""))
    plus_sys = list(layout.axes("plus")) + list(layout.axes("sys"))
    minus_sys = list(layout.axes("minus")) + list(layout.axes("sys"))
    lam = link_norm(graph)

    circ.append(u_plus.unitary, qubits=plus_sys, adjoint=True)
    circ.append(x_gate(), on=["a"], controls=[("plus", 0), ("sys", 0)])
    if with_phase:
        circ.append(rz_gate(-2.0 * lam * t), on=["a"])
    circ.append(u_plus.unitary, qubits=plus_sys)
    circ.append(u_minus.unitary, qubits=minus_sys, adjoint=True)
    circ.append(x_gate(), on=["a"], controls=[("minus", 0), ("sys", 0)])
    circ.append(u_minus.unitary, qubits=minus_sys)
    circ.append(x_gate(), on=["a"])
    return circ


@dataclass(frozen=True)
class ExpGBundle:
    """The t-independent parts of an exp(-iGt) encoding: the eigenvector
    preparations, the unphased marked-projector encoding (its block is
    extracted once, on first use) and the 5-ancilla identity branch, built
    on ``oracles``.

    ``phased_block(t)`` is the phased projector block
    e^{i lambda t} P + e^{-i lambda t} Q.  The blocks (P, Q) are built
    once, on first use, from the unphased block P + Q and one extraction
    of the phased circuit at lambda t = pi/2, which gives i(P - Q)."""

    oracles: OracleSet
    u_plus: BlockEncoding
    u_minus: BlockEncoding
    plain: BlockEncoding
    identity: BlockEncoding

    @cached_property
    def projector_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        graph = self.oracles.graph
        quarter = _marked_projector_circuit(
            graph, self.u_plus, self.u_minus,
            0.5 * np.pi / link_norm(graph), with_phase=True)
        turned = BlockEncoding(quarter, self.plain.alpha, 5, graph.n_qubits,
                               label="phased_projectors").block()
        plain = self.plain.block()
        return 0.5 * (plain - 1j * turned), 0.5 * (plain + 1j * turned)

    def phased_block(self, t: float) -> np.ndarray:
        p_blk, q_blk = self.projector_blocks
        phase = np.exp(1j * link_norm(self.oracles.graph) * t)
        return phase * p_blk + np.conj(phase) * q_blk


def expG_bundle(oracles: OracleSet) -> ExpGBundle:
    """Build the t-independent parts of exp(-iGt) for a graph with hubs."""
    graph = oracles.graph
    u_plus = build_P_pm(oracles, +1)
    u_minus = build_P_pm(oracles, -1)
    plain = _marked_projector_circuit(graph, u_plus, u_minus, 0.0,
                                      with_phase=False)
    return ExpGBundle(
        oracles, u_plus, u_minus,
        BlockEncoding(plain, hub_block_factor(graph), 5, graph.n_qubits,
                      label="plain_projectors"),
        identity_encoding(graph.n_qubits, 5, label="identity5"))


def build_expG(oracles: OracleSet, t: float, eps: float, *,
               bundle: ExpGBundle | None = None) -> BlockEncoding:
    """Unit-factor encoding of exp(-iGt), accurate to ``eps``.

    Pre-amplification, the signed combination of the phased projector
    circuit, the unphased one, and the identity is a (2 beta + 1, 7)
    encoding; fixed-point amplification brings it to (1, 8, eps).  The
    gate count is independent of t (t only sets one rotation angle).

    Only the phased projector circuit, the combination and the
    amplification are built per call.  The rest comes from ``bundle``,
    ``expG_bundle(oracles)`` shared across t; without it the call builds
    its own, with the same result.  The phased projector block comes from
    the bundle's ``phased_block(t)``, so no call extracts its own circuit.
    A non-finite t or a bundle built on another oracle set raises
    ``ParameterError``.
    """
    if not np.isfinite(t):
        raise ParameterError(f"t must be finite, got {t}")
    graph = oracles.graph
    n = graph.n_qubits
    if graph.m_hubs == 0:
        return identity_encoding(n, 8, label="exp_g_empty")
    if bundle is None:
        bundle = expG_bundle(oracles)
    elif bundle.oracles is not oracles:
        raise ParameterError("exp(-iGt) bundle was built on another oracle set")
    phased = _marked_projector_circuit(graph, bundle.u_plus, bundle.u_minus,
                                       t, with_phase=True)
    be_phased = BlockEncoding(phased, bundle.plain.alpha, 5, n,
                              block_fn=lambda: bundle.phased_block(t),
                              label="phased_projectors")

    pre = lcu([1.0, -1.0, 1.0], [be_phased, bundle.plain, bundle.identity])
    pre.label = "exp_g_pre"
    amplified = fixed_point_aa(pre, eps)
    amplified.label = f"exp_g(t={t:g})"
    amplified.pre_alpha = pre.alpha
    amplified.pre_ancillas = pre.m
    return amplified
