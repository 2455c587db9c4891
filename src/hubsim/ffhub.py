"""Fast-forwarding of the complete hub-regular link matrix G.

G = X_h X_r^T + X_r X_h^T (indicator outer products) has rank two: its only
nonzero eigenvalues are +-lambda, lambda = sqrt(M(N-M)), with eigenvectors
psi+- = (u_hub +- u_reg)/sqrt 2, the balanced combinations of the uniform
hub state and the uniform regular state.  The evolution exp(-iGt)
therefore costs O(N) classically and a fixed-size circuit quantumly, with
t entering only through two phases; the circuit depth does not grow with
t.

The circuit is exact and needs no ancilla.  Oracle model: O_H is a full
permutation of [N] (see ``oracles``): it sends l < M to the l-th hub and
l >= M to the non-hub nodes in order.  So in the index basis l, O_H^dag G
O_H couples only the blocks [0, M) and [M, N), and its eigenvectors are
(u_low +- u_high)/sqrt 2 with u_low uniform over [0, M) and u_high uniform
over [M, N).  With m = log2 M, the low m qubits of l range over a block
and the upper n - m qubits pick it: l < M exactly when they read zero.
Let S+ prepare (|0> + w)/sqrt 2 on the upper qubits, w uniform over their
2^(n-m) - 1 nonzero values.  Then V+ = O_H H^m S+ maps |0^n> to psi+, and
V- = O_H H^m S- with S- = Z0(pi) S+ maps it to -psi-, where Z0(theta) puts
the phase e^{i theta} on |0^n>.  Since V Z0(theta) V^dag = I +
(e^{i theta} - 1)|psi><psi| and the two projectors are orthogonal,

    exp(-iGt) = V+ Z0(-lambda t) V+^dag V- Z0(lambda t) V-^dag
              = O_H H^m S+ Z0(-lambda t) S+^dag
                S- Z0(lambda t) S-^dag H^m O_H^dag,

where the inner O_H^dag O_H and H^m H^m cancel: two O_H queries and no
other.  S+ is a top-down chain of two-level rotations (see
``_split_prep``); Z0(theta) is one phase gate with n - 1 zero-controls.
``_preparation`` builds V+- as its factors (S+-, O_H H^m), from which the
circuit takes its pieces, and ``prepared_state`` runs it on |0^n>.
``build_expG`` wraps the circuit as a unit-factor encoding; being exact,
it takes no eps and claims eps 0, as every exact stage does.

Multiplied out with v+- = V+- |0^n>, the same two orthogonal projectors
give exp(-iGt) = I + V diag(e^{-i lambda t} - 1, e^{i lambda t} - 1)
V^dag with V = [v+, v-], N x 2.  ``RankTwoEvolution`` holds only V and
lambda: the prepared columns in the circuit tier (one O_H query each) or
psi+- of ``spectrum_G``, and no columns without hubs.  Its dense blocks
and its O(N)-per-column ``apply`` serve every solve stage, and
``classical_expG_apply`` is ``apply`` on psi+-.

The time select sum_d |d><d| (x) exp(-iG t d) over a log2(D)-qubit grid
register d is the same circuit with each Z0(-+lambda t d) written as
log2(D) phase gates, gate j controlled on the bit of weight 2^j of d.  It
also costs two O_H queries, whatever D is.  ``_rank_two_circuit`` builds
both, so the rotation has one implementation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .blockenc import BlockEncoding
# unused: perfbench/layertrace.py rebinds both here until it is retargeted
from .blockenc import fixed_point_aa, lcu  # noqa: F401
from .errors import ParameterError
from .netgraph import HubSparseGraph
from .oracles import OracleSet
from .qstate import Circuit, DenseGate, RegisterLayout, hadamard_layer


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


def _split_prep(k: int) -> Circuit:
    """S+ on k qubits: |0^k> to (|0^k> + w)/sqrt 2, w uniform over the
    2^k - 1 nonzero values.

    Top-down: the rotation on qubit j, zero-controlled on every qubit above
    it, moves onto bit j = 1 the weight of the values whose highest set
    bit is j; a Hadamard layer then spreads that branch over the qubits
    below j.  The layer is controlled on bit j = 1 and on every qubit above
    j being zero: controlled on bit j alone it would also fire on branches
    an earlier layer already made uniform."""
    circ = Circuit(RegisterLayout(("up", k)), label="split_prep")
    nonzero = 2 ** k - 1
    for j in range(k):
        above = [(q, 0) for q in range(j)]
        below = k - 1 - j
        # weights times 2: |0^k> carries 1 and each nonzero value 1/nonzero
        stay = 1.0 + (2 ** below - 1) / nonzero
        split = 2 ** below / nonzero
        c = math.sqrt(stay / (stay + split))
        s = math.sqrt(split / (stay + split))
        circ.append(DenseGate(np.array([[c, -s], [s, c]]), label="split"),
                    qubits=[j], controls=above)
        if below:
            circ.append(hadamard_layer(below), qubits=range(j + 1, k),
                        controls=above + [(j, 1)])
    return circ


def _preparation(oracles: OracleSet, sign: int) -> tuple[Circuit, Circuit]:
    """V+- = O_H H^m S+- on the n system qubits, as its two factors (S+-,
    O_H H^m): V+ |0^n> = psi+ and V- |0^n> = -psi-.  S+ is ``_split_prep``
    on the upper n - m qubits and S- = Z0(pi) S+.  Needs hubs."""
    n = oracles.graph.n_qubits
    m = oracles.graph.m_hubs.bit_length() - 1
    layout = RegisterLayout(("sys", n))
    split = Circuit(layout, label="split")
    split.append(_split_prep(n - m), on=[("sys", 0, n - m)])
    if sign < 0:
        split.append(DenseGate(np.diag([-1.0, 1.0]), label="Z0"),
                     qubits=[0], controls=[(q, 0) for q in range(1, n)])
    mix = Circuit(layout, label="mix")
    if m:
        mix.append(hadamard_layer(m), on=[("sys", n - m, n)])
    mix.append(oracles.o_h, on=["sys"])
    return split, mix


def prepared_state(oracles: OracleSet, sign: int) -> np.ndarray:
    """V+- |0^n> (psi+ for sign +1, -psi- for sign -1): the preparation run
    once on the basis column |0>, one O_H query.  Needs hubs."""
    dim = 2 ** oracles.graph.n_qubits
    column = np.zeros((dim, 1), dtype=np.complex128)
    column[0, 0] = 1.0
    for factor in _preparation(oracles, sign):
        column = factor.apply_to_array(column, factor.width)
    return column[:, 0]


@dataclass(frozen=True)
class RankTwoEvolution:
    """exp(-iGt) = I + V diag(e^{-i lam t} - 1, e^{i lam t} - 1) V^dag,
    held as the eigenvector columns V = [v+, v-] of the eigenvalues +-lam
    (either sign of each column gives the same evolution).  Without hubs V
    has no columns and every block is the identity.  ``at`` and ``apply``
    raise ``ParameterError`` for a non-finite t."""

    v: np.ndarray
    lam: float

    @classmethod
    def of(cls, graph: HubSparseGraph,
           oracles: OracleSet | None = None) -> "RankTwoEvolution":
        """The columns of ``graph``: with ``oracles``, the preparations V+-
        run once each on |0^n> (one O_H query apiece); without, psi+- of
        ``spectrum_G``.  No columns and no query without hubs."""
        if not graph.m_hubs:
            return cls(np.zeros((graph.n_nodes, 0), dtype=np.complex128), 0.0)
        if oracles is None:
            spec = spectrum_G(graph)
            columns = (spec.psi_plus, spec.psi_minus)
        else:
            columns = tuple(prepared_state(oracles, sign) for sign in (+1, -1))
        return cls(np.stack(columns, axis=1), link_norm(graph))

    def _scaled(self, t: float) -> np.ndarray:
        """V diag(c(t)): each column times its phase factor minus one."""
        if not math.isfinite(t):
            raise ParameterError(f"t must be finite, got {t}")
        z = cmath.exp(1j * self.lam * t)
        # no phase without hubs, where V has no columns
        return self.v * [z.conjugate() - 1.0, z - 1.0][:self.v.shape[1]]

    def at(self, t: float) -> np.ndarray:
        """The dense N x N block of exp(-iGt)."""
        eye = np.eye(len(self.v), dtype=np.complex128)
        return eye + self._scaled(t) @ self.v.conj().T

    def apply(self, t: float, x: np.ndarray) -> np.ndarray:
        """exp(-iGt) x in O(N) per column; ``x`` is a vector or a matrix of
        columns."""
        x = np.asarray(x, dtype=np.complex128)
        return x + self._scaled(t) @ (self.v.conj().T @ x)


def classical_expG_apply(graph: HubSparseGraph, t: float,
                         state: np.ndarray) -> np.ndarray:
    """exp(-iGt) state in O(N) per column, from the eigenvectors of the
    rank-two spectrum.  ``state`` is a vector or a matrix of columns; a
    non-finite t raises ``ParameterError``."""
    return RankTwoEvolution.of(graph).apply(t, state)


def _rank_two_circuit(oracles: OracleSet, t: float, log_d: int = 0) -> Circuit:
    """exp(-iGt) on the n system qubits when log_d = 0; with a log_d-qubit
    grid register d in front, sum_d |d><d| (x) exp(-iG t d).  Exact, no
    ancilla, two O_H queries (none without hubs, where it is empty):
    V+ Z0(-lambda t) V+^dag V- Z0(lambda t) V-^dag with the inner O_H H^m
    factors cancelled."""
    graph = oracles.graph
    n = graph.n_qubits
    layout = RegisterLayout(("d", log_d), ("sys", n))
    circ = Circuit(layout, label="rank_two")
    if not graph.m_hubs:
        return circ
    lam = link_norm(graph)
    sys_axes = layout.axes("sys")
    on_zero = [(q, 0) for q in sys_axes[1:]]
    grid = [[(axis, 1)] for axis in reversed(layout.axes("d"))] or [[]]
    s_plus, mix = _preparation(oracles, +1)
    s_minus, _ = _preparation(oracles, -1)

    def z0(theta):
        # e^{i theta d} on |0^n>: bit j of d (weight 2^j) adds theta 2^j;
        # without a grid register, one uncontrolled gate adds theta
        for j, ctrl in enumerate(grid):
            phase = np.diag([np.exp(1j * theta * 2 ** j), 1.0])
            circ.append(DenseGate(phase, label="Z0"), qubits=sys_axes[:1],
                        controls=on_zero + ctrl)

    circ.append(mix, on=["sys"], adjoint=True)
    circ.append(s_minus, on=["sys"], adjoint=True)
    z0(lam * t)
    circ.append(s_minus, on=["sys"])
    circ.append(s_plus, on=["sys"], adjoint=True)
    z0(-lam * t)
    circ.append(s_plus, on=["sys"])
    circ.append(mix, on=["sys"])
    return circ


def build_expG(oracles: OracleSet, t: float) -> BlockEncoding:
    """Unit-factor, ancilla-free encoding of exp(-iGt): the exact rank-two
    circuit (module docstring), so like every exact stage it claims eps 0.
    Its gate count does not depend on t, and it makes two O_H queries
    (none without hubs, where it is the identity).  A non-finite t raises
    ``ParameterError``."""
    if not np.isfinite(t):
        raise ParameterError(f"t must be finite, got {t}")
    n = oracles.graph.n_qubits
    return BlockEncoding(_rank_two_circuit(oracles, t), 1.0, 0, n,
                         label=f"exp_g(t={t:g})")
