"""Independent brute-force references: dense matrix exponentials, a
rotated-frame ODE integrator, and state distances.

Everything here is deliberately self-contained (graph data + numpy only)
so it can serve as ground truth for the circuit pipeline without sharing
code paths with it.  All functions are pure and thread-safe.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, StepSizeUnderflow
from .netgraph import HubSparseGraph

MAX_DENSE_DIM = 4096


def dense_expm(matrix: np.ndarray, t: float) -> np.ndarray:
    """exp(-i * matrix * t) for a Hermitian matrix, via eigendecomposition."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ParameterError("dense_expm needs a square matrix")
    if matrix.shape[0] > MAX_DENSE_DIM:
        raise ParameterError(f"dimension {matrix.shape[0]} exceeds {MAX_DENSE_DIM}")
    if np.max(np.abs(matrix - matrix.conj().T)) > 1e-12:
        raise ParameterError("matrix is not Hermitian within 1e-12")
    evals, evecs = np.linalg.eigh(matrix)
    phases = np.exp(-1j * evals * t)
    return (evecs * phases) @ evecs.conj().T


def distance(state_a: np.ndarray, state_b: np.ndarray) -> float:
    """Plain l2 distance between two amplitude vectors."""
    a, b = np.asarray(state_a), np.asarray(state_b)
    if a.shape != b.shape:
        raise ParameterError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def phase_insensitive_distance(state_a: np.ndarray, state_b: np.ndarray) -> float:
    """min over a global phase of ||a - e^{i phi} b|| = sqrt(2 - 2|<a|b>|)."""
    a, b = np.asarray(state_a), np.asarray(state_b)
    if a.shape != b.shape:
        raise ParameterError(f"dimension mismatch: {a.shape} vs {b.shape}")
    overlap = abs(np.vdot(a, b))
    return float(np.sqrt(max(0.0, np.linalg.norm(a) ** 2 + np.linalg.norm(b) ** 2
                              - 2.0 * overlap)))


# -- rotated-frame integration ---------------------------------------------

class _GraphAction:
    """Fast matrix-vector actions for A, G and the residual A - G.

    G has rank two (outer products of the hub/regular indicator vectors),
    so both G x and exp(-iGt) x cost O(N).
    """

    def __init__(self, graph: HubSparseGraph):
        n = graph.n_nodes
        mask = graph.hub_mask()
        self.n = n
        self.hub_mask = mask
        rows, cols = [], []
        for u in range(n):
            for v in graph.adj[u]:
                rows.append(u)
                cols.append(v)
        self.rows = np.asarray(rows, dtype=np.intp)
        self.cols = np.asarray(cols, dtype=np.intp)
        m = int(mask.sum())
        self.m = m
        self.lam = float(np.sqrt(m * (n - m))) if 0 < m < n else 0.0
        if 0 < m < n:
            self.u_hub = mask.astype(np.complex128) / np.sqrt(m)
            self.u_reg = (~mask).astype(np.complex128) / np.sqrt(n - m)
        else:
            self.u_hub = self.u_reg = None

    def adjacency_apply(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        np.add.at(out, self.rows, x[self.cols])
        return out

    def link_apply(self, x: np.ndarray) -> np.ndarray:
        if self.u_hub is None:
            return np.zeros_like(x)
        scale = np.sqrt(self.m * (self.n - self.m))
        return scale * (self.u_hub * (self.u_reg @ x) + self.u_reg * (self.u_hub @ x))

    def residual_apply(self, x: np.ndarray) -> np.ndarray:
        """(A - G) x = (-A_minus + A_hub + A_reg) x."""
        return self.adjacency_apply(x) - self.link_apply(x)

    def rotate(self, x: np.ndarray, t: float) -> np.ndarray:
        """exp(-i G t) x via the two nonzero eigenpairs of G."""
        if self.u_hub is None or t == 0.0:
            return x.copy()
        psi_p = (self.u_hub + self.u_reg) / np.sqrt(2.0)
        psi_m = (self.u_hub - self.u_reg) / np.sqrt(2.0)
        out = x.copy()
        out += (np.exp(-1j * self.lam * t) - 1.0) * psi_p * (psi_p @ x)
        out += (np.exp(+1j * self.lam * t) - 1.0) * psi_m * (psi_m @ x)
        return out


# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])


def _integrate(f, y0: np.ndarray, t_end: float, tol: float) -> np.ndarray:
    """Adaptive Dormand-Prince 5(4) from 0 to t_end with absolute local
    tolerance ``tol`` per unit step.  A negative t_end integrates the
    time-reversed equation y'(s) = -f(-s, y) from 0 to -t_end."""
    if t_end == 0.0:
        return y0.copy()
    if t_end < 0.0:
        return _integrate(lambda s, y: -f(-s, y), y0, -t_end, tol)
    y = y0.astype(np.complex128, copy=True)
    t = 0.0
    dt = min(t_end, 0.1)
    min_dt = t_end * 1e-14
    while t < t_end - 1e-15 * t_end:
        dt = min(dt, t_end - t)
        ks = []
        for i in range(7):
            yi = y.copy()
            for j, a in enumerate(_DP_A[i]):
                if a != 0.0:
                    yi += dt * a * ks[j]
            ks.append(f(t + _DP_C[i] * dt, yi))
        y5 = y + dt * sum(b * k for b, k in zip(_DP_B5, ks) if b != 0.0)
        y4 = y + dt * sum(b * k for b, k in zip(_DP_B4, ks) if b != 0.0)
        err = float(np.linalg.norm(y5 - y4))
        scale = tol * max(1.0, float(np.linalg.norm(y)))
        if err <= scale or dt <= min_dt:
            t += dt
            y = y5
        if err > 0.0:
            dt = dt * min(5.0, max(0.2, 0.9 * (scale / err) ** 0.2))
        else:
            dt = dt * 5.0
        if dt < min_dt:
            if t < t_end - 1e-12 * t_end:
                raise StepSizeUnderflow(f"step size underflow at t={t}")
    return y


def _rotated_rhs(action: _GraphAction):
    """Right-hand side of the rotated-frame equation,
    y'(s) = -i e^{iGs} (A - G) e^{-iGs} y."""

    def rhs(s, y):
        inner = action.rotate(y, s)              # e^{-iGs} y
        inner = action.residual_apply(inner)     # (A - G) ...
        inner = action.rotate(inner, -s)         # e^{+iGs} ...
        return -1j * inner
    return rhs


def rotated_reference(graph: HubSparseGraph, t: float, psi0: np.ndarray,
                      tol: float = 1e-10) -> np.ndarray:
    """Integrate the rotated-frame equation and rotate back.

    The state is evolved under the time-dependent generator
    e^{iGs} (A - G) e^{-iGs}, then mapped back with exp(-iGt); the result
    approximates exp(-iAt) psi0 to within roughly 10 * tol.
    """
    if graph.n_nodes > MAX_DENSE_DIM:
        raise ParameterError(f"dimension {graph.n_nodes} exceeds {MAX_DENSE_DIM}")
    action = _GraphAction(graph)
    psi0 = np.asarray(psi0, dtype=np.complex128)
    y = _integrate(_rotated_rhs(action), psi0, t, tol)
    return action.rotate(y, t)


def rotated_propagator(graph: HubSparseGraph, t: float,
                       tol: float = 1e-10) -> np.ndarray:
    """Dense rotated-frame propagator (columns integrated independently).

    Column j solves the rotated equation from the basis state |j>, without
    the final rotation back; used to judge truncated-series propagators.
    """
    n = graph.n_nodes
    if n > 512:
        raise ParameterError("rotated_propagator capped at dimension 512")
    rhs = _rotated_rhs(_GraphAction(graph))
    cols = []
    for j in range(n):
        e = np.zeros(n, dtype=np.complex128)
        e[j] = 1.0
        cols.append(_integrate(rhs, e, t, tol))
    return np.stack(cols, axis=1)
