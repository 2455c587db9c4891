"""Block-encoding algebra: verification, linear combination and
fixed-point amplification.

A block encoding packages a unitary with (alpha, m, eps) metadata: the
top-left block of the unitary (ancillas prepared and projected on zero)
times alpha approximates a target matrix to eps in spectral norm.

Unitaries here follow one register convention: ancillas occupy the leading
(most significant) m qubits, the encoded system the trailing n.  Combining
encodings keeps the factors' ancilla banks disjoint, which is what makes
the combined block equal the algebraic combination of sub-blocks; every
constructor therefore carries an efficient ``block`` path that evaluates
the combination densely without touching the full-width Hilbert space.
Every register a constructor names is placed even when it is empty (an
index register of one term, a bank of bare unitaries), so m = 0 needs no
separate circuit.  A combination of K terms pads its index register to
the next power of two with zero amplitude, not with terms.  Its prepare
gates are completed to unitaries by QR, and only their first columns
reach any block.  The amplified circuit, L applications of the encoding
for the odd degree L, is built on first use, never eagerly: the ``block``
path does not need it, and building it allocates no amplitudes, so its
gates and queries can be counted at any width.

All encodings are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EncodingError, ParameterError, RegisterError
from .qstate import (Circuit, DenseGate, GlobalPhase, LazyCircuit,
                     LinearOperator, RegisterLayout, extract_block,
                     phase1_gate, spectral_norm, x_gate)


class BlockEncoding:
    """Unitary plus (alpha, m, eps) metadata over an n-qubit system."""

    def __init__(self, unitary: LinearOperator, alpha: float, m: int,
                 n_sys: int, eps: float = 0.0, block_fn=None, label: str = ""):
        if unitary.width != m + n_sys:
            raise RegisterError(
                f"unitary width {unitary.width} != m + n = {m}+{n_sys}")
        if alpha <= 0:
            raise ParameterError("alpha must be positive")
        self.unitary = unitary
        self.alpha = float(alpha)
        self.m = int(m)
        self.n_sys = int(n_sys)
        self.eps = float(eps)
        self.label = label or unitary.label
        self._block_fn = block_fn
        self._block_cache: np.ndarray | None = None

    def block(self) -> np.ndarray:
        """Dense 2^n x 2^n encoded block (cached)."""
        if self._block_cache is None:
            if self._block_fn is not None:
                self._block_cache = np.asarray(self._block_fn(),
                                               dtype=np.complex128)
            else:
                self._block_cache = self._full_block()
        return self._block_cache

    def _full_block(self) -> np.ndarray:
        """Block without a ``block_fn``: circuit extraction.  Subclasses
        override this, since a bound method as ``block_fn`` is a reference
        cycle that keeps the encoding alive until a full collection."""
        return extract_block(self.unitary, self.n_sys)

    def apply_block(self, vec: np.ndarray) -> np.ndarray:
        return self.block() @ np.asarray(vec, dtype=np.complex128)

    def gate_count(self) -> int:
        return self.unitary.gate_count()

    def query_profile(self) -> dict[str, int]:
        return self.unitary.query_profile()

    def __repr__(self):
        return (f"BlockEncoding({self.label!r}, alpha={self.alpha:.6g}, "
                f"m={self.m}, n={self.n_sys}, eps={self.eps:.3g})")


def zero_encoding(n_sys: int, label: str = "zero") -> BlockEncoding:
    """(1, 1)-encoding of the zero matrix: an ancilla flag that always fires."""
    circ = Circuit(RegisterLayout(("flag", 1), ("sys", n_sys)), label=label)
    circ.append(x_gate(), on=["flag"])
    return BlockEncoding(circ, 1.0, 1, n_sys,
                         block_fn=lambda: np.zeros((2 ** n_sys, 2 ** n_sys),
                                                   dtype=np.complex128),
                         label=label)


def verify(be: BlockEncoding, target: np.ndarray) -> float:
    """Measured spectral-norm error of the encoding against a dense target.

    Returns ||target - alpha * block||; raises EncodingError when the
    measurement exceeds the encoding's claimed eps (plus 1e-9 slack) or
    is not finite.
    """
    target = np.asarray(target, dtype=np.complex128)
    dim = 2 ** be.n_sys
    if target.shape != (dim, dim):
        raise ParameterError(
            f"target shape {target.shape} does not match system dim {dim}")
    err = spectral_norm(target - be.alpha * be.block())
    if not err <= be.eps + 1e-9:
        raise EncodingError(
            f"{be.label}: measured error {err:.3e} exceeds claimed "
            f"eps {be.eps:.3e}")
    return float(err)


def unitary_with_first_column(col: np.ndarray) -> np.ndarray:
    """Unitary whose first column is the given vector, normalized: the Q
    of a QR factorization of [col | I], its first column rephased by
    R[0,0] so that it is col / ||col|| rather than a multiple of it."""
    col = np.asarray(col, dtype=np.complex128)
    q, r = np.linalg.qr(np.column_stack((col, np.eye(len(col)))))
    q[:, 0] *= r[0, 0] / abs(r[0, 0])
    return q


def lcu(coeffs, bes) -> BlockEncoding:
    """Signed/complex linear combination of block encodings.

    Builds prepare/unprepare rotations whose first columns carry
    sqrt(y_j alpha_j / lambda) and its conjugate, and a select stage that
    applies each factor controlled on the index register.  The result
    encodes sum_j y_j A_j with alpha = sum_j |y_j| alpha_j, ancilla count
    max_j m_j + ceil(log2 K), and error bound sum|y_j| * max_j eps_j.
    """
    coeffs = [complex(c) for c in coeffs]
    bes = list(bes)
    if not bes or len(coeffs) != len(bes):
        raise ParameterError("need one coefficient per encoding, at least one")
    n = bes[0].n_sys
    if any(be.n_sys != n for be in bes):
        raise RegisterError("all encodings must share the system width")

    idx_width = (len(coeffs) - 1).bit_length()
    bank = max(be.m for be in bes)

    weights = np.array([c * be.alpha for c, be in zip(coeffs, bes)])
    lam = float(np.sum(np.abs(weights)))
    if lam <= 0:
        raise ParameterError("all coefficients vanish")
    # index values past the last term get no amplitude
    col_prep = np.zeros(2 ** idx_width, dtype=np.complex128)
    col_prep[:len(weights)] = np.sqrt(weights / lam)
    col_unprep = np.conj(col_prep)

    layout = RegisterLayout(("idx", idx_width), ("bank", bank), ("sys", n))
    circ = Circuit(layout, label="lcu")
    idx_qubits = list(layout.axes("idx"))
    bank_qubits = list(layout.axes("bank"))
    sys_qubits = list(layout.axes("sys"))

    v_gate = DenseGate(unitary_with_first_column(col_prep), label="prepare")
    vp_gate = DenseGate(unitary_with_first_column(col_unprep), label="unprepare")
    circ.append(v_gate, qubits=idx_qubits)
    for j, (c, be) in enumerate(zip(coeffs, bes)):
        if c == 0:
            continue
        circ.append(be.unitary, qubits=bank_qubits[:be.m] + sys_qubits,
                    controls=[("idx", j)])
    circ.append(vp_gate, qubits=idx_qubits, adjoint=True)

    eps = float(sum(abs(c) for c in coeffs) * max(be.eps for be in bes))
    sub = [(complex(w / lam), be) for w, be in zip(weights, bes) if w != 0]

    def block_fn():
        dim = 2 ** n
        total = np.zeros((dim, dim), dtype=np.complex128)
        for w, be in sub:
            total += w * be.block()
        return total

    return BlockEncoding(circ, lam, bank + idx_width, n, eps=eps,
                         block_fn=block_fn, label="lcu")


# -- fixed-point amplification ------------------------------------------------


def _phase_pairs(big_l: int, resid: float) -> list[tuple[float, float]]:
    """Chebyshev-root phase schedule for L = 2d+1 reflections.

    ``resid`` is the residual-amplitude target: the schedule keeps the
    sequence's scalar response at magnitude >= sqrt(1 - resid^2) on the
    band [sqrt(1 - gamma^2), 1], where 1/gamma = T_{1/L}(1/resid).
    """
    d = (big_l - 1) // 2
    gamma = 1.0 / math.cosh(math.acosh(1.0 / resid) / big_l)
    sg = math.sqrt(1.0 - gamma * gamma)
    alphas = [2.0 * math.atan2(1.0, math.tan(2.0 * math.pi * j / big_l) * sg)
              for j in range(1, d + 1)]
    betas = [-alphas[d - j] for j in range(1, d + 1)]
    return list(zip(betas, alphas))


def _model_scalar(pairs, x: float) -> complex:
    """Exact top-left entry of the amplification sequence on a singular pair.

    The two-dimensional model: the encoding unitary acts as the reflection
    [[x, c], [c, -x]] between the paired subspaces, and each projector
    phase acts as diag(e^{i phi}, 1).
    """
    x = min(max(x, 0.0), 1.0)
    c = math.sqrt(max(0.0, 1.0 - x * x))
    refl = np.array([[x, c], [c, -x]], dtype=np.complex128)

    def phase(phi):
        return np.diag([np.exp(1j * phi), 1.0]).astype(np.complex128)

    mat = refl.copy()
    for beta, alpha in pairs:
        mat = refl @ phase(-alpha) @ refl @ phase(beta) @ mat
    return complex(mat[0, 0])


# Smallest eps the degree search can reach: over alpha in [0.95, 100] the
# double-precision model scalar gets within 0.9 eps of 1 for every
# eps >= 1e-14, and for some alpha never at eps <= 5e-15.
EPS_FLOOR = 1e-13


def check_eps_floor(eps: float, requested: float | None = None) -> None:
    """Raise ``ParameterError`` unless the amplification eps is finite and
    at least ``EPS_FLOOR``.  When eps is derived from an eps a caller
    asked for, ``requested`` is that one, and the message names it."""
    if not (math.isfinite(eps) and eps >= EPS_FLOOR):
        asked = eps if requested is None else requested
        raise ParameterError(f"eps={asked}: amplification eps {eps:.3g} is "
                             f"not finite or below {EPS_FLOOR}")


def amplification_degree(alpha: float, eps: float) -> int:
    """Smallest odd L whose band [0.9/alpha, 1] reaches error eps.  Raises
    ``ParameterError`` for alpha <= 0.9 (an empty band) and for an eps that
    ``check_eps_floor`` refuses."""
    check_eps_floor(eps)
    if not alpha > 0.9:
        raise ParameterError(f"alpha={alpha:.6g} <= 0.9: empty band")
    delta = 0.9 / alpha
    eps = min(eps, 0.5)
    band = math.acosh(1.0 / math.sqrt(max(1e-300, 1.0 - delta * delta)))
    big_l = max(3, math.ceil(math.acosh(1.0 / eps) / band))
    if big_l % 2 == 0:
        big_l += 1
    return big_l


def fixed_point_aa(be: BlockEncoding, eps: float) -> BlockEncoding:
    """Amplify an encoding of a (near-)unitary to a (1, m+1, .)-encoding.

    The sequence alternates the encoding unitary with projector-controlled
    phases on the ancilla-zero subspace (realized through one extra flag
    qubit), with the phase schedule chosen so every singular value in
    [0.9/alpha, 1] is driven to magnitude >= 1 - eps; a final global phase
    cancels the sequence's residual phase at the working point 1/alpha.
    Raises ``ParameterError`` as ``amplification_degree`` does.
    """
    big_l = amplification_degree(be.alpha, eps)
    a = 1.0 / be.alpha
    resid = min(eps, 0.5)
    pairs = _phase_pairs(big_l, resid)
    scalar = _model_scalar(pairs, a)
    while abs(scalar) < 1.0 - 0.9 * eps:
        big_l += 2
        if big_l > 200_001:
            raise ParameterError("amplification degree diverged")
        pairs = _phase_pairs(big_l, resid)
        scalar = _model_scalar(pairs, a)
    correction = -np.angle(scalar)

    m, n = be.m, be.n_sys

    def build_circuit():
        layout = RegisterLayout(("aaflag", 1), ("bank", m), ("sys", n))
        circ = Circuit(layout, label="amplified")
        bank_sys = list(layout.axes("bank")) + list(layout.axes("sys"))

        def projector_phase(phi: float):
            circ.append(x_gate(), on=["aaflag"], controls=[("bank", 0)])
            circ.append(phase1_gate(phi), on=["aaflag"])
            circ.append(x_gate(), on=["aaflag"], controls=[("bank", 0)])

        circ.append(be.unitary, qubits=bank_sys)
        for beta, alpha_j in pairs:
            projector_phase(beta)
            circ.append(be.unitary, qubits=bank_sys, adjoint=True)
            projector_phase(-alpha_j)
            circ.append(be.unitary, qubits=bank_sys)
        circ.append(GlobalPhase(correction), qubits=[])
        return circ

    circ = LazyCircuit(1 + m + n, build_circuit, label="amplified")

    def block_fn():
        u_svd, sig, vh_svd = np.linalg.svd(be.block())
        z = np.array([_model_scalar(pairs, float(s)) for s in sig])
        return np.exp(1j * correction) * (u_svd * z) @ vh_svd

    out = BlockEncoding(circ, 1.0, m + 1, n, eps=eps + 2.0 * be.eps,
                        block_fn=block_fn, label=f"aa({be.label})")
    out.aa_degree = big_l
    return out
