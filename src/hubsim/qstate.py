"""Statevector engine with named registers and matrix-free operators.

Conventions
-----------
Registers in a layout are ordered most-significant-first: the first
register occupies the highest bits of the flat amplitude index.  A state
over w qubits is a complex vector of length 2**w; qubit axis 0 is the most
significant bit.

Operators are never stored as dense matrices over the full space.  They
are either small primitives (dense gates on a few qubits, permutations of
basis states, a global phase) or circuits composing primitives on named
registers, with optional per-step controls (any qubit, either polarity).
Applying an operator streams over the amplitude array one primitive at a
time, so the cost is a handful of full-array passes per primitive.

The one entry point is `LinearOperator.apply_to_array`, which runs an
operator on a batch of amplitude columns over its full width;
`extract_block` reaches it to read an encoded block column by column.
Operators are immutable once built and safe for concurrent reads; the
input array is never modified.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RegisterError, ResourceError

DEFAULT_QUBIT_CAP = 26
DEFAULT_EXTRACT_SYSTEM_CAP = 12
_NORM_TOL = 1e-10       # spectral_norm: relative change that stops it,
_NORM_MAX_ITER = 1000   # its step limit
_NORM_SEED = 7          # and the seed of its start vector


def qubit_cap() -> int:
    """Simulation-width cap; override with env var HUBSIM_QUBIT_CAP."""
    raw = os.environ.get("HUBSIM_QUBIT_CAP", "")
    if raw:
        try:
            return int(raw)
        except ValueError as exc:
            raise ParameterError(f"bad HUBSIM_QUBIT_CAP={raw!r}") from exc
    return DEFAULT_QUBIT_CAP


@dataclass(frozen=True)
class Register:
    name: str
    width: int


class RegisterLayout:
    """Ordered named registers.  A layout allocates nothing, so its width
    is not capped; ``extract_block`` and ``LazyCircuit.materialize`` check
    the widths they would allocate for."""

    def __init__(self, *registers: tuple[str, int]):
        regs = []
        seen = set()
        for name, width in registers:
            if name in seen:
                raise RegisterError(f"duplicate register name {name!r}")
            if width < 1:
                raise RegisterError(f"register {name!r} needs width >= 1")
            seen.add(name)
            regs.append(Register(name, int(width)))
        self.registers = tuple(regs)
        self.width = sum(r.width for r in regs)
        self._offsets = {}
        pos = 0
        for r in regs:
            self._offsets[r.name] = pos
            pos += r.width

    def reg_width(self, name: str) -> int:
        for r in self.registers:
            if r.name == name:
                return r.width
        raise RegisterError(f"unknown register {name!r}")

    def axes(self, name: str) -> tuple[int, ...]:
        """Global qubit positions of a register, most significant first."""
        off = self.offset(name)
        return tuple(range(off, off + self.reg_width(name)))

    def offset(self, name: str) -> int:
        if name not in self._offsets:
            raise RegisterError(f"unknown register {name!r}")
        return self._offsets[name]

    def basis_index(self, values: dict[str, int] | None = None) -> int:
        """Flat index of the basis state with each register set to a value."""
        values = values or {}
        idx = 0
        for r in self.registers:
            v = int(values.get(r.name, 0))
            if not (0 <= v < 2 ** r.width):
                raise RegisterError(f"value {v} too wide for register {r.name!r}")
            idx = (idx << r.width) | v
        return idx

    def __repr__(self):
        body = ", ".join(f"{r.name}:{r.width}" for r in self.registers)
        return f"RegisterLayout({body})"


# -- primitives --------------------------------------------------------------


class LinearOperator:
    """Base class: anything that can stream primitive instructions.

    Subclasses set ``width`` and implement ``_instructions(qmap, controls,
    adjoint)`` yielding (primitive, axes, controls, adjoint) tuples with
    global qubit positions.
    """

    width: int = 0
    label: str = "op"

    def _instructions(self, qmap, controls, adjoint):
        raise NotImplementedError

    def apply_to_array(self, arr: np.ndarray, width: int, *,
                       adjoint: bool = False) -> np.ndarray:
        """Apply to a (2**width, batch) array; operator must span all qubits."""
        if self.width != width:
            raise RegisterError("array width mismatch")
        return _run(arr, width, self._instructions(tuple(range(width)), (), adjoint))

    def gate_count(self) -> int:
        return sum(1 for _ in self._instructions(tuple(range(self.width)), (), False))

    def query_profile(self) -> dict[str, int]:
        """Oracle applications per single application of this operator."""
        profile: dict[str, int] = {}
        for prim, _, _, _ in self._instructions(tuple(range(self.width)), (), False):
            name = getattr(prim, "oracle_name", None)
            if name:
                profile[name] = profile.get(name, 0) + 1
        return profile


def _expand_controls(layout: RegisterLayout, controls):
    out = []
    for item in controls:
        key, value = item
        if isinstance(key, str):
            w = layout.reg_width(key)
            if not (0 <= int(value) < 2 ** w):
                raise RegisterError(f"control value {value} too wide for {key!r}")
            for k, ax in enumerate(layout.axes(key)):
                out.append((ax, (int(value) >> (w - 1 - k)) & 1))
        else:
            out.append((int(key), int(value) & 1))
    return tuple(out)


class Operation(LinearOperator):
    """A primitive acting on ``width`` adjacent logical qubits."""

    def __init__(self, width: int, label: str):
        self.width = width
        self.label = label

    def act(self, block: np.ndarray, adjoint: bool) -> np.ndarray:
        raise NotImplementedError

    def _instructions(self, qmap, controls, adjoint):
        yield (self, tuple(qmap), controls, adjoint)


class DenseGate(Operation):
    def __init__(self, matrix: np.ndarray, label: str = "gate"):
        matrix = np.asarray(matrix, dtype=np.complex128)
        dim = matrix.shape[0]
        width = int(dim).bit_length() - 1
        if matrix.shape != (dim, dim) or 2 ** width != dim:
            raise ParameterError("gate matrix must be square with power-of-two size")
        super().__init__(width, label)
        self.matrix = matrix

    def act(self, block, adjoint):
        m = self.matrix.conj().T if adjoint else self.matrix
        return m @ block


class PermutationGate(Operation):
    """Classical reversible map |k> -> |perm[k]> over its qubits."""

    def __init__(self, perm: np.ndarray, label: str = "perm"):
        perm = np.asarray(perm, dtype=np.int64)
        width = int(len(perm)).bit_length() - 1
        if 2 ** width != len(perm):
            raise ParameterError("permutation length must be a power of two")
        if np.any(np.sort(perm) != np.arange(len(perm))):
            raise ParameterError(f"{label}: not a permutation")
        super().__init__(width, label)
        self.perm = perm
        self.inv_perm = np.argsort(perm)

    def act(self, block, adjoint):
        # out[perm[k]] = in[k]  <=>  out = in[inv_perm]
        return block[self.perm if adjoint else self.inv_perm]


class FunctionalPermutation(Operation):
    """Involutive permutation given by a vectorized index map (no stored
    table): ``fn(fn(i)) == i`` for every basis index i, so the map is its
    own adjoint.

    Used for wide structural maps such as register swaps and comparators,
    where a table would be impractical.
    """

    def __init__(self, width: int, fn, label: str = "fperm"):
        super().__init__(width, label)
        self.fn = fn

    def act(self, block, adjoint):
        idx = np.arange(block.shape[0], dtype=np.int64)
        # out[fn(k)] = in[k]  <=>  out = in[fn]  for an involution
        return block[np.asarray(self.fn(idx), dtype=np.int64)]


class GlobalPhase(Operation):
    """Multiply by e^{i phi}; width zero, so controls make it selective."""

    def __init__(self, phi: float, label: str = "phase"):
        super().__init__(0, label)
        self.phi = float(phi)

    def act(self, block, adjoint):
        return block * np.exp(-1j * self.phi if adjoint else 1j * self.phi)


def register_swap(k: int) -> FunctionalPermutation:
    """Swap two adjacent k-qubit registers."""
    mask = (1 << k) - 1

    def fn(idx):
        return ((idx & mask) << k) | (idx >> k)

    return FunctionalPermutation(2 * k, fn, label=f"swap{k}")


_H1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
_X1 = np.array([[0.0, 1.0], [1.0, 0.0]])


def hadamard_layer(k: int) -> DenseGate:
    mat = np.array([[1.0]])
    for _ in range(k):
        mat = np.kron(mat, _H1)
    return DenseGate(mat, label=f"H^{k}")


def x_gate() -> DenseGate:
    return DenseGate(_X1, label="X")


def rz_gate(theta: float) -> DenseGate:
    """diag(e^{-i theta/2}, e^{+i theta/2})."""
    return DenseGate(np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)]),
                     label="RZ")


def phase1_gate(phi: float) -> DenseGate:
    """diag(1, e^{i phi}) on one qubit."""
    return DenseGate(np.diag([1.0, np.exp(1j * phi)]), label="P1")


def random_unitary(dim: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# -- circuits ----------------------------------------------------------------


@dataclass(frozen=True)
class _Step:
    op: LinearOperator
    qubits: tuple[int, ...]
    controls: tuple[tuple[int, int], ...]
    adjoint: bool


class Circuit(LinearOperator):
    """Sequence of placed operators over a named layout.

    Steps are applied in append order; ``adjoint`` application reverses the
    order and daggers every step.  A step's controls may sit on any qubits
    outside the step's target; controlling a composite controls every
    primitive inside it, which implements the controlled unitary exactly.
    """

    def __init__(self, layout: RegisterLayout, label: str = "circuit"):
        self.layout = layout
        self.width = layout.width
        self.label = label
        self.steps: list[_Step] = []

    def _spec_to_qubits(self, spec) -> list[int]:
        if isinstance(spec, str):
            return list(self.layout.axes(spec))
        name, start, stop = spec
        axes = self.layout.axes(name)
        if not (0 <= start <= stop <= len(axes)):
            raise RegisterError(f"bad slice [{start}:{stop}] of register {name!r}")
        return list(axes[start:stop])

    def append(self, op: LinearOperator, on=None, qubits=None, controls=(),
               adjoint: bool = False) -> "Circuit":
        if qubits is None:
            qubits = []
            for spec in (on or []):
                qubits.extend(self._spec_to_qubits(spec))
        qubits = tuple(int(q) for q in qubits)
        if len(qubits) != op.width:
            raise RegisterError(
                f"{op.label!r} spans {op.width} qubits, placement gives {len(qubits)}")
        ctrl = _expand_controls(self.layout, controls)
        used = set(qubits)
        if any(ax in used for ax, _ in ctrl):
            raise RegisterError("control qubit overlaps operator target")
        self.steps.append(_Step(op, qubits, ctrl, adjoint))
        return self

    def _instructions(self, qmap, controls, adjoint):
        steps = reversed(self.steps) if adjoint else self.steps
        for step in steps:
            axes = tuple(qmap[q] for q in step.qubits)
            ctrl = controls + tuple((qmap[q], b) for q, b in step.controls)
            yield from step.op._instructions(axes, ctrl, adjoint ^ step.adjoint)


class LazyCircuit(LinearOperator):
    """Circuit built on first use.

    Wide compositions (for example the assembled evolution over many time
    registers) are described structurally; materializing them checks the
    qubit cap, since a description can hold dense gates over many qubits,
    and fails with a resource error named by ``label``.
    """

    def __init__(self, width: int, builder, label: str = "lazy"):
        self.width = width
        self.label = label
        self._builder = builder
        self._built: LinearOperator | None = None

    def materialize(self) -> LinearOperator:
        if self._built is None:
            cap = qubit_cap()
            if self.width > cap:
                raise ResourceError(
                    f"stage {self.label!r} needs {self.width} qubits, cap is {cap}",
                    stage=self.label)
            built = self._builder()
            if built.width != self.width:
                raise RegisterError(
                    f"stage {self.label!r} declared {self.width} qubits, "
                    f"its circuit spans {built.width}")
            self._built = built
        return self._built

    def _instructions(self, qmap, controls, adjoint):
        return self.materialize()._instructions(qmap, controls, adjoint)


# -- application engine ------------------------------------------------------


def _run(arr: np.ndarray, width: int, instructions) -> np.ndarray:
    batch = arr.shape[1]
    tensor = np.ascontiguousarray(arr).reshape((2,) * width + (batch,))
    for prim, axes, controls, adjoint in instructions:
        tensor = _apply_primitive(tensor, width, batch, prim, axes, controls, adjoint)
        if hasattr(prim, "on_applied"):
            prim.on_applied()
    return tensor.reshape(2 ** width, batch)


def _apply_primitive(tensor, width, batch, prim, axes, controls, adjoint):
    k = prim.width
    ctrl_axes = tuple(a for a, _ in controls)
    if len(set(ctrl_axes + axes)) != len(ctrl_axes) + len(axes):
        raise RegisterError(f"{prim.label}: control and target qubits overlap")
    front = ctrl_axes + axes
    c = len(ctrl_axes)
    moved = np.moveaxis(tensor, front, range(len(front)))
    moved_shape = moved.shape
    work = np.ascontiguousarray(moved).reshape(2 ** c, 2 ** k, -1)
    if c == 0:
        work = prim.act(work[0], adjoint).reshape(1, 2 ** k, -1)
    else:
        idx = 0
        for _, bit in controls:
            idx = (idx << 1) | bit
        work = work.copy()
        work[idx] = prim.act(work[idx], adjoint)
    work = work.reshape(moved_shape)
    return np.moveaxis(work, range(len(front)), front)


def check_dense_block(n_sys: int, stage: str) -> None:
    """Raise ``ResourceError`` (naming ``stage``) before a dense block over
    more than DEFAULT_EXTRACT_SYSTEM_CAP system qubits is allocated."""
    if n_sys > DEFAULT_EXTRACT_SYSTEM_CAP:
        raise ResourceError(
            f"dense {stage} block over {n_sys} system qubits exceeds "
            f"dense-extraction cap {DEFAULT_EXTRACT_SYSTEM_CAP}", stage=stage)


def extract_block(op: LinearOperator, n_sys: int) -> np.ndarray:
    """Dense block <0_anc, i| op |0_anc, j> on the trailing system register.

    Ancillas are the leading (most significant) ``op.width - n_sys`` qubits,
    prepared in and projected back onto all-zero.  Both caps are checked
    before the operator is built or any array is allocated.
    """
    check_dense_block(n_sys, "extract_block")
    width = op.width
    if width > qubit_cap():
        raise ResourceError(
            f"operator width {width} exceeds qubit cap {qubit_cap()}",
            stage="extract_block")
    dim = 2 ** n_sys
    block = np.empty((dim, dim), dtype=np.complex128)
    # batches of at most 2^22 amplitudes (64 MiB); above width 22 one
    # column alone takes 2^width x 16 B, 1 GiB at the default cap of 26
    chunk = max(1, min(dim, (1 << 22) // (1 << width) or 1))
    for lo in range(0, dim, chunk):
        hi = min(dim, lo + chunk)
        arr = np.zeros((2 ** width, hi - lo), dtype=np.complex128)
        arr[np.arange(lo, hi), np.arange(hi - lo)] = 1.0
        out = op.apply_to_array(arr, width)
        block[:, lo:hi] = out[:dim]
    return block


def spectral_norm(mat: np.ndarray) -> float:
    """Largest singular value by power iteration on B^dag B."""
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.size == 0:
        return 0.0
    rng = np.random.default_rng(_NORM_SEED)
    v = rng.normal(size=mat.shape[1]) + 1j * rng.normal(size=mat.shape[1])
    v /= np.linalg.norm(v)
    prev = 0.0
    sigma2 = 0.0
    for _ in range(_NORM_MAX_ITER):
        w = mat.conj().T @ (mat @ v)
        sigma2 = float(np.linalg.norm(w))
        if sigma2 == 0.0:
            return 0.0
        v = w / sigma2
        if abs(sigma2 - prev) <= _NORM_TOL * max(1.0, sigma2):
            break
        prev = sigma2
    return float(np.sqrt(sigma2))
