"""Statevector engine with named registers and matrix-free operators.

Conventions
-----------
Registers in a layout are ordered most-significant-first: the first
register occupies the highest bits of the flat amplitude index.  A
register may be empty: it spans no qubits, and a control on value 0 of it
always holds.  A state over w qubits is a complex vector of length 2**w;
qubit axis 0 is the most significant bit.

Operators are never stored as dense matrices over the full space.  They
are either small primitives (dense gates on a few qubits, a Hadamard layer
applied axis by axis, permutations of basis states, a global phase) or
circuits composing primitives on named registers, with optional per-step
controls (any qubit, either polarity).  Applying an operator streams over
the amplitude array one primitive at a time, so the cost is a handful of
full-array passes per primitive.

Building a description allocates no amplitudes, whatever its width, so
nothing caps it; the caps sit in ``extract_block``, which does allocate.
``gate_count`` and ``query_profile`` follow the composition: a primitive
counts one gate (and one query when it is an oracle), a circuit sums its
steps, and an operator shared by many steps is counted once per count.

The one entry point is `LinearOperator.apply_to_array`, which runs an
operator on a batch of amplitude columns over its full width.
`extract_block` reads an encoded block column by column from the same
primitive stream in two representations.  A batch of columns starts
sparse, as (column, basis index, amplitude) entries: permutations
(oracles, X, register swaps) remap indices, one shift and mask per run
of adjacent target bits, controls select entries, dense gates multiply
only the slices their entries touch, so a leaf block whose columns hold
a few nonzeros costs what those nonzeros need, not 2^width amplitudes
each.  Once the support passes a fixed share of the batch's amplitudes,
the entries are scattered into the dense array and the rest of the
stream runs on the dense path of `apply_to_array`.  Operators are
immutable once built and safe for concurrent reads; the input array is
never modified.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RegisterError, ResourceError

DEFAULT_QUBIT_CAP = 26
DEFAULT_EXTRACT_SYSTEM_CAP = 12
_NORM_TOL = 1e-10       # spectral_norm: relative change that stops it,
_NORM_MAX_ITER = 1000   # its step limit
_NORM_SEED = 7          # and the seed of its start vector
# extract_block: share of a column batch's amplitudes whose support sends
# the batch from the sparse to the dense path
_DENSE_SWITCH = 1 / 32


def qubit_cap() -> int:
    """Widest operator ``extract_block`` runs; override with env var
    HUBSIM_QUBIT_CAP."""
    raw = os.environ.get("HUBSIM_QUBIT_CAP", "")
    if raw:
        try:
            return int(raw)
        except ValueError as exc:
            raise ParameterError(f"bad HUBSIM_QUBIT_CAP={raw!r}") from exc
    return DEFAULT_QUBIT_CAP


class RegisterLayout:
    """Ordered named registers, held as a map from each name to its
    global qubit positions.  A layout allocates nothing, so its width is
    not capped; ``extract_block`` checks the width it would allocate for.

    A register may be empty (width 0): it has no axes, and a control
    ``(name, 0)`` on it always holds, so a builder places its registers
    the same way whatever their widths.  Negative widths raise."""

    def __init__(self, *registers: tuple[str, int]):
        self._axes: dict[str, tuple[int, ...]] = {}
        pos = 0
        for name, width in registers:
            if name in self._axes:
                raise RegisterError(f"duplicate register name {name!r}")
            if width < 0:
                raise RegisterError(f"register {name!r} needs width >= 0")
            self._axes[name] = tuple(range(pos, pos + width))
            pos += width
        self.width = pos

    def axes(self, name: str) -> tuple[int, ...]:
        """Global qubit positions of a register, most significant first."""
        if name not in self._axes:
            raise RegisterError(f"unknown register {name!r}")
        return self._axes[name]

    def basis_index(self, values: dict[str, int] | None = None) -> int:
        """Flat index of the basis state with each register set to a value."""
        values = values or {}
        idx = 0
        for name, axes in self._axes.items():
            v = int(values.get(name, 0))
            if not (0 <= v < 2 ** len(axes)):
                raise RegisterError(f"value {v} too wide for register {name!r}")
            idx = (idx << len(axes)) | v
        return idx

    def __repr__(self):
        body = ", ".join(f"{name}:{len(axes)}"
                         for name, axes in self._axes.items())
        return f"RegisterLayout({body})"


# -- primitives --------------------------------------------------------------


class LinearOperator:
    """Base class: anything that can stream primitive instructions.

    Subclasses set ``width`` and implement ``_instructions(qmap, controls,
    adjoint)`` yielding (primitive, axes, controls, adjoint) tuples with
    global qubit positions, and ``_counts(memo)`` giving (gates, oracle
    queries) of one application; ``memo`` maps id(operator) to its counts
    for the span of one count, so a shared part is counted once.
    Controls and adjoints change neither count.
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
        return self._counts({})[0]

    def query_profile(self) -> dict[str, int]:
        """Oracle applications per single application of this operator."""
        return dict(self._counts({})[1])


def _expand_controls(layout: RegisterLayout, controls):
    out = []
    for item in controls:
        key, value = item
        if isinstance(key, str):
            axes = layout.axes(key)
            w = len(axes)
            if not (0 <= int(value) < 2 ** w):
                raise RegisterError(f"control value {value} too wide for {key!r}")
            for k, ax in enumerate(axes):
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
        """The primitive (or its adjoint) on a (2**width, batch) block.
        Returns a new array, never a view of ``block``: the dense path
        writes the result back over the slice ``block`` was read from."""
        raise NotImplementedError

    def _instructions(self, qmap, controls, adjoint):
        yield (self, tuple(qmap), controls, adjoint)

    def _counts(self, memo):
        name = getattr(self, "oracle_name", None)
        return 1, {name: 1} if name else {}


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

    def remap(self, local: np.ndarray, adjoint: bool) -> np.ndarray:
        """Where the basis states ``local`` go."""
        return (self.inv_perm if adjoint else self.perm)[local]


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
        return block[self.remap(idx, adjoint)]

    def remap(self, local: np.ndarray, adjoint: bool) -> np.ndarray:
        """Where the basis states ``local`` go."""
        return np.asarray(self.fn(local), dtype=np.int64)


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


_INV_SQRT2 = 1.0 / np.sqrt(2.0)


class _HadamardLayer(Operation):
    """H on each of its qubits, one butterfly pass per axis: O(k 2^k) per
    column and no 2^k x 2^k matrix.  H is real and symmetric, so the
    adjoint is the same map."""

    def act(self, block, adjoint):
        out = np.array(block, dtype=np.complex128, order="C")
        # (1/sqrt 2)^k multiplied up factor by factor, as np.kron forms the
        # entries of H^(x)k, so a basis column comes out as that column
        scale = 1.0
        for axis in range(self.width):
            pair = out.reshape(2 ** axis, 2, -1)
            top = pair[:, 0] + pair[:, 1]
            pair[:, 1] = pair[:, 0] - pair[:, 1]
            pair[:, 0] = top
            scale *= _INV_SQRT2
        out *= scale
        return out


def hadamard_layer(k: int) -> Operation:
    """H^{(x)k} as one gate over k qubits."""
    return _HadamardLayer(k, label=f"H^{k}")


def x_gate() -> PermutationGate:
    """X as the permutation |0> <-> |1>, so sparse columns remap it."""
    return PermutationGate(np.array([1, 0]), label="X")


def phase1_gate(phi: float) -> DenseGate:
    """diag(1, e^{i phi}) on one qubit."""
    return DenseGate(np.diag([1.0, np.exp(1j * phi)]), label="P1")


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

    def _counts(self, memo):
        if id(self) not in memo:
            gates, profile = 0, Counter()
            for step in self.steps:
                step_gates, step_profile = step.op._counts(memo)
                gates += step_gates
                profile.update(step_profile)
            memo[id(self)] = gates, profile
        return memo[id(self)]


class LazyCircuit(LinearOperator):
    """Circuit built on first use.

    Wide compositions (for example the assembled evolution over many time
    registers) are described structurally.  Building one allocates no
    amplitudes, so its width is not capped: counting its gates builds it,
    and only ``extract_block`` refuses a width past the qubit cap.  The
    built circuit must span the declared width.
    """

    def __init__(self, width: int, builder, label: str = "lazy"):
        self.width = width
        self.label = label
        self._builder = builder
        self._built: LinearOperator | None = None

    def materialize(self) -> LinearOperator:
        if self._built is None:
            built = self._builder()
            if built.width != self.width:
                raise RegisterError(
                    f"stage {self.label!r} declared {self.width} qubits, "
                    f"its circuit spans {built.width}")
            self._built = built
        return self._built

    def _instructions(self, qmap, controls, adjoint):
        return self.materialize()._instructions(qmap, controls, adjoint)

    def _counts(self, memo):
        return self.materialize()._counts(memo)


# -- application engine ------------------------------------------------------


def _run(arr: np.ndarray, width: int, instructions) -> np.ndarray:
    """Run the instructions on a copy of ``arr``, updated in place."""
    batch = arr.shape[1]
    tensor = np.array(arr, dtype=np.complex128, order="C").reshape(
        (2,) * width + (batch,))
    for prim, axes, controls, adjoint in instructions:
        _apply_primitive(tensor, prim, axes, controls, adjoint)
        if hasattr(prim, "on_applied"):
            prim.on_applied()
    return tensor.reshape(2 ** width, batch)


def _check_disjoint(prim, axes, controls) -> None:
    ctrl_axes = tuple(a for a, _ in controls)
    if len(set(ctrl_axes + axes)) != len(ctrl_axes) + len(axes):
        raise RegisterError(f"{prim.label}: control and target qubits overlap")


def _apply_primitive(tensor, prim, axes, controls, adjoint) -> None:
    """One primitive in place: the control bits index a view of
    ``tensor``, the targets move to the front of it, and the primitive's
    result is written back through that view."""
    _check_disjoint(prim, axes, controls)
    index = [slice(None)] * tensor.ndim
    for a, bit in controls:
        index[a] = bit
    # indexing drops the control axes, shifting each target after one
    targets = [a - sum(c < a for c, _ in controls) for a in axes]
    view = np.moveaxis(tensor[tuple(index)], targets, range(len(axes)))
    out = prim.act(view.reshape(2 ** prim.width, -1), adjoint)
    view[...] = out.reshape(view.shape)


# -- sparse columns ------------------------------------------------------------
#
# A batch of columns is held as its nonzero entries: an int64 key per entry
# packing (column << width) | basis index, and a complex amplitude.  Qubit
# axis a is bit width - 1 - a of the basis index.


def _runs(shifts: list[int]) -> list[tuple[int, int]]:
    """(lowest shift, length) of each run of ``shifts`` that steps down by
    one, in order: a run's bits keep their order from the key to the local
    index, so one shift-and-mask moves all of them."""
    runs: list[tuple[int, int]] = []
    for s in shifts:
        if runs and runs[-1][0] - 1 == s:
            runs[-1] = (s, runs[-1][1] + 1)
        else:
            runs.append((s, 1))
    return runs


def _gather(key: np.ndarray, shifts: list[int]) -> np.ndarray:
    """Local index of the bits at ``shifts`` (first most significant)."""
    local = np.zeros_like(key)
    for low, length in _runs(shifts):
        local = (local << length) | ((key >> low) & ((1 << length) - 1))
    return local


def _spread(local: np.ndarray, shifts: list[int]) -> np.ndarray:
    """Inverse of ``_gather``: the local index's bits placed at ``shifts``."""
    pos = len(shifts)
    out = np.zeros_like(local)
    for low, length in _runs(shifts):
        pos -= length
        out |= ((local >> pos) & ((1 << length) - 1)) << low
    return out


def _apply_sparse(key, amp, width, prim, axes, controls, adjoint):
    """One primitive on sparse entries; returns the new (key, amp)."""
    _check_disjoint(prim, axes, controls)
    if controls:
        cmask = cval = 0
        for a, bit in controls:
            cmask |= 1 << (width - 1 - a)
            cval |= bit << (width - 1 - a)
        hit = (key & cmask) == cval
        if not hit.all():
            miss = ~hit
            k_hit, a_hit = _apply_sparse(key[hit], amp[hit], width, prim,
                                         axes, (), adjoint)
            return (np.concatenate((key[miss], k_hit)),
                    np.concatenate((amp[miss], a_hit)))
    shifts = [width - 1 - a for a in axes]
    rest = key & ~sum(1 << s for s in shifts)
    remap = getattr(prim, "remap", None)
    if remap is not None:
        return rest | _spread(remap(_gather(key, shifts), adjoint), shifts), amp
    # one 2^k slice per (column, non-target bits)
    groups, slot = np.unique(rest, return_inverse=True)
    block = np.zeros((1 << len(shifts), len(groups)), dtype=np.complex128)
    block[_gather(key, shifts), slot] = amp
    out = prim.act(block, adjoint)
    local, g = np.nonzero(out)
    return groups[g] | _spread(local, shifts), out[local, g]


def _extract_columns(op: LinearOperator, width: int, lo: int, hi: int,
                     dim: int) -> np.ndarray:
    """Rows [0, dim) of op applied to the basis columns [lo, hi): sparse
    while the support stays under ``_DENSE_SWITCH`` of the batch's
    amplitudes, then scattered and finished on the dense path."""
    batch = hi - lo
    mask = (1 << width) - 1
    cols = np.arange(batch, dtype=np.int64)
    key = (cols << width) | (cols + lo)
    amp = np.ones(batch, dtype=np.complex128)
    limit = _DENSE_SWITCH * batch * (1 << width)
    steps = op._instructions(tuple(range(width)), (), False)
    for prim, axes, controls, adjoint in steps:
        key, amp = _apply_sparse(key, amp, width, prim, axes, controls, adjoint)
        if hasattr(prim, "on_applied"):
            prim.on_applied()
        if len(amp) > limit:
            tensor = np.zeros((1 << width, batch), dtype=np.complex128)
            tensor[key & mask, key >> width] = amp
            return _run(tensor, width, steps)[:dim]
    out = np.zeros((dim, batch), dtype=np.complex128)
    row = key & mask
    keep = row < dim
    out[row[keep], key[keep] >> width] = amp[keep]
    return out


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

    Columns run in batches of at most 2^22 amplitudes, one pass of the
    operator's primitives each.  A batch starts sparse, as the nonzero
    entries of its columns: permutations remap basis indices, controls
    select entries, dense gates multiply the 2^k slices their entries
    touch.  Once the batch's support passes ``_DENSE_SWITCH`` of its
    2^width x batch amplitudes it is scattered into a dense array and the
    remaining primitives run on the dense path of ``apply_to_array``.
    """
    check_dense_block(n_sys, "extract_block")
    width = op.width
    if width > qubit_cap():
        raise ResourceError(
            f"operator width {width} exceeds qubit cap {qubit_cap()}",
            stage="extract_block")
    dim = 2 ** n_sys
    block = np.empty((dim, dim), dtype=np.complex128)
    # above width 22 one column alone takes 2^width x 16 B if it goes
    # dense, 1 GiB at the default cap of 26
    chunk = max(1, min(dim, (1 << 22) // (1 << width) or 1))
    for lo in range(0, dim, chunk):
        hi = min(dim, lo + chunk)
        block[:, lo:hi] = _extract_columns(op, width, lo, hi, dim)
    return block


def spectral_norm(mat: np.ndarray) -> float:
    """Largest singular value by power iteration on B^dag B; nan as soon as
    an iterate is not finite (a NaN or inf entry)."""
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
        if not np.isfinite(sigma2):
            return float("nan")
        if sigma2 == 0.0:
            return 0.0
        v = w / sigma2
        if abs(sigma2 - prev) <= _NORM_TOL * max(1.0, sigma2):
            break
        prev = sigma2
    return float(np.sqrt(sigma2))
