"""Dense multipartite quantum states.

States live on a labelled tensor factorization: an ordered list of
subsystem labels with one local dimension each.  Amplitudes and matrices
are stored row-major with the first label most significant, so state files
written by one process reload identically in another.

All operations are pure functions of their inputs; the dataclasses are
frozen and their arrays marked read-only, so values are safe to share
between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import GuardError, StateError
from .partitions import Partition

#: Validation caps at desk scale.
MAX_TOTAL_DIM = 4096

NORM_TOL = 1e-12
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_FLOOR = 1e-10
#: Relative threshold defining the effective rank of a spectrum.
RANK_REL_TOL = 1e-10
#: Purity threshold below which a traced pure state counts as mixed.
PURITY_TOL = 1e-9


def _check_layout(labels: Sequence[str], dims: Sequence[int]) -> tuple[tuple[str, ...], tuple[int, ...]]:
    labels = tuple(labels)
    dims = tuple(int(d) for d in dims)
    if len(labels) != len(dims):
        raise StateError("labels and dims must have equal length")
    if len(set(labels)) != len(labels):
        raise StateError("duplicate subsystem labels")
    if any(not lab for lab in labels):
        raise StateError("empty label")
    if any(d < 2 for d in dims):
        raise StateError("local dimensions must be >= 2")
    total = math.prod(dims)
    if total > MAX_TOTAL_DIM:
        raise GuardError(f"total dimension {total} exceeds the cap ({MAX_TOTAL_DIM})")
    return labels, dims


def _frozen_array(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over labelled subsystems."""

    labels: tuple[str, ...]
    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __init__(self, labels: Sequence[str], dims: Sequence[int], amplitudes, normalize: bool = False):
        labels, dims = _check_layout(labels, dims)
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.size != math.prod(dims):
            raise StateError(f"amplitude length {amps.size} != product of dims {math.prod(dims)}")
        norm2 = float(np.vdot(amps, amps).real)
        if not math.isfinite(norm2):
            raise StateError(f"amplitudes must be finite: sum |a|^2 = {norm2!r}")
        if normalize:
            if norm2 <= 0:
                raise StateError("cannot normalize the zero vector")
            amps = amps / math.sqrt(norm2)
        elif abs(norm2 - 1.0) > NORM_TOL:
            raise StateError(f"state not normalized: sum |a|^2 = {norm2!r}")
        self._fill(labels, dims, _frozen_array(amps))

    def _fill(self, labels, dims, amplitudes) -> None:
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amplitudes)

    @classmethod
    def _trusted(cls, labels: Sequence[str], dims: Sequence[int], amplitudes: np.ndarray) -> PureState:
        """Unvalidated construction from complex amplitudes derived from a valid state.

        The array is marked read-only and shared, not copied.
        """
        amplitudes.setflags(write=False)
        state = object.__new__(cls)
        state._fill(tuple(labels), tuple(dims), amplitudes)
        return state

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per label."""
        return self.amplitudes.reshape(self.dims)


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace matrix over labelled subsystems."""

    labels: tuple[str, ...]
    dims: tuple[int, ...]
    matrix: np.ndarray

    def __init__(self, labels: Sequence[str], dims: Sequence[int], matrix):
        labels, dims = _check_layout(labels, dims)
        mat = np.asarray(matrix, dtype=complex)
        d = math.prod(dims)
        if mat.shape != (d, d):
            raise StateError(f"matrix shape {mat.shape} != ({d}, {d})")
        if not np.isfinite(mat).all():
            raise StateError("matrix entries must be finite")
        if np.abs(mat - mat.conj().T).max() > HERM_TOL:
            raise StateError("matrix is not Hermitian within tolerance")
        tr = float(mat.trace().real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise StateError(f"trace {tr!r} != 1")
        w = np.linalg.eigvalsh(mat)
        if w[0] < -EIG_FLOOR:
            raise StateError(f"negative eigenvalue {w[0]!r} beyond tolerance")
        self._fill(labels, dims, _frozen_array(mat))

    def _fill(self, labels, dims, matrix) -> None:
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def _trusted(cls, labels: Sequence[str], dims: Sequence[int], matrix: np.ndarray) -> DensityOperator:
        """Unvalidated construction from a complex matrix derived from a valid state.

        The array is marked read-only and shared, not copied.
        """
        matrix.setflags(write=False)
        op = object.__new__(cls)
        op._fill(tuple(labels), tuple(dims), matrix)
        return op

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


State = Union[PureState, DensityOperator]


@dataclass(frozen=True)
class Spectrum:
    """Descending real eigenvalue list with its effective rank."""

    eigenvalues: np.ndarray
    effective_rank: int

    def __init__(self, eigenvalues):
        eigs = np.asarray(eigenvalues, dtype=float)
        eigs = np.sort(eigs)[::-1].copy()
        eigs.setflags(write=False)
        rank = int(np.count_nonzero(eigs > RANK_REL_TOL * max(1.0, float(eigs[0])))) if eigs.size else 0
        object.__setattr__(self, "eigenvalues", eigs)
        object.__setattr__(self, "effective_rank", rank)


def clean_spectrum(w: np.ndarray) -> np.ndarray:
    """Clamp small negative eigenvalues to zero and sort descending (along the last axis)."""
    w = np.asarray(w, dtype=float)
    if w.size and w.min() < -EIG_FLOOR:
        raise StateError(f"negative eigenvalue {w.min()!r} beyond tolerance")
    return np.sort(np.clip(w, 0.0, None), axis=-1)[..., ::-1]


def stack_spectra(stack: np.ndarray) -> np.ndarray:
    """Descending spectra of a stack of density matrices (n, d, d), the stack checked
    once with the tolerances that :class:`DensityOperator` and :func:`eigenvalues`
    apply to each operator."""
    if np.abs(stack - stack.conj().transpose(0, 2, 1)).max() > HERM_TOL:
        raise StateError("matrix is not Hermitian within tolerance")
    off = np.abs(stack.trace(axis1=1, axis2=2).real - 1.0)
    if off.max() > TRACE_TOL:
        raise StateError(f"trace {float(stack[off.argmax()].trace().real)!r} != 1")
    w = clean_spectrum(np.linalg.eigvalsh(stack))
    if np.abs(w.sum(axis=-1) - 1.0).max() > 1e-9:
        raise StateError("spectrum does not sum to the trace within tolerance")
    return w


def projector(state: PureState) -> DensityOperator:
    """Rank-one density operator |psi><psi|."""
    v = state.amplitudes
    return DensityOperator(state.labels, state.dims, np.outer(v, v.conj()))


def _label_indices(state: State, labels: Iterable[str]) -> list[int]:
    idx = []
    for lab in labels:
        if lab not in state.labels:
            raise StateError(f"unknown label {lab!r}")
        idx.append(state.labels.index(lab))
    return idx


def partial_trace(state: State, keep: Iterable[str]) -> DensityOperator:
    """Reduced density operator on the ``keep`` labels (in state order)."""
    keep = list(dict.fromkeys(keep))
    if not keep:
        raise StateError("keep set must be nonempty")
    keep_idx = sorted(_label_indices(state, keep))
    keep_labels = tuple(state.labels[i] for i in keep_idx)
    keep_dims = tuple(state.dims[i] for i in keep_idx)

    if isinstance(state, PureState):
        m = _cut_matrix(state, keep_idx)
        return DensityOperator._trusted(keep_labels, keep_dims, m @ m.conj().T)

    rest_idx = [i for i in range(len(state.labels)) if i not in keep_idx]
    return DensityOperator._trusted(keep_labels, keep_dims, trace_out(state.matrix, state.dims, rest_idx))


def _cut_matrix(state: PureState, keep_idx: list[int]) -> np.ndarray:
    """Amplitudes as a (kept, traced) matrix, the kept labels at ``keep_idx`` in that order."""
    rest_idx = [i for i in range(len(state.labels)) if i not in keep_idx]
    t = state.tensor().transpose(keep_idx + rest_idx)
    return t.reshape(math.prod(state.dims[i] for i in keep_idx), -1)


def _pure_column(m: np.ndarray) -> np.ndarray | None:
    """Unit v with m m^dag = v v^dag, its largest entry real positive, or ``None`` if mixed."""
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if 1.0 - float(s[0]) ** 2 > PURITY_TOL:
        return None
    v = u[:, 0]
    k = int(np.argmax(np.abs(v)))
    phase = v[k] / abs(v[k])
    return v * phase.conjugate()


def trace_out(matrices: np.ndarray, dims: Sequence[int], positions: Iterable[int]) -> np.ndarray:
    """Partial trace over the subsystems at ``positions`` of matrices stacked on leading axes."""
    lead, dims = matrices.shape[:-2], list(dims)
    t = matrices.reshape(lead + tuple(dims) * 2)
    for pos in sorted(positions, reverse=True):
        t = t.trace(axis1=len(lead) + pos, axis2=len(lead) + pos + len(dims))
        dims.pop(pos)
    dk = math.prod(dims)
    return t.reshape(lead + (dk, dk))


def eigenvalues(op: DensityOperator) -> Spectrum:
    """Full real spectrum of a density operator, descending, with effective rank."""
    w = clean_spectrum(np.linalg.eigvalsh(op.matrix))
    if abs(float(w.sum()) - 1.0) > 1e-9:
        raise StateError("spectrum does not sum to the trace within tolerance")
    return Spectrum(w)


def _block_name(members: Sequence[str]) -> str:
    if all(len(m) == 1 for m in members):
        return "".join(members)
    return "+".join(members)


def regroup(state: State, partition: Partition) -> State:
    """Merge subsystems into one effective party per partition block.

    Labels outside the partition's cover are traced out first.  A
    :class:`PureState` stays pure when its marginal on the cover is pure;
    otherwise the result is that marginal as a :class:`DensityOperator`.
    The result carries one label per block (member names joined) with the
    product dimension, amplitudes/matrix reindexed accordingly.
    """
    cover = partition.cover
    for lab in cover:
        if lab not in state.labels:
            raise StateError(f"unknown label {lab!r} in partition")

    keep_idx = [i for i, lab in enumerate(state.labels) if lab in cover]
    if len(keep_idx) < len(state.labels):
        kept = tuple(state.labels[i] for i in keep_idx)
        kept_dims = tuple(state.dims[i] for i in keep_idx)
        if isinstance(state, PureState):
            m = _cut_matrix(state, keep_idx)
            vec = _pure_column(m)
            state = (PureState._trusted(kept, kept_dims, vec) if vec is not None
                     else DensityOperator._trusted(kept, kept_dims, m @ m.conj().T))
        else:
            state = partial_trace(state, kept)

    order: list[int] = []
    new_labels, new_dims = [], []
    for block in partition.blocks:
        idx = sorted(state.labels.index(lab) for lab in block)
        order.extend(idx)
        new_labels.append(_block_name([state.labels[i] for i in idx]))
        new_dims.append(math.prod(state.dims[i] for i in idx))
    pure = isinstance(state, PureState)
    data, n_axes = (state.amplitudes, 1) if pure else (state.matrix, 2)
    n = len(order)
    t = data.reshape(state.dims * n_axes).transpose([i + k * n for k in range(n_axes) for i in order])
    t = t.reshape((math.prod(new_dims),) * n_axes)
    return (PureState if pure else DensityOperator)._trusted(new_labels, new_dims, t)


def tensor_product(a: PureState, b: PureState) -> PureState:
    """Kronecker product state on the concatenated labels."""
    if set(a.labels) & set(b.labels):
        raise StateError("label collision in tensor product")
    amps = np.kron(a.amplitudes, b.amplitudes)
    return PureState(a.labels + b.labels, a.dims + b.dims, amps, normalize=True)


def random_pure_state(dims: Sequence[int], seed: int, labels: Sequence[str] | None = None) -> PureState:
    """Haar-distributed pure state, deterministic per seed."""
    dims = tuple(int(d) for d in dims)
    if labels is None:
        labels = [chr(ord("A") + i) for i in range(len(dims))]
    rng = np.random.default_rng(seed)
    d = math.prod(dims)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(labels, dims, v, normalize=True)


def random_density_operator(
    dims: Sequence[int], seed: int, rank: int | None = None, labels: Sequence[str] | None = None
) -> DensityOperator:
    """Random mixed state from a Ginibre factor of the given rank (default full)."""
    dims = tuple(int(d) for d in dims)
    if labels is None:
        labels = [chr(ord("A") + i) for i in range(len(dims))]
    d = math.prod(dims)
    k = d if rank is None else int(rank)
    if not 1 <= k <= d:
        raise StateError(f"rank must lie in [1, {d}]")
    return DensityOperator(labels, dims, ginibre_matrices(dims, [seed], k)[0])


def ginibre_matrices(dims: Sequence[int], seeds: Iterable[int], rank: int | None = None) -> np.ndarray:
    """Unit-trace G G^dag from a Ginibre factor G of the given rank (default full)
    per seed, stacked and not yet checked."""
    d = math.prod(dims)
    k = d if rank is None else rank
    # One generator alive at a time: a probe stack passes thousands of seeds.
    normals = np.array([(r.standard_normal((d, k)), r.standard_normal((d, k)))
                        for r in map(np.random.default_rng, seeds)])
    g = normals[:, 0] + 1j * normals[:, 1]
    rho = g @ g.conj().transpose(0, 2, 1)
    return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]
