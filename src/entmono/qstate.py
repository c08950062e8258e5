"""Dense multipartite quantum states.

States live on a labelled tensor factorization: an ordered list of
subsystem labels with one local dimension each.  Amplitudes and matrices
are stored row-major with the first label most significant, so state files
written by one process reload identically in another.

All operations are pure functions of their inputs; the dataclasses are frozen and their
arrays read-only, so values are safe to share between threads and data derived from a
state (its memoized cut spectra and marginals' pure columns) may live as long as the state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import GuardError, StateError
from .partitions import Partition, _block_name

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
    labels, given = tuple(labels), tuple(dims)
    try:
        dims = tuple(int(d) for d in given)
    except (TypeError, ValueError, OverflowError):
        dims = None
    if dims != given:  # 2.0 and numpy integers pass; 2.9, nan and "2" do not
        raise StateError(f"local dimensions must be integers, got {list(given)!r}")
    if len(labels) != len(dims):
        raise StateError("labels and dims must have equal length")
    if len(set(labels)) != len(labels):
        raise StateError("duplicate subsystem labels")
    if any(not lab for lab in labels):
        raise StateError("empty label")
    for lab in labels:  # partition names must parse back: "|" splits blocks, "," labels, and both strip
        if "|" in lab or "," in lab or lab != lab.strip():
            raise StateError(f"label {lab!r} has a '|', a ',' or edge whitespace, which partition names cannot carry")
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

    def __reduce__(self):  # pickle and deepcopy rebuild a read-only state without derived data
        return PureState._trusted, (self.labels, self.dims, self.amplitudes)

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
        stack_spectra(mat[None])
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

    def __reduce__(self):  # pickle and deepcopy rebuild a read-only operator
        return DensityOperator._trusted, (self.labels, self.dims, self.matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


State = Union[PureState, DensityOperator]


def zero_noise(lam: np.ndarray) -> np.ndarray:
    """Zero the entries at or below ``RANK_REL_TOL`` * max(1, lambda_max) along the last axis:
    diagonalization noise, which fractional powers would turn from O(1e-16) into O(1e-8)."""
    return np.where(lam > RANK_REL_TOL * np.maximum(1.0, lam.max(axis=-1, keepdims=True)), lam, 0.0)


@dataclass(frozen=True)
class Spectrum:
    """Descending real eigenvalue list with its effective rank."""

    eigenvalues: np.ndarray
    effective_rank: int

    def __init__(self, eigenvalues):
        eigs = np.asarray(eigenvalues, dtype=float)
        eigs = np.sort(eigs)[::-1].copy()
        eigs.setflags(write=False)
        rank = int(np.count_nonzero(zero_noise(eigs))) if eigs.size else 0
        object.__setattr__(self, "eigenvalues", eigs)
        object.__setattr__(self, "effective_rank", rank)


def clean_spectrum(w: np.ndarray) -> np.ndarray:
    """Clamp small negative eigenvalues to zero and sort descending (along the last axis)."""
    w = np.asarray(w, dtype=float)
    if w.size and w.min() < -EIG_FLOOR:
        raise StateError(f"negative eigenvalue {w.min()!r} beyond tolerance")
    return np.sort(np.clip(w, 0.0, None), axis=-1)[..., ::-1]


def stack_spectra(stack: np.ndarray) -> np.ndarray:
    """Descending spectra of a stack of density matrices (n, d, d), checked Hermitian,
    unit-trace and positive semidefinite within tolerance: the one operator validation,
    which :class:`DensityOperator` and :func:`eigenvalues` apply to a stack of one."""
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


def _pure_column(state: PureState, cover: frozenset[str]) -> np.ndarray | None:
    """Unit v with v v^dag the marginal on ``cover``, its largest entry real positive, or ``None``
    if the top squared singular value of the cut matrix is more than ``PURITY_TOL`` below 1.
    Computed once per state and cover, and kept read-only on the state as its cut spectra are."""
    memo = state.__dict__.setdefault("_pure_columns", {})
    if cover not in memo:
        keep_idx = [i for i, lab in enumerate(state.labels) if lab in cover]
        u, s, _ = np.linalg.svd(_cut_matrix(state, keep_idx), full_matrices=False)
        v = None
        if 1.0 - float(s[0]) ** 2 <= PURITY_TOL:
            v = u[:, 0]
            k = int(np.argmax(np.abs(v)))
            v = v * (v[k] / abs(v[k])).conjugate()
            v.setflags(write=False)
        memo[cover] = v
    return memo[cover]


def _eig_desc(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero eigenvalues (those ``zero_noise`` keeps) of a Hermitian matrix, descending, and
    their eigenvectors (columns): the members and weights of its eigen-ensemble."""
    w, v = np.linalg.eigh(matrix)
    order = np.argsort(w)[::-1]
    w = clean_spectrum(w[order])
    r = int(np.count_nonzero(zero_noise(w)))
    return w[:r], v[:, order][:, :r]


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
    return Spectrum(stack_spectra(op.matrix[None])[0])


def regroup(state: State, partition: Partition) -> State:
    """Merge subsystems into one effective party per partition block.

    Labels outside the partition's cover are traced out first.  A
    :class:`PureState` stays pure when its marginal on the cover is pure;
    otherwise the result is that marginal as a :class:`DensityOperator`.
    The result carries one label per block (member names joined, by ``+``
    where a label is longer than one character or the concatenation names
    another label) with the product dimension, amplitudes/matrix reindexed
    accordingly.
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
            vec = _pure_column(state, cover)
            state = (PureState._trusted(kept, kept_dims, vec) if vec is not None
                     else DensityOperator._trusted(kept, kept_dims, m @ m.conj().T))
        else:
            state = partial_trace(state, kept)

    order: list[int] = []
    new_labels, new_dims = [], []
    for block in partition.blocks:
        idx = sorted(state.labels.index(lab) for lab in block)
        order.extend(idx)
        new_labels.append(_block_name([state.labels[i] for i in idx], partition.universe, "+"))
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


def random_pure_state(dims: Sequence[int], seed: int) -> PureState:
    """Haar-distributed pure state on labels A, B, ..., deterministic per seed."""
    labels, dims = _check_layout([chr(ord("A") + i) for i in range(len(dims))], dims)
    amps = haar_amplitudes(dims, [np.random.default_rng(seed)])[0]
    return PureState(labels, dims, amps)


#: The constants of numpy's SeedSequence hash (``numpy/random/bit_generator.pyx``).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


def _hashmix(value, const, mult=_MULT_A):
    """SeedSequence's ``hashmix`` of a word (an int or uint32 array), with the next constant;
    its ``generate_state`` hashes the same way with the B constants."""
    nxt = const * mult & _M32
    value = (value ^ const) * nxt & _M32
    return value ^ value >> 16, nxt


def _mix(x, y):
    """SeedSequence's ``mix`` of two words (ints or uint32 arrays)."""
    r = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
    return r ^ r >> 16


def _column(const, mult, count):
    """The next ``count`` hash constants from ``const`` as a uint32 column, and the one after:
    one ``_hashmix`` by the column hashes a word row ``count`` times in order."""
    out = []
    for _ in range(count):
        out.append(const)
        const = const * mult & _M32
    return np.array(out, dtype=np.uint32)[:, None], const


@functools.cache
def _fixed_seed_sequence() -> type:
    """An ``ISeedSequence`` that hands PCG64 the state row it was built with.  Made on first
    use, so that importing the package does not load ``numpy.random``."""
    class FixedState(np.random.bit_generator.ISeedSequence):
        __slots__ = ("state",)

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):  # PCG64 asks for (4, uint64)
            return self.state

    return FixedState


def child_generators(seed: int, start: int, n: int) -> Iterator[np.random.Generator]:
    """``np.random.default_rng(c)`` for the children ``c`` of ``SeedSequence(seed).spawn``
    numbered ``start`` to ``start + n - 1``, bit for bit, made one at a time as it is read.
    Child i is ``SeedSequence(seed, spawn_key=(i,))``, also where numpy's 32-bit spawn
    counter stops, at 2**32 - 1.

    A child's entropy is the seed's 32-bit words, zero-padded to SeedSequence's pool of 4,
    then the words of its index.  Mixing the seed's words into the pool is the same for every
    child, so it runs once; the index words and ``generate_state(4, uint64)`` run as (4, n)
    and (8, n) uint32 arrays, and each child's PCG64 takes its row of the state.
    """
    seed = int(np.random.SeedSequence(seed).entropy)  # a bad seed raises as numpy's does
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy += [0] * (4 - len(entropy))
    const, pool = _INIT_A, []
    for word in entropy[:4]:
        word, const = _hashmix(word, const)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                word, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], word)
    for word in entropy[4:]:
        for dst in range(4):
            hashed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], hashed)

    blocks, end = [], start + n
    while start < end:  # one block per index word count: indices from 2**32 take two
        k = max(1, -(-start.bit_length() // 32))
        stop = min(end, 1 << 32 * k)
        index = np.arange(start, stop, dtype=np.uint64 if stop <= 1 << 64 else object)
        mixer, c = np.array(pool, dtype=np.uint32)[:, None], const
        for j in range(k):
            consts, c = _column(c, _MULT_A, 4)
            mixer = _mix(mixer, _hashmix((index >> 32 * j & _M32).astype(np.uint32), consts)[0])
        blocks.append(_hashmix(mixer[[0, 1, 2, 3] * 2], _column(_INIT_B, _MULT_B, 8)[0], _MULT_B)[0])
        start = stop
    # Word pairs read little-endian, as generate_state reads them on every platform.
    words = np.concatenate(blocks, axis=1).T if blocks else np.empty((0, 8), np.uint32)
    rows = np.ascontiguousarray(words, dtype="<u4").view("<u8").astype(np.uint64)
    fixed, generator, pcg64 = _fixed_seed_sequence(), np.random.Generator, np.random.PCG64
    return (generator(pcg64(fixed(row))) for row in rows)


def haar_amplitudes(dims: Sequence[int], rngs: Iterable) -> np.ndarray:
    """Haar amplitude rows, one per generator: it draws the real parts, then the
    imaginary parts, and each row is divided by its own ``vdot`` norm as in ``PureState``."""
    d = math.prod(dims)
    normals = np.array([r.standard_normal((2, d)) for r in rngs])
    v = normals[:, 0] + 1j * normals[:, 1]
    return v / np.sqrt([np.vdot(row, row).real for row in v])[:, None]


def haar_isometries(rows: int, cols: int, rngs: Iterable) -> np.ndarray:
    """(k, rows, cols) Haar isometries, one per generator (a unitary when rows == cols).

    Each generator draws the real, then the imaginary parts of a Ginibre
    (rows, cols) matrix; one stacked QR orthonormalizes them all, and the
    signs of R's diagonal move into Q.
    """
    normals = np.array([r.standard_normal((2, rows, cols)) for r in rngs]).reshape(-1, 2, rows, cols)
    q, r = np.linalg.qr(normals[:, 0] + 1j * normals[:, 1])
    return q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]


def random_density_operator(dims: Sequence[int], seed: int, rank: int | None = None) -> DensityOperator:
    """Random mixed state on labels A, B, ... from a Ginibre factor of the given rank (default full)."""
    labels, dims = _check_layout([chr(ord("A") + i) for i in range(len(dims))], dims)
    d = math.prod(dims)
    k = d if rank is None else int(rank)
    if not 1 <= k <= d:
        raise StateError(f"rank must lie in [1, {d}]")
    rho = ginibre_matrices(dims, [np.random.default_rng(seed)], k)[0]
    return DensityOperator(labels, dims, rho)


def ginibre_matrices(dims: Sequence[int], rngs: Iterable, rank: int | None = None) -> np.ndarray:
    """Unit-trace G G^dag per generator from a Ginibre factor G of the given rank
    (default full), real part drawn first, stacked and not yet checked."""
    d = math.prod(dims)
    k = d if rank is None else rank
    # One generator alive at a time: a probe stack passes thousands of them.
    return unit_trace_gram(np.array([r.standard_normal((2, d, k)) for r in rngs]))


def unit_trace_gram(normals: np.ndarray) -> np.ndarray:
    """Unit-trace G G^dag for each G = real + i imag of a (n, 2, d, k) stack of normals."""
    g = normals[:, 0] + 1j * normals[:, 1]
    rho = g @ g.conj().transpose(0, 2, 1)
    return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]
