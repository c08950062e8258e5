"""Pure-state evaluation of the ten measure families.

A family combines reduced-function values of marginals of a pure state
regrouped along a partition:

* ``sum``        half the sum over single blocks
* ``max``        maximum over single blocks
* ``sum-bipart`` half the sum over one marginal per unordered bipartition
* ``max-bipart`` maximum over all bipartition marginals
* ``g*``         the same four, gated to zero when any single-block
                 marginal has vanishing reduced function
* ``gmin``       minimum over single blocks
* ``gmin-bipart`` minimum over all bipartition marginals

One batched evaluator, :func:`member_values`, gives the values of k pure
members; :func:`measure_pure` is its k = 1 case.  The convex-roof objective
of :func:`entmono.convexroof.convex_roof`, which extends the families to
mixed inputs, shares its cut plan, two-level spectra and family weights.
The checkers read each partition of a pure state from its cover's table:
h of every cut of each member of the eigen-ensemble of the state's marginal
on the partition's labels (:func:`_cut_table`).  That is the value where
the marginal is pure and an upper bound on the roof where it is mixed, with
no regroup.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import GuardError, StateError
from .partitions import MAX_LABELS, Partition
from .qstate import PureState
from .redfun import ReducedFunctionSpec, h_spectrum_batch
from . import qstate

#: Zero test for the genuine gate (a float comparison needs a band above
#: spectral noise).
GATE_EPS = 1e-9


class Family(str, Enum):
    SUM = "sum"
    SUM_BIPART = "sum-bipart"
    MAX = "max"
    MAX_BIPART = "max-bipart"
    GSUM = "gsum"
    GSUM_BIPART = "gsum-bipart"
    GMAX = "gmax"
    GMAX_BIPART = "gmax-bipart"
    GMIN = "gmin"
    GMIN_BIPART = "gmin-bipart"


_GATED = {Family.GSUM, Family.GSUM_BIPART, Family.GMAX, Family.GMAX_BIPART,
          Family.GMIN, Family.GMIN_BIPART}
_BIPART = {Family.SUM_BIPART, Family.MAX_BIPART, Family.GSUM_BIPART,
           Family.GMAX_BIPART, Family.GMIN_BIPART}
_SUMS = {Family.SUM, Family.GSUM, Family.SUM_BIPART, Family.GSUM_BIPART}
_MAXES = {Family.MAX, Family.GMAX, Family.MAX_BIPART, Family.GMAX_BIPART}


@dataclass(frozen=True)
class MeasureSpec:
    """A measure family together with its reduced function."""

    family: Family
    h: ReducedFunctionSpec

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))

    @property
    def name(self) -> str:
        return f"{self.family.value}/{self.h.name}"

    @property
    def genuine(self) -> bool:
        return self.family in _GATED


def bipartition_subsets(n_labels: int) -> tuple[tuple[int, ...], ...]:
    """One representative index subset per unordered bipartition.

    Subsets of size up to ``n/2``; at exactly ``n/2`` (even ``n``) the half
    containing the last index is dropped, so every unordered bipartition
    appears exactly once and the count is ``2**(n-1) - 1``.
    """
    if not 2 <= n_labels <= MAX_LABELS:
        raise GuardError(f"bipartition index needs 2..{MAX_LABELS} parties, got {n_labels}")
    out: list[tuple[int, ...]] = []
    half = n_labels // 2
    for size in range(1, half + 1):
        for sub in itertools.combinations(range(n_labels), size):
            if 2 * size == n_labels and (n_labels - 1) in sub:
                continue
            out.append(sub)
    return tuple(out)


def _regrouped_state(state: PureState, partition: Partition | None) -> PureState:
    """Regroup to one label per block; error if tracing would leave a mixed state.

    ``None`` or the all-singleton partition in the state's own label order
    is the state itself, so it is returned without regrouping.
    """
    if (len(state.labels) if partition is None else partition.n_blocks) < 2:
        raise StateError("measure evaluation needs at least two blocks")
    if partition is None or partition.blocks == tuple((lab,) for lab in state.labels):
        return state
    grouped = qstate.regroup(state, partition)
    if not isinstance(grouped, PureState):
        raise StateError("tracing out labels outside the partition yields a mixed state")
    return grouped


class _CutPlan(NamedTuple):
    """The cuts to diagonalize for one block-dims tuple, see :func:`_cut_plan`."""

    n_cuts: int
    blocks: np.ndarray   # the cut each single block reads
    halves: np.ndarray   # (cuts, 1): half the number of single blocks reading each cut
    groups: tuple        # per smaller side dim d, ascending: (d, its cuts as a slice, positions (cuts, d, D / d))
    sides: np.ndarray    # (cuts, blocks) 0/1: the blocks of each cut's bipartition_subsets side
    half: np.ndarray     # (cuts, 1) of 0.5: each bipartition's weight in the sums
    index: np.ndarray    # (cuts, 1): each cut's index, the column a one-hot of the active cut compares to
    singles: slice | np.ndarray  # indexes the single blocks' cuts: a slice where they lead in order, else blocks


@lru_cache(maxsize=None)
def _cut_plan(dims: tuple[int, ...], bipartitions: bool) -> _CutPlan:
    """The cuts to diagonalize, by smaller side dim d_s, and each block's cut.

    A cut's positions are an integer array (d_s, d_r), smaller side first:
    a member vector indexed by it is the cut matrix.  Cuts are ordered by
    d_s, then in :func:`bipartition_subsets` order, and each width's
    positions are stacked, so that one gather and one eigensolve serve every
    cut of a width.  Only single blocks are kept without ``bipartitions``.
    A block and its complement are one cut, so at two blocks both read one
    spectrum.
    """
    n = len(dims)
    subsets = bipartition_subsets(n)
    index = {frozenset(sub): i for i, sub in enumerate(subsets)}
    everyone = frozenset(range(n))
    blocks = [index.get(frozenset({i}), index.get(everyone - {i})) for i in range(n)]
    flat = np.arange(math.prod(dims)).reshape(dims)
    cuts = []
    for i, sub in enumerate(subsets if bipartitions else subsets[:max(blocks) + 1]):
        rest = tuple(j for j in range(n) if j not in sub)
        d_s, d_r = math.prod(dims[j] for j in sub), math.prod(dims[j] for j in rest)
        if d_s > d_r:
            sub, rest, d_s, d_r = rest, sub, d_r, d_s
        cuts.append((d_s, i, flat.transpose(sub + rest).reshape(d_s, d_r), subsets[i]))
    cuts.sort(key=lambda cut: cut[:2])
    groups, start = [], 0
    for d_s, members in itertools.groupby(cuts, key=lambda cut: cut[0]):
        positions = np.array([cut[2] for cut in members])
        positions.setflags(write=False)
        groups.append((d_s, slice(start, start + len(positions)), positions))
        start += len(positions)
    rank = {cut[1]: k for k, cut in enumerate(cuts)}
    blocks = np.array([rank[i] for i in blocks])
    halves = 0.5 * np.bincount(blocks, minlength=len(cuts))[:, None]
    sides = np.zeros((len(cuts), n), dtype=np.int64)
    for k, cut in enumerate(cuts):
        sides[k, list(cut[3])] = 1
    half, index = np.full((len(cuts), 1), 0.5), np.arange(len(cuts))[:, None]
    for arr in (blocks, halves, sides, half, index):
        arr.setflags(write=False)
    singles = slice(0, n) if blocks.tolist() == list(range(n)) else blocks
    return _CutPlan(len(cuts), blocks, halves, tuple(groups), sides, half, index, singles)


def _two_level(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrices G = M M^dag of stacked two-row cut matrices (c, k, 2, d) and their spectra.

    Returns G and the eigenvalues (c, k, 2), small then large, unnormalized.
    The small one is det G / lambda_max, with det G the Gram-Schmidt
    product of squared row norms (equal to the Cauchy-Binet sum of squared
    2 x 2 minors), so it stays accurate to 1e-16 absolute near product
    members instead of cancelling in the trace.
    """
    gram = np.einsum("cjab,cjdb->cjad", m, m.conj())
    a, c, b = gram[..., 0, 0].real, gram[..., 1, 1].real, gram[..., 0, 1]
    eigs = np.empty(a.shape + (2,))
    top = np.multiply(0.5, a + c + np.sqrt((a - c) ** 2 + 4 * (b.real ** 2 + b.imag ** 2)), out=eigs[..., 1])
    # det G = |row 0|^2 |row 1 minus its projection on row 0|^2; a, top >= 0
    perp = m[..., 1, :] - m[..., 0, :] * (b.conj() / (a + (a == 0)))[..., None]
    det = a * (perp.real ** 2 + perp.imag ** 2).sum(axis=-1)
    np.divide(det, top + (top == 0), out=eigs[..., 0])
    return gram, eigs


def _cut_spectra(rows: np.ndarray, plan: _CutPlan) -> tuple[np.ndarray, ...]:
    """Marginal spectra of k pure members, one array (cuts, k, d) per width d in ``plan.groups`` order.

    ``rows`` are unit member vectors (k, D).  Both sides of a pure
    bipartition share the nonzero spectrum, the only part a reduced
    function reads, so the smaller-side Gram matrix suffices.  Two-level
    sides take the closed form of :func:`_two_level`, every wider width one
    batched ``eigvalsh``.  Each width's stack is made contiguous, so a
    member's bits do not depend on k, and keeps its own width, so
    :func:`h_spectrum_batch` reads two-level cuts in its two-level forms.
    The spectra are clamped at zero here, once, and returned read-only: the
    h kernels read them unchecked.
    """
    out = []
    for d_s, _, positions in plan.groups:
        m = np.ascontiguousarray(rows[:, positions].swapaxes(0, 1))
        lam = _two_level(m)[1] if d_s == 2 else np.linalg.eigvalsh(m @ m.conj().swapaxes(-1, -2))
        np.maximum(lam, 0.0, out=lam)
        lam.setflags(write=False)
        out.append(lam)
    return tuple(out)


def _gate(h_cuts: np.ndarray, plan: _CutPlan) -> np.ndarray:
    """Whether each member's genuine families are open, (k,): every single block's h above
    ``GATE_EPS``.  The minimum's test has the truth value of all, NaN included."""
    return np.minimum.reduce(h_cuts[plan.singles], axis=0) > GATE_EPS


def _family_weights(family: Family, h_cuts: np.ndarray, plan: _CutPlan, gate: np.ndarray | None = None,
                    ) -> np.ndarray:
    """Per-member weight of each cut's h in the family value, shape (cuts, k) or (cuts, 1).

    The one place a family's rule lives: half of each single block (a cut
    read by two blocks counts twice) or of each bipartition for the sums,
    the largest or smallest single block or bipartition for max and min,
    and zero for a genuine family when a single block is at most
    ``GATE_EPS``.  The value is the weighted sum, and with the weights held
    fixed the same sum gives the roof gradient.  Every array but the
    one-hot of the active cut is a constant of the plan; ``gate``, when
    given, is :func:`_gate` of ``h_cuts``, read from a memo.
    """
    if family in _SUMS:
        weights = plan.half if family in _BIPART else plan.halves
    elif plan.n_cuts == 1:
        weights = plan.halves  # both blocks read the one cut, the max and the min: weight 1
    else:
        pick = np.ndarray.argmax if family in _MAXES else np.ndarray.argmin
        if family in _BIPART:
            active = pick(h_cuts, axis=0)
        else:
            active = plan.blocks[pick(h_cuts[plan.singles], axis=0)]
        weights = np.equal(plan.index, active, out=np.empty(h_cuts.shape))
    if family in _GATED:
        weights = weights * (_gate(h_cuts, plan) if gate is None else gate)
    return weights


def _cut_h(h: ReducedFunctionSpec, spectra: tuple[np.ndarray, ...]) -> np.ndarray:
    """h of every cut, (cuts, k) in plan order: one :func:`h_spectrum_batch` call per width."""
    parts = [h_spectrum_batch(h, lam) for lam in spectra]
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def _family_values(family: Family, h_cuts: np.ndarray, plan: _CutPlan, gate: np.ndarray | None = None,
                   ) -> np.ndarray:
    """Per-member values from h of the cuts, combined by :func:`_family_weights` and summed along
    each member's contiguous row, so a member's bits do not depend on k."""
    return np.add.reduce(np.ascontiguousarray((_family_weights(family, h_cuts, plan, gate) * h_cuts).T), axis=1)


def member_values(spec: MeasureSpec, rows: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Family values of k pure members: unit rows (k, D) on block dims ``dims``."""
    plan = _cut_plan(dims, spec.family in _BIPART)
    return _family_values(spec.family, _cut_h(spec.h, _cut_spectra(rows, plan)), plan)


def _state_spectra(state: PureState, bipartitions: bool) -> tuple[tuple[np.ndarray, ...], _CutPlan]:
    """The state's cut spectra on its plan, one (cuts, 1, d) array per width, computed once
    per state and set of cuts.

    Kept read-only in the instance ``__dict__`` as ``functools.cached_property`` does, unseen by
    ``==``, ``repr`` and ``fields``.  The single-block cuts lead the plan of all cuts, so the cut
    count names the cuts: on up to three labels both plans hold every cut and share one entry.
    """
    plan = _cut_plan(state.dims, bipartitions)
    memo = state.__dict__.setdefault("_cut_spectra", {})
    if plan.n_cuts not in memo:
        memo[plan.n_cuts] = _cut_spectra(state.amplitudes[None, :], plan)
    return memo[plan.n_cuts], plan


def _state_h(h: ReducedFunctionSpec, state: PureState, bipartitions: bool,
             ) -> tuple[np.ndarray, np.ndarray, _CutPlan]:
    """h of the state's cuts, (cuts, 1) in plan order, and its :func:`_gate`, computed once per
    state, set of cuts and h from :func:`_state_spectra` and kept read-only beside the spectra
    (keyed by cut count as they are), so every family on one state and h reads one row."""
    plan = _cut_plan(state.dims, bipartitions)
    memo = state.__dict__.setdefault("_cut_h", {})
    entry = memo.get((plan.n_cuts, h))
    if entry is None:
        row = _cut_h(h, _state_spectra(state, bipartitions)[0])
        gate = _gate(row, plan)
        for arr in (row, gate):
            arr.setflags(write=False)
        entry = memo[plan.n_cuts, h] = row, gate
    return *entry, plan


@dataclass(frozen=True)
class PureProfile:
    """Marginal spectra of a regrouped pure state, reused across families."""

    cut_eigs: tuple[np.ndarray, ...]  # one read-only (cuts, 1, d) array per width, in _cut_plan order
    dims: tuple[int, ...]


def pure_state_profile(state: PureState, partition: Partition | None = None) -> PureProfile:
    """All marginal spectra a measure family may need: the regrouped state's all-cuts memo."""
    grouped = _regrouped_state(state, partition)
    return PureProfile(_state_spectra(grouped, True)[0], grouped.dims)


def measure_pure(spec: MeasureSpec, state: PureState, partition: Partition | None = None) -> float:
    """Measure value of a pure state along a partition (default: all singletons, in state order).

    Labels outside the partition are traced out first and must leave a pure
    marginal; :func:`entmono.qstate.regroup` returns a mixed one for the convex roof.
    All families and h evaluated on one state read its cut spectra from one memo, and all
    families on one state and h one row of h.
    """
    h_cuts, gate, plan = _state_h(spec.h, _regrouped_state(state, partition), spec.family in _BIPART)
    return float(_family_values(spec.family, h_cuts, plan, gate)[0])


def _cut_table(h: ReducedFunctionSpec, state: PureState, cover: frozenset[str],
               ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray, dict]:
    """h of every cut of each member of the eigen-ensemble of the state's marginal on ``cover``
    (2+ labels), read by label mask, for :func:`_table_values`.

    A marginal pure by the rule ``regroup`` applies (``qstate._pure_column``) is that column
    alone at weight 1; the full cover is the state itself, whose h row is read from its memo.
    A mixed marginal M M^dag, M the cut matrix in state order, has as members its eigenvectors
    of nonzero weight (``qstate._eig_desc``, as ``convexroof.eigen_ensemble_value``), taken
    from the smaller of M M^dag and M^dag M.  Returns the member weights (members,), None where
    the marginal is pure, h (cuts, members), the row of each label mask (bit i:
    ``state.labels[i]``; a mask and its complement in the cover name one cut), and each label's
    bit and dim.
    """
    keep = [i for i, lab in enumerate(state.labels) if lab in cover]
    plan = _cut_plan(tuple(state.dims[i] for i in keep), True)
    weights = None
    if len(keep) == len(state.dims):
        h_cuts = _state_h(h, state, True)[0]
    else:
        rows = qstate._pure_column(state, cover)
        if rows is None:
            m = qstate._cut_matrix(state, keep)
            if m.shape[0] <= m.shape[1]:
                weights, vecs = qstate._eig_desc(m @ m.conj().T)
            else:  # an eigenvector v of M^dag M gives the member M v / |M v|
                weights, vecs = qstate._eig_desc(m.conj().T @ m)
                vecs = m @ vecs
                vecs /= np.linalg.norm(vecs, axis=0)
        h_cuts = _cut_h(h, _cut_spectra(vecs.T if rows is None else rows[None], plan))
    masks = plan.sides @ (1 << np.array(keep))
    row_of = np.zeros(1 << len(state.dims), dtype=np.intp)
    row_of[masks] = row_of[sum(1 << i for i in keep) - masks] = np.arange(plan.n_cuts)
    bits = {lab: (1 << i, d) for i, (lab, d) in enumerate(zip(state.labels, state.dims))}
    return weights, h_cuts, row_of, bits


def _table_values(family: Family, tables: dict, partitions: list[Partition]) -> np.ndarray:
    """sum_k w_k E(u_k) of each partition (2+ blocks) over the members u_k of its cover's table
    in ``tables``: its value where the marginal is pure, else the eigen-ensemble upper bound.

    Every cut of a regrouped member is a cut of the member on the cover, so its h is gathered
    from the table, with no regroup or eigensolve: one gather and one :func:`_family_values`
    call per cover and block-dims tuple, whose row sums give each partition and member the bits
    it gets alone.  Those spectra come from another arrangement of the member than the
    regrouped one's, so a value can differ from ``member_values`` on it in the last bits.
    """
    blocks: dict[tuple[str, ...], tuple[int, int]] = {}  # a block's label mask and dim
    groups: dict[tuple, tuple[list[int], list[list[int]]]] = {}
    for k, partition in enumerate(partitions):
        masks, dims = [], []
        for block in partition.blocks:
            mask_dim = blocks.get(block)
            if mask_dim is None:
                mask, dim, bits = 0, 1, tables[partition.cover][3]
                for lab in block:
                    bit, d = bits[lab]
                    mask, dim = mask | bit, dim * d
                mask_dim = blocks[block] = mask, dim
            masks.append(mask_dim[0])
            dims.append(mask_dim[1])
        ks, rows = groups.setdefault((partition.cover, tuple(dims)), ([], []))
        ks.append(k)
        rows.append(masks)
    out = np.empty(len(partitions))
    for (cover, dims), (ks, masks) in groups.items():
        weights, h_cuts, row_of, _ = tables[cover]
        plan = _cut_plan(dims, family in _BIPART)
        h = h_cuts[row_of[plan.sides @ np.array(masks).T]]  # (cuts, partitions, members)
        values = _family_values(family, h.reshape(plan.n_cuts, -1), plan)
        out[ks] = values if weights is None else (values.reshape(len(ks), -1) * weights).sum(axis=1)
    return out
