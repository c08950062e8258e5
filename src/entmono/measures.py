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
from .partitions import Partition
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
    if not 2 <= n_labels <= 8:
        raise GuardError(f"bipartition index needs 2..8 parties, got {n_labels}")
    out: list[tuple[int, ...]] = []
    half = n_labels // 2
    for size in range(1, half + 1):
        for sub in itertools.combinations(range(n_labels), size):
            if 2 * size == n_labels and (n_labels - 1) in sub:
                continue
            out.append(sub)
    return tuple(out)


def _regrouped_vector(state: PureState, partition: Partition | None) -> tuple[np.ndarray, tuple[int, ...]]:
    """Regroup to one axis per block; error if tracing would leave a mixed state.

    ``None`` or the all-singleton partition in the state's own label order
    is the state itself, so its amplitudes are returned without regrouping.
    """
    if (len(state.labels) if partition is None else partition.n_blocks) < 2:
        raise StateError("measure evaluation needs at least two blocks")
    if partition is None or partition.blocks == tuple((lab,) for lab in state.labels):
        return state.amplitudes, state.dims
    grouped = qstate.regroup(state, partition)
    if not isinstance(grouped, PureState):
        raise StateError("tracing out labels outside the partition yields a mixed state")
    return grouped.amplitudes, grouped.dims


class _CutPlan(NamedTuple):
    """The cuts to diagonalize for one block-dims tuple, see :func:`_cut_plan`."""

    n_cuts: int
    width: int           # the widest smaller side
    n_two: int           # the number of two-level cuts, which come first
    blocks: np.ndarray   # the cut each single block reads
    halves: np.ndarray   # (cuts, 1): half the number of single blocks reading each cut
    groups: tuple        # per smaller side dim d, ascending: (d, its cuts as a slice, positions (cuts, d, D / d))


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
        cuts.append((d_s, i, flat.transpose(sub + rest).reshape(d_s, d_r)))
    cuts.sort(key=lambda cut: cut[:2])
    sides = [d_s for d_s, _, _ in cuts]
    groups, start = [], 0
    for d_s, members in itertools.groupby(cuts, key=lambda cut: cut[0]):
        positions = np.array([cut[2] for cut in members])
        positions.setflags(write=False)
        groups.append((d_s, slice(start, start + len(positions)), positions))
        start += len(positions)
    rank = {i: k for k, (_, i, _) in enumerate(cuts)}
    blocks = np.array([rank[i] for i in blocks])
    halves = 0.5 * np.bincount(blocks, minlength=len(cuts))[:, None]
    for arr in (blocks, halves):
        arr.setflags(write=False)
    return _CutPlan(len(cuts), sides[-1], sides.count(2), blocks, halves, tuple(groups))


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


def _cut_spectra(rows: np.ndarray, plan: _CutPlan) -> np.ndarray:
    """Marginal spectra of k pure members on each cut, shape (cuts, k, width).

    ``rows`` are unit member vectors (k, D).  Both sides of a pure
    bipartition share the nonzero spectrum, the only part a reduced
    function reads, so the smaller-side Gram matrix suffices and zero
    padding changes no value.  Two-level sides take the closed form of
    :func:`_two_level`, every wider width one batched ``eigvalsh``.
    """
    out = np.zeros((plan.n_cuts, rows.shape[0], plan.width))
    for d_s, cuts, positions in plan.groups:
        m = rows[:, positions].swapaxes(0, 1)
        if d_s == 2:
            out[cuts, :, :2] = _two_level(m)[1]
        else:
            out[cuts, :, :d_s] = np.linalg.eigvalsh(m @ m.conj().swapaxes(-1, -2))
    np.maximum(out, 0.0, out=out)
    return out


def _cut_h(fn, h: ReducedFunctionSpec, spectra: np.ndarray, plan: _CutPlan) -> np.ndarray:
    """``fn`` (the reduced function or its derivatives) of every cut spectrum.

    Returns shape (cuts, k), or (cuts, k, width) for the derivatives.
    Two-level cuts are read at width 2 even beside wider ones, so they
    reach the two-level forms of :func:`h_spectrum_batch`; zero padding
    changes no other value.
    """
    n_two = plan.n_two
    if n_two in (0, plan.n_cuts):
        return fn(h, spectra)
    at_two, at_wide = fn(h, spectra[:n_two, :, :2]), fn(h, spectra[n_two:])
    out = np.zeros(spectra.shape[:2] + at_wide.shape[2:])
    out[n_two:] = at_wide
    out[(slice(n_two), slice(None), slice(0, 2))[:at_two.ndim]] = at_two
    return out


def _family_weights(family: Family, h_cuts: np.ndarray, plan: _CutPlan) -> np.ndarray:
    """Per-member weight of each cut's h in the family value, shape (cuts, k) or (cuts, 1).

    The one place a family's rule lives: half of each single block (a cut
    read by two blocks counts twice) or of each bipartition for the sums,
    the largest or smallest single block or bipartition for max and min,
    and zero for a genuine family when a single block is at most
    ``GATE_EPS``.  The value is the weighted sum, and with the weights held
    fixed the same sum gives the roof gradient.
    """
    n_cuts = plan.n_cuts
    if family in _SUMS:
        weights = np.full((n_cuts, 1), 0.5) if family in _BIPART else plan.halves
    elif n_cuts == 1:
        weights = np.ones((1, 1))  # the one cut is the max and the min
    else:
        pick = np.argmax if family in _MAXES else np.argmin
        if family in _BIPART:
            active = pick(h_cuts, axis=0)
        else:
            active = plan.blocks[pick(h_cuts[plan.blocks], axis=0)]
        weights = (np.arange(n_cuts)[:, None] == active).astype(float)
    if family in _GATED:
        weights = weights * (h_cuts[plan.blocks] > GATE_EPS).all(axis=0)
    return weights


def _family_values(spec: MeasureSpec, spectra: np.ndarray, plan: _CutPlan) -> np.ndarray:
    """Per-member values from the cut spectra: h of each cut, combined by :func:`_family_weights`."""
    h_cuts = _cut_h(h_spectrum_batch, spec.h, spectra, plan)
    return (_family_weights(spec.family, h_cuts, plan) * h_cuts).sum(axis=0)


def member_values(spec: MeasureSpec, rows: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Family values of k pure members: unit rows (k, D) on block dims ``dims``."""
    plan = _cut_plan(dims, spec.family in _BIPART)
    return _family_values(spec, _cut_spectra(rows, plan), plan)


@dataclass(frozen=True)
class PureProfile:
    """Marginal spectra of a regrouped pure state, reused across families."""

    cut_eigs: np.ndarray  # (cuts, 1, width) in _cut_plan order
    dims: tuple[int, ...]


def pure_state_profile(state: PureState, partition: Partition | None = None) -> PureProfile:
    """Compute all marginal spectra a measure family may need, once."""
    vec, dims = _regrouped_vector(state, partition)
    return PureProfile(_cut_spectra(vec[None, :], _cut_plan(dims, True)), dims)


def measure_from_profile(spec: MeasureSpec, profile: PureProfile) -> float:
    """Evaluate a family from precomputed marginal spectra."""
    return float(_family_values(spec, profile.cut_eigs, _cut_plan(profile.dims, True))[0])


def measure_pure(spec: MeasureSpec, state: PureState, partition: Partition | None = None) -> float:
    """Measure value of a pure state along a partition (default: all singletons, in state order).

    Labels outside the partition are traced out first and must leave a pure
    marginal; :func:`entmono.qstate.regroup` returns a mixed one for the convex roof.
    """
    vec, dims = _regrouped_vector(state, partition)
    return float(member_values(spec, vec[None, :], dims)[0])


def genuine_gate(h: ReducedFunctionSpec, state: PureState) -> bool:
    """True iff every single-label marginal has a reduced function above the gate."""
    return measure_pure(MeasureSpec(Family.GMIN, h), state) > GATE_EPS
