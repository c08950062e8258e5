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
from .partitions import Partition, full_partition
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
    """Regroup to one axis per block; error if tracing would leave a mixed state."""
    if partition is None:
        partition = full_partition(state.labels)
    if partition.n_blocks < 2:
        raise StateError("measure evaluation needs at least two blocks")
    grouped = qstate.regroup(state, partition)
    return grouped.amplitudes, grouped.dims


class _CutPlan(NamedTuple):
    """The cuts to diagonalize for one block-dims tuple, see :func:`_cut_plan`."""

    cuts: tuple          # per cut: member positions (d_s, d_r), smaller and larger side dim
    blocks: np.ndarray   # the cut each single block reads
    halves: np.ndarray   # (cuts, 1): half the number of single blocks reading each cut
    two: np.ndarray      # indices of the two-level cuts
    wide: np.ndarray     # indices of the wider cuts
    pairs: np.ndarray    # (two-level cuts, 2, D / 2): their positions, stacked


@lru_cache(maxsize=None)
def _cut_plan(dims: tuple[int, ...], bipartitions: bool) -> _CutPlan:
    """The cuts to diagonalize, in :func:`bipartition_subsets` order, and each block's cut.

    A cut is ``(positions, smaller side dim, larger side dim)``: a member
    vector indexed by the integer array ``positions`` is its cut matrix,
    smaller side first.  Single blocks come first and are all that is kept
    without ``bipartitions``.  A block and its complement are one cut, so at
    two blocks both read one spectrum.
    """
    n = len(dims)
    subsets = bipartition_subsets(n)
    index = {frozenset(sub): i for i, sub in enumerate(subsets)}
    everyone = frozenset(range(n))
    blocks = np.array([index.get(frozenset({i}), index.get(everyone - {i})) for i in range(n)])
    blocks.setflags(write=False)
    flat = np.arange(math.prod(dims)).reshape(dims)
    cuts = []
    for sub in subsets if bipartitions else subsets[:blocks.max() + 1]:
        rest = tuple(i for i in range(n) if i not in sub)
        d_s, d_r = math.prod(dims[i] for i in sub), math.prod(dims[i] for i in rest)
        if d_s > d_r:
            sub, rest, d_s, d_r = rest, sub, d_r, d_s
        positions = flat.transpose(sub + rest).reshape(d_s, d_r)
        positions.setflags(write=False)
        cuts.append((positions, d_s, d_r))
    sides = np.array([cut[1] for cut in cuts])
    two, wide = np.flatnonzero(sides == 2), np.flatnonzero(sides > 2)
    halves = 0.5 * np.bincount(blocks, minlength=len(cuts))[:, None]
    pairs = np.array([cuts[i][0] for i in two]).reshape(len(two), 2, flat.size // 2)
    for arr in (two, wide, halves, pairs):
        arr.setflags(write=False)
    return _CutPlan(tuple(cuts), blocks, halves, two, wide, pairs)


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


def _cut_spectra(rows: np.ndarray, weights: np.ndarray, plan: _CutPlan) -> np.ndarray:
    """Marginal spectra of k pure members on each cut, shape (cuts, k, width).

    ``rows`` are unnormalized member vectors (k, D) with squared norms
    ``weights``.  Both sides of a pure bipartition share the nonzero
    spectrum, the only part a reduced function reads, so the smaller-side
    Gram matrix suffices and zero padding changes no value.  Two-level
    sides take the closed form of :func:`_two_level`.
    """
    k = rows.shape[0]
    cuts, two = plan.cuts, plan.two
    out = np.zeros((len(cuts), k, max(cut[1] for cut in cuts)))
    if two.size:
        out[two, :, :2] = _two_level(rows[:, plan.pairs].swapaxes(0, 1))[1]
    for i in plan.wide:
        positions, d_s, _ = cuts[i]
        m = rows[:, positions]
        out[i, :, :d_s] = np.linalg.eigvalsh(np.einsum("jab,jcb->jac", m, m.conj()))
    np.maximum(out, 0.0, out=out)
    out /= weights[:, None]
    return out


def _cut_h(fn, h: ReducedFunctionSpec, spectra: np.ndarray, plan: _CutPlan) -> np.ndarray:
    """``fn`` (the reduced function or its derivatives) of every cut spectrum.

    Returns shape (cuts, k), or (cuts, k, width) for the derivatives.
    Two-level cuts are read at width 2 even beside wider ones, so they
    reach the two-level forms of :func:`h_spectrum_batch`; zero padding
    changes no other value.
    """
    two, wide = plan.two, plan.wide
    if not (two.size and wide.size):
        return fn(h, spectra)
    at_two, at_wide = fn(h, spectra[two, :, :2]), fn(h, spectra[wide])
    out = np.zeros(spectra.shape[:2] + at_wide.shape[2:])
    out[wide] = at_wide
    out[(two, slice(None), slice(0, 2))[:at_two.ndim]] = at_two
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
    n_cuts = len(plan.cuts)
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


def member_values(spec: MeasureSpec, rows: np.ndarray, weights: np.ndarray,
                  dims: tuple[int, ...]) -> np.ndarray:
    """Family values of k pure members: rows (k, D) with squared norms ``weights``."""
    plan = _cut_plan(dims, spec.family in _BIPART)
    return _family_values(spec, _cut_spectra(rows, weights, plan), plan)


@dataclass(frozen=True)
class PureProfile:
    """Marginal spectra of a regrouped pure state, reused across families."""

    cut_eigs: np.ndarray  # (cuts, 1, width) in _cut_plan order
    dims: tuple[int, ...]
    bipartitions: bool


def pure_state_profile(
    state: PureState, partition: Partition | None = None, bipartitions: bool = True
) -> PureProfile:
    """Compute all marginal spectra a measure family may need, once."""
    vec, dims = _regrouped_vector(state, partition)
    plan = _cut_plan(dims, bipartitions)
    return PureProfile(_cut_spectra(vec[None, :], np.ones(1), plan), dims, bipartitions)


def measure_from_profile(spec: MeasureSpec, profile: PureProfile) -> float:
    """Evaluate a family from precomputed marginal spectra."""
    if spec.family in _BIPART and not profile.bipartitions:
        raise StateError("profile was computed without bipartition spectra")
    plan = _cut_plan(profile.dims, profile.bipartitions)
    return float(_family_values(spec, profile.cut_eigs, plan)[0])


def measure_pure(spec: MeasureSpec, state: PureState, partition: Partition | None = None) -> float:
    """Measure value of a pure state along a partition (default: all singletons).

    Labels outside the partition are traced out first and must leave a pure
    marginal; route mixed states through the convex roof instead.
    """
    vec, dims = _regrouped_vector(state, partition)
    return float(member_values(spec, vec[None, :], np.ones(1), dims)[0])


def genuine_gate(h: ReducedFunctionSpec, state: PureState, partition: Partition | None = None) -> bool:
    """True iff every single-block marginal has a reduced function above the gate."""
    return measure_pure(MeasureSpec(Family.GMIN, h), state, partition) > GATE_EPS
