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
members; :func:`measure_pure` is its k = 1 case, and the convex-roof
objective of :func:`entmono.convexroof.convex_roof`, which extends the
families to mixed inputs, evaluates whole ensembles with it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

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


@lru_cache(maxsize=None)
def _cut_plan(dims: tuple[int, ...], bipartitions: bool) -> tuple[tuple, np.ndarray]:
    """The cuts to diagonalize, in :func:`bipartition_subsets` order, and each block's cut.

    A cut is ``(axis order, smaller side dim, larger side dim)``; the order
    leads with the member axis, then the smaller side.  Single blocks come
    first and are all that is kept without ``bipartitions``.  A block and
    its complement are one cut, so at two blocks both read one spectrum.
    """
    n = len(dims)
    subsets = bipartition_subsets(n)
    index = {frozenset(sub): i for i, sub in enumerate(subsets)}
    everyone = frozenset(range(n))
    blocks = np.array([index.get(frozenset({i}), index.get(everyone - {i})) for i in range(n)])
    blocks.setflags(write=False)
    cuts = []
    for sub in subsets if bipartitions else subsets[:blocks.max() + 1]:
        rest = tuple(i for i in range(n) if i not in sub)
        d_s, d_r = math.prod(dims[i] for i in sub), math.prod(dims[i] for i in rest)
        if d_s > d_r:
            sub, rest, d_s, d_r = rest, sub, d_r, d_s
        cuts.append(((0,) + tuple(i + 1 for i in sub + rest), d_s, d_r))
    return tuple(cuts), blocks


def _cut_spectra(rows: np.ndarray, weights: np.ndarray, dims: tuple[int, ...], cuts: tuple) -> np.ndarray:
    """Marginal spectra of k pure members on each cut, shape (cuts, k, width).

    ``rows`` are unnormalized member vectors (k, D) with squared norms
    ``weights``.  Both sides of a pure bipartition share the nonzero
    spectrum, the only part a reduced function reads, so the smaller-side
    Gram matrix suffices and zero padding changes no value.
    """
    k = rows.shape[0]
    psi = rows.reshape((k,) + dims)
    out = np.zeros((len(cuts), k, max(cut[1] for cut in cuts)))
    for i, (order, d_s, d_r) in enumerate(cuts):
        m = psi.transpose(order).reshape(k, d_s, d_r)
        gram = np.einsum("jab,jcb->jac", m, m.conj())
        if d_s == 2:
            a, c, b = gram[:, 0, 0].real, gram[:, 1, 1].real, gram[:, 0, 1]
            disc = np.sqrt((a - c) ** 2 + 4 * (b.real ** 2 + b.imag ** 2))
            out[i, :, 0] = 0.5 * (a + c - disc)
            out[i, :, 1] = 0.5 * (a + c + disc)
        else:
            out[i, :, :d_s] = np.linalg.eigvalsh(gram)
    np.maximum(out, 0.0, out=out)
    out /= weights[:, None]
    return out


def _family_values(spec: MeasureSpec, spectra: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Per-member values from the cut spectra: the one place a family's rule lives.

    The reduced function of each cut is combined by the family's sum, max
    or min, over single blocks or all cuts, and gated if it is genuine.
    """
    family = spec.family
    h_cuts = h_spectrum_batch(spec.h, spectra)
    singles = h_cuts[blocks]
    source = h_cuts if family in _BIPART else singles
    if family in (Family.SUM, Family.GSUM, Family.SUM_BIPART, Family.GSUM_BIPART):
        values = 0.5 * source.sum(axis=0)
    elif family in (Family.MAX, Family.GMAX, Family.MAX_BIPART, Family.GMAX_BIPART):
        values = source.max(axis=0)
    else:
        values = source.min(axis=0)
    if family in _GATED:
        values = np.where((singles <= GATE_EPS).any(axis=0), 0.0, values)
    return values


def member_values(spec: MeasureSpec, rows: np.ndarray, weights: np.ndarray,
                  dims: tuple[int, ...]) -> np.ndarray:
    """Family values of k pure members: rows (k, D) with squared norms ``weights``."""
    cuts, blocks = _cut_plan(dims, spec.family in _BIPART)
    return _family_values(spec, _cut_spectra(rows, weights, dims, cuts), blocks)


@dataclass(frozen=True)
class PureProfile:
    """Marginal spectra of a regrouped pure state, reused across families."""

    cut_eigs: np.ndarray  # (cuts, 1, width) in _cut_plan order
    blocks: np.ndarray
    bipartitions: bool


def pure_state_profile(
    state: PureState, partition: Partition | None = None, bipartitions: bool = True
) -> PureProfile:
    """Compute all marginal spectra a measure family may need, once."""
    vec, dims = _regrouped_vector(state, partition)
    cuts, blocks = _cut_plan(dims, bipartitions)
    return PureProfile(_cut_spectra(vec[None, :], np.ones(1), dims, cuts), blocks, bipartitions)


def measure_from_profile(spec: MeasureSpec, profile: PureProfile) -> float:
    """Evaluate a family from precomputed marginal spectra."""
    if spec.family in _BIPART and not profile.bipartitions:
        raise StateError("profile was computed without bipartition spectra")
    return float(_family_values(spec, profile.cut_eigs, profile.blocks)[0])


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
