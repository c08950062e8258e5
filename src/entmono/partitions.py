"""Set-partition coarsening calculus.

A partition splits (a subset of) the subsystem labels of a multipartite
system into disjoint blocks, e.g. ``AB|C|DE``.  Three elementary moves turn
a partition into a strictly coarser one:

* discard whole blocks,
* combine blocks into larger blocks,
* discard labels from inside a composite block.

This module implements the three single-move relations, their common
closure, enumeration of everything coarser than a given partition, and the
construction of the "monogamy target set" ``xi_set(x, y)``: the partitions
on which a measure must vanish once its values on ``x`` and ``y`` coincide.
Coarsenings and targets are generated directly from the blocks of ``x``
rather than filtered out of the whole lattice.
"""

from __future__ import annotations

import itertools
import logging
import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .errors import GuardError, PartitionError

logger = logging.getLogger(__name__)

#: Enumeration guard: partition counts grow like Bell numbers.
MAX_LABELS = 8


class CoarseningKind(Enum):
    """Move classes that produce a coarser partition."""

    DISCARD_BLOCKS = "discard-blocks"
    COMBINE_BLOCKS = "combine-blocks"
    DISCARD_WITHIN_BLOCK = "discard-within-block"
    ANY = "any"


@dataclass(frozen=True, slots=True)
class Partition:
    """Ordered disjoint blocks of labels over a fixed universe.

    The canonical form is enforced on construction: labels are sorted
    within each block and blocks are sorted by their first label.
    ``universe`` is the full label set of the ambient system; the blocks
    may cover only a subset of it, the ``cover``.  The generators build
    their results canonical, through :func:`_canonical`.
    """

    blocks: tuple[tuple[str, ...], ...]
    universe: frozenset[str]
    cover: frozenset[str] = field(compare=False, repr=False)

    def __init__(self, blocks: Iterable[Iterable[str]], universe: Iterable[str]):
        uni = frozenset(universe)
        canon = []
        seen: set[str] = set()
        for raw in blocks:
            block = tuple(sorted(raw))
            if not block:
                raise PartitionError("empty block")
            for lab in block:
                if not isinstance(lab, str) or not lab:
                    raise PartitionError(f"bad label {lab!r}")
                if lab not in uni:
                    raise PartitionError(f"unknown label {lab!r}")
                if lab in seen:
                    raise PartitionError(f"duplicate label {lab!r}")
                seen.add(lab)
            canon.append(block)
        if not canon:
            raise PartitionError("partition needs at least one block")
        canon.sort(key=lambda b: b[0])
        _set_blocks(self, tuple(canon))
        _set_universe(self, uni)
        _set_cover(self, frozenset(seen))

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def __str__(self) -> str:
        return format_partition(self)


#: The slot setters of a :class:`Partition`, which its frozen ``__setattr__`` does not guard.
_set_blocks, _set_universe, _set_cover = (getattr(Partition, name).__set__ for name in ("blocks", "universe", "cover"))


def _canonical(blocks: tuple[tuple[str, ...], ...], universe: frozenset[str], cover: frozenset[str]) -> Partition:
    """Unvalidated construction from canonical blocks and their cover (shared, not copied)."""
    p = object.__new__(Partition)
    _set_blocks(p, blocks)
    _set_universe(p, universe)
    _set_cover(p, cover)
    return p


def parse_partition(text: str, universe: Iterable[str]) -> Partition:
    """Parse ``"AB|C,D"``-style text into a canonical :class:`Partition`.

    Blocks are separated by ``|``.  Within a block, labels are either
    comma-separated or, when every label is a single character,
    concatenated; a chunk that is itself a label is that label.
    """
    uni = frozenset(universe)
    blocks = []
    for chunk in text.split("|"):
        chunk = chunk.strip()
        if not chunk:
            raise PartitionError(f"empty block in {text!r}")
        if "," in chunk:
            members = [m.strip() for m in chunk.split(",")]
        elif chunk in uni:
            members = [chunk]
        else:
            members = list(chunk)
        blocks.append(members)
    return Partition(blocks, uni)


def _block_name(block: Sequence[str], labels: frozenset[str], sep: str) -> str:
    """A block's name: its labels concatenated when each is one character and the result names
    no other label of ``labels``, else joined by ``sep``."""
    joined = "".join(block)
    if all(len(lab) == 1 for lab in block) and (len(block) == 1 or joined not in labels):
        return joined
    return sep.join(block)


def format_partition(p: Partition) -> str:
    """Inverse of :func:`parse_partition` (canonical form)."""
    return "|".join(_block_name(block, p.universe, ",") for block in p.blocks)


def full_partition(labels: Iterable[str]) -> Partition:
    """The finest partition: one singleton block per label."""
    labs = list(labels)
    return Partition([[lab] for lab in labs], labs)


def is_coarser(x: Partition, y: Partition, kind: CoarseningKind = CoarseningKind.ANY) -> bool:
    """True iff ``y`` is strictly coarser than ``x`` under the move class.

    For the single kinds the relation admits one compound move (several
    blocks discarded / several groups merged / several blocks shrunk at
    once), which coincides with the transitive closure of single moves.
    For ``ANY`` it is the closure over arbitrary move sequences.
    """
    if x.universe != y.universe:
        raise PartitionError("universe mismatch")
    if x == y:
        return False
    xb = [frozenset(b) for b in x.blocks]
    yb = [frozenset(b) for b in y.blocks]

    if kind is CoarseningKind.DISCARD_BLOCKS:
        return set(yb) < set(xb)

    if kind is CoarseningKind.COMBINE_BLOCKS:
        if x.cover != y.cover:
            return False
        return all(any(bx <= by for by in yb) for bx in xb)

    if kind is CoarseningKind.DISCARD_WITHIN_BLOCK:
        if len(yb) != len(xb):
            return False
        owners = []
        for by in yb:
            own = [i for i, bx in enumerate(xb) if by <= bx]
            if len(own) != 1:
                return False
            owners.append(own[0])
        return len(set(owners)) == len(owners)

    # ANY: no move can split a block, so y is reachable iff its cover sits
    # inside x's cover and no x-block meets two distinct y-blocks.
    if not y.cover <= x.cover:
        return False
    for bx in xb:
        if sum(1 for by in yb if bx & by) > 1:
            return False
    return True


@lru_cache(maxsize=None)
def _groupings(k: int) -> tuple[tuple[int, ...], ...]:
    """Every set partition of ``range(k)`` in restricted-growth order, each group a bit mask.

    Groups are ordered by their lowest bit, so grouping blocks sorted by
    first label keeps the fused blocks in that order too.  The last grouping
    is all singletons.
    """
    if k == 0:
        return ((),)
    bit = 1 << (k - 1)
    out = []
    for groups in _groupings(k - 1):
        out.extend(groups[:i] + (g | bit,) + groups[i + 1:] for i, g in enumerate(groups))
        out.append(groups + (bit,))
    return tuple(out)


@lru_cache(maxsize=None)
def _fusers(k: int) -> tuple[Callable[[list], tuple], ...]:
    """Per grouping of :func:`_groupings` (k), a getter of its groups' entries as a tuple.
    ``itemgetter`` of one index returns the bare entry, so the one-group grouping is wrapped."""
    return tuple(operator.itemgetter(*groups) if len(groups) > 1
                 else lambda unions, mask=groups[0]: (unions[mask],) for groups in _groupings(k))


def _fusions(pieces: tuple) -> list[tuple[tuple[str, ...], ...]]:
    """Every grouping of disjoint sorted pieces, in :func:`_groupings` order.

    Each group is fused into one sorted block, read from a table of the
    unions of the pieces indexed by bit mask.
    """
    unions = [()]
    for piece in pieces:
        unions += [tuple(sorted(u + piece)) for u in unions]
    return [fuse(unions) for fuse in _fusers(len(pieces))]


def _sub_pieces(block: tuple[str, ...]) -> list[tuple[str, ...]]:
    """Nonempty sub-blocks of a sorted block, each sorted."""
    return [c for k in range(1, len(block) + 1) for c in itertools.combinations(block, k)]


def _assemble(
    options: list[list], group: bool, universe: frozenset[str], fixed: tuple = ()
) -> Iterator[Partition]:
    """Partitions from one option per slot, ``None`` leaving the slot out.

    The kept pieces are disjoint sorted blocks, sorted once per choice, so
    by first label.  With ``group`` every set partition of them is fused into
    blocks, which :func:`_groupings` keeps in that order; without it they stay
    as they are.  Either way a result is canonical as it comes; the ``fixed``
    blocks join every result and are merged into place.  The results of one
    choice share one cover object.
    """
    for choice in itertools.product(*options):
        kept = tuple(sorted(p for p in choice if p is not None))
        if not kept:
            continue
        cover = frozenset(itertools.chain(*fixed, *kept))
        for fused in _fusions(kept) if group else (kept,):
            yield _canonical(tuple(sorted(fixed + fused)) if fixed else fused, universe, cover)


def _coarser_blocks(x: Partition, kind: CoarseningKind) -> Iterable[tuple[tuple[str, ...], ...]]:
    """Canonical blocks of every partition strictly coarser than ``x`` by discards or by merges, once each.

    Discards are the nonempty proper sub-collections of x's blocks, and
    merges their groupings but the all-singleton one; both are canonical as
    they come.  The other kinds take pieces of x's blocks, which
    :func:`_coarsenings` assembles; they raise ``ValueError`` here.
    """
    if kind is CoarseningKind.DISCARD_BLOCKS:
        return itertools.chain.from_iterable(itertools.combinations(x.blocks, r) for r in range(1, x.n_blocks))
    if kind is CoarseningKind.COMBINE_BLOCKS:
        return _fusions(x.blocks)[:-1]
    raise ValueError(f"blocks are read off x only for discards and merges, not {kind.value}")


def _coarsenings(x: Partition, kind: CoarseningKind) -> Iterable[Partition]:
    """Every partition strictly coarser than ``x`` under the move class, once each.

    Discards and merges are read off x's blocks (:func:`_coarser_blocks`).
    Under ``ANY`` each x-block keeps a nonempty sub-piece or nothing, and the
    kept pieces are grouped; within-block discards keep a piece of each.
    Both assemble x itself too, which is discarded from their set.
    """
    if kind is CoarseningKind.DISCARD_BLOCKS:
        return (_canonical(b, x.universe, frozenset(itertools.chain(*b)))
                for b in _coarser_blocks(x, kind))
    if kind is CoarseningKind.COMBINE_BLOCKS:
        return (_canonical(b, x.universe, x.cover) for b in _coarser_blocks(x, kind))
    drop = kind is CoarseningKind.ANY
    options = [([None] if drop else []) + _sub_pieces(b) for b in x.blocks]
    out = set(_assemble(options, drop, x.universe))
    out.discard(x)
    return out


def all_partitions_of_subsets(labels: Iterable[str], universe: Iterable[str]) -> frozenset[Partition]:
    """Every partition of every nonempty subset of ``labels``."""
    labs = tuple(sorted(frozenset(labels)))
    if len(labs) > MAX_LABELS:
        raise GuardError(f"{len(labs)} labels exceed the enumeration guard ({MAX_LABELS})")
    if not labs:
        return frozenset()
    finest = Partition([[lab] for lab in labs], universe)
    return frozenset({finest, *_coarsenings(finest, CoarseningKind.ANY)})


def enumerate_coarsenings(x: Partition, kind: CoarseningKind = CoarseningKind.ANY) -> frozenset[Partition]:
    """All partitions strictly coarser than ``x`` under the move class."""
    if len(x.universe) > MAX_LABELS:
        raise GuardError(f"universe of {len(x.universe)} labels exceeds the guard ({MAX_LABELS})")
    return frozenset(_coarsenings(x, kind))


def _target_candidates(x: Partition, y: Partition) -> set[Partition]:
    """The two admissible shapes of an ``xi_set`` target, coarser than or equal to ``x``.

    A candidate that meets at most one block of ``y`` is built from pieces
    of distinct x-blocks, with no merging anywhere.  A candidate that meets
    two or more y-blocks contains them whole, fused into exactly one block
    equal to their union, while its remaining blocks are unions of whole
    x-blocks outside the cover of ``y``.
    """
    out = set()
    outside = x.cover - y.cover
    for touched in y.blocks:
        allowed = outside.union(touched)
        options = [[None] + _sub_pieces(tuple(lab for lab in b if lab in allowed)) for b in x.blocks]
        out.update(_assemble(options, False, x.universe))
    free = [[None, b] for b in x.blocks if y.cover.isdisjoint(b)]
    for k in range(2, y.n_blocks + 1):
        for fused in itertools.combinations(y.blocks, k):
            out.update(_assemble(free, True, x.universe, (tuple(sorted(itertools.chain(*fused))),)))
    return out


def xi_set(x: Partition, y: Partition) -> frozenset[Partition]:
    """Monogamy target set for the pair ``x`` coarser-than ``y``.

    When ``y`` is ``x`` with exactly one group of blocks merged, the set is
    the partition formed by that group's blocks with everything coarser than
    it.  Otherwise it holds the :func:`_target_candidates` strictly coarser
    than ``x`` and incomparable with ``y``, read off their shapes: each is
    ``x`` or coarser; with two or more blocks it is not coarser than ``y``
    (it holds labels outside y's cover, splits a y-block or fuses y-blocks),
    nor is ``y`` coarser than it (it leaves y's cover partly out or fuses
    y-blocks) unless ``y`` is one block it covers.  Those, ``x`` among them,
    are finer than ``y`` and dropped.  Only partitions with at least two
    blocks are targets: a single block carries no split to measure across.
    """
    if not is_coarser(x, y, CoarseningKind.ANY):
        raise PartitionError(f"{y} is not coarser than {x}")

    if x.cover == y.cover and len(set(y.blocks) - set(x.blocks)) == 1:
        # y is x with one group of blocks merged into its single new block.
        base = Partition(set(x.blocks) - set(y.blocks), x.universe)
        return frozenset({base, *(z for z in _coarsenings(base, CoarseningKind.ANY) if z.n_blocks >= 2)})

    if x.cover == y.cover:
        logger.info(
            "pair (%s, %s): target is a multi-group merge; the merged-tail rule "
            "does not apply literally, using the general shapes", x, y,
        )

    return frozenset(z for z in _target_candidates(x, y)
                     if z.n_blocks >= 2 and (y.n_blocks >= 2 or not y.cover <= z.cover))
