"""Mechanical checkers for unification, hierarchy, and monogamy conditions.

The conditions compare measure values across coarsening-related partition
pairs of a concrete state:

* unification: permutation invariance, additivity on product states, and
  monotonicity under block discards (strict for genuine families on
  genuinely entangled states);
* hierarchy: monotonicity under block merges;
* complete monogamy: whenever values coincide across a discard pair, the
  measure must vanish on every partition in the pair's target set;
* tight complete monogamy: the same with merge pairs.

Values on partitions covering a proper subset of the labels generally
require a convex roof; such comparisons carry the optimizer spread and are
flagged inconclusive when the decision margin is inside it.  A monotone or
monogamy comparison whose coarser side is mixed is first decided, where it
can be, on that side's eigen-ensemble upper bound, which needs no roof.

The module also hosts the registry of named example states and
``reproduce_case``, which recomputes every quantitative claim attached to
a case and reports expected against computed values.
"""

from __future__ import annotations

import logging
import math
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cache, cached_property, lru_cache, partial
from itertools import chain

import numpy as np

from .convexroof import convex_roof, wootters_concurrence
from .errors import StateError
from .measures import Family, MeasureSpec, _cut_table, _table_values, bipartition_subsets, measure_pure
from .partitions import (
    CoarseningKind,
    Partition,
    _canonical,
    _coarser_blocks,
    enumerate_coarsenings,
    format_partition,
    full_partition,
    parse_partition,
    xi_set,
)
from .qstate import DensityOperator, PureState, _pure_column, eigenvalues, partial_trace, regroup, tensor_product
from .redfun import HKind, ReducedFunctionSpec, h_spectrum

logger = logging.getLogger(__name__)

#: Roof settings of every partition value that needs a convex roof.
ROOF_OPTS = {"restarts": 3, "max_iters": 5}
#: Tolerance of the equality and monotone comparisons, and strictness margin
#: of genuine-family coarsening comparisons.
MONOTONE_TOL = 1e-9
#: Coincidence tolerance of the monogamy checks.
PURE_COINCIDENCE_TOL = 1e-7
#: Floor of a roofed monogamy pair's coincidence band, and the margin by which an exact E(x)
#: must exceed y's eigen-ensemble bound for the bound to decide the pair.
ROOFED_BAND_FLOOR = 1e-4
#: Note of a monotone comparison decided on y's eigen-ensemble upper bound.
EIGEN_BOUND_NOTE = "eigen-ensemble upper bound"


#: Dict keys of report fields that differ from the field name.
_KEYS = {"name": "claim", "passed": "pass"}


def _fields(report) -> dict:
    """A report's fields in order, ``passed`` keyed ``pass`` and a claim's ``name`` ``claim``."""
    return {_KEYS.get(f.name, f.name): getattr(report, f.name) for f in fields(report)}


class Condition(str, Enum):
    UNIFICATION = "unification"
    HIERARCHY = "hierarchy"
    COMPLETE_MONOGAMY = "complete-monogamy"
    TIGHT_COMPLETE_MONOGAMY = "tight-complete-monogamy"


@dataclass
class Comparison:
    """One tested relation between partition values (or a zero test)."""

    kind: str
    partition_x: str
    partition_y: str | None
    value_x: float
    value_y: float | None
    relation: str
    passed: bool
    inconclusive: bool = False
    roofed: bool = False
    spread: float = 0.0
    note: str | None = None

    def to_dict(self) -> dict:
        return _fields(self)


#: The :class:`Comparison` fields in order.
_FIELDS = tuple(f.name for f in fields(Comparison))


@dataclass(eq=False)
class _Take:
    """A column read lazily: row k is ``values[index[k]]``."""

    values: tuple
    index: np.ndarray


def _as_list(column) -> list:
    """A column as a list of Python values: a list as it is, an array or a take by ``tolist``."""
    if isinstance(column, _Take):
        return np.array(column.values, dtype=object)[column.index].tolist()
    return column.tolist() if isinstance(column, np.ndarray) else column


def _block(rows: list[tuple]) -> dict:
    """The column block of comparison rows, each a tuple of the :class:`Comparison` fields in order."""
    columns = [list(column) for column in zip(*rows)] or [[] for _ in _FIELDS]
    return dict(zip(_FIELDS, columns))


def _rows(*blocks: dict):
    """Each comparison of the column blocks, in order, as a tuple of its fields' Python values."""
    for block in blocks:
        yield from zip(*(_as_list(block[name]) for name in _FIELDS))


@dataclass(eq=False)
class CheckReport:
    """A check's outcome; its comparisons are held as column blocks and built only when read.

    ``columns`` holds one block per source of comparisons, in order: a dict
    from each :class:`Comparison` field to a list, an array or a
    :class:`_Take`.  ``verdict``, ``strictness_flags`` and :meth:`to_dict` read
    the columns; :attr:`comparisons` builds the objects on its first read.
    """

    condition: Condition
    state_id: str
    family: str
    h: str
    columns: tuple[dict, ...] = field(repr=False)
    verdict: str  # "pass" | "fail" | "inconclusive"
    notes: list[str] = field(default_factory=list)
    #: Partition-value counts of the run (:meth:`_Valuation.stats`); not in ``to_dict`` or ``==``.
    stats: dict = field(default_factory=dict)

    @cached_property
    def comparisons(self) -> list[Comparison]:
        """The comparisons as objects, built once, on the first read."""
        return [Comparison(*row) for row in _rows(*self.columns)]

    @property
    def strictness_flags(self) -> int:
        """Count of near-degenerate strictness coincidences (diagnostics)."""
        return sum(note is not None and "near-degenerate" in note
                   for block in self.columns for note in _as_list(block["note"]))

    def to_dict(self) -> dict:
        return {
            "condition": self.condition.value,
            "state": self.state_id,
            "family": self.family,
            "h": self.h,
            "comparisons": [
                {"kind": kind, "partition_x": px, "partition_y": py, "value_x": vx, "value_y": vy,
                 "relation": relation, "pass": passed, "inconclusive": inconclusive, "roofed": roofed,
                 "spread": spread, "note": note}
                for kind, px, py, vx, vy, relation, passed, inconclusive, roofed, spread, note
                in _rows(*self.columns)
            ],
            "verdict": self.verdict,
            "strictness_flags": self.strictness_flags,
            "notes": self.notes,
        }

    def __eq__(self, other) -> bool:
        """Reports are equal when their dicts are: every field and comparison, not ``stats``."""
        if not isinstance(other, CheckReport):
            return NotImplemented
        return self.to_dict() == other.to_dict()


def _verdict(columns: tuple[dict, ...]) -> str:
    passed, inconclusive = (np.concatenate([np.asarray(block[name], dtype=bool) for block in columns])
                            for name in ("passed", "inconclusive"))
    if (~passed & ~inconclusive).any():
        return "fail"
    if inconclusive.any():
        return "inconclusive"
    return "pass"


# ---------------------------------------------------------------------------
# Partition values with caching and roof fallback
# ---------------------------------------------------------------------------

#: The ``by_content`` maps of the open :func:`shared_values` block, by (spec, seed, state); None outside one.
_SHARED: ContextVar[dict | None] = ContextVar("entmono_verify_shared", default=None)


@contextmanager
def shared_values():
    """Share roofs between the checks run inside the block.

    Checks on the same spec, seed and state (by kind, dims and a digest of
    the bytes) then read one roofed value per regrouped marginal, so a
    marginal that two checks roof is roofed once, with the same bits as a
    fresh roof.  The values live only as long as the block; each check's
    ``stats`` still count its own lookups.
    """
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _content_key(state: PureState | DensityOperator) -> tuple:
    """All a value depends on besides spec and seed: kind, dims and a 32-byte digest of the bytes.

    A digest keeps the record keys small however large the marginals are.
    SHA-256 hashes about twice as fast as BLAKE2b on CPUs with SHA
    extensions.
    """
    import hashlib  # here, not at module level: its 2 ms import would fall on every CLI start

    pure = isinstance(state, PureState)
    data = np.ascontiguousarray(state.amplitudes if pure else state.matrix)
    return pure, state.dims, hashlib.sha256(data).digest()


@dataclass
class _Valuation:
    """Measure values over the partition lattice of one state.

    On a pure state each cover, the labels a partition spans, has one table
    in ``tables``, built the first time a partition on it is read: h of
    every cut of each member u_k of the eigen-ensemble sum_k w_k u_k u_k^dag
    of the state's marginal on the cover (:func:`measures._cut_table`).  A
    partition reads sum_k w_k E(u_k) from it, with no regroup: its value
    where the marginal is pure (u_0 alone, weight 1), else the eigen-ensemble
    upper bound (:meth:`bounds`).  ``records`` takes a partition's blocks to
    its (value, roofed, spread), filled at its first lookup.  Only a roof
    regroups: ``by_content`` takes the regrouped marginal's kind, dims and a
    digest of its bytes, all a roof depends on, to the roofed value, so
    relabellings of a symmetric state that regroup to the same operator bit
    for bit share one roof, and inside :func:`shared_values` so does every
    check on the same spec, seed and state.  No operator is kept.
    """

    spec: MeasureSpec
    state: PureState | DensityOperator
    seed: int = 0
    records: dict = field(default_factory=dict)
    by_content: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    pure_values: int = 0
    roofs: int = 0
    shared: int = 0
    cache_hits: int = 0
    bound_decided: int = 0
    roof_s: float = 0.0

    def __post_init__(self):
        scope = _SHARED.get()
        if scope is not None:
            self.by_content = scope.setdefault((self.spec, self.seed, _content_key(self.state)),
                                               self.by_content)

    def value(self, part: Partition) -> tuple[float, bool, float]:
        """Return (value, roofed, spread); single-block partitions are 0."""
        return self.values([part])[0]

    def values(self, parts: list[Partition]) -> list[tuple[float, bool, float]]:
        """(value, roofed, spread) of each partition, from its record, filled at its first lookup.

        The new partitions whose cover's marginal is pure are read from the
        tables in one batch; the other new ones are 0 (one block) or roofed.
        """
        records, read = self.records, []
        new = {p.blocks: p for p in parts if p.blocks not in records}
        self.cache_hits += len(parts) - len(new)
        pure = self._pure(new.values())
        for blocks, part in new.items():
            if part.n_blocks < 2:
                self.pure_values += 1
                records[blocks] = (0.0, False, 0.0)
            elif pure.get(part.cover):
                read.append(part)
            else:
                records[blocks] = self._roof(part)
        for part, value in zip(read, self._read(read).tolist() if read else ()):
            records[part.blocks] = (value, False, 0.0)
        self.pure_values += len(read)
        return [records[p.blocks] for p in parts]

    def bounds(self, parts: list[Partition]) -> np.ndarray:
        """The eigen-ensemble upper bound on each partition's value where its cover's marginal is
        mixed, read from the cover's table; NaN where the value is exact or the state mixed."""
        pure = self._pure(parts)
        mixed = [k for k, p in enumerate(parts) if pure.get(p.cover) is False and p.n_blocks > 1]
        out = np.full(len(parts), np.nan)
        out[mixed] = self._read([parts[k] for k in mixed])
        return out

    def stats(self) -> dict:
        """Lookups by outcome, bound decisions and roof wall seconds.

        Each lookup counts once: ``pure_values`` the table reads and
        single-block zeros, ``roofs`` the roofs run, ``shared`` the roofs
        another partition's regrouped marginal answered, and
        ``cache_hits`` the lookups the partition's own record answered;
        ``bound_decided`` counts the pairs an upper bound decided.
        """
        return {"pure_values": self.pure_values, "roofs": self.roofs, "shared": self.shared,
                "cache_hits": self.cache_hits, "bound_decided": self.bound_decided,
                "roof_s": self.roof_s}

    def _pure(self, parts) -> dict:
        """Whether the marginal on each cover of the partitions of 2+ blocks is pure
        (``qstate._pure_column``); empty on a mixed state, which no table reads."""
        if not isinstance(self.state, PureState):
            return {}
        covers = {p.cover for p in parts if p.n_blocks > 1}
        return {cover: _pure_column(self.state, cover) is not None for cover in covers}

    def _read(self, parts: list[Partition]) -> np.ndarray:
        """sum_k w_k E(u_k) of each partition (2+ blocks, a pure state) over its cover's table,
        each table built the first time it is read."""
        for cover in {p.cover for p in parts} - self.tables.keys():
            self.tables[cover] = _cut_table(self.spec.h, self.state, cover)
        return _table_values(self.spec.family, self.tables, parts)

    def _roof(self, part: Partition) -> tuple[float, bool, float]:
        """The roof of the partition's regrouped marginal, run once per content."""
        grouped = regroup(self.state, part)
        key = _content_key(grouped)
        value = self.by_content.get(key)
        if value is not None:
            self.shared += 1
            return value
        self.roofs += 1
        t0 = time.perf_counter()
        res = convex_roof(self.spec, grouped, seed=self.seed, **ROOF_OPTS)
        self.roof_s += time.perf_counter() - t0
        value = self.by_content[key] = (res.value, True, res.spread)
        return value


def partition_value(
    spec: MeasureSpec, state: PureState | DensityOperator, part: Partition, seed: int = 0,
) -> tuple[float, bool, float]:
    """Measure value along a partition: pure path when possible, else roof.

    Returns ``(value, roofed, spread)``.  A partition of 2+ blocks that
    covers every label of a pure state is :func:`measure_pure` along it,
    which diagonalizes that partition's own cuts only.
    """
    if isinstance(state, PureState) and part.n_blocks > 1 and len(part.cover) == len(state.labels):
        return measure_pure(spec, state, part), False, 0.0
    return _Valuation(spec, state, seed).value(part)


def is_genuinely_entangled(state: PureState) -> bool:
    """Pure-state test: positive tangle across every bipartition."""
    spec = MeasureSpec(Family.GMIN_BIPART, ReducedFunctionSpec(HKind.TANGLE))
    return measure_pure(spec, state) > MONOTONE_TOL


@lru_cache(maxsize=16)  # an 8-label index holds up to ~160k pairs: bounded, so many label sets cannot grow it
def _pair_index(labels: tuple[str, ...], kind: CoarseningKind,
                ) -> tuple[tuple[Partition, ...], tuple[str, ...], np.ndarray, np.ndarray]:
    """The coarsening pairs to test, built once per label set and move.

    On up to three labels every x of two or more blocks is tested; on more,
    only the x that cover all labels (the finest partition and its block
    merges).  Each x's coarsenings are read off its blocks
    (:func:`_coarser_blocks`) and interned by blocks, so each lattice point
    is one :class:`Partition`, formatted once.  Returns the points of the
    pairs in lattice order (larger cover, then fewer blocks, then name),
    their names, and read-only ``intp`` arrays ``xi``, ``yi``: pair k is
    ``(points[xi[k]], points[yi[k]])``, the pairs ordered by x, then y.
    """
    finest = full_partition(labels)
    merges = CoarseningKind.ANY if len(labels) <= 3 else CoarseningKind.COMBINE_BLOCKS
    xs = [x for x in (finest, *enumerate_coarsenings(finest, merges)) if x.n_blocks > 1]
    points, index, xi, yi = list(xs), {x.blocks: i for i, x in enumerate(xs)}, [], []
    for i, x in enumerate(xs):
        for blocks in _coarser_blocks(x, kind):
            j = index.get(blocks)
            if j is None:
                j = index[blocks] = len(points)
                points.append(_canonical(blocks, finest.universe, frozenset(chain(*blocks))))
            xi.append(i)
            yi.append(j)
    names = [format_partition(p) for p in points]
    order = sorted(range(len(points)), key=lambda i: (-len(points[i].cover), points[i].n_blocks, names[i]))
    rank = np.empty(len(points), np.intp)
    rank[order] = np.arange(len(points))
    xi, yi = rank[xi], rank[yi]
    k = np.lexsort((yi, xi))
    xi, yi = xi[k], yi[k]
    for arr in (xi, yi):
        arr.setflags(write=False)
    return tuple(points[i] for i in order), tuple(names[i] for i in order), xi, yi


def _screen(valuation: _Valuation, move: CoarseningKind, decides):
    """Every pair of the cached :func:`_pair_index`, valued as arrays, bound first.

    Every x is looked up.  Then each y of a pair with an exact x that no
    lookup has valued has its eigen-ensemble upper bound read, in one batch:
    the true E(y) lies at or below it.  ``decides(margin)`` marks the pairs
    that E(x) − bound settles, with no roof; they count in
    ``bound_decided``.  Each y that an undecided pair needs is then looked
    up once.  NaN marks a point not yet valued, and a y with no bound, which
    decides no pair.  Returns the index's points, names, ``xi`` and ``yi``,
    and per pair E(x), E(y), the decided mask, the roofed flag and the
    summed spread; a decided pair reads y's bound as E(y), unroofed and
    with no spread.
    """
    points, names, xi, yi = _pair_index(valuation.state.labels, move)
    n = len(points)
    val, roofed, spread, hi = np.full(n, np.nan), np.zeros(n, dtype=bool), np.zeros(n), np.full(n, np.nan)

    def unvalued(ids) -> np.ndarray:
        return np.flatnonzero(np.bincount(ids, minlength=n).astype(bool) & np.isnan(val))

    def fill(ids) -> None:
        ids = unvalued(ids)
        out = valuation.values([points[i] for i in ids.tolist()])
        if out:
            val[ids], roofed[ids], spread[ids] = zip(*out)

    fill(xi)
    rx = roofed[xi]
    ys = unvalued(yi[~rx])
    hi[ys] = valuation.bounds([points[i] for i in ys.tolist()])
    decided = ~rx & decides(val[xi] - hi[yi])
    valuation.bound_decided += int(decided.sum())
    fill(yi[~decided])
    return (points, names, xi, yi, val[xi], np.where(decided, hi[yi], val[yi]), decided,
            (rx | roofed[yi]) & ~decided, np.where(decided, 0.0, spread[xi] + spread[yi]))


def _report(condition: Condition, valuation: _Valuation, columns: tuple[dict, ...],
            notes: list[str]) -> CheckReport:
    spec, labels = valuation.spec, valuation.state.labels
    stats = valuation.stats()
    logger.debug("%s %s/%s on %s: %s", condition.value, spec.family.value, spec.h.name,
                 "".join(labels), stats)
    return CheckReport(condition, "".join(labels), spec.family.value, spec.h.name,
                       columns, _verdict(columns), notes, stats)


#: The notes of a monotone comparison, by code: none, bound-decided, near-degenerate.
_MONOTONE_NOTES = (None, EIGEN_BOUND_NOTE, "near-degenerate strictness")


def _monotone(kind: str, move: CoarseningKind, valuation: _Valuation, strict: bool) -> dict:
    """Compare the value on each x with the value on each coarsening y of x by ``move``.

    A pair passes when the value does not rise beyond the slack: MONOTONE_TOL,
    or three optimizer spreads when a value is roofed.  A strict pair must
    fall by more than MONOTONE_TOL instead.  It is skipped when both values
    vanish (the marginal is not genuinely entangled), passes with a note when
    the gap is within MONOTONE_TOL, and is inconclusive when a roofed
    shortfall lies within the slack.  A pair that y's eigen-ensemble bound
    passes (:func:`_screen`) would pass for any roof at or below the bound,
    with the same flags; it prints the bound, unroofed, with the bound's
    note.  Returns the comparisons' column block: arrays, and takes of the
    index's names and of the notes.
    """
    decides = (lambda margin: margin > MONOTONE_TOL) if strict else (lambda margin: margin >= -MONOTONE_TOL)
    _, names, xi, yi, vx, vy, decided, roofed, spread = _screen(valuation, move, decides)
    gap = vx - vy
    slack = np.maximum(MONOTONE_TOL, np.where(roofed, 3 * spread, 0.0))
    if strict:
        near = np.abs(gap) <= MONOTONE_TOL
        passed = (gap > MONOTONE_TOL) | near
        keep = decided | (vx > MONOTONE_TOL) | (vy > MONOTONE_TOL)  # skip pairs whose values vanish
    else:
        near = np.zeros(len(xi), dtype=bool)
        passed = gap >= -slack
        keep = np.ones(len(xi), dtype=bool)
    k = np.flatnonzero(keep)
    same = np.zeros(len(k), dtype=np.intp)
    return {"kind": _Take((kind,), same), "partition_x": _Take(names, xi[k]), "partition_y": _Take(names, yi[k]),
            "value_x": vx[k], "value_y": vy[k], "relation": _Take((">" if strict else ">=",), same),
            "passed": passed[k], "inconclusive": (strict & roofed & ~passed & (gap > -slack))[k],
            "roofed": roofed[k], "spread": spread[k],
            "note": _Take(_MONOTONE_NOTES, np.where(decided, 1, np.where(near, 2, 0))[k])}


# ---------------------------------------------------------------------------
# Condition checkers
# ---------------------------------------------------------------------------

def check_unification(spec: MeasureSpec, state: PureState, seed: int = 0) -> CheckReport:
    """Permutation invariance, additivity, and discard-monotonicity.

    For genuine families the discard comparisons demand strict decrease on
    genuinely entangled states; near-degenerate pairs (gap below the strict
    margin) pass with a note rather than fail.
    """
    rows: list[tuple] = []
    notes: list[str] = []
    valuation = _Valuation(spec, state, seed)
    full = full_partition(state.labels)
    base, _, _ = valuation.value(full)
    name = format_partition(full)

    # Permutation invariance: evaluate with physically permuted subsystems.
    rng = np.random.default_rng(seed)
    for _ in range(2):
        perm = rng.permutation(len(state.labels))
        t = state.tensor().transpose(perm)
        permuted = PureState(
            [state.labels[i] for i in perm], [state.dims[i] for i in perm], t.reshape(-1)
        )
        v = measure_pure(spec, permuted)
        rows.append(("permutation", name, "".join(state.labels[i] for i in perm), base, v, "==",
                     abs(v - base) <= MONOTONE_TOL, False, False, 0.0, None))

    # Additivity across factorizing bipartitions (plain families only; the
    # genuine-family unification condition does not include it).
    if not spec.genuine:
        found = False
        for sub in bipartition_subsets(len(state.labels)):
            if _pure_column(state, frozenset(state.labels[i] for i in sub)) is None:
                continue  # the marginal on one side is mixed: no product across this cut
            found = True
            left = [state.labels[i] for i in sub]
            right = [lab for lab in state.labels if lab not in left]
            # A single-label side carries no entanglement: its value is 0.
            total = math.fsum(valuation.value(full_partition(side))[0] for side in (left, right))
            rows.append(("additivity", name, "|".join(["".join(left), "".join(right)]), base, total, "==",
                         abs(base - total) <= MONOTONE_TOL, False, False, 0.0, None))
        if not found:
            notes.append("additivity not applicable: no factorizing bipartition")

    strict = spec.genuine and is_genuinely_entangled(state)
    discards = _monotone("coarsening-a", CoarseningKind.DISCARD_BLOCKS, valuation, strict)
    return _report(Condition.UNIFICATION, valuation, (_block(rows), discards), notes)


def check_hierarchy(spec: MeasureSpec, state: PureState, seed: int = 0) -> CheckReport:
    """Monotonicity under block merges (the tight coarsening condition)."""
    valuation = _Valuation(spec, state, seed)
    merges = _monotone("coarsening-b", CoarseningKind.COMBINE_BLOCKS, valuation, strict=False)
    return _report(Condition.HIERARCHY, valuation, (merges,), [])


def _monogamy_check(condition: Condition, move: CoarseningKind, spec: MeasureSpec,
                    state: PureState, seed: int) -> CheckReport:
    """Screen every pair's coincidence band on arrays; walk the coincident pairs into ``xi_set``.

    A pair whose exact E(x) exceeds y's eigen-ensemble bound by more than
    the roofed band's floor neither coincides nor rises, as the true E(y)
    lies at or below the bound (:func:`_screen`); it gives no comparison.
    The ordering and disentangling comparisons are rows of one column block.
    """
    rows: list[tuple] = []
    valuation = _Valuation(spec, state, seed)
    # Genuine families demand strict decrease on genuinely entangled states;
    # an ordering violation breaks both branches of their tight condition.
    strict = spec.genuine and is_genuinely_entangled(state)
    points, names, xi, yi, vx, vy, _, pair_roofed, pair_spread = _screen(
        valuation, move, lambda margin: margin > ROOFED_BAND_FLOOR)
    band = np.maximum(np.where(pair_roofed, ROOFED_BAND_FLOOR, PURE_COINCIDENCE_TOL), 3 * pair_spread)
    gap = vx - vy  # a decided pair's exceeds the floor: it neither rises nor coincides
    rises = gap < -band
    coincide = ~rises & (gap <= band) & ((vx > band) | (vy > band))  # not a coincidence of vanishing values
    target_name = cache(format_partition)  # xi_set builds its targets anew for each pair
    for k in np.flatnonzero(rises & strict | coincide).tolist():
        x, y, nx, ny = points[xi[k]], points[yi[k]], names[xi[k]], names[yi[k]]
        wx, wy, rf, sp = float(vx[k]), float(vy[k]), bool(pair_roofed[k]), float(pair_spread[k])
        if rises[k]:
            rows.append(("ordering", nx, ny, wx, wy, ">", False, False, rf, sp,
                         "value increases under coarsening; both branches of the genuine condition fail"))
            continue
        for gamma in sorted(xi_set(x, y), key=target_name):
            vg, rg, sg = valuation.value(gamma)
            # Optimizer scatter can only make a roofed zero test inconclusive.
            ok = vg <= PURE_COINCIDENCE_TOL
            inconclusive = (not ok) and rg and vg <= PURE_COINCIDENCE_TOL + 3 * sg
            rows.append(("disentangling", f"{nx}~{ny}", target_name(gamma), wx, vg, "gamma==0", ok,
                         inconclusive, rf or rg, sp + sg, f"coincidence {wx:.6g} ~ {wy:.6g}"))
    notes = [] if rows else ["no value coincidence across tested pairs; condition holds vacuously"]
    return _report(condition, valuation, (_block(rows),), notes)


def check_complete_monogamy(spec: MeasureSpec, state: PureState, seed: int = 0) -> CheckReport:
    """Zero targets must vanish whenever values coincide across a discard pair."""
    return _monogamy_check(Condition.COMPLETE_MONOGAMY, CoarseningKind.DISCARD_BLOCKS,
                           spec, state, seed)


def check_tight_complete_monogamy(spec: MeasureSpec, state: PureState,
                                  seed: int = 0) -> CheckReport:
    """Zero targets must vanish whenever values coincide across a merge pair."""
    return _monogamy_check(Condition.TIGHT_COMPLETE_MONOGAMY, CoarseningKind.COMBINE_BLOCKS,
                           spec, state, seed)


# ---------------------------------------------------------------------------
# Registry of named example states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PaperState:
    """A named example state."""

    name: str
    state: PureState | DensityOperator
    description: str


def _ket(labels: str, dims: tuple[int, ...], terms: dict[tuple[int, ...], float]) -> PureState:
    vec = np.zeros(math.prod(dims), dtype=complex)
    for idx, amp in terms.items():
        k = 0
        for i, d in zip(idx, dims):
            k = k * d + i
        vec[k] = amp
    return PureState(tuple(labels), dims, vec)


def make_w_state(n: int = 4) -> PureState:
    labels = "ABCDEFGH"[:n]
    amp = 1.0 / math.sqrt(n)
    terms = {}
    for i in range(n):
        idx = [0] * n
        idx[i] = 1
        terms[tuple(idx)] = amp
    return _ket(labels, (2,) * n, terms)


def make_ghz(d: int = 2, n: int = 3, weights: tuple[float, ...] | None = None) -> PureState:
    """Generalized GHZ: sum_k sqrt(w_k) |k...k> on n qudits of dimension d."""
    labels = "ABCDEFGH"[:n]
    if weights is None:
        weights = tuple(1.0 / d for _ in range(d))
    if len(weights) != d or abs(math.fsum(weights) - 1.0) > 1e-12 or min(weights) < 0:
        raise StateError("weights must be a probability vector of length d")
    terms = {tuple([k] * n): math.sqrt(weights[k]) for k in range(d) if weights[k] > 0}
    return _ket(labels, (d,) * n, terms)


def make_ghz_class(t: float) -> PureState:
    """sqrt(t)|000> + sqrt(1-t)|111>."""
    return make_ghz(2, 3, (t, 1.0 - t))


def make_w_class(p: float, q: float) -> PureState:
    """sqrt(p)|100> + sqrt(q)|010> + sqrt(1-p-q)|001>."""
    r = 1.0 - p - q
    if min(p, q, r) <= 0:
        raise StateError("w-class weights must be strictly positive")
    return _ket("ABC", (2, 2, 2), {(1, 0, 0): math.sqrt(p), (0, 1, 0): math.sqrt(q),
                                   (0, 0, 1): math.sqrt(r)})


def make_xi() -> PureState:
    s = math.sqrt(5) / 4
    return _ket("ABCD", (2, 2, 2, 2),
                {(0, 0, 0, 0): s, (1, 1, 1, 1): 0.25, (0, 1, 0, 0): s, (1, 0, 1, 0): s})


def make_varphi() -> PureState:
    s = math.sqrt(5) / 4
    return _ket("ABCD", (2, 2, 2, 2),
                {(0, 0, 0, 0): s, (1, 1, 1, 1): s, (0, 1, 0, 0): 0.25, (1, 0, 1, 0): s})


def make_phi_eg() -> PureState:
    a = 1.0 / math.sqrt(3)
    return _ket("ABC", (2, 2, 2), {(0, 0, 0): a, (1, 0, 1): a, (1, 1, 0): a})


def make_zeta() -> PureState:
    return _ket("ABC", (2, 2, 2), {(0, 0, 0): math.sqrt(5 / 12), (1, 0, 1): math.sqrt(1 / 3),
                                   (1, 1, 0): math.sqrt(1 / 4)})


def make_omega(variant: str = "i") -> PureState:
    """lam0|000> + lam2|101> + lam3|110> + lam4|111> with one of lam2, lam3 zero."""
    l0 = math.sqrt(7) / 3
    if variant == "i":
        terms = {(0, 0, 0): l0, (1, 1, 0): 1 / 3, (1, 1, 1): 1 / 3}
    elif variant == "ii":
        terms = {(0, 0, 0): l0, (1, 0, 1): 1 / 3, (1, 1, 1): 1 / 3}
    else:
        raise StateError(f"unknown omega variant {variant!r}")
    return _ket("ABC", (2, 2, 2), terms)


def make_eta() -> PureState:
    """Two entangled pairs in a line: the middle party holds one half of each.

    Factors are c|00> + sqrt(1-c^2)|11> on (A, B1) with c = 0.8 and on
    (B2, C) with c = 0.6; B = B1 B2 has dimension 4 indexed as 2*b1 + b2.
    """
    c1, c2 = 0.8, 0.6
    s1 = math.sqrt(1 - c1 * c1)
    s2 = math.sqrt(1 - c2 * c2)
    terms = {}
    for (a, b1, amp1) in ((0, 0, c1), (1, 1, s1)):
        for (b2, c, amp2) in ((0, 0, c2), (1, 1, s2)):
            terms[(a, 2 * b1 + b2, c)] = amp1 * amp2
    return _ket("ABC", (2, 4, 2), terms)


def make_product_pair() -> PureState:
    bell_ab = _ket("AB", (2, 2), {(0, 0): 1 / math.sqrt(2), (1, 1): 1 / math.sqrt(2)})
    bell_cd = _ket("CD", (2, 2), {(0, 0): 1 / math.sqrt(2), (1, 1): 1 / math.sqrt(2)})
    return tensor_product(bell_ab, bell_cd)


#: Registry name -> (the function that makes its state, description), in registry order.
_REGISTRY = {
    "w4": (partial(make_w_state, 4), "four-qubit W state"),
    "w3": (partial(make_w_state, 3), "three-qubit W state"),
    "xi": (make_xi, "four-qubit state with amplitudes sqrt5/4, 1/4, sqrt5/4, sqrt5/4"),
    "varphi": (make_varphi, "four-qubit state with amplitudes sqrt5/4, sqrt5/4, 1/4, sqrt5/4"),
    "phi-eg2": (make_phi_eg, "(|000>+|101>+|110>)/sqrt3"),
    "zeta": (make_zeta, "lam0|000> + lam2|101> + lam3|110>"),
    "omega-i": (partial(make_omega, "i"), "lam0|000> + lam3|110> + lam4|111>"),
    "omega-ii": (partial(make_omega, "ii"), "lam0|000> + lam2|101> + lam4|111>"),
    "eta": (make_eta, "product of two entangled pairs sharing the middle party"),
    "ghz3": (partial(make_ghz, 2, 3), "uniform three-qubit GHZ"),
    "bell-pair-product": (make_product_pair, "Bell x Bell on ABCD"),
}


def registry() -> dict[str, PaperState]:
    """All named example states."""
    return {name: PaperState(name, make(), text) for name, (make, text) in _REGISTRY.items()}


# ---------------------------------------------------------------------------
# Case reproduction
# ---------------------------------------------------------------------------

@dataclass
class Claim:
    name: str
    expected: float | None
    computed: float
    tol: float
    passed: bool
    provenance: str = "stated"  # "stated" | "derived" | "stated-inconsistent"
    note: str | None = None

    def to_dict(self) -> dict:
        return _fields(self)


def _claim(name, expected, computed, tol, provenance="stated", note=None, above=None) -> Claim:
    """Pass within ``tol`` of ``expected``, or, with no ``expected``, strictly above ``above``."""
    ok = computed > above if expected is None else abs(computed - expected) <= tol
    return Claim(name, expected, float(computed), tol, bool(ok), provenance, note)


def _exceeds(name: str, computed: float, margin: float, note: str | None = None) -> tuple:
    """Row of a derived strict inequality, ``computed > margin``, printed with tol 0."""
    return (name, None, computed, 0.0, "derived", note, margin)


def _spec(family: Family, kind: HKind) -> MeasureSpec:
    return MeasureSpec(family, ReducedFunctionSpec(kind))


def _at_cut(kind: HKind, st: PureState, cut: str) -> float:
    """Value of max/``kind`` on ``st`` along a named cut such as ``"AB|CD"``."""
    return measure_pure(_spec(Family.MAX, kind), st, parse_partition(cut, st.labels))


def _spectrum(st: PureState, labels: str) -> np.ndarray:
    """Descending spectrum of the marginal of ``st`` on ``labels``."""
    return eigenvalues(partial_trace(st, list(labels))).eigenvalues


def _wootters(st: PureState, pair: str) -> float:
    """Wootters concurrence of the two-qubit marginal of ``st`` on ``pair``."""
    return wootters_concurrence(partial_trace(st, list(pair)))


def _roof(kind: HKind, op: DensityOperator, seed: int) -> float:
    """Convex-roof value of max/``kind`` on a mixed marginal, one block per label."""
    spec = _spec(Family.MAX, kind)
    return partition_value(spec, op, full_partition(op.labels), seed)[0]


# Each case maps (state, seed) to its claim rows:
# (name, expected, computed, tol[, provenance[, note]]), or an _exceeds row.

def _xi_rows(st, seed):
    gme = measure_pure(_spec(Family.GMIN_BIPART, HKind.CONCURRENCE), st)
    rho_bd = partial_trace(st, ["B", "D"])
    w_bd = wootters_concurrence(rho_bd)
    yield ("gmin-bipart/concurrence", math.sqrt(15) / 8, gme, 1e-9)
    yield ("concurrence at cut ABC|D", math.sqrt(15) / 8,
           _at_cut(HKind.CONCURRENCE, st, "ABC|D"), 1e-9)
    yield ("concurrence at cut AB|CD", math.sqrt(65) / 8,
           _at_cut(HKind.CONCURRENCE, st, "AB|CD"), 1e-9)
    yield ("wootters C(rho_BD)", 0.839, w_bd, 5e-3, "stated-inconsistent",
           "printed value is not reproducible; the closed form and the "
           "roof optimizer agree on sqrt(5)/8")
    yield ("roof C(rho_BD) - wootters", 0.0,
           _roof(HKind.CONCURRENCE, rho_bd, seed) - w_bd, 1e-3, "derived")
    yield _exceeds("wootters C(rho_AC) exceeds gmin-bipart value", _wootters(st, "AC") - gme, 0.0,
                   note="positive gap shows a two-party marginal concurrence above "
                        "the all-cut minimum")


def _omega_rows(pair: str, mirror: str, st, seed):
    """Omega states: ``pair`` is the entangled two-party marginal, ``mirror`` its mirror cut."""
    yield ("gmin-bipart/concurrence", 0.5879,
           measure_pure(_spec(Family.GMIN_BIPART, HKind.CONCURRENCE), st), 5e-4)
    yield ("concurrence at cut A|BC", 0.8315, _at_cut(HKind.CONCURRENCE, st, "A|BC"), 5e-4)
    yield (f"concurrence at cut {mirror}", 0.8315, _at_cut(HKind.CONCURRENCE, st, mirror), 5e-4)
    yield (f"wootters C(rho_{pair})", 0.8090, _wootters(st, pair), 5e-4, "stated-inconsistent",
           "printed value is not reproducible; closed form gives "
           "2*sqrt(7)/9, confirmed by the roof optimizer")
    for other in ("AB", "AC", "BC"):
        if other != pair:
            yield (f"wootters C(rho_{other}) separable", 0.0, _wootters(st, other), 1e-9)


def _zeta_rows(st, seed):
    yield ("gmin/pnorm2", 0.25, measure_pure(_spec(Family.GMIN, HKind.PNORM2), st), 1e-12)
    yield ("pnorm2 at cut A|BC", 5 / 12, _at_cut(HKind.PNORM2, st, "A|BC"), 1e-12)
    yield ("pnorm2 at cut AB|C", 1 / 3, _at_cut(HKind.PNORM2, st, "AB|C"), 1e-12)


def _phi_eg2_rows(st, seed):
    for lab in "ABC":
        yield (f"rho_{lab} top eigenvalue", 2 / 3, _spectrum(st, lab)[0], 1e-12)
    for cut in ("A|BC", "AB|C", "B|AC"):
        yield (f"pnorm2 at cut {cut}", 1 / 3, _at_cut(HKind.PNORM2, st, cut), 1e-12)
    for pair in ("AB", "AC", "BC"):
        op = partial_trace(st, list(pair))
        yield (f"pnorm2 of marginal rho_{pair}", 1 / 3,
               h_spectrum(ReducedFunctionSpec(HKind.PNORM2), eigenvalues(op).eigenvalues), 1e-12,
               "derived", "reduced function of the mixed marginal")
        yield (f"roof max/pnorm2 on rho_{pair}", 1 / 3, _roof(HKind.PNORM2, op, seed),
               1e-3, "stated-inconsistent",
               "the roof lies below the marginal value: an explicit "
               "two-member decomposition averages (3-sqrt5)/6")


def _varphi_rows(st, seed):
    eig_a = _spectrum(st, "A")
    yield ("rho_A spectrum [5/8, 3/8] (top)", 5 / 8, eig_a[0], 1e-12)
    yield ("rho_A spectrum [5/8, 3/8] (bottom)", 3 / 8, eig_a[1], 1e-12)
    eig_ab = _spectrum(st, "AB")
    for i, ev in enumerate([3 / 8, 5 / 16, 5 / 16]):
        yield (f"rho_AB eigenvalue {i}", ev, eig_ab[i], 1e-12)
    hmin_spec = ReducedFunctionSpec(HKind.PNORM_MIN)
    hneg_spec = ReducedFunctionSpec(HKind.PNEGATIVITY)
    yield ("min-norm of stated single-party spectrum", 3 / 8,
           h_spectrum(hmin_spec, [5 / 8, 3 / 8]), 1e-12)
    yield ("min-norm of stated two-party spectrum", 5 / 16,
           h_spectrum(hmin_spec, [3 / 8, 5 / 16, 5 / 16]), 1e-12)
    yield ("pnegativity of stated single-party spectrum", math.sqrt(15) / 8,
           h_spectrum(hneg_spec, [5 / 8, 3 / 8]), 1e-12)
    yield ("pnegativity of stated two-party spectrum", math.sqrt(15) / (8 * math.sqrt(2)),
           h_spectrum(hneg_spec, [3 / 8, 5 / 16, 5 / 16]), 1e-12)
    gmin_min = measure_pure(_spec(Family.GMIN, HKind.PNORM_MIN), st)
    gminb_min = measure_pure(_spec(Family.GMIN_BIPART, HKind.PNORM_MIN), st)
    yield ("gmin/pnorm-min", 3 / 8, gmin_min, 1e-12, "stated-inconsistent",
           "rho_D has spectrum {11/16, 5/16}, so the single-party "
           "minimum is 5/16, not 3/8")
    yield ("gmin-bipart/pnorm-min", 5 / 16, gminb_min, 1e-12, "stated-inconsistent",
           "the AC|BD cut has smallest nonzero eigenvalue "
           "(8-sqrt29)/16, below 5/16")
    yield _exceeds("gmin-bipart strictly below gmin (pnorm-min)", gmin_min - gminb_min, 1e-9)
    yield ("gmin-bipart/pnegativity", math.sqrt(15) / (8 * math.sqrt(2)),
           measure_pure(_spec(Family.GMIN_BIPART, HKind.PNEGATIVITY), st), 1e-12)


def _w4_rows(st, seed):
    yield ("rho_A top eigenvalue", 3 / 4, _spectrum(st, "A")[0], 1e-12)
    yield ("rho_AB nonzero spectrum uniform", 0.5, _spectrum(st, "AB")[0], 1e-12)
    vx = measure_pure(_spec(Family.MAX, HKind.TANGLE), st)
    vy = _at_cut(HKind.TANGLE, st, "AB|CD")
    yield ("max/tangle on A|B|C|D", 3 / 4, vx, 1e-12)
    yield ("max/tangle on AB|CD", 1.0, vy, 1e-12)
    yield _exceeds("merge-monotonicity violation margin", vy - vx, 1e-6)


def _ghz_relation_rows(st, seed):
    worst = 0.0
    h = ReducedFunctionSpec(HKind.TANGLE)
    for d in (2, 3):
        for n in (3, 4):
            for t in np.linspace(0.05, 0.95, 7):
                weights = [t] + [(1 - t) / (d - 1)] * (d - 1)
                ghz = make_ghz(d, n, tuple(weights))
                gmin = measure_pure(MeasureSpec(Family.GMIN, h), ghz)
                gmax = measure_pure(MeasureSpec(Family.GMAX, h), ghz)
                gsum = measure_pure(MeasureSpec(Family.GSUM, h), ghz)
                gminb = measure_pure(MeasureSpec(Family.GMIN_BIPART, h), ghz)
                worst = max(worst, abs(n * gmin - 2 * gsum), abs(n * gmax - 2 * gsum),
                            abs(gmin - gminb))
    yield ("n*gmin = n*gmax = 2*gsum = n*gmin-bipart (worst gap)", 0.0, worst, 1e-9)


def _eta_rows(st, seed):
    spec_t = _spec(Family.MAX, HKind.TANGLE)
    yield ("max/tangle coincidence across the middle split", 0.0,
           measure_pure(spec_t, st) - _at_cut(HKind.TANGLE, st, "AC|B"), 1e-12, "derived")
    rep = check_tight_complete_monogamy(spec_t, st, seed=seed)
    yield ("tight monogamy verdict for strictly concave kind (1=pass)",
           1.0, 1.0 if rep.verdict == "pass" else 0.0, 0.0, "derived",
           "the product-pair form admits tight monogamy for strictly "
           "concave reduced functions")
    rep2 = check_complete_monogamy(_spec(Family.MAX, HKind.PNORM_MIN), st, seed=seed)
    yield ("complete monogamy fails for min-norm kind (1=fail)",
           1.0, 1.0 if rep2.verdict == "fail" else 0.0, 0.0)


def _w3_rows(st, seed):
    yield ("wootters C(rho_AB)", 2 / 3, _wootters(st, "AB"), 1e-9, "derived")
    rep = check_tight_complete_monogamy(_spec(Family.MAX, HKind.TANGLE), st, seed=seed)
    yield ("tight monogamy fails for max family (1=fail)", 1.0,
           1.0 if rep.verdict == "fail" else 0.0, 0.0, "derived",
           "all discards coincide while two-party marginals stay entangled")


def _bell_product_rows(st, seed):
    yield ("sum/tangle additivity on Bell x Bell", 2.0,
           measure_pure(_spec(Family.SUM, HKind.TANGLE), st), 1e-12)
    ghz_prod = tensor_product(make_ghz(2, 3), _ket("D", (2,), {(0,): 1.0}))
    for fam in (Family.GSUM, Family.GMAX, Family.GMIN, Family.GMIN_BIPART):
        yield (f"{fam.value}/tangle on GHZ3 x |0>", 0.0,
               measure_pure(_spec(fam, HKind.TANGLE), ghz_prod), 0.0)


#: Case name -> (registry state, or None, and the case's rows), in suite order.
_CASES = {
    "xi": ("xi", _xi_rows),
    "varphi": ("varphi", _varphi_rows),
    "phi-eg2": ("phi-eg2", _phi_eg2_rows),
    "zeta": ("zeta", _zeta_rows),
    "omega-i": ("omega-i", partial(_omega_rows, "AB", "B|AC")),
    "omega-ii": ("omega-ii", partial(_omega_rows, "AC", "C|AB")),
    "w4": ("w4", _w4_rows),
    "w3": ("w3", _w3_rows),
    "eta": ("eta", _eta_rows),
    "ghz-relation": (None, _ghz_relation_rows),
    "bell-product": ("bell-pair-product", _bell_product_rows),
}

CASES = tuple(_CASES)


def reproduce_case(name: str, seed: int = 0) -> dict:
    """Recompute every quantitative claim attached to a named case.

    Claims whose stated source value is inconsistent with the printed state
    carry provenance ``stated-inconsistent``; they are reported but do not
    count as hard failures.
    """
    if name not in _CASES:
        raise KeyError(f"unknown case {name!r}")
    state_name, rows = _CASES[name]
    state = _REGISTRY[state_name][0]() if state_name else None
    claims = [_claim(*row) for row in rows(state, seed)]
    hard = [c for c in claims if c.provenance != "stated-inconsistent"]
    return {
        "case": name,
        "claims": [c.to_dict() for c in claims],
        "pass": all(c.passed for c in hard),
        "inconsistent_stated_values": [c.name for c in claims
                                       if c.provenance == "stated-inconsistent" and not c.passed],
    }


# ---------------------------------------------------------------------------
# Expectation table for the conditions suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionCase:
    """One cell of the conditions matrix with its expectation."""

    condition: Condition
    family: Family
    h: HKind
    state: str
    expected: str  # "pass" | "fail" | "flagged" (pass with strictness diagnostics)
    provenance: str  # "asserted" | "conjectured" | "derived"

    def matches(self, report: CheckReport) -> bool:
        if self.expected == "flagged":
            return report.verdict == "pass" and report.strictness_flags > 0
        return report.verdict == self.expected


CONDITION_CASES: tuple[ConditionCase, ...] = (
    ConditionCase(Condition.HIERARCHY, Family.MAX, HKind.TANGLE, "w4", "fail", "asserted"),
    ConditionCase(Condition.HIERARCHY, Family.SUM, HKind.TANGLE, "w4", "pass", "asserted"),
    ConditionCase(Condition.HIERARCHY, Family.SUM_BIPART, HKind.TANGLE, "w4", "pass", "asserted"),
    ConditionCase(Condition.HIERARCHY, Family.MAX_BIPART, HKind.TANGLE, "w4", "pass", "asserted"),
    ConditionCase(Condition.HIERARCHY, Family.GMIN_BIPART, HKind.CONCURRENCE, "xi", "fail",
                  "asserted"),
    ConditionCase(Condition.HIERARCHY, Family.GMIN, HKind.PNORM2, "zeta", "fail", "asserted"),
    ConditionCase(Condition.UNIFICATION, Family.SUM, HKind.TANGLE, "w4", "pass", "asserted"),
    ConditionCase(Condition.UNIFICATION, Family.MAX, HKind.TANGLE, "w4", "pass", "asserted"),
    ConditionCase(Condition.UNIFICATION, Family.GMAX, HKind.PNORM_MIN, "eta", "flagged",
                  "asserted"),
    ConditionCase(Condition.COMPLETE_MONOGAMY, Family.SUM, HKind.TANGLE, "phi-eg2", "pass",
                  "asserted"),
    ConditionCase(Condition.COMPLETE_MONOGAMY, Family.MAX, HKind.PNORM_MIN, "eta", "fail",
                  "asserted"),
    ConditionCase(Condition.TIGHT_COMPLETE_MONOGAMY, Family.MAX, HKind.PNORM2, "phi-eg2",
                  "fail", "asserted"),
    ConditionCase(Condition.TIGHT_COMPLETE_MONOGAMY, Family.MAX, HKind.TANGLE, "w3", "fail",
                  "derived"),
    ConditionCase(Condition.TIGHT_COMPLETE_MONOGAMY, Family.MAX, HKind.TANGLE, "eta", "pass",
                  "derived"),
    ConditionCase(Condition.TIGHT_COMPLETE_MONOGAMY, Family.GMIN, HKind.PNORM2, "zeta", "fail",
                  "asserted"),
)


def run_condition_case(case: ConditionCase, seed: int = 0) -> CheckReport:
    """Run one cell of the conditions matrix; the report names the registry state."""
    state = _REGISTRY[case.state][0]()
    spec = MeasureSpec(case.family, ReducedFunctionSpec(case.h))
    fn = {
        Condition.UNIFICATION: check_unification,
        Condition.HIERARCHY: check_hierarchy,
        Condition.COMPLETE_MONOGAMY: check_complete_monogamy,
        Condition.TIGHT_COMPLETE_MONOGAMY: check_tight_complete_monogamy,
    }[case.condition]
    report = fn(spec, state, seed=seed)
    report.state_id = case.state
    return report
