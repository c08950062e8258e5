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
flagged inconclusive when the decision margin is inside it.

The module also hosts the registry of named example states and
``reproduce_case``, which recomputes every quantitative claim attached to
a case and reports expected against computed values.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import partial

import numpy as np

from .convexroof import convex_roof, wootters_concurrence
from .errors import StateError
from .measures import Family, MeasureSpec, bipartition_subsets, measure_pure
from .partitions import (
    CoarseningKind,
    Partition,
    all_partitions_of_subsets,
    enumerate_coarsenings,
    format_partition,
    full_partition,
    parse_partition,
    xi_set,
)
from .qstate import DensityOperator, PureState, eigenvalues, partial_trace, regroup, tensor_product
from .redfun import HKind, ReducedFunctionSpec, h_spectrum

#: Roof settings of every partition value that needs a convex roof.
ROOF_OPTS = {"restarts": 3, "max_iters": 5}
#: Tolerance of the equality and monotone comparisons, and strictness margin
#: of genuine-family coarsening comparisons.
MONOTONE_TOL = 1e-9
#: Coincidence tolerance of the monogamy checks.
PURE_COINCIDENCE_TOL = 1e-7


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
        return {
            "kind": self.kind,
            "partition_x": self.partition_x,
            "partition_y": self.partition_y,
            "value_x": self.value_x,
            "value_y": self.value_y,
            "relation": self.relation,
            "pass": bool(self.passed),
            "inconclusive": self.inconclusive,
            "roofed": self.roofed,
            "spread": self.spread,
            "note": self.note,
        }


@dataclass
class CheckReport:
    condition: Condition
    state_id: str
    family: str
    h: str
    comparisons: list[Comparison]
    verdict: str  # "pass" | "fail" | "inconclusive"
    notes: list[str] = field(default_factory=list)
    #: Partition-value counts of the run (:meth:`_Valuation.stats`); not in ``to_dict``.
    stats: dict = field(default_factory=dict, compare=False)

    @property
    def strictness_flags(self) -> int:
        """Count of near-degenerate strictness coincidences (diagnostics)."""
        return sum(1 for c in self.comparisons
                   if c.note is not None and "near-degenerate" in c.note)

    def to_dict(self) -> dict:
        return {
            "condition": self.condition.value,
            "state": self.state_id,
            "family": self.family,
            "h": self.h,
            "comparisons": [c.to_dict() for c in self.comparisons],
            "verdict": self.verdict,
            "strictness_flags": self.strictness_flags,
            "notes": self.notes,
        }


def _verdict(comparisons: list[Comparison]) -> str:
    if any((not c.passed) and not c.inconclusive for c in comparisons):
        return "fail"
    if any(c.inconclusive for c in comparisons):
        return "inconclusive"
    return "pass"


# ---------------------------------------------------------------------------
# Partition values with caching and roof fallback
# ---------------------------------------------------------------------------

@dataclass
class _Valuation:
    """Measure values over the partition lattice of one state."""

    spec: MeasureSpec
    state: PureState | DensityOperator
    seed: int = 0
    cache: dict = field(default_factory=dict)
    pure_values: int = 0
    roofs: int = 0
    cache_hits: int = 0
    roof_s: float = 0.0

    def value(self, part: Partition) -> tuple[float, bool, float]:
        """Return (value, roofed, spread); single-block partitions are 0."""
        key = part.blocks
        if key in self.cache:
            self.cache_hits += 1
            return self.cache[key]
        if part.n_blocks < 2:
            out = (0.0, False, 0.0)
        else:
            out = self._compute(part)
        if out[1]:
            self.roofs += 1
        else:
            self.pure_values += 1
        self.cache[key] = out
        return out

    def stats(self) -> dict:
        """Lookups by outcome (pure values include single-block zeros) and roof wall seconds."""
        return {"pure_values": self.pure_values, "roofs": self.roofs,
                "cache_hits": self.cache_hits, "roof_s": self.roof_s}

    def _compute(self, part: Partition) -> tuple[float, bool, float]:
        grouped = regroup(self.state, part)
        if isinstance(grouped, PureState):
            return (measure_pure(self.spec, grouped), False, 0.0)
        t0 = time.perf_counter()
        res = convex_roof(self.spec, grouped, seed=self.seed, **ROOF_OPTS)
        self.roof_s += time.perf_counter() - t0
        return (res.value, True, res.spread)


def partition_value(
    spec: MeasureSpec, state: PureState | DensityOperator, part: Partition, seed: int = 0,
) -> tuple[float, bool, float]:
    """Measure value along a partition: pure path when possible, else roof.

    Returns ``(value, roofed, spread)``.
    """
    return _Valuation(spec, state, seed).value(part)


def is_genuinely_entangled(state: PureState) -> bool:
    """Pure-state test: positive tangle across every bipartition."""
    spec = MeasureSpec(Family.GMIN_BIPART, ReducedFunctionSpec(HKind.TANGLE))
    return measure_pure(spec, state) > MONOTONE_TOL


def _pairs(labels: tuple[str, ...], kind: CoarseningKind) -> list[tuple[Partition, Partition]]:
    """Coarsening pairs to test, in lattice order.

    On up to three labels every x is tested; on more, only the x that cover
    all labels.
    """
    lattice = sorted(
        all_partitions_of_subsets(labels, labels),
        key=lambda p: (-len(p.cover), p.n_blocks, format_partition(p)),
    )
    rank = {p: i for i, p in enumerate(lattice)}
    xs = lattice if len(labels) <= 3 else [p for p in lattice if p.cover == frozenset(labels)]
    return [
        (x, lattice[i])
        for x in xs if x.n_blocks >= 2
        for i in sorted(rank[y] for y in enumerate_coarsenings(x, kind))
    ]


def _report(condition: Condition, valuation: _Valuation, comparisons: list[Comparison],
            notes: list[str]) -> CheckReport:
    spec, labels = valuation.spec, valuation.state.labels
    return CheckReport(condition, "".join(labels), spec.family.value, spec.h.name,
                       comparisons, _verdict(comparisons), notes, valuation.stats())


def _monotone(kind: str, move: CoarseningKind, valuation: _Valuation,
              strict: bool) -> list[Comparison]:
    """Compare the value on each x with the value on each coarsening y of x by ``move``.

    A pair passes when the value does not rise beyond the slack: MONOTONE_TOL,
    or three optimizer spreads when a value is roofed.  A strict pair must
    fall by more than MONOTONE_TOL instead.  It is skipped when both values
    vanish (the marginal is not genuinely entangled), passes with a note when
    the gap is within MONOTONE_TOL, and is inconclusive when a roofed
    shortfall lies within the slack.
    """
    comparisons: list[Comparison] = []
    for x, y in _pairs(valuation.state.labels, move):
        vx, rx, sx = valuation.value(x)
        vy, ry, sy = valuation.value(y)
        spread, roofed, gap = sx + sy, rx or ry, vx - vy
        slack = max(MONOTONE_TOL, 3 * spread if roofed else 0.0)
        near = False
        if not strict:
            passed = gap >= -slack
        elif vx <= MONOTONE_TOL and vy <= MONOTONE_TOL:
            continue
        else:
            near = abs(gap) <= MONOTONE_TOL
            passed = gap > MONOTONE_TOL or near
        comparisons.append(Comparison(
            kind=kind, partition_x=format_partition(x), partition_y=format_partition(y),
            value_x=vx, value_y=vy, relation=">" if strict else ">=", passed=passed,
            inconclusive=strict and roofed and not passed and gap > -slack,
            roofed=roofed, spread=spread, note="near-degenerate strictness" if near else None,
        ))
    return comparisons


# ---------------------------------------------------------------------------
# Condition checkers
# ---------------------------------------------------------------------------

def check_unification(spec: MeasureSpec, state: PureState, seed: int = 0) -> CheckReport:
    """Permutation invariance, additivity, and discard-monotonicity.

    For genuine families the discard comparisons demand strict decrease on
    genuinely entangled states; near-degenerate pairs (gap below the strict
    margin) pass with a note rather than fail.
    """
    comparisons: list[Comparison] = []
    notes: list[str] = []
    valuation = _Valuation(spec, state, seed)
    full = full_partition(state.labels)
    base, _, _ = valuation.value(full)

    # Permutation invariance: evaluate with physically permuted subsystems.
    rng = np.random.default_rng(seed)
    for _ in range(2):
        perm = rng.permutation(len(state.labels))
        t = state.tensor().transpose(perm)
        permuted = PureState(
            [state.labels[i] for i in perm], [state.dims[i] for i in perm], t.reshape(-1)
        )
        v = measure_pure(spec, permuted)
        comparisons.append(Comparison(
            kind="permutation",
            partition_x=format_partition(full),
            partition_y="".join(state.labels[i] for i in perm),
            value_x=base, value_y=v, relation="==",
            passed=abs(v - base) <= MONOTONE_TOL,
        ))

    # Additivity across factorizing bipartitions (plain families only; the
    # genuine-family unification condition does not include it).
    if not spec.genuine:
        found = False
        for sub in bipartition_subsets(len(state.labels)):
            left = [state.labels[i] for i in sub]
            right = [lab for lab in state.labels if lab not in left]
            grouped_l = regroup(state, full_partition(left))
            if not isinstance(grouped_l, PureState):
                continue
            found = True
            grouped_r = regroup(state, full_partition(right))
            # A single-label side carries no entanglement: its value is 0.
            total = math.fsum(measure_pure(spec, grouped) for grouped in (grouped_l, grouped_r)
                              if len(grouped.labels) > 1)
            comparisons.append(Comparison(
                kind="additivity",
                partition_x=format_partition(full),
                partition_y="|".join(["".join(left), "".join(right)]),
                value_x=base, value_y=total, relation="==",
                passed=abs(base - total) <= MONOTONE_TOL,
            ))
        if not found:
            notes.append("additivity not applicable: no factorizing bipartition")

    strict = spec.genuine and is_genuinely_entangled(state)
    comparisons += _monotone("coarsening-a", CoarseningKind.DISCARD_BLOCKS, valuation, strict)
    return _report(Condition.UNIFICATION, valuation, comparisons, notes)


def check_hierarchy(spec: MeasureSpec, state: PureState, seed: int = 0) -> CheckReport:
    """Monotonicity under block merges (the tight coarsening condition)."""
    valuation = _Valuation(spec, state, seed)
    comparisons = _monotone("coarsening-b", CoarseningKind.COMBINE_BLOCKS, valuation, strict=False)
    return _report(Condition.HIERARCHY, valuation, comparisons, [])


def _monogamy_check(condition: Condition, move: CoarseningKind, spec: MeasureSpec,
                    state: PureState, seed: int) -> CheckReport:
    comparisons: list[Comparison] = []
    valuation = _Valuation(spec, state, seed)
    # Genuine families demand strict decrease on genuinely entangled states;
    # an ordering violation breaks both branches of their tight condition.
    strict = spec.genuine and is_genuinely_entangled(state)

    for x, y in _pairs(state.labels, move):
        vx, rx, sx = valuation.value(x)
        vy, ry, sy = valuation.value(y)
        roofed = rx or ry
        band = max(PURE_COINCIDENCE_TOL, 1e-4 if roofed else 0.0, 3 * (sx + sy))
        if vx - vy < -band:
            if strict:
                comparisons.append(Comparison(
                    kind="ordering", partition_x=format_partition(x),
                    partition_y=format_partition(y), value_x=vx, value_y=vy,
                    relation=">", passed=False, roofed=roofed, spread=sx + sy,
                    note="value increases under coarsening; both branches of the "
                         "genuine condition fail",
                ))
            continue
        if vx - vy > band:
            continue
        if vx <= band and vy <= band:
            continue  # trivial coincidence of vanishing values
        for gamma in sorted(xi_set(x, y), key=format_partition):
            vg, rg, sg = valuation.value(gamma)
            # Optimizer scatter can only make a roofed zero test inconclusive.
            ok = vg <= PURE_COINCIDENCE_TOL
            inconclusive = (not ok) and rg and vg <= PURE_COINCIDENCE_TOL + 3 * sg
            comparisons.append(Comparison(
                kind="disentangling", partition_x=f"{format_partition(x)}~{format_partition(y)}",
                partition_y=format_partition(gamma), value_x=vx, value_y=vg,
                relation="gamma==0", passed=ok, inconclusive=inconclusive,
                roofed=roofed or rg, spread=sx + sy + sg,
                note=f"coincidence {vx:.6g} ~ {vy:.6g}",
            ))
    notes = [] if comparisons else [
        "no value coincidence across tested pairs; condition holds vacuously"]
    return _report(condition, valuation, comparisons, notes)


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


def make_zeta(l0sq: float = 5 / 12, l2sq: float = 1 / 3, l3sq: float = 1 / 4) -> PureState:
    if abs(l0sq + l2sq + l3sq - 1.0) > 1e-12:
        raise StateError("zeta weights must sum to one")
    return _ket("ABC", (2, 2, 2), {(0, 0, 0): math.sqrt(l0sq), (1, 0, 1): math.sqrt(l2sq),
                                   (1, 1, 0): math.sqrt(l3sq)})


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


def make_eta(c1: float = 0.8, c2: float = 0.6) -> PureState:
    """Two entangled pairs in a line: the middle party holds one half of each.

    Factors are c|00> + sqrt(1-c^2)|11> on (A, B1) and (B2, C); B = B1 B2
    has dimension 4 indexed as 2*b1 + b2.
    """
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


def registry() -> dict[str, PaperState]:
    """All named example states."""
    entries = [
        PaperState("w4", make_w_state(4), "four-qubit W state"),
        PaperState("w3", make_w_state(3), "three-qubit W state"),
        PaperState("xi", make_xi(),
                   "four-qubit state with amplitudes sqrt5/4, 1/4, sqrt5/4, sqrt5/4"),
        PaperState("varphi", make_varphi(),
                   "four-qubit state with amplitudes sqrt5/4, sqrt5/4, 1/4, sqrt5/4"),
        PaperState("phi-eg2", make_phi_eg(), "(|000>+|101>+|110>)/sqrt3"),
        PaperState("zeta", make_zeta(), "lam0|000> + lam2|101> + lam3|110>"),
        PaperState("omega-i", make_omega("i"), "lam0|000> + lam3|110> + lam4|111>"),
        PaperState("omega-ii", make_omega("ii"), "lam0|000> + lam2|101> + lam4|111>"),
        PaperState("eta", make_eta(), "product of two entangled pairs sharing the middle party"),
        PaperState("ghz3", make_ghz(2, 3), "uniform three-qubit GHZ"),
        PaperState("bell-pair-product", make_product_pair(), "Bell x Bell on ABCD"),
    ]
    return {e.name: e for e in entries}


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
        return {
            "claim": self.name,
            "expected": self.expected,
            "computed": self.computed,
            "tol": self.tol,
            "pass": bool(self.passed),
            "provenance": self.provenance,
            "note": self.note,
        }


def _claim(name, expected, computed, tol, provenance="stated", note=None, above=None) -> Claim:
    """Pass within ``tol`` of ``expected``, or, with no ``expected``, strictly above ``above``."""
    ok = computed > above if expected is None else abs(computed - expected) <= tol
    return Claim(name, expected, float(computed), tol, bool(ok), provenance, note)


def _exceeds(name: str, computed: float, margin: float, note: str | None = None) -> tuple:
    """Row of a derived strict inequality, ``computed > margin``, printed with tol 0."""
    return (name, None, computed, 0.0, "derived", note, margin)


def _spec(family: Family, kind: HKind, param: float | None = None) -> MeasureSpec:
    return MeasureSpec(family, ReducedFunctionSpec(kind, param))


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
    state = registry()[state_name].state if state_name else None
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
    state = registry()[case.state].state
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
