import dataclasses
import logging
import math
import time
from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entmono.verify as V
from entmono import Family, HKind, MeasureSpec, ReducedFunctionSpec, measure_pure, random_pure_state
from entmono.verify import (
    CONDITION_CASES,
    Condition,
    check_complete_monogamy,
    check_hierarchy,
    check_tight_complete_monogamy,
    check_unification,
    is_genuinely_entangled,
    partition_value,
    registry,
    reproduce_case,
    run_condition_case,
)
from entmono import convexroof
from entmono.convexroof import eigen_ensemble_value
from entmono.errors import GuardError
from entmono.partitions import all_partitions_of_subsets, format_partition, parse_partition
from entmono.redfun import CATALOG
from test_partitions import _index_pairs, _oracle_pairs

TANGLE = MeasureSpec(Family.MAX, ReducedFunctionSpec(HKind.TANGLE))
SUM_TANGLE = MeasureSpec(Family.SUM, ReducedFunctionSpec(HKind.TANGLE))


def test_registry_states_are_normalized():
    for name, entry in registry().items():
        st = entry.state
        if hasattr(st, "amplitudes"):
            norm = float(np.vdot(st.amplitudes, st.amplitudes).real)
            assert abs(norm - 1.0) < 1e-12, name


def test_genuine_entanglement_detector():
    reg = registry()
    assert is_genuinely_entangled(reg["ghz3"].state)
    assert is_genuinely_entangled(reg["w4"].state)
    assert is_genuinely_entangled(reg["eta"].state)
    assert not is_genuinely_entangled(reg["bell-pair-product"].state)


def test_partition_value_pure_and_roof():
    st = registry()["phi-eg2"].state
    v, roofed, spread = partition_value(TANGLE, st, parse_partition("A|BC", "ABC"))
    assert not roofed and spread == 0.0
    v2, roofed2, _ = partition_value(
        MeasureSpec(Family.MAX, ReducedFunctionSpec(HKind.PNORM2)), st,
        parse_partition("A|B", "ABC"))
    assert roofed2
    assert 0.0 < v2 < 0.5


def test_hierarchy_w4_fail_values(w4):
    rep = check_hierarchy(TANGLE, w4)
    assert rep.verdict == "fail"
    bad = [c for c in rep.comparisons if not c.passed]
    assert any(
        c.partition_x == "A|B|C|D" and c.partition_y == "AB|CD"
        and abs(c.value_x - 0.75) < 1e-12 and abs(c.value_y - 1.0) < 1e-12
        for c in bad
    )


def test_hierarchy_sum_passes(w4):
    assert check_hierarchy(SUM_TANGLE, w4).verdict == "pass"


def test_unification_additivity_on_product(bell):
    from entmono import tensor_product
    from conftest import ket

    st = tensor_product(bell, ket("C", (2,), {(0,): 1.0}))
    rep = check_unification(SUM_TANGLE, st)
    adds = [c for c in rep.comparisons if c.kind == "additivity"]
    assert adds and all(c.passed for c in adds)


def test_unification_lists_each_bipartition_once():
    rep = check_unification(SUM_TANGLE, registry()["bell-pair-product"].state)
    adds = [c for c in rep.comparisons if c.kind == "additivity"]
    assert [(c.partition_y, c.passed) for c in adds] == [("AB|CD", True)]


def test_tight_monogamy_w3_fails():
    rep = check_tight_complete_monogamy(TANGLE, registry()["w3"].state)
    assert rep.verdict == "fail"
    assert any(c.kind == "disentangling" and not c.passed for c in rep.comparisons)


def test_phi_eg2_pnorm2_roof_is_exact():
    """max/pnorm2 roof of rho_AB is (1 - sqrt(1 - C_W^2)) / 2 = (3 - sqrt 5) / 6, C_W = 2/3."""
    spec = MeasureSpec(Family.MAX, ReducedFunctionSpec(HKind.PNORM2))
    v, roofed, _ = partition_value(spec, registry()["phi-eg2"].state, parse_partition("A|B", "ABC"))
    assert roofed
    assert abs(v - (3 - math.sqrt(5)) / 6) <= 1e-12


def _fake_pairs(monkeypatch, x, y):
    """Make every check test the one pair (x, y), through the checkers' cached pair index."""
    index = ((x, y), (format_partition(x), format_partition(y)), np.array([0]), np.array([1]))
    monkeypatch.setattr(V, "_pair_index", lambda labels, kind: index)


def _monotone_comparisons(kind, valuation, strict):
    """The comparisons of ``_monotone``'s column block over the faked pair, read row by row."""
    return [V.Comparison(*row) for row in V._rows(V._monotone(kind, None, valuation, strict))]


def _fake_values(monkeypatch, values):
    """Make every partition lookup of a check read ``values``, by blocks."""
    monkeypatch.setattr(V._Valuation, "values", lambda self, parts: [values[p.blocks] for p in parts])


@pytest.mark.parametrize("gamma,roofed,spread,passed,inconclusive", [
    (1e-3, True, 1e-3, False, True),     # within 3 spreads of zero: undecided, not a pass
    (1e-3, True, 1e-5, False, False),    # beyond 3 spreads: a failure
    (1e-3, False, 0.0, False, False),    # pure values carry no scatter
    (1e-8, True, 0.2, True, False),      # at most the tolerance: a pass, whatever the spread
])
def test_monogamy_zero_test_ignores_spread_for_passes(monkeypatch, gamma, roofed, spread,
                                                      passed, inconclusive):
    x, y, g = (parse_partition(t, "ABC") for t in ("A|B|C", "A|B", "AC|B"))
    values = {x.blocks: (0.5, False, 0.0), y.blocks: (0.5, False, 0.0),
              g.blocks: (gamma, roofed, spread)}
    _fake_pairs(monkeypatch, x, y)
    monkeypatch.setattr(V, "xi_set", lambda a, b: {g})
    _fake_values(monkeypatch, values)
    rep = check_complete_monogamy(TANGLE, registry()["w3"].state)
    (c,) = rep.comparisons
    assert (c.passed, c.inconclusive) == (passed, inconclusive)
    assert rep.verdict == {(True, False): "pass", (False, True): "inconclusive",
                           (False, False): "fail"}[passed, inconclusive]


@pytest.mark.parametrize("roofed", [True, False])
def test_monogamy_band_has_a_floor_for_roofed_pairs(monkeypatch, roofed):
    """A roofed pair 5e-5 apart coincides, as the band is at least 1e-4 though its 3 spreads
    are 6e-6; an exact pair as far apart does not, and is not walked into xi_set."""
    x, y, g = (parse_partition(t, "ABC") for t in ("A|B|C", "A|B", "AC|B"))
    spread = 1e-6 if roofed else 0.0
    values = {x.blocks: (0.5, roofed, spread), y.blocks: (0.5 - 5e-5, roofed, spread),
              g.blocks: (0.0, False, 0.0)}
    walked = []
    _fake_pairs(monkeypatch, x, y)
    monkeypatch.setattr(V, "xi_set", lambda a, b: walked.append((a, b)) or {g})
    _fake_values(monkeypatch, values)
    rep = check_complete_monogamy(TANGLE, registry()["w3"].state)
    assert walked == ([(x, y)] if roofed else [])
    assert [c.note for c in rep.comparisons] == (["coincidence 0.5 ~ 0.49995"] if roofed else [])


@pytest.mark.parametrize("bound,roofed,expected", [
    (0.5 - 2 * V.ROOFED_BAND_FLOOR, False, (False, 0, 2)),  # beyond the floor: y is never looked up
    (0.5 - V.ROOFED_BAND_FLOOR / 2, False, (True, 2, 0)),   # inside it: y's roof is looked up and coincides
    (0.5 - 2 * V.ROOFED_BAND_FLOOR, True, (True, 1, 1)),    # a roofed x is not certain: its pair needs y's roof
])
def test_monogamy_bound_decides_beyond_the_band_floor(monkeypatch, bound, roofed, expected):
    """y's roof lies at or below its bound, so an exact E(x) more than ``ROOFED_BAND_FLOOR`` above
    the bound cannot coincide with it: the pair counts as bound-decided, and y is looked up only
    for a pair the bound leaves open.  Two x at 0.5, the second roofed or not, share one y."""
    x, x2, y, g = (parse_partition(t, "ABC") for t in ("A|B|C", "AB|C", "A|B", "AC|B"))
    values = {x.blocks: (0.5, False, 0.0), x2.blocks: (0.5, roofed, 1e-6 if roofed else 0.0),
              y.blocks: (0.5 - V.ROOFED_BAND_FLOOR / 2, True, 1e-6), g.blocks: (0.0, False, 0.0)}
    index = ((x, x2, y), tuple(map(format_partition, (x, x2, y))), np.array([0, 1]), np.array([2, 2]))
    looked = []
    monkeypatch.setattr(V, "_pair_index", lambda labels, kind: index)
    monkeypatch.setattr(V, "xi_set", lambda a, b: {g})
    monkeypatch.setattr(V._Valuation, "values", lambda self, parts: looked.extend(parts) or [values[p.blocks] for p in parts])
    monkeypatch.setattr(V._Valuation, "bounds", lambda self, parts: np.full(len(parts), bound))
    rep = check_complete_monogamy(TANGLE, registry()["w3"].state)
    assert (y in looked, len(rep.comparisons), rep.stats["bound_decided"]) == expected


@pytest.mark.parametrize("vy,roofed,strict,expected", [
    (0.5 + 2e-3, True, False, (True, False, None)),     # roofed, inside 3 spreads: a pass
    (0.5 + 2e-9, False, False, (False, False, None)),   # pure, below -1e-9: a failure
    (0.5 + 5e-10, False, True, (True, False, "near-degenerate strictness")),
    (0.5 + 2e-3, True, True, (False, True, None)),      # roofed strict shortfall in the slack
    (0.5 + 4e-3, True, True, (False, False, None)),     # beyond the slack: a failure
    (0.5 - 1e-3, False, True, (True, False, None)),     # a strict decrease
])
def test_monotone_rule(monkeypatch, vy, roofed, strict, expected):
    x, y = (parse_partition(t, "ABC") for t in ("A|B|C", "A|BC"))
    spread = 5e-4 if roofed else 0.0  # the pair's spread is 1e-3, its slack 3e-3
    values = {x.blocks: (0.5, roofed, spread), y.blocks: (vy, roofed, spread)}
    _fake_pairs(monkeypatch, x, y)
    _fake_values(monkeypatch, values)
    valuation = V._Valuation(TANGLE, registry()["w3"].state)
    (c,) = _monotone_comparisons("coarsening-b", valuation, strict)
    assert (c.passed, c.inconclusive, c.note) == expected
    assert c.relation == (">" if strict else ">=")


def test_hierarchy_formats_each_partition_once(monkeypatch):
    """The pair index formats each lattice point once: 203 partitions of six labels, 203 calls."""
    calls = []
    monkeypatch.setattr(V, "format_partition", lambda p: calls.append(p) or format_partition(p))
    V._pair_index.cache_clear()  # a cached index was built by an earlier check on these labels
    rep = check_hierarchy(SUM_TANGLE, V.make_w_state(6))
    assert len(rep.comparisons) == 2268
    assert len(calls) == len(set(calls)) == 203


def test_monotone_rule_skips_strict_pairs_whose_values_vanish(monkeypatch):
    x, y = (parse_partition(t, "ABC") for t in ("A|B|C", "A|BC"))
    values = {x.blocks: (0.0, False, 0.0), y.blocks: (1e-10, False, 0.0)}
    _fake_pairs(monkeypatch, x, y)
    _fake_values(monkeypatch, values)
    valuation = V._Valuation(TANGLE, registry()["w3"].state)
    assert _monotone_comparisons("coarsening-a", valuation, True) == []
    assert len(_monotone_comparisons("coarsening-a", valuation, False)) == 1


def test_complete_monogamy_eta_min_norm_fails():
    spec = MeasureSpec(Family.MAX, ReducedFunctionSpec(HKind.PNORM_MIN))
    rep = check_complete_monogamy(spec, registry()["eta"].state)
    assert rep.verdict == "fail"


def test_gmin_zeta_ordering_violation():
    spec = MeasureSpec(Family.GMIN, ReducedFunctionSpec(HKind.PNORM2))
    rep = check_tight_complete_monogamy(spec, registry()["zeta"].state)
    assert rep.verdict == "fail"
    assert any(c.kind == "ordering" for c in rep.comparisons if not c.passed)


def test_strictness_flags_on_eta():
    spec = MeasureSpec(Family.GMAX, ReducedFunctionSpec(HKind.PNORM_MIN))
    rep = check_unification(spec, registry()["eta"].state)
    assert rep.verdict == "pass"
    assert rep.strictness_flags >= 1


def test_unification_random_states_sum_family():
    for seed in (0, 1):
        st = random_pure_state((2, 2, 2), seed=seed)
        rep = check_unification(SUM_TANGLE, st)
        assert rep.verdict == "pass"


def test_check_report_counts_every_partition_lookup(monkeypatch):
    lookups = []
    values = V._Valuation.values

    def counted(self, parts):
        lookups.extend(parts)
        return values(self, parts)

    monkeypatch.setattr(V._Valuation, "values", counted)
    # On three labels every mixed y is also an x, which the screen values, so no pair is
    # decided on a bound; on W4 all 28 roofed discard pairs are.
    runs = {}
    for name, bound_decided in (("w3", 0), ("w4", 28)):
        lookups.clear()
        rep = check_unification(SUM_TANGLE, registry()[name].state)
        stats = runs[name] = rep.stats
        assert set(stats) == {"pure_values", "roofs", "shared", "cache_hits", "bound_decided", "roof_s"}
        assert stats["pure_values"] + stats["roofs"] + stats["shared"] + stats["cache_hits"] == len(lookups)
        # Each lattice point is looked up once: every x, and each y that a comparison the
        # bound does not decide needs.
        decided = [c for c in rep.comparisons if c.note == V.EIGEN_BOUND_NOTE]
        monotone = [c for c in rep.comparisons if c.kind == "coarsening-a"]
        points = {c.partition_x for c in monotone} | {c.partition_y for c in monotone if c not in decided}
        assert stats["bound_decided"] == len(decided) == bound_decided
        assert len(lookups) == 1 + len(points)  # 1: the base value
        assert "stats" not in rep.to_dict()
    assert runs["w3"]["roofs"] > 0 and runs["w3"]["roof_s"] > 0.0
    assert runs["w3"]["cache_hits"] > 0
    # w3's two-party marginals are one operator bit for bit; complete monogamy looks up
    # their values, so all but the first read another partition's record.
    lookups.clear()
    stats = check_complete_monogamy(SUM_TANGLE, registry()["w3"].state).stats
    assert stats["pure_values"] + stats["roofs"] + stats["shared"] + stats["cache_hits"] == len(lookups)
    assert stats["shared"] > 0


def _spy_values(monkeypatch) -> dict:
    """Every value a check looks up, by partition."""
    seen = {}
    values = V._Valuation.values

    def spied(self, parts):
        out = values(self, parts)
        seen.update(zip(parts, out))
        return out

    monkeypatch.setattr(V._Valuation, "values", spied)
    return seen


def _assert_roofed_values_are_fresh(spec, state, seen):
    """Each roofed value a check looked up is bit for bit a fresh ``partition_value``."""
    roofed = {part: out for part, out in seen.items() if out[1]}
    assert roofed
    for part, out in roofed.items():
        assert out == partition_value(spec, state, part), format_partition(part)


@pytest.mark.parametrize("spec,roofing,roofs", [
    (SUM_TANGLE, MeasureSpec(Family.SUM, ReducedFunctionSpec(HKind.PNORM2)), 1),
    (TANGLE, TANGLE, 4),
], ids=["sum", "max"])
def test_w4_roofs_each_distinct_marginal_once(spec, roofing, roofs, monkeypatch):
    """The 28 discard pairs of unification and of complete monogamy, each with a mixed y, are
    all decided by the bound, so neither check roofs.  Tight complete monogamy roofs its
    targets: under sum/pnorm2 the one distinct two-qubit marginal, under max/tangle the 4
    distinct three-qubit marginals, each once, the rest read from another partition's roof."""
    state = registry()["w4"].state
    for check in (check_unification, check_complete_monogamy):
        rep = check(spec, state)
        assert rep.stats["roofs"] == 0 and rep.stats["bound_decided"] == 28
        assert not any(c.roofed for c in rep.comparisons)
    seen = _spy_values(monkeypatch)
    rep = check_tight_complete_monogamy(roofing, state)
    assert rep.stats["roofs"] == roofs and rep.stats["shared"] > 0
    _assert_roofed_values_are_fresh(roofing, state, seen)


def test_haar_marginals_share_nothing(monkeypatch):
    """A Haar 3-qubit state's complete monogamy roofs its 3 distinct two-qubit marginals, each
    a fresh roof (on 4 qubits the bound decides every pair: no roof runs)."""
    state = random_pure_state((2, 2, 2), seed=1)
    seen = _spy_values(monkeypatch)
    rep = check_complete_monogamy(SUM_TANGLE, state)
    assert rep.stats["shared"] == 0 and rep.stats["roofs"] == 3
    _assert_roofed_values_are_fresh(SUM_TANGLE, state, seen)


def test_monogamy_bound_skips_every_roof():
    """Haar-4 max/tangle and sum/tangle and Haar-6 sum/tangle complete monogamy: each x covers
    every label, so it is exact, and every mixed y's bound lies more than 1e-4 below E(x)."""
    for spec, n, pairs in ((TANGLE, 4, 28), (SUM_TANGLE, 4, 28), (SUM_TANGLE, 6, 1351)):
        start = time.perf_counter()
        rep = check_complete_monogamy(spec, random_pure_state((2,) * n, seed=1))
        assert time.perf_counter() - start < 5.0
        assert rep.verdict == "pass" and rep.comparisons == []
        assert rep.stats["roofs"] == 0 and rep.stats["bound_decided"] == pairs


@settings(max_examples=20)
@given(st.integers(0, 2**32 - 1), st.sampled_from([SUM_TANGLE, MeasureSpec(Family.GMIN, ReducedFunctionSpec(HKind.PNORM_MIN))]))
def test_monogamy_bound_drops_no_pair_the_roof_finds_coincident(seed, spec):
    """Every pair the screen decides in a Haar 4-qubit complete monogamy lies more than
    ``PURE_COINCIDENCE_TOL`` above y's fresh roof, so no decided pair would coincide under the
    roof.  On a Haar 3-qubit state every mixed y is also an x, valued first, so no pair is
    decided.  Max/tangle is left out: its three-qubit roofs take seconds each."""
    decided = []
    screen = V._screen

    def spied(valuation, move, decides):
        out = screen(valuation, move, decides)
        points, _, _, yi, vx, _, mask, _, _ = out
        decided.extend((points[yi[k]], vx[k]) for k in np.flatnonzero(mask))
        return out

    with pytest.MonkeyPatch.context() as m:
        m.setattr(V, "_screen", spied)
        assert check_complete_monogamy(spec, random_pure_state((2, 2, 2), seed)).stats["bound_decided"] == 0
        assert decided == []
        state = random_pure_state((2, 2, 2, 2), seed)
        assert check_complete_monogamy(spec, state).stats["bound_decided"] == len(decided) > 0
    roofs = {}
    for y, vx in decided:
        if y.blocks not in roofs:
            roofs[y.blocks] = partition_value(spec, state, y)
        roof, roofed, _ = roofs[y.blocks]
        assert roofed and vx - roof > V.PURE_COINCIDENCE_TOL, (format_partition(y), vx, roof)


@pytest.mark.parametrize("check", [check_unification, check_hierarchy, check_complete_monogamy,
                                   check_tight_complete_monogamy])
def test_nine_parties_raise_the_guard_at_once(check):
    state = random_pure_state((2,) * 9, seed=0)
    start = time.perf_counter()
    with pytest.raises(GuardError):
        check(SUM_TANGLE, state)
    assert time.perf_counter() - start < 1.0


def test_haar6_unification_needs_no_roof():
    """Every discard pair of a Haar 6-qubit state is decided by its eigen-ensemble bound."""
    rep = check_unification(SUM_TANGLE, random_pure_state((2,) * 6, seed=0))
    assert rep.verdict == "pass"
    assert rep.stats["roofs"] == 0 and rep.stats["bound_decided"] == 1351


def test_w8_unification_and_hierarchy_need_no_roof(monkeypatch):
    """The eight-party W state, at the label guard: every mixed discard pair is decided by
    its bound or read from a record, and every merge pair is pure.  Every value and bound is
    read from a cover's table: no regroup and no content digest."""
    calls = []
    for name in ("regroup", "_content_key"):
        monkeypatch.setattr(V, name, lambda *args, name=name: calls.append(name))
    state = V.make_w_state(8)
    uni, hier = check_unification(SUM_TANGLE, state), check_hierarchy(SUM_TANGLE, state)
    assert calls == []
    assert uni.verdict == hier.verdict == "pass"
    assert (len(uni.comparisons), len(hier.comparisons)) == (81640, 163754)
    counts = [(rep.stats["pure_values"], rep.stats["roofs"], rep.stats["bound_decided"],
               rep.stats["shared"] + rep.stats["cache_hits"]) for rep in (uni, hier)]
    assert counts == [(4393, 0, 64632, 1), (4140, 0, 0, 0)]  # 1: unification's base value


def _leaves(obj):
    if isinstance(obj, (dict, tuple)):
        for item in obj.values() if isinstance(obj, dict) else obj:
            yield from _leaves(item)
    else:
        yield obj


@pytest.mark.parametrize("state", [V.make_w_state(5), random_pure_state((2,) * 5, seed=0)],
                         ids=["w5", "haar5"])
def test_records_hold_no_operators(monkeypatch, state):
    """A unification's records hold (value, roofed, spread), and its tables each cover's member
    weights (None where pure: one member), h of every cut of each member and the label masks:
    numbers and arrays of h, never an operator or a state, however many partitions there are."""
    made = []

    class Kept(V._Valuation):
        def __post_init__(self):
            made.append(self)
            super().__post_init__()

    monkeypatch.setattr(V, "_Valuation", Kept)
    rep = check_unification(SUM_TANGLE, state)
    (valuation,) = made
    assert rep.stats["bound_decided"] > 0 and len(valuation.tables) == 2**5 - 5 - 1  # covers of 2+ labels
    assert all(tuple(map(type, r)) == (float, bool, float) for r in valuation.records.values())
    for weights, h, row_of, bits in valuation.tables.values():
        assert h.dtype == np.float64 and row_of.dtype == np.intp and all(type(leaf) is int for leaf in _leaves(bits))
        assert h.shape[1] == 1 if weights is None else weights.dtype == np.float64 and h.shape[1] == len(weights)


@pytest.mark.parametrize("check", [check_unification, check_hierarchy])
def test_each_partition_is_regrouped_once(monkeypatch, check):
    """Only a roof regroups, each partition once: xi's gmin/tangle unification regroups just
    the marginals it roofs, and its hierarchy, whose merges cover all four labels, none."""
    calls = []
    regroup = V.regroup
    monkeypatch.setattr(V, "regroup", lambda state, part: calls.append(part.blocks) or regroup(state, part))
    rep = check(MeasureSpec(Family.GMIN, ReducedFunctionSpec(HKind.TANGLE)), registry()["xi"].state)
    assert len(calls) == len(set(calls)) == rep.stats["roofs"]
    if check is check_unification:
        assert rep.stats["roofs"] > 0 and rep.stats["bound_decided"] > 0
    else:
        assert rep.stats["roofs"] == 0


@st.composite
def covers(draw):
    """A state on 3 to 6 parties of dims 2 and 3 and a partition of a nonempty subset of its
    labels into 2+ blocks.

    Haar states take any dims; W states are qubits and GHZ states one dim.  A product of two
    Haar states, the first on 2+ labels, is drawn with a partition of all of the first
    factor's labels as often as not, so that pure partial covers occur."""
    n = draw(st.integers(3, 6))
    kind = draw(st.sampled_from(["haar", "w", "ghz", "product"]))
    labels, dims = "ABCDEF"[:n], tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=n, max_size=n)))
    k = draw(st.integers(2, n - 1)) if kind == "product" else n
    if kind in ("haar", "product"):
        seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2))
        factors = [V.PureState(labels[a:b], dims[a:b], random_pure_state(dims[a:b], seed=seed).amplitudes)
                   for (a, b), seed in zip(((0, k), (k, n)), seeds) if a < b]
        state = factors[0] if len(factors) == 1 else V.tensor_product(*factors)
    else:
        state = V.make_w_state(n) if kind == "w" else V.make_ghz(draw(st.sampled_from([2, 3])), n)
    if kind == "product" and draw(st.booleans()):
        groups = draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k).filter(lambda g: len(set(g)) > 1))
        groups += [-1] * (n - k)
    else:
        groups = draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n)
                      .filter(lambda g: len(set(g) - {-1}) > 1))
    blocks = [[lab for lab, g in zip(state.labels, groups) if g == i] for i in range(n)]
    return kind, state, V.Partition([b for b in blocks if b], state.labels)


@settings(max_examples=40)
@given(covers())
@example(("w", V.make_w_state(6), parse_partition("AB|CD", "ABCDEF")))  # a mixed marginal with a product member
def test_cut_table_values_match_the_regrouped_state(case):
    """Every family and h on a partition of any cover, read from the cover's table, is the
    regrouped state's: measure_pure where the marginal is pure, eigen_ensemble_value where it
    is mixed.  Bit for bit on the full covers of W and GHZ states, whose tables read the
    regrouped spectra exactly; within 1e-13 elsewhere, where the two diagonalize the same
    marginals from different arrangements (a wide cover from the other Gram matrix, M^dag M).
    Every family of one h reads the same tables, which hold h alone, concurrence on the
    drawn products included: at a product cut it reads exactly 0 in both paths."""
    kind, state, part = case
    grouped = V.regroup(state, part)
    pure = isinstance(grouped, V.PureState)
    exact = kind in ("w", "ghz") and len(part.cover) == len(state.labels)
    eig = convexroof._eig_desc
    ensemble = None if pure else eig(grouped.matrix)
    with pytest.MonkeyPatch.context() as m:  # the oracle's one eigendecomposition serves every spec
        m.setattr(convexroof, "_eig_desc", lambda matrix: ensemble if matrix is grouped.matrix else eig(matrix))
        for h in CATALOG:
            tables = {}  # a cover's table holds h of its cuts: every family of one h reads it
            for family in Family:
                spec = MeasureSpec(family, h)
                valuation = V._Valuation(spec, state, tables=tables)
                (bound,) = valuation.bounds([part])
                if pure:
                    got, roofed, spread = valuation.value(part)
                    expected = measure_pure(spec, grouped)
                    assert not roofed and spread == 0.0 and np.isnan(bound)
                else:
                    got, expected = bound, eigen_ensemble_value(spec, grouped)
                assert (V._pure_column(state, part.cover) is not None) == pure and part.cover in valuation.tables
                if exact:
                    assert got == expected, (spec.name, format_partition(part))
                else:
                    assert abs(got - expected) <= 1e-13, (spec.name, format_partition(part))


def test_pure_hierarchy_neither_regroups_nor_digests(monkeypatch):
    """On five labels every merge covers them all, so a pure state's hierarchy reads each
    value from its cut table: no regroup and no content digest."""
    calls = []
    for name in ("regroup", "_content_key"):
        monkeypatch.setattr(V, name, lambda *args, name=name: calls.append(name))
    for state in (V.make_w_state(5), random_pure_state((2, 3, 2, 2, 3), seed=4)):
        rep = check_hierarchy(SUM_TANGLE, state)
        assert len(rep.comparisons) == 306 and rep.stats["pure_values"] == 52
    assert calls == []


def test_bound_decided_comparisons_hold_for_the_roof():
    """Each comparison of the conditions suite that a bound decided prints a value at or
    above the fresh roof, and the fresh roof passes the same rule."""
    decided = 0
    for case in CONDITION_CASES:
        rep = run_condition_case(case)
        state = registry()[case.state].state
        spec = MeasureSpec(case.family, ReducedFunctionSpec(case.h))
        for c in rep.comparisons:
            if c.note != V.EIGEN_BOUND_NOTE:
                continue
            decided += 1
            assert c.passed and not c.inconclusive and not c.roofed and c.spread == 0.0
            roof, roofed, _ = partition_value(spec, state, parse_partition(c.partition_y, state.labels))
            assert roofed and roof <= c.value_y, c
            gap = c.value_x - roof
            assert gap > V.MONOTONE_TOL if c.relation == ">" else gap >= -V.MONOTONE_TOL, c
    assert decided == 56


def test_shared_values_roof_each_marginal_once_per_block():
    """Inside one block, zeta's two gmin/pnorm2 cells roof their three marginals once,
    with the reports of separate runs; after the block the memo is gone."""
    cases = [c for c in CONDITION_CASES if c.state == "zeta"]
    alone = [run_condition_case(c) for c in cases]
    with V.shared_values():
        together = [run_condition_case(c) for c in cases]
    assert [r.to_dict() for r in together] == [r.to_dict() for r in alone]
    assert [r.stats["roofs"] for r in alone] == [3, 3]
    assert [r.stats["roofs"] for r in together] == [3, 0]
    assert run_condition_case(cases[1]).stats["roofs"] == 3


SYMMETRIC = {"w3": V.make_w_state(3), "w4": V.make_w_state(4), "ghz4": V.make_ghz(2, 4)}


def _lookups(valuation):
    """A valuation's value and bound lookups of one partition (None: no bound)."""
    def bound(part):
        b = float(valuation.bounds([part])[0])
        return None if math.isnan(b) else b

    return {"value": valuation.value, "bound": bound}


@cache
def _lattice_values(name):
    """Partitions of every subset of the state's labels, and each one's value and bound, by
    lookup in lattice order on a fresh valuation."""
    state = SYMMETRIC[name]
    parts = sorted(all_partitions_of_subsets(state.labels, state.labels),
                   key=lambda p: (-len(p.cover), p.n_blocks, format_partition(p)))
    fresh = {lookup: _lookups(V._Valuation(SUM_TANGLE, state))[lookup] for lookup in ("value", "bound")}
    return parts, {(i, lookup): get(p) for lookup, get in fresh.items() for i, p in enumerate(parts)}


@settings(max_examples=10)
@given(st.sampled_from(sorted(SYMMETRIC)), st.randoms(use_true_random=False))
def test_valuation_does_not_depend_on_lookup_order(name, rnd):
    """Values and bounds looked up in one shuffled order, so that they fill each other's
    records, are those of fresh valuations."""
    parts, expected = _lattice_values(name)
    order = list(expected)
    rnd.shuffle(order)
    lookups = _lookups(V._Valuation(SUM_TANGLE, SYMMETRIC[name]))
    drawn = {(i, lookup): lookups[lookup](parts[i]) for i, lookup in order}
    assert drawn == expected
    assert any(bound is not None for (_, lookup), bound in drawn.items() if lookup == "bound")


def test_checks_log_their_stats_at_debug_only(caplog, capsys):
    state = registry()["w3"].state
    check_hierarchy(SUM_TANGLE, state)
    assert not caplog.records
    assert capsys.readouterr() == ("", "")
    with caplog.at_level(logging.DEBUG, logger="entmono.verify"):
        rep = check_hierarchy(SUM_TANGLE, state)
    (record,) = caplog.records
    assert record.levelno == logging.DEBUG
    assert record.getMessage() == f"hierarchy sum/tangle on ABC: {rep.stats}"


def test_condition_matrix():
    for case in CONDITION_CASES:
        rep = run_condition_case(case)
        assert case.matches(rep), (case, rep.verdict, rep.strictness_flags)
        assert rep.state_id == case.state


@pytest.mark.parametrize("name", list(V.CASES))
def test_reproduce_cases(name):
    rep = reproduce_case(name)
    assert rep["pass"], [c for c in rep["claims"]
                         if not c["pass"] and c["provenance"] != "stated-inconsistent"]


def test_derived_inequalities_pass_strictly_above_their_margin():
    rows = {"xi": ("wootters C(rho_AC) exceeds gmin-bipart value", 0.0),
            "varphi": ("gmin-bipart strictly below gmin (pnorm-min)", 1e-9),
            "w4": ("merge-monotonicity violation margin", 1e-6)}
    for case, (name, margin) in rows.items():
        (claim,) = [c for c in reproduce_case(case)["claims"] if c["claim"] == name]
        assert (claim["expected"], claim["tol"], claim["provenance"]) == (None, 0.0, "derived")
        assert claim["pass"] and claim["computed"] > margin
        assert not V._claim(name, None, margin, 0.0, "derived", None, margin).passed


def test_reproduce_unknown_case():
    with pytest.raises(KeyError):
        reproduce_case("nope")


def test_report_serialization(w4):
    rep = check_hierarchy(TANGLE, w4)
    doc = rep.to_dict()
    assert doc["condition"] == "hierarchy"
    assert doc["verdict"] == "fail"
    assert isinstance(doc["comparisons"], list) and doc["comparisons"]


def test_reports_build_comparisons_only_when_read(monkeypatch):
    """No checker, ``verdict``, ``strictness_flags``, ``ConditionCase.matches`` or ``to_dict``
    builds a ``Comparison``; the first ``comparisons`` read builds one per row, once, and
    they serialize as ``to_dict`` does, key for key in order."""
    built = []
    init = V.Comparison.__init__
    monkeypatch.setattr(V.Comparison, "__init__",
                        lambda self, *args, **kw: built.append(self) or init(self, *args, **kw))
    with V.shared_values():
        runs = [(case, run_condition_case(case)) for case in CONDITION_CASES]
    assert {case.condition for case, _ in runs} == set(Condition)
    docs = [(case.matches(rep), rep.verdict, rep.strictness_flags, rep.to_dict()) for case, rep in runs]
    assert built == [] and all(matched for matched, *_ in docs)
    for (_, rep), (*_, doc) in zip(runs, docs):
        built.clear()
        comparisons = rep.comparisons
        assert built == comparisons and rep.comparisons is comparisons
        assert [list(c.to_dict().items()) for c in comparisons] == [list(d.items()) for d in doc["comparisons"]]


def test_report_equality_compares_every_comparison(w4):
    rep, again = check_hierarchy(TANGLE, w4), check_hierarchy(TANGLE, w4)
    assert rep == again and not rep != again
    (block,) = rep.columns
    value_y = block["value_y"].copy()
    value_y[0] += 1e-3
    changed = dataclasses.replace(rep, columns=({**block, "value_y": value_y},))
    assert changed != rep and changed.verdict == rep.verdict
    assert "array" not in repr(rep) and len(repr(rep)) < 400


def test_partition_value_on_a_full_cover_reads_no_cut_table(monkeypatch):
    """On a pure state, a partition of all its labels is ``measure_pure`` along it: only its
    own cuts are diagonalized, and it is the cut table's value within 1e-13."""
    state = random_pure_state((2,) * 8, seed=3)
    spec = MeasureSpec(Family.SUM, ReducedFunctionSpec(HKind.TANGLE))
    part = parse_partition("ABCD|EFGH", state.labels)
    table = V._Valuation(spec, state).value(part)
    calls = []
    cut_table = V._cut_table
    monkeypatch.setattr(V, "_cut_table", lambda *args: calls.append(args) or cut_table(*args))
    value, roofed, spread = partition_value(spec, state, part)
    assert calls == [] and not roofed and spread == 0.0
    assert abs(value - table[0]) <= 1e-13


def test_a_faked_pair_index_does_not_outlive_its_test(monkeypatch):
    """The cached index's arrays are read-only, and a check run after a fake of the index
    tests every real pair."""
    state = registry()["w3"].state
    x, y = (parse_partition(t, "ABC") for t in ("A|B|C", "A|BC"))
    with monkeypatch.context() as m:
        _fake_pairs(m, x, y)
        assert len(check_hierarchy(SUM_TANGLE, state).comparisons) == 1
    real = _oracle_pairs(state.labels, V.CoarseningKind.COMBINE_BLOCKS, "full")
    assert len(check_hierarchy(SUM_TANGLE, state).comparisons) == len(real) > 1
    points, names, xi, yi = V._pair_index(state.labels, V.CoarseningKind.COMBINE_BLOCKS)
    assert [(points[i].blocks, points[j].blocks) for i, j in zip(xi, yi)] == [(a.blocks, b.blocks) for a, b in real]
    assert list(names) == [format_partition(p) for p in points]
    for arr in (xi, yi):
        assert arr.dtype == np.intp
        with pytest.raises(ValueError):
            arr[0] = 0


def _per_pair_screen(valuation, xs, x, y, decides):
    """The screen on one pair, the oracle of ``V._screen``: E(x), then, when x is exact and y is
    no pair's x (``xs`` holds the blocks of every pair's x), y's bound, on which ``decides`` may
    settle the pair; else E(y).  Returns (E(x), E(y), decided, roofed, spread) as the screen
    does: a decided pair reads y's bound as E(y), unroofed and with no spread."""
    vx, rx, sx = valuation.value(x)
    hi = np.nan if rx or y.blocks in xs else valuation.bounds([y])[0]  # NaN: no bound, which decides no pair
    if decides(vx - hi):
        valuation.bound_decided += 1
        return vx, hi, True, False, 0.0
    vy, ry, sy = valuation.value(y)
    return vx, vy, False, rx or ry, sx + sy


def _per_pair_monotone(kind, move, valuation, strict):
    """The monotone rule one pair at a time over the index's pairs, the oracle of the array checker.
    Its comparisons go to the report as one column block."""
    comparisons = []
    relation = ">" if strict else ">="
    pairs = _index_pairs(valuation.state.labels, move)
    xs = {x.blocks for x, _ in pairs}
    decides = (lambda margin: margin > V.MONOTONE_TOL) if strict else (lambda margin: margin >= -V.MONOTONE_TOL)
    for x, y in pairs:
        nx, ny = format_partition(x), format_partition(y)
        vx, vy, decided, roofed, spread = _per_pair_screen(valuation, xs, x, y, decides)
        if decided:
            comparisons.append(V.Comparison(kind, nx, ny, vx, vy, relation, True, note=V.EIGEN_BOUND_NOTE))
            continue
        gap = vx - vy
        slack = max(V.MONOTONE_TOL, 3 * spread if roofed else 0.0)
        near = False
        if not strict:
            passed = gap >= -slack
        elif vx <= V.MONOTONE_TOL and vy <= V.MONOTONE_TOL:
            continue
        else:
            near = abs(gap) <= V.MONOTONE_TOL
            passed = gap > V.MONOTONE_TOL or near
        comparisons.append(V.Comparison(
            kind, nx, ny, vx, vy, relation, passed, strict and roofed and not passed and gap > -slack,
            roofed, spread, "near-degenerate strictness" if near else None))
    return V._block([dataclasses.astuple(c) for c in comparisons])


def _per_pair_monogamy_check(condition, move, spec, state, seed):
    """The monogamy screen one pair at a time over the index's pairs, the oracle of the array
    checker."""
    comparisons = []
    valuation = V._Valuation(spec, state, seed)
    strict = spec.genuine and is_genuinely_entangled(state)
    pairs = _index_pairs(state.labels, move)
    xs = {x.blocks for x, _ in pairs}
    for x, y in pairs:
        nx, ny = format_partition(x), format_partition(y)
        vx, vy, decided, roofed, spread = _per_pair_screen(
            valuation, xs, x, y, lambda margin: margin > V.ROOFED_BAND_FLOOR)
        if decided:
            continue
        band = max(V.PURE_COINCIDENCE_TOL, V.ROOFED_BAND_FLOOR if roofed else 0.0, 3 * spread)
        if vx - vy < -band:
            if strict:
                comparisons.append(V.Comparison(
                    "ordering", nx, ny, vx, vy, ">", False, roofed=roofed, spread=spread,
                    note="value increases under coarsening; both branches of the genuine condition fail"))
            continue
        if vx - vy > band or (vx <= band and vy <= band):
            continue
        for gamma in sorted(V.xi_set(x, y), key=format_partition):
            vg, rg, sg = valuation.value(gamma)
            ok = vg <= V.PURE_COINCIDENCE_TOL
            comparisons.append(V.Comparison(
                "disentangling", f"{nx}~{ny}", format_partition(gamma), vx, vg, "gamma==0", ok,
                (not ok) and rg and vg <= V.PURE_COINCIDENCE_TOL + 3 * sg, roofed or rg,
                spread + sg, f"coincidence {vx:.6g} ~ {vy:.6g}"))
    notes = [] if comparisons else ["no value coincidence across tested pairs; condition holds vacuously"]
    return V._report(condition, valuation, (V._block([dataclasses.astuple(c) for c in comparisons]),), notes)


@st.composite
def lattice_states(draw):
    """A Haar state on 3 to 5 parties of dims 2 and 3, or a W or GHZ state on 3 to 5 parties."""
    n = draw(st.integers(3, 5))
    kind = draw(st.sampled_from(["haar", "w", "ghz"]))
    if kind == "haar":
        dims = tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=n, max_size=n)))
        return random_pure_state(dims, seed=draw(st.integers(0, 2**32 - 1)))
    return V.make_w_state(n) if kind == "w" else V.make_ghz(draw(st.sampled_from([2, 3])), n)


def _quick_roof(spec, grouped, seed, **opts):
    """A stand-in for the roof: the eigen-ensemble value, lowered by its spread of 1e-3 of it,
    so that roofed values meet the slack and band rules with no descent run."""
    bound = eigen_ensemble_value(spec, grouped)
    return SimpleNamespace(value=bound - 1e-3 * bound, spread=1e-3 * bound)


def _on_grid(m):
    """Round every value and bound to eighths and give roofed values a spread of 1/20, so that
    ties, near-degenerate gaps, bound decisions at equality and roofed shortfalls inside the
    slack, rare on Haar states, occur often."""
    values, bounds = V._Valuation.values, V._Valuation.bounds

    def coarse(self, parts):
        return [(round(8 * v) / 8, roofed, 1 / 20 if roofed else 0.0) for v, roofed, _ in values(self, parts)]

    def coarse_bounds(self, parts):
        return np.round(8 * bounds(self, parts)) / 8  # NaN, no bound, stays NaN

    m.setattr(V._Valuation, "values", coarse)
    m.setattr(V._Valuation, "bounds", coarse_bounds)


@settings(max_examples=100)
@given(lattice_states(), st.sampled_from(list(Family)), st.sampled_from([HKind.TANGLE, HKind.PNORM_MIN]),
       st.booleans())
def test_array_checkers_match_the_per_pair_rule(state, family, kind, grid):
    """Hierarchy and tight complete monogamy, and on up to four parties complete monogamy and
    unification under sum/tangle and the drawn spec, give the reports and counts of the
    per-pair rule, with one stand-in roof under both, on the values or on the values rounded
    to a grid."""
    spec = MeasureSpec(family, ReducedFunctionSpec(kind))
    runs = [(check_hierarchy, spec), (check_tight_complete_monogamy, spec)]
    if len(state.dims) <= 4:
        runs += [(check_complete_monogamy, spec)] + [(check_unification, s) for s in dict.fromkeys([SUM_TANGLE, spec])]

    def reports():
        return [(rep.to_dict(), {k: rep.stats[k] for k in ("pure_values", "roofs", "bound_decided")})
                for rep in (check(s, state) for check, s in runs)]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(V, "convex_roof", _quick_roof)
        if grid:
            _on_grid(m)
        got = reports()
        m.setattr(V, "_monotone", _per_pair_monotone)
        m.setattr(V, "_monogamy_check", _per_pair_monogamy_check)
        assert got == reports()
