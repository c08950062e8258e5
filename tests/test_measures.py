import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entmono import (
    Family,
    HKind,
    MeasureSpec,
    Partition,
    PureState,
    ReducedFunctionSpec,
    StateError,
    bipartition_subsets,
    eigenvalues,
    full_partition,
    genuine_gate,
    measure_pure,
    parse_partition,
    partial_trace,
    random_pure_state,
    tensor_product,
)
from entmono.measures import GATE_EPS, _cut_plan, measure_from_profile, pure_state_profile
from entmono.redfun import CATALOG, h_spectrum_batch
from entmono.verify import make_eta, make_ghz, make_zeta
from conftest import ket

H = ReducedFunctionSpec
TANGLE = H(HKind.TANGLE)
PNORM2 = H(HKind.PNORM2)
CONC = H(HKind.CONCURRENCE)


def spec(family, h=TANGLE):
    return MeasureSpec(family, h)


# --- bipartition index ---------------------------------------------------------

def test_bipartition_counts():
    for n in range(2, 7):
        subs = bipartition_subsets(n)
        assert len(subs) == 2 ** (n - 1) - 1
        # unordered bipartitions are hit exactly once
        seen = set()
        for s in subs:
            key = frozenset(s)
            comp = frozenset(set(range(n)) - set(s))
            assert key not in seen and comp not in seen
            seen.add(key)


def test_bipartition_examples():
    assert bipartition_subsets(2) == ((0,),)
    assert set(bipartition_subsets(3)) == {(0,), (1,), (2,)}
    assert set(bipartition_subsets(4)) == {(0,), (1,), (2,), (3,), (0, 1), (0, 2), (1, 2)}


# --- worked values ---------------------------------------------------------------

def test_zeta_min_norm_values():
    st = make_zeta()
    assert abs(measure_pure(spec(Family.GMIN, PNORM2), st) - 0.25) < 1e-12
    a_bc = measure_pure(spec(Family.MAX, PNORM2), st, parse_partition("A|BC", "ABC"))
    ab_c = measure_pure(spec(Family.MAX, PNORM2), st, parse_partition("AB|C", "ABC"))
    assert abs(a_bc - 5 / 12) < 1e-12
    assert abs(ab_c - 1 / 3) < 1e-12


def test_xi_gme_concurrence(xi_state):
    got = measure_pure(spec(Family.GMIN_BIPART, CONC), xi_state)
    assert abs(got - math.sqrt(15) / 8) < 1e-9
    # achieved at the ABC|D cut, while AB|CD sits higher
    abc_d = measure_pure(spec(Family.MAX, CONC), xi_state, parse_partition("ABC|D", "ABCD"))
    ab_cd = measure_pure(spec(Family.MAX, CONC), xi_state, parse_partition("AB|CD", "ABCD"))
    assert abs(abc_d - math.sqrt(15) / 8) < 1e-9
    assert abs(ab_cd - math.sqrt(65) / 8) < 1e-9


def test_eg2_max_min_norm():
    a = 1 / math.sqrt(3)
    st = ket("ABC", (2, 2, 2), {(0, 0, 0): a, (1, 0, 1): a, (1, 1, 0): a})
    got = measure_pure(spec(Family.MAX, PNORM2), st, parse_partition("A|BC", "ABC"))
    assert abs(got - 1 / 3) < 1e-12


def test_w4_hierarchy_pair_values(w4):
    fine = measure_pure(spec(Family.MAX), w4)
    merged = measure_pure(spec(Family.MAX), w4, parse_partition("AB|CD", "ABCD"))
    assert abs(fine - 0.75) < 1e-12
    assert abs(merged - 1.0) < 1e-12


def test_varphi_min_family_values():
    s = math.sqrt(5) / 4
    st = ket("ABCD", (2, 2, 2, 2),
             {(0, 0, 0, 0): s, (1, 1, 1, 1): s, (0, 1, 0, 0): 0.25, (1, 0, 1, 0): s})
    hmin = H(HKind.PNORM_MIN)
    gmin = measure_pure(spec(Family.GMIN, hmin), st)
    gminb = measure_pure(spec(Family.GMIN_BIPART, hmin), st)
    # single-party minimum comes from rho_D with spectrum {11/16, 5/16}
    assert abs(gmin - 5 / 16) < 1e-12
    # the AC|BD cut has the smallest nonzero eigenvalue (8 - sqrt 29)/16
    assert abs(gminb - (8 - math.sqrt(29)) / 16) < 1e-12
    assert gminb < gmin
    hneg = H(HKind.PNEGATIVITY)
    got = measure_pure(spec(Family.GMIN_BIPART, hneg), st)
    assert abs(got - math.sqrt(15) / (8 * math.sqrt(2))) < 1e-12


def test_sum_additivity_on_products(bell):
    other = ket("CD", (2, 2), {(0, 0): math.sqrt(0.3), (1, 1): math.sqrt(0.7)})
    st = tensor_product(bell, other)
    for h in (TANGLE, H(HKind.ENTROPY), PNORM2):
        whole = measure_pure(spec(Family.SUM, h), st)
        left = measure_pure(spec(Family.SUM, h), bell)
        right = measure_pure(spec(Family.SUM, h), other)
        assert abs(whole - left - right) < 1e-12


def test_genuine_gate(ghz3, w4):
    assert genuine_gate(TANGLE, ghz3)
    assert genuine_gate(TANGLE, w4)
    prod = tensor_product(ghz3, ket("D", (2,), {(0,): 1.0}))
    assert not genuine_gate(TANGLE, prod)
    for fam in (Family.GSUM, Family.GMAX, Family.GMIN, Family.GSUM_BIPART,
                Family.GMAX_BIPART, Family.GMIN_BIPART):
        assert measure_pure(spec(fam), prod) == 0.0


def test_permutation_invariance_random_states():
    sp = spec(Family.GMIN_BIPART, CONC)
    for seed in range(5):
        st = random_pure_state((2, 2, 2, 2), seed=seed)
        base = measure_pure(sp, st)
        perm = np.random.default_rng(seed).permutation(4)
        t = st.tensor().transpose(perm)
        st_p = type(st)([st.labels[i] for i in perm], [st.dims[i] for i in perm], t.reshape(-1))
        assert abs(measure_pure(sp, st_p) - base) < 1e-9


SC_KINDS = [H(HKind.ENTROPY), H(HKind.CONCURRENCE), H(HKind.TANGLE), H(HKind.TSALLIS, 2.0),
            H(HKind.RENYI, 0.5), H(HKind.NEGATIVITY), H(HKind.FIDELITY_F),
            H(HKind.FIDELITY_F_PRIME), H(HKind.FIDELITY_AF), H(HKind.TSALLIS_PRIME, 2.0),
            H(HKind.RENYI_PRIME, 0.5)]
SA_KINDS = [H(HKind.ENTROPY), H(HKind.CONCURRENCE), H(HKind.TANGLE), H(HKind.TSALLIS, 2.0),
            H(HKind.FIDELITY_F)]


def test_ordering_chains_random_qubit_states():
    for seed in range(20):
        for dims in ((2, 2, 2), (2, 2, 2, 2)):
            st = random_pure_state(dims, seed=seed)
            prof = pure_state_profile(st)
            for h in SC_KINDS:
                gminb = measure_from_profile(MeasureSpec(Family.GMIN_BIPART, h), prof)
                gmin = measure_from_profile(MeasureSpec(Family.GMIN, h), prof)
                gmax = measure_from_profile(MeasureSpec(Family.GMAX, h), prof)
                gsum = measure_from_profile(MeasureSpec(Family.GSUM, h), prof)
                s = measure_from_profile(MeasureSpec(Family.SUM, h), prof)
                sb = measure_from_profile(MeasureSpec(Family.SUM_BIPART, h), prof)
                assert gminb <= gmin + 1e-9
                assert gmin <= gmax + 1e-9
                assert gmax <= gsum + 1e-9
                assert s <= sb + 1e-9
            for h in SA_KINDS:
                mx = measure_from_profile(MeasureSpec(Family.MAX, h), prof)
                s = measure_from_profile(MeasureSpec(Family.SUM, h), prof)
                assert mx <= s + 1e-9


def test_three_party_coincidences():
    for seed in range(6):
        st = random_pure_state((2, 2, 2), seed=seed)
        prof = pure_state_profile(st)
        for h in (TANGLE, PNORM2):
            assert measure_from_profile(MeasureSpec(Family.SUM_BIPART, h), prof) == \
                   measure_from_profile(MeasureSpec(Family.SUM, h), prof)
            assert measure_from_profile(MeasureSpec(Family.MAX_BIPART, h), prof) == \
                   measure_from_profile(MeasureSpec(Family.MAX, h), prof)
            assert measure_from_profile(MeasureSpec(Family.GMIN_BIPART, h), prof) == \
                   measure_from_profile(MeasureSpec(Family.GMIN, h), prof)


def test_ghz_family_relations():
    for d, n in itertools.product((2, 3), (3, 4)):
        for t in (0.2, 0.5, 0.8):
            weights = [t] + [(1 - t) / (d - 1)] * (d - 1)
            st = make_ghz(d, n, tuple(weights))
            for h in (TANGLE, CONC, PNORM2):
                gmin = measure_pure(MeasureSpec(Family.GMIN, h), st)
                gmax = measure_pure(MeasureSpec(Family.GMAX, h), st)
                gsum = measure_pure(MeasureSpec(Family.GSUM, h), st)
                gminb = measure_pure(MeasureSpec(Family.GMIN_BIPART, h), st)
                assert abs(n * gmin - 2 * gsum) < 1e-9
                assert abs(n * gmax - 2 * gsum) < 1e-9
                assert abs(gmin - gminb) < 1e-9


def test_eta_marginal_structure():
    st = make_eta(0.8, 0.6)
    hmin = H(HKind.PNORM_MIN)
    prof = pure_state_profile(st)
    vals = [float(np.round(v, 12)) for v in
            (measure_from_profile(MeasureSpec(Family.MAX, hmin), prof),)]
    # middle party's minimum nonzero eigenvalue is the product of the factors'
    a = 1 - 0.8 ** 2
    c = 1 - 0.6 ** 2
    assert abs(max(min(a, 1 - a), min(c, 1 - c)) - vals[0]) < 1e-12


def test_mixed_partition_rejected(ghz3):
    with pytest.raises(StateError):
        measure_pure(spec(Family.SUM), ghz3, parse_partition("A|B", "ABC"))


def test_single_block_partition_rejected(ghz3):
    with pytest.raises(StateError):
        measure_pure(spec(Family.SUM), ghz3, parse_partition("ABC", "ABC"))


# --- two-level cuts near product states ---------------------------------------------

def _haar(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _exact_concurrence(psi, d_b):
    """2 sqrt(det M M^dag) / |psi|^2 of the stored floats, by Cauchy-Binet in mpmath."""
    import mpmath

    with mpmath.workdps(60):
        a = [[mpmath.mpc(complex(x)) for x in row] for row in psi.reshape(2, d_b)]
        det = mpmath.fsum(abs(a[0][i] * a[1][j] - a[0][j] * a[1][i]) ** 2
                          for i in range(d_b) for j in range(i + 1, d_b))
        norm = mpmath.fsum(abs(x) ** 2 for row in a for x in row)
        return float(2 * mpmath.sqrt(det) / norm)


@pytest.mark.parametrize("d_b", [2, 3])
@pytest.mark.parametrize("conc", [1e-9, 4.1e-8, 1e-6, 1e-4])
def test_concurrence_near_product_states_matches_mpmath(conc, d_b):
    """A small concurrence survives rounding in every local frame."""
    from entmono import PureState

    rng = np.random.default_rng(int(conc * 1e12) + d_b)
    p_small = conc ** 2 / (2 * (1 + math.sqrt(1 - conc ** 2)))  # 2 sqrt(p0 p1) = conc
    core = np.zeros((2, d_b), dtype=complex)
    core[0, 0], core[1, 1] = math.sqrt(1 - p_small), math.sqrt(p_small)
    for _ in range(40):
        psi = (_haar(rng, 2) @ core @ _haar(rng, d_b).T).ravel()
        state = PureState("AB", (2, d_b), psi)
        got = measure_pure(spec(Family.MAX, CONC), state)
        want = _exact_concurrence(state.amplitudes, d_b)
        assert got > 0.0
        assert abs(got - want) <= 1e-14, (got, want)


@pytest.mark.parametrize("kind,scale", [(HKind.PNORM_MIN, 1.0), (HKind.PNORM_MIN_PRIME, 2.0)])
def test_min_norm_kinds_read_near_pure_states_as_pure(kind, scale):
    """A 1e-11 Schmidt weight falls under the rank threshold and reads as pure; 1e-9 survives."""
    def value(weight):
        state = ket("AB", (2, 2), {(0, 0): math.sqrt(1 - weight), (1, 1): math.sqrt(weight)})
        return measure_pure(spec(Family.SUM, H(kind)), state)

    assert value(1e-11) <= 1e-10
    assert abs(value(1e-9) - scale * 1e-9) <= 1e-20


# --- the batched evaluator against a marginal-by-marginal reference -------------------

def test_cut_plan_stacks_cuts_by_width():
    plan = _cut_plan((2,) * 8, True)
    assert (plan.n_cuts, plan.n_two, plan.width) == (127, 8, 16)
    assert [(d, cuts, positions.shape) for d, cuts, positions in plan.groups] == [
        (2, slice(0, 8), (8, 2, 128)), (4, slice(8, 36), (28, 4, 64)),
        (8, slice(36, 92), (56, 8, 32)), (16, slice(92, 127), (35, 16, 16))]
    # (2, 3, 4): three singles with smaller sides 2, 3 and 4, so two wide widths
    assert [d for d, _, _ in _cut_plan((2, 3, 4), True).groups] == [2, 3, 4]
    for d, _, positions in _cut_plan((3, 2, 4, 2), True).groups:
        assert positions.shape[1] == d
        for row in positions.reshape(len(positions), -1):
            assert sorted(row) == list(range(48))


@st.composite
def pure_cases(draw):
    """A Haar state on 2-5 core parties of local dims 2-4, beside a pure factor on
    0-2 more parties with the labels interleaved, and a partition of the core labels
    whose blocks may merge several parties."""
    n_core, n_extra = draw(st.integers(2, 5)), draw(st.integers(0, 2))
    dims = draw(st.lists(st.integers(2, 4), min_size=n_core + n_extra, max_size=n_core + n_extra))
    if math.prod(dims) > 1024:
        dims = [2] * len(dims)
    seed = draw(st.integers(0, 2**32 - 1))
    labels = "ABCDEFG"[:len(dims)]
    state = random_pure_state(dims[:n_core], seed, labels=labels[:n_core])
    if n_extra:
        state = tensor_product(state, random_pure_state(dims[n_core:], seed + 1, labels=labels[n_core:]))
    order = draw(st.permutations(range(len(dims))))
    state = PureState([labels[i] for i in order], [dims[i] for i in order],
                      state.tensor().transpose(order).reshape(-1))
    n_blocks = draw(st.integers(2, n_core))
    block_of = list(range(n_blocks)) + draw(st.lists(st.integers(0, n_blocks - 1),
                                                     min_size=n_core - n_blocks, max_size=n_core - n_blocks))
    block_of = draw(st.permutations(block_of))
    blocks = [[lab for lab, b in zip(labels, block_of) if b == i] for i in range(n_blocks)]
    return state, Partition(blocks, labels)


def _singletons(dims):
    state = random_pure_state(dims, seed=5)
    return state, full_partition(state.labels)


def _reference_values(state, partition):
    """Every (family, h) value from partial_trace, eigenvalues and h_spectrum_batch,
    one marginal at a time on the smaller side of its cut."""
    blocks = partition.blocks
    n = len(blocks)

    def spectrum(chosen):
        side = [lab for i in chosen for lab in blocks[i]]
        other = [lab for i in range(n) if i not in chosen for lab in blocks[i]]
        size = {lab: d for lab, d in zip(state.labels, state.dims)}
        if math.prod(size[lab] for lab in side) > math.prod(size[lab] for lab in other):
            side = other
        return eigenvalues(partial_trace(state, side)).eigenvalues

    singles = [spectrum({i}) for i in range(n)]
    # one side of each unordered bipartition: the subsets holding block 0
    biparts = [spectrum({0, *rest}) for size in range(n - 1)
               for rest in itertools.combinations(range(1, n), size)]
    out = {}
    for h in CATALOG:
        h_single = [float(h_spectrum_batch(h, lam[None])[0]) for lam in singles]
        h_bipart = [float(h_spectrum_batch(h, lam[None])[0]) for lam in biparts]
        for family in Family:
            name = family.value
            vals = h_bipart if name.endswith("-bipart") else h_single
            rule = name.removesuffix("-bipart").removeprefix("g")
            value = {"sum": 0.5 * math.fsum(vals), "max": max(vals), "min": min(vals)}[rule]
            if name.startswith("g") and min(h_single) <= GATE_EPS:
                value = 0.0
            out[MeasureSpec(family, h)] = value
    return out


@settings(max_examples=40)
@given(pure_cases())
@example(_singletons((4, 2, 2, 2)))  # width groups holding single blocks beside pair cuts
@example(_singletons((2, 3, 2, 3, 2)))
def test_measure_pure_matches_marginal_reference(case):
    """measure_pure and the profile API, whose single-block families read the
    singles among every bipartition cut, against the reference."""
    state, partition = case
    profile = pure_state_profile(state, partition)
    for sp, want in _reference_values(state, partition).items():
        got = measure_pure(sp, state, partition)
        assert abs(got - want) <= 1e-12, (sp.name, got, want)
        assert abs(measure_from_profile(sp, profile) - want) <= 1e-12, sp.name


@settings(max_examples=25)
@given(pure_cases(), st.integers(0, 2**32 - 1))
def test_measure_pure_invariant_under_local_unitaries_and_relabelling(case, seed):
    state, partition = case
    rng = np.random.default_rng(seed)
    t = state.tensor()
    for axis, u in enumerate([_haar(rng, d) for d in state.dims]):
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [axis])), 0, axis)
    order = rng.permutation(len(state.labels))
    moved = PureState([state.labels[i] for i in order], [state.dims[i] for i in order],
                      t.transpose(order).reshape(-1), normalize=True)
    default = partition.cover == frozenset(state.labels) and all(len(b) == 1 for b in partition.blocks)
    for family in Family:
        for h in CATALOG:
            sp = MeasureSpec(family, h)
            want = measure_pure(sp, state, partition)
            assert abs(measure_pure(sp, moved, partition) - want) <= 1e-12, sp.name
            if default:
                assert abs(measure_pure(sp, moved) - want) <= 1e-12, sp.name
