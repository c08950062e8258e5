import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entmono import (
    DensityOperator,
    Family,
    HKind,
    MeasureSpec,
    PureState,
    ReducedFunctionSpec,
    StateError,
    convex_roof,
    decomposition_from_unitary,
    eigenvalues,
    measure_pure,
    parse_partition,
    partial_trace,
    projector,
    random_density_operator,
    wootters_concurrence,
)
from entmono.convexroof import (WEIGHT_PRUNE, RoofStats, _descend, _eig_desc, _ensemble, _gradient_roof,
                                _roof_gradient, _zero_diagonal, eigen_ensemble_value)
from entmono.measures import GATE_EPS, member_values
from entmono.redfun import CATALOG, CONVEX_IN_CONCURRENCE, h_spectrum
from entmono.verify import ROOF_OPTS, make_omega, make_w_state
from conftest import ket

CONC = MeasureSpec(Family.MAX, ReducedFunctionSpec(HKind.CONCURRENCE))
TANGLE = MeasureSpec(Family.MAX, ReducedFunctionSpec(HKind.TANGLE))
NONCONVEX = MeasureSpec(Family.MAX, ReducedFunctionSpec(HKind.TSALLIS, 0.5))

SEPARABLE = DensityOperator(("A", "B"), (2, 2), np.diag([0.5, 0, 0, 0.5]).astype(complex))


# --- the closed-form oracle ------------------------------------------------------

def test_wootters_bell(bell):
    assert abs(wootters_concurrence(projector(bell)) - 1.0) < 1e-9


def test_wootters_separable():
    assert wootters_concurrence(SEPARABLE) == 0.0


def test_wootters_w3_pair_marginal():
    st = make_w_state(3)
    op = partial_trace(st, ["A", "B"])
    assert abs(wootters_concurrence(op) - 2 / 3) < 1e-9


def test_wootters_omega_pair_marginal():
    # corner-supported state: concurrence equals twice the off-diagonal, 2*sqrt(7)/9
    op = partial_trace(make_omega("i"), ["A", "B"])
    assert abs(wootters_concurrence(op) - 2 * math.sqrt(7) / 9) < 1e-9


def _wootters_mpmath(matrix: np.ndarray) -> float:
    """max(0, l1 - l2 - l3 - l4) of the stored floats, from the eigenvalues of
    rho (sy x sy) rho* (sy x sy) at 50 digits."""
    import mpmath

    with mpmath.workdps(50):
        rho = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in matrix])
        yy = mpmath.matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
        ev = mpmath.eig(rho * yy * rho.conjugate() * yy, left=False, right=False)
        lam = sorted((mpmath.sqrt(max(mpmath.re(e), 0)) for e in ev), reverse=True)
        return float(max(0, lam[0] - lam[1] - lam[2] - lam[3]))


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_wootters_matches_mpmath(rank):
    for seed in range(12):
        op = random_density_operator((2, 2), seed, rank=rank)
        assert abs(wootters_concurrence(op) - _wootters_mpmath(np.asarray(op.matrix))) <= 1e-14, seed


def test_wootters_dimension_guard(bell):
    with pytest.raises(StateError):
        wootters_concurrence(random_density_operator((3, 2), seed=0))


# --- decompositions -----------------------------------------------------------------

def test_zero_diagonal_skips_an_entry_that_is_already_zero():
    k = np.array([[0.0, 0.3, -0.2], [0.3, 1.0, 0.5], [-0.2, 0.5, -1.0]])
    q = _zero_diagonal(k)
    assert np.abs(q.T @ q - np.eye(3)).max() <= 1e-15
    assert np.abs(np.diag(q.T @ k @ q)).max() <= 2e-16


def test_identity_isometry_reproduces_eigendecomposition():
    op = random_density_operator((2, 2), seed=4, rank=3)
    dec = decomposition_from_unitary(op, np.eye(3))
    w = eigenvalues(op).eigenvalues
    got = sorted((wt for wt, _ in dec.members), reverse=True)
    assert np.allclose(got, w[:3], atol=1e-10)


def test_rank_one_decomposition(bell):
    dec = decomposition_from_unitary(projector(bell), np.eye(1))
    assert dec.cardinality == 1
    assert abs(dec.members[0][0] - 1.0) < 1e-12


def test_random_isometry_reconstructs():
    rng = np.random.default_rng(8)
    op = random_density_operator((2, 2), seed=8)  # rank 4
    g = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    q, _ = np.linalg.qr(g)
    dec = decomposition_from_unitary(op, q)
    assert np.abs(dec.average_operator() - op.matrix).max() < 1e-8
    assert abs(math.fsum(w for w, _ in dec.members) - 1.0) < 1e-10


def test_non_isometry_rejected():
    op = random_density_operator((2, 2), seed=9)
    with pytest.raises(StateError):
        decomposition_from_unitary(op, np.ones((4, 4)))


# --- the roof objective ----------------------------------------------------------

#: (2, 3, 4) has smaller sides 2, 3 and 4: two-level cuts beside two wide widths.
ROOF_DIMS = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 3, 4)]


@pytest.mark.parametrize("dims", ROOF_DIMS)
def test_roof_objective_is_weighted_measure_pure(dims):
    """For every family and catalog h the roof objective is fsum(w measure_pure),
    member by member; a member below WEIGHT_PRUNE is dropped."""
    rng = np.random.default_rng(7 * sum(dims) + len(dims))
    d, k = math.prod(dims), 6
    phi = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
    phi /= math.sqrt((np.abs(phi) ** 2).sum())
    phi[2] *= 1e-7  # weight ~1e-15, below WEIGHT_PRUNE: dropped
    weights = (np.abs(phi) ** 2).sum(axis=1)
    assert weights[2] < WEIGHT_PRUNE
    labels = "ABC"[:len(dims)]
    members = [(w, PureState(labels, dims, row / math.sqrt(w)))
               for w, row in zip(weights, phi) if w > WEIGHT_PRUNE]
    for family in Family:
        for h in CATALOG:
            spec = MeasureSpec(family, h)
            value, _ = _roof_gradient(spec, phi.T, dims)(np.eye(k)[None])
            want = math.fsum(w * measure_pure(spec, psi) for w, psi in members)
            assert abs(value[0] - want) < 1e-12, spec.name


@pytest.mark.parametrize("dims", ROOF_DIMS)
def test_gradient_objective_and_gradient(dims):
    """For every family and catalog h the roof gradient matches central differences
    at a random isometry."""
    rng = np.random.default_rng(7 * sum(dims) + len(dims))
    d, r = math.prod(dims), 2
    basis = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    u, _ = np.linalg.qr(rng.standard_normal((3, r)) + 1j * rng.standard_normal((3, r)))
    eps = 1e-6
    steps = np.eye(u.size).reshape((u.size,) + u.shape)
    probes = np.concatenate([steps, 1j * steps])
    for family in Family:
        for h in CATALOG:
            spec = MeasureSpec(family, h)
            fg = _roof_gradient(spec, basis, dims)
            _, egrad = fg(u[None])
            plus, _ = fg(u + eps * probes)
            minus, _ = fg(u - eps * probes)
            numeric = (plus - minus) / (2 * eps)
            exact = np.concatenate([egrad[0].real.ravel(), egrad[0].imag.ravel()])
            assert np.abs(numeric - exact).max() <= 1e-6 * np.abs(exact).max(), spec.name


FORMER_POWELL = [
    (MeasureSpec(Family.MAX, ReducedFunctionSpec(HKind.TANGLE)), 3),
    (MeasureSpec(Family.GMIN, ReducedFunctionSpec(HKind.TANGLE)), 3),
    (MeasureSpec(Family.MAX_BIPART, ReducedFunctionSpec(HKind.TANGLE)), 4),
    (MeasureSpec(Family.GSUM, ReducedFunctionSpec(HKind.TANGLE)), 3),
    (MeasureSpec(Family.GSUM_BIPART, ReducedFunctionSpec(HKind.CONCURRENCE)), 3),
    (MeasureSpec(Family.SUM, ReducedFunctionSpec(HKind.PNORM2)), 2),
    (MeasureSpec(Family.MAX, ReducedFunctionSpec(HKind.PNORM_MIN)), 2),
    (MeasureSpec(Family.MAX, ReducedFunctionSpec(HKind.PNEGATIVITY)), 2),
    (MeasureSpec(Family.SUM, ReducedFunctionSpec(HKind.ENTROPY)), 2),
    (MeasureSpec(Family.SUM, ReducedFunctionSpec(HKind.TSALLIS, 3.0)), 2),
]


@pytest.mark.parametrize("spec,n_blocks", FORMER_POWELL)
def test_former_powell_kinds_take_gradient_path(spec, n_blocks):
    """Kinds once searched by Powell descend too, to a certified bound below the eigen-ensemble.

    Two qubits under a kind convex in the concurrence take the closed form, so
    those cases descend on a qubit and a qutrit."""
    closed = n_blocks == 2 and spec.h in CONVEX_IN_CONCURRENCE
    if closed:
        two_qubits = random_density_operator((2, 2), seed=n_blocks, rank=2)
        assert convex_roof(spec, two_qubits, m=3).stats.path == "closed"
    op = random_density_operator((2, 3) if closed else (2,) * n_blocks, seed=n_blocks, rank=2)
    res = convex_roof(spec, op, m=3, restarts=2, seed=1, max_iters=2)
    assert res.stats.path == "gradient"
    avg = math.fsum(w * measure_pure(spec, psi) for w, psi in res.decomposition.members)
    assert avg == res.value
    eigen = decomposition_from_unitary(op, np.eye(2))
    assert res.value <= math.fsum(w * measure_pure(spec, psi) for w, psi in eigen.members) + 1e-12


def _binary_entropy(p: float) -> float:
    return -math.fsum(x * math.log(x) for x in (p, 1.0 - p) if x > 0)


#: Two-qubit roofs that are convex increasing functions of Wootters' C (nats).
TWO_QUBIT_CLOSED_FORMS = {
    "entropy": lambda c: _binary_entropy((1 + math.sqrt(max(0.0, 1 - c * c))) / 2),
    "pnorm2": lambda c: (1 - math.sqrt(max(0.0, 1 - c * c))) / 2,
    "pnorm-min": lambda c: (1 - math.sqrt(max(0.0, 1 - c * c))) / 2,
    "negativity": lambda c: c / 2,
    "pnegativity": lambda c: c / 2,
}


@pytest.mark.parametrize("h", list(TWO_QUBIT_CLOSED_FORMS))
def test_roof_matches_two_qubit_closed_forms(h):
    spec = MeasureSpec(Family.MAX, ReducedFunctionSpec.parse(h))
    rng = np.random.default_rng(616161)
    for i in range(12):
        rank = int(rng.integers(2, 5))
        op = random_density_operator((2, 2), int(rng.integers(0, 2 ** 62)), rank=rank)
        res = convex_roof(spec, op, m=4, restarts=2, seed=i, max_iters=5)
        gap = res.value - TWO_QUBIT_CLOSED_FORMS[h](wootters_concurrence(op))
        assert -1e-12 <= gap <= 1e-6, (i, gap)


# --- the two-qubit closed form -------------------------------------------------

def _of_concurrence(h, c):
    """h on the marginal of a pure two-qubit state of concurrence c: the f with h(psi) = f(C)."""
    small = c * c / (2 * (1 + math.sqrt(max(0.0, 1 - c * c))))
    return h_spectrum(h, [1 - small, small])


def _criterion_11_states(n):
    """The first n of criterion 11's two-qubit states, with their index."""
    rng = np.random.default_rng(1109)
    for i in range(n):
        rank = int(rng.integers(2, 5))
        yield i, random_density_operator((2, 2), int(rng.integers(0, 2 ** 62)), rank=rank)


def _descent_value(spec, op, m, restarts, seed, max_iters):
    """The search's certified value, run directly where convex_roof takes the closed form."""
    w, vecs = _eig_desc(op.matrix)
    basis = vecs * np.sqrt(w)
    candidates = _gradient_roof(spec, basis, op.dims, w.size, m, restarts, seed, max_iters, 1e-8,
                                RoofStats("gradient"))[0]
    return min(math.fsum(wt * member_values(spec, rows, op.dims))
               for wt, rows in (_ensemble(op, basis, u) for u in candidates))


def test_convex_in_concurrence_is_exactly_the_convex_nondecreasing_kinds():
    grid = np.linspace(0.0, 1.0, 401)
    convex = set()
    for h in CATALOG:
        f = np.array([_of_concurrence(h, c) for c in grid])
        if np.diff(f).min() >= -1e-12 and np.diff(f, 2).min() >= -1e-12:
            convex.add(h)
    assert convex == CONVEX_IN_CONCURRENCE
    assert len(convex) == 12


def test_closed_form_on_criterion_11_states():
    for i, op in _criterion_11_states(100):
        c = wootters_concurrence(op)
        for h in CONVEX_IN_CONCURRENCE:
            res = convex_roof(MeasureSpec(Family.MAX, h), op, m=4, restarts=2, seed=i, max_iters=5)
            assert res.stats.path == "closed"
            assert abs(res.value - _of_concurrence(h, c)) <= 1e-12, (i, h.name)


def test_descent_keeps_its_two_qubit_oracle():
    """The search, which two-qubit concurrence roofs no longer reach, still meets Wootters' C."""
    for i, op in _criterion_11_states(30):
        gap = _descent_value(CONC, op, m=4, restarts=2, seed=i, max_iters=5) - wootters_concurrence(op)
        assert -1e-9 <= gap <= 1e-9, (i, gap)


@pytest.mark.parametrize("rank, steered", [(3, 0.5288356721509749), (4, 0.2095137507859062)])
def test_concurrence_descends_on_itself(rank, steered):
    """Max/concurrence on a 2x3 state descends on the concurrence alone, and lands below the
    value (``steered``) of a search that descended on the tangle first and finished on a
    shortened concurrence descent."""
    res = convex_roof(CONC, random_density_operator((2, 3), 101, rank=rank))
    assert res.stats.path == "gradient"
    assert res.value <= steered - 1e-3, res.value


def _bell_diagonal(weights):
    bell = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / math.sqrt(2)
    return DensityOperator(("A", "B"), (2, 2), (bell.T * weights) @ bell)


#: Boundary cases of the closed form: Werner at p = 1/3 (C_W = 0 with s_1 = s_2 + s_3 + s_4),
#: Bell-diagonal states with equal weights (rank 2, where s_1 = s_2, and rank 3), the
#: maximally mixed state, a product of mixed qubits, and a classical mixture whose
#: spin-flip overlaps all vanish.
SPECIAL_TWO_QUBIT = [
    _bell_diagonal([1 / 6, 1 / 6, 1 / 6, 1 / 2]),
    _bell_diagonal([1 / 2, 1 / 2, 0, 0]),
    _bell_diagonal([1 / 3, 1 / 3, 1 / 3, 0]),
    _bell_diagonal([1 / 4] * 4),
    DensityOperator(("A", "B"), (2, 2), np.kron(random_density_operator((2,), seed=1).matrix,
                                                random_density_operator((2,), seed=2).matrix)),
    DensityOperator(("A", "B"), (2, 2), np.diag([0.5, 0.5, 0, 0]).astype(complex)),
]

two_qubit_operators = st.one_of(
    st.builds(lambda rank, seed: random_density_operator((2, 2), seed, rank=rank),
              st.integers(2, 4), st.integers(0, 2 ** 32 - 1)),
    st.sampled_from(SPECIAL_TWO_QUBIT))


@settings(max_examples=20)
@example(SPECIAL_TWO_QUBIT[3], Family.GSUM_BIPART, ReducedFunctionSpec(HKind.ENTROPY), 0)  # not drawn
@given(two_qubit_operators, st.sampled_from(list(Family)),
       st.sampled_from(sorted(CONVEX_IN_CONCURRENCE, key=lambda h: h.name)), st.integers(0, 2 ** 32 - 1))
def test_closed_form_is_f_of_wootters_and_at_most_the_descent(op, family, h, seed):
    """Every admitted kind under every family is its factor times f(C_W), the gated
    families within GATE_EPS; for one drawn pair it is at most the search's value."""
    c = wootters_concurrence(op)
    for fam in Family:
        factor = 0.5 if fam in (Family.SUM_BIPART, Family.GSUM_BIPART) else 1.0
        for kind in CONVEX_IN_CONCURRENCE:
            spec = MeasureSpec(fam, kind)
            res = convex_roof(spec, op)
            assert res.stats.path == "closed"
            assert abs(res.value - factor * _of_concurrence(kind, c)) <= (GATE_EPS if spec.genuine else 1e-12)
    spec = MeasureSpec(family, h)
    closed = convex_roof(spec, op).value
    assert closed <= _descent_value(spec, op, m=4, restarts=2, seed=seed, max_iters=2) + 1e-12


def test_rank_three_separable_state_at_three_members_descends():
    """Wootters' product ensemble of a rank-3 separable state has four members."""
    op = _bell_diagonal([1 / 3, 1 / 3, 1 / 3, 0])
    assert convex_roof(CONC, op, m=4).stats.path == "closed"
    res = convex_roof(CONC, op, m=3, restarts=1, max_iters=1)
    assert res.stats.path == "gradient"
    assert res.decomposition.cardinality <= 3


def test_roof_logs_its_path_at_debug_only(caplog, capsys, bell):
    ops = [projector(bell), random_density_operator((2, 2), seed=4, rank=2),
           random_density_operator((2, 3), seed=4, rank=2)]
    with caplog.at_level(logging.DEBUG, logger="entmono.convexroof"):
        for op in ops:
            convex_roof(CONC, op, restarts=1, max_iters=1)
    assert [rec.getMessage().split("path ")[1].split(",")[0] for rec in caplog.records] == [
        "pure", "closed", "gradient"]
    assert capsys.readouterr() == ("", "")


# --- roof optimization ------------------------------------------------------------

def test_pure_input_short_circuits(bell):
    res = convex_roof(CONC, projector(bell))
    assert res.stats.restarts == 0
    assert res.converged
    assert abs(res.value - 1.0) < 1e-9


def test_separable_roof_vanishes():
    res = convex_roof(CONC, SEPARABLE, seed=1)
    assert res.value <= 1e-6


def test_roof_tracks_wootters_on_seeded_batch():
    rng = np.random.default_rng(424242)
    for i in range(12):
        rank = int(rng.integers(2, 5))
        op = random_density_operator((2, 2), int(rng.integers(0, 2 ** 62)), rank=rank)
        w = wootters_concurrence(op)
        res = convex_roof(CONC, op, m=max(2, eigenvalues(op).effective_rank),
                          restarts=2, seed=i, max_iters=5)
        assert res.value >= w - 1e-9
        assert res.value <= w + 1e-3


def test_tangle_roof_tracks_osborne_on_seeded_batch():
    """Two-qubit tangle roof equals C_W^2 (Osborne, PRA 72, 022309)."""
    rng = np.random.default_rng(515151)
    for i in range(12):
        rank = int(rng.integers(2, 5))
        op = random_density_operator((2, 2), int(rng.integers(0, 2 ** 62)), rank=rank)
        res = convex_roof(TANGLE, op, m=4, restarts=2, seed=i, max_iters=5)
        gap = res.value - wootters_concurrence(op) ** 2
        assert -1e-9 <= gap <= 1e-3


def test_roof_value_matches_its_own_decomposition():
    from entmono.measures import measure_pure

    op = random_density_operator((2, 2), seed=21, rank=2)
    res = convex_roof(CONC, op, restarts=2, seed=2)
    avg = math.fsum(w * measure_pure(CONC, psi) for w, psi in res.decomposition.members)
    assert avg == res.value
    assert np.abs(res.decomposition.average_operator() - op.matrix).max() < 1e-8


def test_roof_eigendecomposes_once_and_values_each_candidate_in_one_call(monkeypatch):
    from entmono import convexroof

    calls, candidates = [], []

    def counted(name):
        fn = getattr(convexroof, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for name in ("_eig_desc", "member_values", "measure_pure"):
        monkeypatch.setattr(convexroof, name, counted(name))
    search = convexroof._gradient_roof

    def gradient_roof(*args):
        out = search(*args)
        candidates.extend(out[0])
        return out

    monkeypatch.setattr(convexroof, "_gradient_roof", gradient_roof)
    # tsallis:0.5 is not convex in the concurrence, so two qubits still take the search.
    convex_roof(NONCONVEX, random_density_operator((2, 2), seed=21, rank=2), restarts=2, seed=2)
    assert len(candidates) == 2
    assert calls == ["_eig_desc"] + ["member_values"] * len(candidates)

    calls.clear()
    res = convex_roof(CONC, random_density_operator((2, 2), seed=21, rank=2), restarts=2, seed=2)
    assert res.stats.path == "closed"
    assert len(candidates) == 2 and calls == ["_eig_desc", "member_values"]  # no further search


@settings(max_examples=26)
@given(st.sampled_from(list(Family)), st.sampled_from(CATALOG),
       st.sampled_from([(2, 2), (2, 3), (2, 2, 2)]), st.integers(2, 3), st.integers(0, 2**32 - 1))
def test_roof_stays_at_or_below_its_eigen_ensemble_value(family, h, dims, rank, seed):
    """The checkers decide pairs on the eigen-ensemble value as an upper bound on the roof;
    the roof at the checkers' settings, which starts near that ensemble, never exceeds it."""
    spec = MeasureSpec(family, h)
    op = random_density_operator(dims, seed, rank=rank)
    assert convex_roof(spec, op, seed=seed, **ROOF_OPTS).value <= eigen_ensemble_value(spec, op) + 1e-12


def test_roof_monotone_in_cardinality():
    op = random_density_operator((2, 2), seed=31, rank=2)
    big = convex_roof(CONC, op, restarts=3, seed=5)          # default m = r^2
    small = convex_roof(CONC, op, m=2, restarts=3, seed=5)
    assert big.value <= small.value + 1e-9


def test_roof_convexity_sanity():
    spec = TANGLE
    rng = np.random.default_rng(77)
    for i in range(3):
        r1 = random_density_operator((2, 2), int(rng.integers(0, 2 ** 62)), rank=2)
        r2 = random_density_operator((2, 2), int(rng.integers(0, 2 ** 62)), rank=2)
        lam = float(rng.uniform(0.2, 0.8))
        mix = DensityOperator(r1.labels, r1.dims, lam * r1.matrix + (1 - lam) * r2.matrix)
        v_mix = convex_roof(spec, mix, restarts=2, seed=i, max_iters=4).value
        v1 = convex_roof(spec, r1, restarts=2, seed=i, max_iters=4).value
        v2 = convex_roof(spec, r2, restarts=2, seed=i, max_iters=4).value
        assert v_mix <= lam * v1 + (1 - lam) * v2 + 2e-3


def test_roof_on_three_block_partition():
    # zero target on a product of a Bell pair with a mixed spectator
    bell = ket("AB", (2, 2), {(0, 0): 1 / math.sqrt(2), (1, 1): 1 / math.sqrt(2)})
    rho_c = random_density_operator((2,), seed=3)
    op = DensityOperator(("A", "B", "C"), (2, 2, 2), np.kron(projector(bell).matrix, rho_c.matrix))
    spec = MeasureSpec(Family.SUM, ReducedFunctionSpec(HKind.TANGLE))
    res = convex_roof(spec, op, restarts=2, seed=4, max_iters=4)
    # members factor as Bell x pure, so the sum collects only the Bell tangle
    assert abs(res.value - 1.0) < 5e-6


@pytest.mark.parametrize("family,h,want", [
    (Family.SUM_BIPART, HKind.TANGLE, 1.5521500615730233),
    (Family.MAX_BIPART, HKind.ENTROPY, 1.0009619977288826),
])
def test_seeded_roof_on_two_wide_widths(family, h, want):
    """Seeded roofs on (2, 3, 4), whose cuts take one eigensolve per width, keep
    the values the per-cut evaluator gave."""
    op = random_density_operator((2, 3, 4), seed=3, rank=2)
    res = convex_roof(MeasureSpec(family, ReducedFunctionSpec(h)), op, m=3, restarts=2, seed=1, max_iters=2)
    assert abs(res.value - want) <= 1e-9


def test_guard_rejects_large_operators():
    from entmono.errors import GuardError

    op = random_density_operator((2,) * 7, seed=1, rank=2)
    with pytest.raises(GuardError):
        convex_roof(CONC, op)


@pytest.mark.parametrize("block", ["ABC", "ABCDEFG"])
def test_one_block_roof_is_invalid_at_any_dimension(block):
    op = random_density_operator((2,) * 7, seed=1, rank=2)
    with pytest.raises(StateError, match="at least two effective parties"):
        convex_roof(CONC, op, parse_partition(block, op.labels))


def test_descend_reports_a_stall_on_a_kink_as_not_converged():
    # |Re u00| at u = (0, 1): every step along the one-sided gradient raises the value.
    def fg(u):
        x = u[:, 0, 0].real
        e = np.zeros_like(u)
        e[:, 0, 0] = np.where(x >= 0, 1.0, -1.0)
        return np.abs(x), e

    start = np.array([[[0.0], [1.0]]], dtype=complex)
    u, f, converged, stalled = _descend(fg, start, 10, 1e-8, RoofStats("gradient"))
    assert stalled[0] and not converged[0]
    assert f[0] == 0.0 and np.array_equal(u, start)


# --- the benchmark tracer's hook -------------------------------------------------

def test_tracer_resolves_minimize_and_restores_every_patch(monkeypatch):
    """The tracer wraps ``convexroof.minimize`` by name; scipy loads only on that read."""
    import os

    import scipy.optimize

    import entmono.cli  # noqa: F401  (the tracer patches every entmono module)
    from entmono import convexroof

    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    import tracing

    assert "minimize" not in vars(convexroof)
    tracer = tracing.Tracer()
    tracer.install()
    patches = list(tracer._patches)
    try:
        olds = [old for owner, attr, old in patches if (owner, attr) == (convexroof, "minimize")]
        assert olds == [scipy.optimize.minimize]
        assert convexroof.minimize is not scipy.optimize.minimize  # the traced wrapper
    finally:
        tracer.uninstall()
    try:
        assert len(patches) > 1
        assert all(getattr(owner, attr) is old for owner, attr, old in patches)
    finally:
        vars(convexroof).pop("minimize", None)  # uninstall set it; reads go through the hook again
