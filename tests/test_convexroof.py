import math

import numpy as np
import pytest

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
    partial_trace,
    projector,
    random_density_operator,
    wootters_concurrence,
)
from entmono.convexroof import WEIGHT_PRUNE, _roof_gradient, _roof_objective, takes_gradient_path
from entmono.verify import make_omega, make_w_state
from conftest import ket

CONC = MeasureSpec(Family.MAX, ReducedFunctionSpec(HKind.CONCURRENCE))
TANGLE = MeasureSpec(Family.MAX, ReducedFunctionSpec(HKind.TANGLE))

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


def test_wootters_dimension_guard(bell):
    with pytest.raises(StateError):
        wootters_concurrence(random_density_operator((3, 2), seed=0))


# --- decompositions -----------------------------------------------------------------

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

ALL_H = [ReducedFunctionSpec.parse(x) for x in (
    "entropy", "concurrence", "tangle", "tsallis:2", "tsallis:0.5", "renyi:0.5", "negativity",
    "fidelityF", "fidelityFprime", "fidelityAF", "pnorm2", "pnorm-min", "pnorm-minprime",
    "pnegativity", "tsallisprime:2", "renyiprime:0.5")]


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (2, 2, 2)])
def test_roof_objective_is_weighted_measure_pure(dims):
    """The roof objective and measure_pure share one evaluator, member by member."""
    rng = np.random.default_rng(sum(dims) * len(dims))
    d = math.prod(dims)
    k = 6
    phi = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
    phi /= math.sqrt((np.abs(phi) ** 2).sum())
    phi[2] *= 1e-7  # weight ~1e-15, below WEIGHT_PRUNE
    weights = (np.abs(phi) ** 2).sum(axis=1)
    assert weights[2] < WEIGHT_PRUNE
    labels = "ABC"[:len(dims)]
    members = [(w, PureState(labels, dims, row / math.sqrt(w)))
               for w, row in zip(weights, phi) if w > WEIGHT_PRUNE]
    for family in Family:
        for h in ALL_H:
            spec = MeasureSpec(family, h)
            want = math.fsum(w * measure_pure(spec, psi) for w, psi in members)
            got = _roof_objective(spec, phi.T, dims)(np.eye(k))
            assert abs(got - want) < 1e-12, spec.name


GRADIENT_H = [ReducedFunctionSpec.parse(x) for x in (
    "tangle", "tsallis:2", "tsallisprime:2", "fidelityF", "fidelityFprime", "concurrence")]
GRADIENT_CASES = [(MeasureSpec(family, h), dims)
                  for dims in [(2, 2), (2, 3), (4, 2), (2, 2, 2)]
                  for family in (Family if len(dims) == 2 else (Family.SUM, Family.SUM_BIPART))
                  for h in GRADIENT_H]


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (4, 2), (2, 2, 2)])
def test_gradient_objective_and_gradient(dims):
    """The gradient path's value is fsum(w measure_pure); its gradient matches central differences."""
    rng = np.random.default_rng(7 * sum(dims) + len(dims))
    d, k, r = math.prod(dims), 5, 2
    phi = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
    phi /= math.sqrt((np.abs(phi) ** 2).sum())
    phi[2] *= 1e-7  # below WEIGHT_PRUNE: dropped
    weights = (np.abs(phi) ** 2).sum(axis=1)
    labels = "ABC"[:len(dims)]
    members = [(w, PureState(labels, dims, row / math.sqrt(w)))
               for w, row in zip(weights, phi) if w > WEIGHT_PRUNE]
    basis = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    u, _ = np.linalg.qr(rng.standard_normal((3, r)) + 1j * rng.standard_normal((3, r)))
    eps = 1e-6
    steps = np.eye(u.size).reshape((u.size,) + u.shape)
    probes = np.concatenate([steps, 1j * steps])
    cases = [spec for spec, case_dims in GRADIENT_CASES if case_dims == dims]
    assert cases
    for spec in cases:
        assert takes_gradient_path(spec, dims)
        value, _ = _roof_gradient(spec, phi.T, dims)(np.eye(k)[None])
        want = math.fsum(w * measure_pure(spec, psi) for w, psi in members)
        assert abs(value[0] - want) < 1e-12, spec.name
        fg = _roof_gradient(spec, basis, dims)
        _, egrad = fg(u[None])
        plus, _ = fg(u + eps * probes)
        minus, _ = fg(u - eps * probes)
        numeric = (plus - minus) / (2 * eps)
        exact = np.concatenate([egrad[0].real.ravel(), egrad[0].imag.ravel()])
        assert np.abs(numeric - exact).max() <= 1e-6 * np.abs(exact).max(), spec.name


@pytest.mark.parametrize("spec,n_blocks", [
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
])
def test_non_smooth_kinds_keep_powell(spec, n_blocks):
    assert not takes_gradient_path(spec, (2,) * n_blocks)


# --- roof optimization ------------------------------------------------------------

def test_pure_input_short_circuits(bell):
    res = convex_roof(CONC, projector(bell))
    assert res.restarts_used == 0
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
    assert abs(avg - res.value) < 1e-10
    assert np.abs(res.decomposition.average_operator() - op.matrix).max() < 1e-8


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
    rho_c = random_density_operator(
        (2,), seed=3, labels=["C"]
    )
    op = DensityOperator(("A", "B", "C"), (2, 2, 2), np.kron(projector(bell).matrix, rho_c.matrix))
    spec = MeasureSpec(Family.SUM, ReducedFunctionSpec(HKind.TANGLE))
    res = convex_roof(spec, op, restarts=2, seed=4, max_iters=4)
    # members factor as Bell x pure, so the sum collects only the Bell tangle
    assert abs(res.value - 1.0) < 5e-6


def test_guard_rejects_large_operators():
    from entmono.errors import GuardError

    op = random_density_operator((2,) * 7, seed=1, rank=2)
    with pytest.raises(GuardError):
        convex_roof(CONC, op)
