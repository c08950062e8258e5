import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from entmono import (
    DensityOperator,
    HKind,
    StateError,
    ReducedFunctionSpec,
    h_eval,
    h_spectrum,
    known_counterexamples,
    projector,
    property_probe,
    random_density_operator,
    random_pure_state,
)
from entmono import qstate, redfun
from entmono.redfun import (
    CATALOG,
    ProbeProperty,
    UNWITNESSED_NOTES,
    h_gradient_batch,
    h_spectrum_batch,
    table_entry,
)

H = ReducedFunctionSpec

ALL_KINDS = list(CATALOG)

MIXED_QUBIT = DensityOperator(("A",), (2,), np.eye(2) / 2)


def test_param_validation():
    with pytest.raises(ValueError):
        H(HKind.TSALLIS, 1.0)
    with pytest.raises(ValueError):
        H(HKind.TSALLIS_PRIME, 0.5)
    with pytest.raises(ValueError):
        H(HKind.RENYI, 1.5)
    with pytest.raises(ValueError):
        H(HKind.TANGLE, 2.0)
    with pytest.raises(ValueError):
        H(HKind.RENYI)
    for kind in (HKind.TSALLIS, HKind.TSALLIS_PRIME, HKind.RENYI, HKind.RENYI_PRIME):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                H(kind, bad)


def test_parse_names():
    assert H.parse("tsallis:2").param == 2.0
    assert H.parse("entropy").kind is HKind.ENTROPY
    assert H.parse("renyiprime:0.3").name == "renyiprime:0.3"


def test_maximally_mixed_qubit_values():
    # direct formula evaluations on the spectrum {1/2, 1/2}
    assert abs(h_eval(H(HKind.TANGLE), MIXED_QUBIT) - 1.0) < 1e-12
    assert abs(h_eval(H(HKind.CONCURRENCE), MIXED_QUBIT) - 1.0) < 1e-12
    assert abs(h_eval(H(HKind.NEGATIVITY), MIXED_QUBIT) - 0.5) < 1e-12
    assert abs(h_eval(H(HKind.ENTROPY), MIXED_QUBIT) - math.log(2)) < 1e-12
    assert abs(h_eval(H(HKind.PNORM2), MIXED_QUBIT) - 0.5) < 1e-12
    assert abs(h_eval(H(HKind.PNORM_MIN), MIXED_QUBIT) - 0.5) < 1e-12
    assert abs(h_eval(H(HKind.PNORM_MIN_PRIME), MIXED_QUBIT) - 1.0) < 1e-12
    assert abs(h_eval(H(HKind.PNEGATIVITY), MIXED_QUBIT) - 0.5) < 1e-12
    assert abs(h_eval(H(HKind.FIDELITY_F), MIXED_QUBIT) - 0.75) < 1e-12


def test_pure_states_evaluate_to_zero():
    psi = random_pure_state((2, 2), seed=3)
    op = projector(psi)
    for spec in ALL_KINDS:
        assert abs(h_eval(spec, op)) <= 1e-10, spec.name


def test_h_nonnegative_on_random_operators():
    for seed in range(6):
        op = random_density_operator((4,), seed=seed)
        for spec in ALL_KINDS:
            assert h_eval(spec, op) >= 0.0


def test_concurrence_squared_is_tangle():
    for seed in range(6):
        op = random_density_operator((3,), seed=seed)
        c = h_eval(H(HKind.CONCURRENCE), op)
        t = h_eval(H(HKind.TANGLE), op)
        assert abs(c * c - t) < 1e-12


def test_fidelity_matches_doubled_cubic_tsallis():
    for seed in range(6):
        op = random_density_operator((3,), seed=seed)
        f = h_eval(H(HKind.FIDELITY_F), op)
        t3 = h_eval(H(HKind.TSALLIS, 3.0), op)
        assert abs(f - 2.0 * t3) < 1e-12


def test_pnegativity_worked_spectra():
    assert abs(h_spectrum(H(HKind.PNEGATIVITY), [5 / 8, 3 / 8]) - math.sqrt(15) / 8) < 1e-12
    want = math.sqrt(15) / (8 * math.sqrt(2))
    assert abs(h_spectrum(H(HKind.PNEGATIVITY), [3 / 8, 5 / 16, 5 / 16]) - want) < 1e-12


def test_min_norm_witness_values():
    wits = known_counterexamples(H(HKind.PNORM_MIN), ProbeProperty.SUBADDITIVITY)
    assert len(wits) == 1
    op, margin = wits[0]
    assert abs(h_eval(H(HKind.PNORM_MIN), op) - 0.5) < 1e-12
    from entmono import partial_trace

    for lab in ("A", "B"):
        assert abs(h_eval(H(HKind.PNORM_MIN), partial_trace(op, [lab])) - 0.1) < 1e-12
    assert abs(margin - 0.3) < 1e-12


def test_min_norm_prime_witness_margin():
    wits = known_counterexamples(H(HKind.PNORM_MIN_PRIME), ProbeProperty.SUBADDITIVITY)
    assert len(wits) == 1
    assert abs(wits[0][1] - 0.2) < 1e-12


def test_no_witnesses_for_subadditive_kinds():
    assert known_counterexamples(H(HKind.TANGLE), ProbeProperty.SUBADDITIVITY) == []
    assert (HKind.RENYI, ProbeProperty.SUBADDITIVITY) in UNWITNESSED_NOTES


def test_negative_spectrum_rejected():
    with pytest.raises(Exception):
        h_spectrum(H(HKind.TANGLE), [1.1, -0.1])


def test_probe_tangle_subadditivity_clean():
    rep = property_probe(H(HKind.TANGLE), ProbeProperty.SUBADDITIVITY, trials=300, seed=5)
    assert rep.violations == 0
    assert rep.worst_margin >= -1e-9


def test_probe_entropy_additivity_clean():
    rep = property_probe(H(HKind.ENTROPY), ProbeProperty.ADDITIVITY, trials=200, seed=5)
    assert rep.violations == 0


def test_probe_min_norm_finds_curated_witness():
    rep = property_probe(H(HKind.PNORM_MIN), ProbeProperty.SUBADDITIVITY,
                         trials=50, seed=5, dims=(4, 4))
    assert rep.violations >= 1
    assert rep.worst_margin <= -0.3 + 1e-12
    assert rep.witness is not None


def test_probe_concavity_clean_for_documented_kinds():
    for spec in ALL_KINDS:
        if table_entry(spec)["concave"] is not True:
            continue
        rep = property_probe(spec, ProbeProperty.CONCAVITY, trials=150, seed=9, dims=(3,))
        assert rep.violations == 0, spec.name


def test_probe_strict_concavity_positive_margins():
    for spec in ALL_KINDS:
        if table_entry(spec)["strictly_concave"] is not True:
            continue
        rep = property_probe(spec, ProbeProperty.STRICT_CONCAVITY, trials=100, seed=13, dims=(2,))
        assert rep.violations == 0, spec.name
        assert rep.worst_margin > 1e-12


def test_probe_report_serializes():
    rep = property_probe(H(HKind.RENYI, 0.5), ProbeProperty.SUBADDITIVITY, trials=20, seed=1)
    doc = rep.to_dict()
    assert doc["note"] is not None  # cited failure without witness
    assert doc["h"] == "renyi:0.5"


def test_catalog_is_the_scan_list_in_order():
    assert [spec.name for spec in CATALOG] == [
        "entropy", "concurrence", "tangle", "tsallis:2", "tsallis:0.5", "renyi:0.5",
        "negativity", "fidelityF", "fidelityFprime", "fidelityAF", "pnorm2", "pnorm-min",
        "pnorm-minprime", "pnegativity", "tsallisprime:2", "renyiprime:0.5"]


@st.composite
def interior_spectra(draw):
    """Normalized spectra of 2 to 5 entries, each at least 0.02, entries 0.01 apart."""
    width = draw(st.integers(2, 5))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=width, max_size=width))
    lam = np.array(raw) / sum(raw)
    assume(lam.min() >= 0.02 and np.diff(np.sort(lam)).min() >= 0.01)
    return lam


@given(interior_spectra())
def test_derivative_table_matches_central_differences(lam):
    eps = 1e-6
    steps = eps * np.eye(lam.size)
    for spec in CATALOG:
        numeric = (h_spectrum_batch(spec, lam + steps) - h_spectrum_batch(spec, lam - steps)) / (2 * eps)
        exact = h_gradient_batch(spec, lam[None])[0]
        assert np.abs(numeric - exact).max() <= 1e-6 * max(1.0, np.abs(exact).max()), spec.name


@st.composite
def spectra_with_tiny_entries(draw):
    """Normalized spectra of 1 to 6 entries, some of them in (0, 1e-10]."""
    width = draw(st.integers(1, 6))
    big = st.floats(1e-3, 1.0)
    tiny = st.floats(1e-16, 1e-10)
    raw = np.array(draw(st.lists(st.one_of(big, tiny), min_size=width, max_size=width)))
    assume(raw.max() >= 1e-3)
    return raw / raw.sum()


@given(spectra_with_tiny_entries())
def test_h_nonnegative_on_spectra_with_tiny_entries(lam):
    for spec in CATALOG:
        assert h_spectrum_batch(spec, lam[None])[0] >= 0.0, (spec.name, lam)


@given(st.integers(1, 6), st.data())
def test_h_vanishes_on_pure_spectra_in_any_position(width, data):
    lam = np.zeros(width)
    lam[data.draw(st.integers(0, width - 1))] = 1.0
    for spec in CATALOG:
        assert h_spectrum_batch(spec, lam[None])[0] == 0.0, (spec.name, lam)


def test_fractional_power_kinds_clamped_near_pure_spectra():
    # Zeroing the 1e-11 entry leaves a power sum below one for these kinds.
    lam = np.array([[1.0 - 1e-11, 1e-11]])
    for name in ("tsallis:0.5", "renyi:0.5", "negativity", "renyiprime:0.5"):
        assert h_spectrum_batch(H.parse(name), lam)[0] == 0.0, name


def test_min_norm_kinds_read_a_single_surviving_entry_as_pure():
    # The 1e-11 entry is zeroed; the one entry left is a pure spectrum.
    near_pure = np.array([[1.0 - 1e-11, 1e-11]])
    kept = np.array([[1.0 - 1e-9, 1e-9]])
    for name, scale in (("pnorm-min", 1.0), ("pnorm-minprime", 2.0)):
        spec = H.parse(name)
        assert h_spectrum_batch(spec, near_pure)[0] == 0.0
        assert np.all(h_gradient_batch(spec, near_pure) == 0.0)
        assert abs(h_spectrum_batch(spec, kept)[0] - scale * 1e-9) <= 1e-20
        assert h_gradient_batch(spec, kept)[0, 1] == scale


# -- the per-trial probe, kept as the oracle of the batched one -------------------

def _oracle_serialize_op(op):
    return {
        "labels": list(op.labels),
        "dims": list(op.dims),
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in op.matrix],
    }


def _oracle_marginal_pair(op):
    a = qstate.eigenvalues(qstate.partial_trace(op, [op.labels[0]])).eigenvalues
    b = qstate.eigenvalues(qstate.partial_trace(op, list(op.labels[1:]))).eigenvalues
    return a, b


def _oracle_probe(spec, property, trials, seed=0, dims=(2, 2)):
    """One trial at a time: the property probe before it was batched."""
    property = ProbeProperty(property)
    dims = tuple(int(d) for d in dims)
    rng_root = np.random.SeedSequence(seed)
    tol = 1e-9
    violations = 0
    worst = np.inf
    witness = None
    labels = [chr(ord("A") + i) for i in range(len(dims))]
    cases = []
    if property in (ProbeProperty.SUBADDITIVITY, ProbeProperty.ADDITIVITY):
        for op, _ in known_counterexamples(spec, property):
            cases.append(("known", op))
    for child in rng_root.spawn(trials):
        cases.append(("random", child))
    for origin, payload in cases:
        if property in (ProbeProperty.CONCAVITY, ProbeProperty.STRICT_CONCAVITY):
            rng = np.random.default_rng(payload)
            s1, s2 = (int(s) for s in rng.integers(0, 2**63 - 1, size=2))
            rho1 = random_density_operator(dims, s1, labels=labels)
            rho2 = random_density_operator(dims, s2, labels=labels)
            lam = 0.5 if property is ProbeProperty.STRICT_CONCAVITY else float(rng.uniform(0.05, 0.95))
            mix = DensityOperator(rho1.labels, rho1.dims, lam * rho1.matrix + (1 - lam) * rho2.matrix)
            margin = h_eval(spec, mix) - lam * h_eval(spec, rho1) - (1 - lam) * h_eval(spec, rho2)
            bad = margin < -tol if property is ProbeProperty.CONCAVITY else margin <= 1e-12
            sample = {"rho1": _oracle_serialize_op(rho1), "rho2": _oracle_serialize_op(rho2),
                      "weight": lam}
        else:
            if origin == "known":
                op = payload
            else:
                rng = np.random.default_rng(payload)
                if property is ProbeProperty.ADDITIVITY:
                    sa, sb = (int(s) for s in rng.integers(0, 2**63 - 1, size=2))
                    opa = random_density_operator(dims[:1], sa, labels=labels[:1])
                    opb = random_density_operator(dims[1:], sb, labels=labels[1:])
                    op = DensityOperator(tuple(labels), dims, np.kron(opa.matrix, opb.matrix))
                else:
                    s = int(rng.integers(0, 2**63 - 1))
                    op = random_density_operator(dims, s, labels=labels)
            a, b = _oracle_marginal_pair(op)
            whole = h_eval(spec, op)
            parts = h_spectrum(spec, a) + h_spectrum(spec, b)
            if property is ProbeProperty.ADDITIVITY:
                margin = -abs(whole - parts)
                bad = -margin > tol
            else:
                margin = parts - whole
                bad = margin < -tol
            sample = {"state": _oracle_serialize_op(op)}
        if bad:
            violations += 1
        if margin < worst:
            worst = margin
            if bad:
                witness = dict(sample, margin=float(margin))
    return violations, float(worst), witness


def _assert_matches_oracle(spec, property, trials, seed, dims):
    rep = property_probe(spec, property, trials, seed=seed, dims=dims)
    want = _oracle_probe(spec, property, trials, seed=seed, dims=dims)
    assert (rep.violations, rep.worst_margin, rep.witness) == want, (spec.name, property, seed, dims)
    return rep


@pytest.mark.parametrize("property,dims", [
    pytest.param(prop, dims, id=f"{prop.value}-{'x'.join(map(str, dims))}")
    for prop in ProbeProperty for dims in ((3,), (2,), (2, 2), (2, 3))
    if len(dims) > 1 or prop in (ProbeProperty.CONCAVITY, ProbeProperty.STRICT_CONCAVITY)])
def test_batched_probe_matches_per_trial_oracle(property, dims):
    for spec in CATALOG:
        for seed in (0, 7):
            _assert_matches_oracle(spec, property, 40, seed, dims)


def test_batched_probe_matches_oracle_beside_curated_witness():
    # The 4x4 curated witness is stacked apart from the 2x2 random trials.
    for name in ("pnorm-min", "pnorm-minprime"):
        for dims in ((2, 2), (4, 4)):
            rep = _assert_matches_oracle(H.parse(name), ProbeProperty.SUBADDITIVITY, 40, 3, dims)
            assert rep.witness is not None and rep.witness["state"]["dims"] == [4, 4]


def test_batched_probe_spans_several_batches(monkeypatch):
    monkeypatch.setattr(redfun, "_BATCH_ENTRIES", 3 * 16)
    for prop in ProbeProperty:
        _assert_matches_oracle(H.parse("pnorm-min"), prop, 20, 1, (2, 2))


def test_probe_argument_errors_raise_before_any_draw(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before checking the arguments")

    monkeypatch.setattr(np.random, "SeedSequence", no_draws)
    monkeypatch.setattr(np.random, "default_rng", no_draws)
    for prop in (ProbeProperty.SUBADDITIVITY, ProbeProperty.ADDITIVITY):
        with pytest.raises(ValueError, match="two subsystems"):
            property_probe(H(HKind.PNORM_MIN), prop, trials=5, dims=(4,))
    for prop in ProbeProperty:
        for trials in (0, -3):
            with pytest.raises(ValueError, match="trials"):
                property_probe(H(HKind.TANGLE), prop, trials=trials)


def test_stack_spectra_applies_the_operator_checks():
    good = np.stack([np.eye(2) / 2, np.diag([0.9, 0.1])]).astype(complex)
    assert np.array_equal(qstate.stack_spectra(good), [[0.5, 0.5], [0.9, 0.1]])
    skew = good.copy()
    skew[1, 0, 1] = 1e-9
    negative = np.stack([np.eye(2) / 2, np.diag([1.1, -0.1])]).astype(complex)
    heavy = np.stack([np.eye(2) / 2, np.diag([0.9, 0.2])]).astype(complex)
    for bad, match in ((skew, "Hermitian"), (negative, "negative"), (heavy, "trace")):
        with pytest.raises(StateError, match=match):
            qstate.stack_spectra(bad)
