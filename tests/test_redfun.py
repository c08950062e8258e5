import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from entmono import (
    DensityOperator,
    HKind,
    ReducedFunctionSpec,
    h_eval,
    h_spectrum,
    known_counterexamples,
    projector,
    property_probe,
    random_density_operator,
    random_pure_state,
)
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
