import math

import numpy as np
import pytest

from entmono import (
    Family,
    HKind,
    LocalInstrument,
    MeasureSpec,
    ReducedFunctionSpec,
    StateError,
    TrialRecord,
    apply_instrument,
    measure_pure,
    monotonicity_trial,
    parse_partition,
    random_local_instrument,
    random_pure_state,
    regroup,
    stack_trials,
    tensor_product,
    trial_records,
)
from conftest import ket

H = ReducedFunctionSpec
SUM_TANGLE = MeasureSpec(Family.SUM, H(HKind.TANGLE))


def test_completeness_random_instruments():
    for seed in range(5):
        inst = random_local_instrument(2, 3, seed=seed)
        total = sum(k.conj().T @ k for k in inst.kraus)
        assert np.abs(total - np.eye(2)).max() < 1e-9


def test_single_outcome_is_unitary():
    inst = random_local_instrument(3, 1, seed=2)
    k = inst.kraus[0]
    assert np.abs(k.conj().T @ k - np.eye(3)).max() < 1e-9


def test_determinism():
    a = random_local_instrument(2, 2, seed=9)
    b = random_local_instrument(2, 2, seed=9)
    for ka, kb in zip(a.kraus, b.kraus):
        assert np.array_equal(ka, kb)


def test_incomplete_kraus_rejected():
    with pytest.raises(StateError):
        LocalInstrument("A", (np.eye(2) * 0.5,))


def test_unitary_instrument_one_outcome(ghz3):
    inst = random_local_instrument(2, 1, seed=4, party="B")
    outcomes = apply_instrument(ghz3, inst)
    assert len(outcomes) == 1
    assert abs(outcomes[0][0] - 1.0) < 1e-12


def test_projective_z_on_ghz(ghz3):
    k0 = np.diag([1.0, 0.0]).astype(complex)
    k1 = np.diag([0.0, 1.0]).astype(complex)
    inst = LocalInstrument("A", (k0, k1))
    outcomes = apply_instrument(ghz3, inst)
    assert len(outcomes) == 2
    for p, post in outcomes:
        assert abs(p - 0.5) < 1e-12
        # collapse leaves a product state: all marginals pure
        from entmono import eigenvalues, partial_trace

        for lab in "ABC":
            spec = eigenvalues(partial_trace(post, [lab]))
            assert spec.effective_rank == 1


def test_product_states_stay_product(bell):
    from entmono import partial_trace, tensor_product

    st = tensor_product(bell, ket("C", (2,), {(1,): 1.0}))
    inst = random_local_instrument(2, 2, seed=5, party="C")
    for p, post in apply_instrument(st, inst):
        marg = partial_trace(post, ["A", "B"])
        purity = float((marg.matrix @ marg.matrix).trace().real)
        assert abs(purity - 1.0) < 1e-9


def test_probability_conservation_random():
    for seed in range(6):
        st = random_pure_state((2, 2, 2), seed=seed)
        inst = random_local_instrument(2, 4, seed=seed, party="B")
        outcomes = apply_instrument(st, inst)
        assert abs(math.fsum(p for p, _ in outcomes) - 1.0) < 1e-9


def test_dimension_mismatch_rejected():
    st = random_pure_state((2, 3), seed=0)
    inst = random_local_instrument(2, 2, seed=0, party="B")
    with pytest.raises(StateError):
        apply_instrument(st, inst)


def test_unitary_invariance_all_families(ghz3):
    inst = random_local_instrument(2, 1, seed=7, party="A")
    for fam in Family:
        for h in (H(HKind.TANGLE), H(HKind.PNORM_MIN), H(HKind.PNEGATIVITY)):
            rec = monotonicity_trial(MeasureSpec(fam, h), ghz3, inst)
            assert abs(rec.delta) < 1e-10


CONCAVE_KINDS = [
    H(HKind.ENTROPY), H(HKind.CONCURRENCE), H(HKind.TANGLE), H(HKind.TSALLIS, 2.0),
    H(HKind.TSALLIS, 0.5), H(HKind.RENYI, 0.5), H(HKind.NEGATIVITY), H(HKind.FIDELITY_F),
    H(HKind.FIDELITY_F_PRIME), H(HKind.FIDELITY_AF), H(HKind.PNORM2), H(HKind.PNORM_MIN),
    H(HKind.PNORM_MIN_PRIME), H(HKind.PNEGATIVITY), H(HKind.TSALLIS_PRIME, 2.0),
    H(HKind.RENYI_PRIME, 0.5),
]


def test_sum_families_never_increase_on_average():
    rng = np.random.SeedSequence(123).spawn(60)
    worst = -np.inf
    for i, child in enumerate(rng):
        r = np.random.default_rng(child)
        st = random_pure_state((2, 2, 2), int(r.integers(0, 2 ** 62)))
        inst = random_local_instrument(2, int(r.integers(2, 5)), int(r.integers(0, 2 ** 62)),
                                       party="ABC"[i % 3])
        for h in CONCAVE_KINDS[:6]:
            for fam in (Family.SUM, Family.GSUM):
                rec = monotonicity_trial(MeasureSpec(fam, h), st, inst)
                worst = max(worst, rec.delta)
    assert worst <= 1e-9


def test_trial_record_roundtrip(ghz3):
    inst = random_local_instrument(2, 2, seed=3, party="C")
    rec = monotonicity_trial(SUM_TANGLE, ghz3, inst)
    doc = rec.to_dict()
    assert set(doc) == {"before", "after_avg", "delta", "n_outcomes"}
    assert doc["delta"] == rec.after_avg - rec.before


def _oracle_trial(spec, state, inst):
    """One trial at a time: apply_instrument, then measure_pure per outcome."""
    before = measure_pure(spec, state)
    outcomes = apply_instrument(state, inst)
    after = math.fsum(p * measure_pure(spec, psi) for p, psi in outcomes)
    return TrialRecord(before, after, after - before, len(outcomes))


def _batches():
    """Trial batches: qubits with a pruned outcome, qubits regrouped to AB|C, a qutrit party."""
    z = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    bc = random_pure_state((2, 2), seed=1, labels=("B", "C"))
    annihilated = tensor_product(ket("A", (2,), {(0,): 1.0}), bc)
    qubits = [(annihilated, LocalInstrument("A", z))] + [
        (random_pure_state((2, 2, 2), seed=s),
         random_local_instrument(2, 2 + s % 3, seed=s, party="ABC"[s % 3]))
        for s in range(6)]
    ab_c = parse_partition("AB|C", "ABC")
    pairs = [(regroup(random_pure_state((2, 2, 2), seed=s), ab_c),
              random_local_instrument(2 + 2 * (s % 2), 2 + s % 3, seed=s, party=("C", "AB")[s % 2]))
             for s in range(6)]
    qutrit = [(random_pure_state((2, 3, 2), seed=s),
               random_local_instrument(3 if s % 2 else 2, 2 + s % 3, seed=s, party="AB"[s % 2]))
              for s in range(6)]
    return [qubits, pairs, qutrit]


@pytest.mark.parametrize("h", ["tangle", "pnorm-min", "renyi:0.5"])
def test_batched_trials_match_per_trial_oracle(h):
    batches = _batches()
    assert len(apply_instrument(*batches[0][0])) == 1  # the |1><1| outcome is pruned
    for fam in Family:
        spec = MeasureSpec(fam, H.parse(h))
        for trials in batches:
            want = [_oracle_trial(spec, st, inst) for st, inst in trials]
            assert trial_records(spec, stack_trials(trials)) == want
            assert [monotonicity_trial(spec, st, inst) for st, inst in trials] == want


def test_mixed_dims_batch_rejected():
    trials = [(random_pure_state((2, 2, 2), seed=0), random_local_instrument(2, 2, seed=0)),
              (random_pure_state((2, 3, 2), seed=0), random_local_instrument(2, 2, seed=0))]
    with pytest.raises(ValueError, match="mixes block dims"):
        stack_trials(trials)


def test_one_label_batch_rejected():
    trials = [(random_pure_state((2,), seed=0), random_local_instrument(2, 2, seed=0))]
    with pytest.raises(StateError, match="at least two blocks"):
        stack_trials(trials)
