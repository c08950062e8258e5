"""Random local instruments and average-monotonicity trials.

A local instrument is one elementary step of a local protocol: a set of
Kraus operators on a single party summing to the identity.  Finite
protocols compose such steps, so checking that a measure is nonincreasing
on average per elementary step covers them.  Trials act on pure states
(whose outcome states stay pure, so the pure-state measure applies
exactly) and report the average value change; they never hard-fail.
Trials are evaluated as a batch: :func:`stack_trials` stacks every trial's
state and outcome rows once, and :func:`trial_records` makes one
:func:`~entmono.measures.member_values` call per measure on that stack.
:func:`monotonicity_trial` is the one-trial case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import StateError
from .measures import MeasureSpec, _regrouped_vector, member_values
from .partitions import Partition
from .qstate import PureState

COMPLETENESS_TOL = 1e-9
OUTCOME_PRUNE = 1e-12


@dataclass(frozen=True)
class LocalInstrument:
    """Kraus operators on one party, complete within tolerance."""

    party: str
    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not ops:
            raise StateError("instrument needs at least one Kraus operator")
        d = ops[0].shape[0]
        if any(k.shape != (d, d) for k in ops):
            raise StateError("Kraus operators must be square and equally sized")
        total = sum(k.conj().T @ k for k in ops)
        if np.abs(total - np.eye(d)).max() > COMPLETENESS_TOL:
            raise StateError("Kraus operators do not sum to the identity")
        object.__setattr__(self, "kraus", ops)

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.kraus)


def random_local_instrument(dim: int, n_outcomes: int, seed: int, party: str = "A") -> LocalInstrument:
    """Haar-flavored random instrument: a random isometry sliced into blocks.

    A Ginibre matrix of shape (n_outcomes * dim, dim) is orthonormalized;
    its dim-sized row blocks are the Kraus operators, so completeness holds
    by construction.  Deterministic per seed.
    """
    if dim < 2:
        raise StateError("dim must be >= 2")
    if n_outcomes < 1:
        raise StateError("n_outcomes must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n_outcomes * dim, dim)) + 1j * rng.standard_normal((n_outcomes * dim, dim))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diagonal(r))
    kraus = tuple(q[i * dim:(i + 1) * dim, :] for i in range(n_outcomes))
    return LocalInstrument(party, kraus)


def _outcome_rows(state: PureState, inst: LocalInstrument) -> tuple[list[float], list[np.ndarray]]:
    """Kept outcome probabilities and normalized post-measurement amplitudes.

    Each Kraus operator is applied on its own; outcomes with probability
    below the pruning threshold are dropped, and the kept ones must sum to
    one within the completeness tolerance.
    """
    if inst.party not in state.labels:
        raise StateError(f"party {inst.party!r} not among state labels")
    axis = state.labels.index(inst.party)
    if state.dims[axis] != inst.dim:
        raise StateError(
            f"instrument dimension {inst.dim} != party dimension {state.dims[axis]}"
        )
    t = state.tensor()
    probs, rows = [], []
    for k in inst.kraus:
        post = np.moveaxis(np.tensordot(k, t, axes=([1], [axis])), 0, axis)
        p = float((np.abs(post) ** 2).sum())
        if p < OUTCOME_PRUNE:
            continue
        probs.append(p)
        rows.append(post.reshape(-1) / math.sqrt(p))
    total = math.fsum(probs)
    if abs(total - 1.0) > COMPLETENESS_TOL:
        raise StateError(f"outcome probabilities sum to {total!r}")
    return probs, rows


def apply_instrument(state: PureState, inst: LocalInstrument) -> list[tuple[float, PureState]]:
    """Outcome probabilities and normalized post-measurement states.

    Outcomes with probability below the pruning threshold are dropped.
    """
    probs, rows = _outcome_rows(state, inst)
    return [(p, PureState(state.labels, state.dims, row)) for p, row in zip(probs, rows)]


@dataclass(frozen=True)
class TrialRecord:
    """One monotonicity trial: value before, average after, and their gap."""

    before: float
    after_avg: float
    delta: float
    n_outcomes: int

    def to_dict(self) -> dict:
        return {
            "before": self.before,
            "after_avg": self.after_avg,
            "delta": self.delta,
            "n_outcomes": self.n_outcomes,
        }


@dataclass(frozen=True)
class TrialBatch:
    """Stacked rows of k trials, built once and evaluated per measure.

    Each trial contributes its regrouped state, then its kept, normalized
    outcomes, all regrouped to the one block-dims tuple ``dims``.
    """

    rows: np.ndarray                  # (k + kept outcomes, D)
    dims: tuple[int, ...]
    probs: tuple[tuple[float, ...], ...]  # per trial, its kept outcome probabilities


def stack_trials(
    trials: Sequence[tuple[PureState, LocalInstrument]],
    partition: Partition | None = None,
) -> TrialBatch:
    """Apply each trial's instrument and stack the rows :func:`trial_records` reads.

    Every trial must regroup to the same block dims; a mixed batch raises
    ``ValueError``.
    """
    if not trials:
        raise ValueError("a trial batch needs at least one trial")
    rows, probs, dims = [], [], None
    for state, inst in trials:
        kept, outcomes = _outcome_rows(state, inst)
        for amps in (state.amplitudes, *outcomes):
            member = PureState._trusted(state.labels, state.dims, amps)
            vec, vec_dims = _regrouped_vector(member, partition)
            if dims is None:
                dims = vec_dims
            elif vec_dims != dims:
                raise ValueError(f"trial batch mixes block dims {dims} and {vec_dims}")
            rows.append(vec)
        probs.append(tuple(kept))
    return TrialBatch(np.array(rows), dims, tuple(probs))


def trial_records(spec: MeasureSpec, batch: TrialBatch) -> list[TrialRecord]:
    """Average-value change of a measure in every trial, from one :func:`member_values` call."""
    values = member_values(spec, batch.rows, np.ones(len(batch.rows)), batch.dims).tolist()
    records, start = [], 0
    for probs in batch.probs:
        before = values[start]
        after = math.fsum(p * v for p, v in zip(probs, values[start + 1:start + 1 + len(probs)]))
        records.append(TrialRecord(before=before, after_avg=after, delta=after - before,
                                   n_outcomes=len(probs)))
        start += 1 + len(probs)
    return records


def monotonicity_trial(
    spec: MeasureSpec,
    state: PureState,
    inst: LocalInstrument,
    partition: Partition | None = None,
) -> TrialRecord:
    """Average-value change of a measure under one local instrument."""
    return trial_records(spec, stack_trials([(state, inst)], partition))[0]
