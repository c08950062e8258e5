"""Random local instruments and average-monotonicity trials.

A local instrument is one elementary step of a local protocol: a set of
Kraus operators on a single party summing to the identity.  Finite
protocols compose such steps, so checking that a measure is nonincreasing
on average per elementary step covers them.  Trials act on pure states
(whose outcome states stay pure, so the pure-state measure applies
exactly) and report the average value change; they never hard-fail.
Trials are applied and evaluated as a batch: :func:`stack_trials` (or
:func:`random_trials`, which also draws them) applies every instrument with
one matmul per (party, outcome count) and stacks each trial's state and
outcome rows once, and :func:`trial_records` makes one
:func:`~entmono.measures.member_values` call per measure on that stack.
:func:`apply_instrument` and :func:`monotonicity_trial` are the one-trial
cases.  Each evaluated batch logs its size and worst change at DEBUG.
"""

from __future__ import annotations

import logging
import math
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import StateError
from .measures import MeasureSpec, member_values
from .qstate import PureState, haar_amplitudes, haar_isometries

COMPLETENESS_TOL = 1e-9
OUTCOME_PRUNE = 1e-12

#: Block dims of a random trial: a Haar 3-qubit state under a qubit instrument.
_TRIAL_DIMS = (2, 2, 2)

logger = logging.getLogger(__name__)


def _check_kraus(kraus: np.ndarray) -> None:
    """Raise unless every (n, d, d) Kraus stack in ``kraus`` is finite and complete.

    Finiteness is checked first: a NaN passes any tolerance comparison, and
    K^dag K on non-finite entries would warn.
    """
    if not np.isfinite(kraus).all():
        raise StateError("Kraus operators must be finite")
    total = (kraus.conj().swapaxes(-1, -2) @ kraus).sum(axis=-3)
    if not np.abs(total - np.eye(kraus.shape[-1])).max() <= COMPLETENESS_TOL:
        raise StateError("Kraus operators do not sum to the identity")


@dataclass(frozen=True)
class LocalInstrument:
    """Kraus operators on one party, finite and complete within tolerance."""

    party: str
    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not ops:
            raise StateError("instrument needs at least one Kraus operator")
        d = ops[0].shape[0]
        if any(k.shape != (d, d) for k in ops):
            raise StateError("Kraus operators must be square and equally sized")
        _check_kraus(np.stack(ops))
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
    kraus = haar_isometries(n_outcomes * dim, dim, [np.random.default_rng(seed)])
    return LocalInstrument(party, tuple(kraus.reshape(n_outcomes, dim, dim)))


def apply_instrument(state: PureState, inst: LocalInstrument) -> list[tuple[float, PureState]]:
    """Outcome probabilities and normalized post-measurement states.

    Outcomes with probability below the pruning threshold are dropped.
    """
    batch = _stack([(state, inst)])
    return [(p, PureState(state.labels, state.dims, row)) for p, row in zip(batch.probs[0], batch.rows[1:])]


@dataclass(frozen=True)
class TrialRecord:
    """One monotonicity trial: value before, average after, and their gap."""

    before: float
    after_avg: float
    delta: float
    n_outcomes: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TrialBatch:
    """Stacked rows of k trials, built once and evaluated per measure.

    Each trial contributes its state's amplitudes, then its kept, normalized
    outcomes, all on the one dims tuple ``dims``.
    """

    rows: np.ndarray                  # (k + kept outcomes, D)
    dims: tuple[int, ...]
    probs: tuple[tuple[float, ...], ...]  # per trial, its kept outcome probabilities


def stack_trials(trials: Sequence[tuple[PureState, LocalInstrument]]) -> TrialBatch:
    """Apply each trial's instrument and stack the rows :func:`trial_records` reads.

    Rows stay on each state's own labels, one block per label.  Every trial
    must have the same dims; a mixed batch raises ``ValueError``.
    """
    if not trials:
        raise ValueError("a trial batch needs at least one trial")
    if len(trials[0][0].dims) < 2:
        raise StateError("measure evaluation needs at least two blocks")
    return _stack(trials)


def _stack(trials: Sequence[tuple[PureState, LocalInstrument]]) -> TrialBatch:
    """Check each (state, instrument) pair, then apply them grouped by (party axis, outcome count)."""
    dims = trials[0][0].dims
    groups = defaultdict(list)
    for i, (state, inst) in enumerate(trials):
        if inst.party not in state.labels:
            raise StateError(f"party {inst.party!r} not among state labels")
        axis = state.labels.index(inst.party)
        if state.dims[axis] != inst.dim:
            raise StateError(
                f"instrument dimension {inst.dim} != party dimension {state.dims[axis]}"
            )
        if state.dims != dims:
            raise ValueError(f"trial batch mixes block dims {dims} and {state.dims}")
        groups[axis, inst.n_outcomes].append(i)
    amps = np.array([state.amplitudes for state, _ in trials])
    return _apply(amps, dims, [(idx, axis, np.array([trials[i][1].kraus for i in idx]))
                               for (axis, _), idx in groups.items()])


def random_trials(rngs: Iterable[np.random.Generator]) -> TrialBatch:
    """One random trial per generator, drawn and applied as stacks.

    Each generator draws, in order, the party
    (A, B or C), the outcome count (2 to 4), the normals of a Haar state on
    (2, 2, 2) (:func:`~entmono.qstate.haar_amplitudes`) and the Ginibre
    normals of a qubit instrument on that party
    (:func:`~entmono.qstate.haar_isometries`, sliced into its Kraus operators).
    The batch equals :func:`stack_trials` on those pairs bit for bit.
    """
    rngs = list(rngs)
    if not rngs:
        raise ValueError("a trial batch needs at least one trial")
    draws = [(int(r.integers(0, 3)), int(r.integers(2, 5))) for r in rngs]
    amps = haar_amplitudes(_TRIAL_DIMS, rngs)
    groups = []
    for n in sorted({n for _, n in draws}):
        members = [i for i, (_, count) in enumerate(draws) if count == n]
        kraus = haar_isometries(2 * n, 2, [rngs[i] for i in members]).reshape(-1, n, 2, 2)
        _check_kraus(kraus)
        for axis in range(len(_TRIAL_DIMS)):
            at = [j for j, i in enumerate(members) if draws[i][0] == axis]
            if at:
                groups.append(([members[j] for j in at], axis, kraus[at]))
    return _apply(amps, _TRIAL_DIMS, groups)


def _apply(amps: np.ndarray, dims: tuple[int, ...],
           groups: Sequence[tuple[list[int], int, np.ndarray]]) -> TrialBatch:
    """Apply the instruments to normalized state rows and stack every trial's rows.

    ``amps`` holds one state row per trial.  Each group lists the trials
    whose instruments share a party axis and an outcome count, and their
    (m, n, d, d) Kraus stack; one matmul applies it.  Each outcome's
    probability is summed in the product's (party, other blocks) layout
    before the party axis moves back, the order in which a ``tensordot``
    of one operator sums it, so every bit equals applying each operator on
    its own.  Outcomes below the pruning threshold are dropped, and each
    trial's kept outcomes must sum to one within the completeness
    tolerance before any row is normalized.
    """
    kept, products = [None] * len(amps), []
    for idx, axis, kraus in groups:
        m, n, d, _ = kraus.shape
        t = np.moveaxis(amps[idx].reshape((m,) + dims), axis + 1, 1)
        post = kraus @ t.reshape(m, 1, d, -1)
        probs = (np.abs(post) ** 2).sum(axis=(2, 3))
        for i, row in zip(idx, probs.tolist()):
            kept[i] = tuple(x for x in row if not x < OUTCOME_PRUNE)
            total = math.fsum(kept[i])
            if not abs(total - 1.0) <= COMPLETENESS_TOL:
                raise StateError(f"outcome probabilities sum to {total!r}")
        post = np.moveaxis(post.reshape((m, n) + t.shape[1:]), 2, axis + 2).reshape(m, n, -1)
        products.append((idx, post, probs))
    # Each trial's state row, then its kept outcome rows, written once.
    start = np.cumsum([0] + [1 + len(p) for p in kept])
    rows = np.empty((start[-1], amps.shape[1]), dtype=complex)
    rows[start[:-1]] = amps
    for idx, post, probs in products:
        keep = ~(probs < OUTCOME_PRUNE)
        at = start[idx][:, None] + np.cumsum(keep, axis=1)
        rows[at[keep]] = post[keep] / np.sqrt(probs[keep])[:, None]
    return TrialBatch(rows, dims, tuple(kept))


def trial_records(spec: MeasureSpec, batch: TrialBatch) -> list[TrialRecord]:
    """Average-value change of a measure in every trial, from one :func:`member_values` call."""
    values = member_values(spec, batch.rows, batch.dims).tolist()
    records, start = [], 0
    for probs in batch.probs:
        before = values[start]
        after = math.fsum(p * v for p, v in zip(probs, values[start + 1:start + 1 + len(probs)]))
        records.append(TrialRecord(before=before, after_avg=after, delta=after - before,
                                   n_outcomes=len(probs)))
        start += 1 + len(probs)
    logger.debug("%s on %d trials, %d rows: worst delta %.3g", spec.name, len(records), start,
                 max((rec.delta for rec in records), default=-math.inf))
    return records


def monotonicity_trial(spec: MeasureSpec, state: PureState, inst: LocalInstrument) -> TrialRecord:
    """Average-value change of a measure under one local instrument."""
    return trial_records(spec, stack_trials([(state, inst)]))[0]
