"""Convex-roof extension of pure-state measures to mixed states.

The roof value of a mixed state is the minimum, over all pure-state
decompositions, of the ensemble-average measure.  Decompositions of a
rank-r operator correspond to isometries: an m x r matrix with orthonormal
columns mixes the eigenvectors into m ensemble members.  The optimizer
walks the isometry manifold with a derivative-free local search
(generator coordinates, Powell direction-set passes, monotone
re-anchoring) from several starts: the eigendecomposition itself plus
Haar-random isometries, and, for ensemble sizes above the rank, a
continuation start padding the best rank-sized ensemble with empty
members.  The continuation makes the reported optimum monotone in m.

Returned values are certified upper bounds on the true roof; the spread
over restart optima is reported so callers can judge reliability.  The
closed form for the two-qubit concurrence roof is included as an
independent validation oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.optimize import minimize

from .errors import GuardError, StateError
from .measures import MeasureSpec, measure_pure, member_values
from .partitions import Partition, full_partition
from .qstate import DensityOperator, PureState, Spectrum, clean_spectrum
from .redfun import HKind, ReducedFunctionSpec
from . import qstate

#: Dimension guards for roof optimization (well past every desk-scale use).
MAX_ROOF_DIM = 64
MAX_MEMBERS = 256

WEIGHT_PRUNE = 1e-12
RECONSTRUCT_TOL = 1e-8


@dataclass(frozen=True)
class Decomposition:
    """Weighted pure-state ensemble; weights sum to one."""

    members: tuple[tuple[float, PureState], ...]

    def __post_init__(self):
        total = math.fsum(w for w, _ in self.members)
        if abs(total - 1.0) > 1e-10:
            raise StateError(f"weights sum to {total!r}, not 1")
        if any(w <= 0 for w, _ in self.members):
            raise StateError("weights must be positive")

    @property
    def cardinality(self) -> int:
        return len(self.members)

    def average_operator(self) -> np.ndarray:
        d = self.members[0][1].dim
        rho = np.zeros((d, d), dtype=complex)
        for w, psi in self.members:
            rho += w * np.outer(psi.amplitudes, psi.amplitudes.conj())
        return rho


@dataclass(frozen=True)
class RoofResult:
    """Optimizer outcome: an upper bound on the roof plus its certificate."""

    value: float
    decomposition: Decomposition
    restarts_used: int
    converged: bool
    spread: float


def _eig_desc(op: DensityOperator) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(op.matrix)
    order = np.argsort(w)[::-1]
    return clean_spectrum(w[order]), v[:, order]


def decomposition_from_unitary(op: DensityOperator, u: np.ndarray) -> Decomposition:
    """Ensemble obtained by mixing the eigenvectors with an isometry.

    ``u`` must have orthonormal columns, one per nonzero eigenvalue; member
    ``j`` has unnormalized vector ``sum_k conj(u[j, k]) sqrt(lam_k) e_k``.
    Members with weight below the pruning threshold are dropped, and the
    ensemble is checked to reconstruct ``op``.
    """
    u = np.asarray(u, dtype=complex)
    w, vecs = _eig_desc(op)
    r = Spectrum(w).effective_rank
    if u.ndim != 2 or u.shape[1] != r:
        raise StateError(f"isometry must have {r} columns, got shape {u.shape}")
    if u.shape[0] < r:
        raise StateError("isometry needs at least as many rows as columns")
    if np.abs(u.conj().T @ u - np.eye(r)).max() > 1e-10:
        raise StateError("matrix columns are not orthonormal within tolerance")
    basis = vecs[:, :r] * np.sqrt(w[:r])
    phi = u.conj() @ basis.T  # rows are unnormalized members
    weights = (np.abs(phi) ** 2).sum(axis=1)
    members = []
    for j in range(u.shape[0]):
        if weights[j] < WEIGHT_PRUNE:
            continue
        members.append(
            (float(weights[j]), PureState(op.labels, op.dims, phi[j] / math.sqrt(weights[j])))
        )
    dec = Decomposition(tuple(members))
    if np.abs(dec.average_operator() - op.matrix).max() > RECONSTRUCT_TOL:
        raise StateError("decomposition does not reconstruct the operator")
    return dec


def wootters_concurrence(op: DensityOperator) -> float:
    """Closed-form two-qubit concurrence roof: max(0, l1 - l2 - l3 - l4)."""
    if op.dims != (2, 2):
        raise StateError(f"needs a two-qubit operator, got dims {op.dims}")
    y = np.array([[0, -1j], [1j, 0]])
    yy = np.kron(y, y)
    r = op.matrix @ yy @ op.matrix.conj() @ yy
    ev = np.linalg.eigvals(r).real
    lam = np.sqrt(np.clip(np.sort(ev)[::-1], 0.0, None))
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


# ---------------------------------------------------------------------------
# Vectorized ensemble objective
# ---------------------------------------------------------------------------

def _roof_objective(spec: MeasureSpec, basis: np.ndarray, dims: tuple[int, ...]) -> Callable[[np.ndarray], float]:
    """Ensemble-average measure of the members an isometry ``u`` mixes from ``basis``.

    Member rows are ``u.conj() @ basis.T``, unnormalized; those below
    ``WEIGHT_PRUNE`` are dropped.
    """
    def objective(u: np.ndarray) -> float:
        phi = u.conj() @ basis.T
        weights = (np.abs(phi) ** 2).sum(axis=1)
        live = weights > WEIGHT_PRUNE
        if not live.all():
            phi, weights = phi[live], weights[live]
        return float((weights * member_values(spec, phi, weights, dims)).sum())

    return objective


# ---------------------------------------------------------------------------
# Local search over generator coordinates
# ---------------------------------------------------------------------------

def _n_coords(m: int, r: int) -> int:
    return r * (2 * m - r)


@lru_cache(maxsize=None)
def _coord_indices(m: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Strict-upper index arrays of the Hermitian generator support.

    The generator is Hermitian with support on the first r rows/columns
    (entries (i, j) with min(i, j) < r), matching the isometry manifold
    dimension r(2m - r) modulo the stabilizer of the reference point.
    """
    rows, cols = [], []
    for i in range(r):
        for j in range(i + 1, m):
            rows.append(i)
            cols.append(j)
    return np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)


def _unitary_from_coords(x: np.ndarray, m: int, r: int) -> np.ndarray:
    """m x m unitary exp(iH) from real generator coordinates."""
    rows, cols = _coord_indices(m, r)
    k = rows.size
    hmat = np.zeros((m, m), dtype=complex)
    hmat[rows, cols] = x[r:r + k] + 1j * x[r + k:]
    hmat += hmat.conj().T
    hmat[np.arange(r), np.arange(r)] = x[:r]
    w, v = np.linalg.eigh(hmat)
    return (v * np.exp(1j * w)) @ v.conj().T


def _haar_unitary(rng: np.random.Generator, m: int) -> np.ndarray:
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diagonal(r))


def _local_search(
    objective: Callable[[np.ndarray], float],
    q0: np.ndarray,
    r: int,
    tol: float,
    max_outer: int,
    budget: int,
    xtol: float = 1e-5,
) -> tuple[float, np.ndarray, bool]:
    """Monotone derivative-free descent: Powell passes with re-anchoring.

    ``q0`` is an m x m unitary anchor; its first r columns are the starting
    isometry.  Each pass optimizes generator coordinates around the anchor
    and the anchor moves to the improved point, keeping generators small.
    Returns the best value, the final anchor unitary, and a stagnation flag.
    """
    m = q0.shape[0]
    n = _n_coords(m, r)
    q = q0
    best = objective(q[:, :r])
    converged = False
    for _ in range(max_outer):
        if best < 1e-12:
            converged = True
            break

        def f(x: np.ndarray) -> float:
            return objective((q @ _unitary_from_coords(x, m, r))[:, :r])

        res = minimize(
            f,
            np.zeros(n),
            method="Powell",
            options={"maxfev": budget, "xtol": xtol, "ftol": 1e-10},
        )
        improved = best - float(res.fun)
        if res.fun < best:
            q = q @ _unitary_from_coords(res.x, m, r)
            best = float(res.fun)
        if improved < tol:
            converged = True
            break
    return best, q, converged


def convex_roof(
    spec: MeasureSpec,
    op: DensityOperator,
    partition: Partition | None = None,
    *,
    m: int | None = None,
    restarts: int = 16,
    seed: int = 0,
    max_iters: int = 8,
    tol: float = 1e-8,
) -> RoofResult:
    """Upper bound on the convex-roof value of a measure on a mixed state.

    The operator is first regrouped along the partition (default: one block
    per label), then the ensemble average of the pure-state measure is
    minimized over decompositions of cardinality ``m`` (default ``r**2``
    for rank r).  Restarts are deterministic per ``(seed, restart index)``.
    The result's ``spread`` (max - min over restart optima) flags optimizer
    uncertainty; ``converged`` reports whether the best run stagnated below
    ``tol``.  Non-convergence is not an error.
    """
    if partition is None:
        partition = full_partition(op.labels)
    grouped = qstate.regroup(op, partition)
    if not isinstance(grouped, DensityOperator):
        raise StateError("convex_roof needs a density operator")
    if grouped.dim > MAX_ROOF_DIM:
        raise GuardError(f"roof dimension {grouped.dim} exceeds the guard ({MAX_ROOF_DIM})")
    if len(grouped.dims) < 2:
        raise StateError("roof needs at least two effective parties")

    w, vecs = _eig_desc(grouped)
    r = Spectrum(w).effective_rank

    if r == 1:
        psi = PureState(grouped.labels, grouped.dims, vecs[:, 0])
        value = measure_pure(spec, psi)
        dec = Decomposition(((1.0, psi),))
        return RoofResult(float(value), dec, restarts_used=0, converged=True, spread=0.0)

    m_full = int(m) if m is not None else r * r
    if m_full < r:
        raise StateError(f"ensemble cardinality {m_full} below rank {r}")
    if m_full > MAX_MEMBERS:
        raise GuardError(f"ensemble cardinality {m_full} exceeds the guard ({MAX_MEMBERS})")

    basis = vecs[:, :r] * np.sqrt(w[:r])
    objective = _roof_objective(spec, basis, grouped.dims)

    # The concurrence objective has square-root cusps where members turn
    # separable; its square (the tangle) is polynomial in the isometry and
    # descends far more reliably.  Use it to steer the search and keep the
    # true objective for acceptance and polishing.
    steer = objective
    if spec.h.kind is HKind.CONCURRENCE:
        tangle = MeasureSpec(spec.family, ReducedFunctionSpec(HKind.TANGLE))
        steer = _roof_objective(tangle, basis, grouped.dims)

    children = np.random.SeedSequence(seed).spawn(2 * restarts)
    budget_small = min(2000, max(200, 40 * _n_coords(r, r)))
    budget_full = min(3200, max(200, 40 * _n_coords(m_full, r)))

    results: list[float] = []
    best_val = np.inf
    best_q: np.ndarray | None = None
    best_conv = False
    restarts_used = 0

    def run(q0: np.ndarray, budget: int, xtol: float = 1e-5, outer: int | None = None,
            steered: bool = False) -> None:
        nonlocal best_val, best_q, best_conv, restarts_used
        rounds = outer if outer is not None else max_iters
        if steered and steer is not objective:
            _, q0, _ = _local_search(steer, q0, r, tol, rounds, budget, xtol)
            rounds = 2
        val, q_opt, conv = _local_search(objective, q0, r, tol, rounds, budget, xtol)
        restarts_used += 1
        results.append(val)
        if val < best_val:
            best_val, best_q, best_conv = val, q_opt, conv

    # Stage 1: cardinality r, eigenbasis start plus Haar restarts, then a
    # fine polish of the stage winner.  This stage is identical for every
    # requested m, which keeps the reported optimum monotone in m.
    run(np.eye(r, dtype=complex), budget_small, steered=True)
    for i in range(max(0, restarts - 1)):
        run(_haar_unitary(np.random.default_rng(children[i]), r), budget_small, steered=True)
    if best_val > 1e-12:
        run(best_q, 3 * budget_small, xtol=1e-7, outer=4)

    # Near the zero boundary the landscape develops cusps and local minima;
    # relative accuracy matters most there, so spend extra seeded restarts
    # with a larger search budget and polish harder.
    scatter = max(results) - min(results) if results else 0.0
    if 1e-12 < best_val < 0.05 or scatter > max(1e-4, 0.05 * best_val):
        extra = np.random.SeedSequence((seed, 1)).spawn(2 * restarts)
        for child in extra:
            if best_val < 5e-5:
                break
            run(_haar_unitary(np.random.default_rng(child), r), 2 * budget_small,
                xtol=1e-6, steered=True)
        if best_val > 1e-12:
            run(best_q, 4 * budget_small, xtol=1e-7, outer=6)

    # Stage 2: widen to the requested cardinality; continuation from the
    # stage-1 optimum plus fresh Haar starts, then polish again.
    if m_full > r and best_val > 1e-12:
        pad = np.zeros((m_full, r), dtype=complex)
        pad[:r, :] = best_q[:, :r]
        q_warm, _ = np.linalg.qr(np.concatenate([pad, np.eye(m_full, dtype=complex)], axis=1))
        q_warm[:, :r] = pad
        run(q_warm, budget_full)
        for i in range(max(1, restarts // 2)):
            run(_haar_unitary(np.random.default_rng(children[restarts + i]), m_full),
                budget_full, steered=True)
        if best_q.shape[0] == m_full and best_val > 1e-12:
            run(best_q, 3 * budget_full, xtol=1e-7, outer=4)

    dec = decomposition_from_unitary(grouped, best_q[:, :r])
    achieved = math.fsum(wt * measure_pure(spec, psi) for wt, psi in dec.members)
    spread = float(max(results) - min(results)) if results else 0.0
    return RoofResult(
        value=float(achieved),
        decomposition=dec,
        restarts_used=restarts_used,
        converged=bool(best_conv),
        spread=spread,
    )
