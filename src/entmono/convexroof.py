"""Convex-roof extension of pure-state measures to mixed states.

The roof value of a mixed state is the minimum, over all pure-state
decompositions, of the ensemble-average measure.  Decompositions of a
rank-r operator correspond to isometries: an m x r matrix with orthonormal
columns mixes the eigenvectors into m ensemble members.  The search runs in
two stages: stage 1 at cardinality r from the eigendecomposition plus
Haar-random isometries, stage 2 at the requested m from a continuation
start (the best rank-sized ensemble padded with empty members) plus fresh
Haar starts.  Stage 1 is the same for every m, so the reported optimum is
monotone in m.  Each stage takes one of two paths:

* **gradient** when the objective is smooth: any family on two blocks and
  ``sum``/``sum-bipart`` on more, for the tangle, ``tsallis:2``,
  ``tsallisprime:2``, ``fidelityF`` and ``fidelityFprime``.  These are
  polynomials in tr rho^2 and tr rho^3, so each member's gradient has a
  closed form.  Riemannian descent on the isometry manifold (tangent
  projection, QR retraction, Barzilai-Borwein steps with an Armijo
  backtrack) runs all of a stage's restarts as one stacked array.  The
  concurrence on those families descends on its square, the tangle, and
  then finishes on the concurrence.
* **powell** for everything else (max/min or gated families on three or
  more blocks, and the non-smooth or non-polynomial reduced functions such
  as pnorm2, pnorm-min, pnegativity or the entropy): derivative-free Powell
  passes over generator coordinates with monotone re-anchoring, steered by
  the tangle for the concurrence, with extra near-zero restarts and polish
  passes.

Returned values are certified upper bounds on the true roof: the weighted
``measure_pure`` sum over the returned decomposition.  The spread over
restart optima and deterministic search counters (:class:`RoofStats`) are
reported so callers can judge reliability and cost.  The closed form for
the two-qubit concurrence roof is included as an independent validation
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.optimize import minimize

from .errors import GuardError, StateError
from .measures import _BIPART, MeasureSpec, _cut_plan, linear_cut_weights, measure_pure, member_values
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


@dataclass
class RoofStats:
    """Deterministic search counters of one roof, filled in as the search runs.

    ``path`` is ``gradient``, ``powell`` or ``pure`` (rank one: no search).
    Evaluations count isometries, one per restart in a batched call.
    ``iterations`` counts descent steps per restart on the gradient path
    and Powell passes on the Powell path.
    """

    path: str
    objective_evals: int = 0
    gradient_evals: int = 0
    iterations: int = 0
    restarts: int = 0


@dataclass(frozen=True)
class RoofResult:
    """Optimizer outcome: an upper bound on the roof plus its certificate."""

    value: float
    decomposition: Decomposition
    restarts_used: int
    converged: bool
    spread: float
    stats: RoofStats


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
    """Closed-form two-qubit concurrence roof: max(0, l1 - l2 - l3 - l4).

    The l_i are the singular values of X^T (sy x sy) X for rho = X X^dagger.
    """
    if op.dims != (2, 2):
        raise StateError(f"needs a two-qubit operator, got dims {op.dims}")
    w, v = np.linalg.eigh(op.matrix)
    x = v * np.sqrt(np.clip(w, 0.0, None))
    y = np.array([[0, -1j], [1j, 0]])
    lam = np.linalg.svd(x.T @ np.kron(y, y) @ x, compute_uv=False)
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
# Gradient path: closed-form member gradients, Riemannian descent
# ---------------------------------------------------------------------------

#: Reduced functions polynomial in tr rho^2 and tr rho^3 (the Tsallis pair
#: only at parameter 2): a member's weighted value w h(G / w) is closed-form
#: in w = tr G, tr G^2 and tr G^3 for its cut Gram matrix G = M M^dag.
_SMOOTH_KINDS = {HKind.TANGLE, HKind.FIDELITY_F, HKind.FIDELITY_F_PRIME}
_SMOOTH_AT_TWO = {HKind.TSALLIS, HKind.TSALLIS_PRIME}

ARMIJO = 1e-4
MAX_BACKTRACK = 30
#: Gradient iterations per restart and stage for each unit of ``max_iters``.
GRADIENT_ITERS = 60
#: Size of the seeded rotation applied to the eigenbasis start.
EIGEN_TILT = 0.1


def takes_gradient_path(spec: MeasureSpec, dims: tuple[int, ...]) -> bool:
    """True iff the roof of ``spec`` on blocks of ``dims`` is found by gradient descent.

    The family must be linear in its cut values (any family on two blocks,
    the ungated sums on more), and the reduced function polynomial in
    tr rho^2 and tr rho^3, or the concurrence, whose roof descends on the
    tangle and then finishes on the concurrence itself.
    """
    kind = spec.h.kind
    smooth = (kind in _SMOOTH_KINDS or kind is HKind.CONCURRENCE
              or (kind in _SMOOTH_AT_TWO and spec.h.param == 2.0))
    return smooth and linear_cut_weights(spec.family, dims) is not None


def _member_terms(h: ReducedFunctionSpec, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted value w h(G / w) of each cut matrix M (..., d_s, d_r) and its gradient in conj(M).

    Members below ``WEIGHT_PRUNE`` count as dropped: value and gradient 0.
    """
    g = m @ m.conj().swapaxes(-1, -2)
    w = np.trace(g, axis1=-2, axis2=-1).real
    live = w > WEIGHT_PRUNE
    w = np.where(live, w, 1.0)[..., None, None]
    gm = g @ m
    p2 = (g.real ** 2 + g.imag ** 2).sum(axis=(-2, -1))[..., None, None]
    kind = h.kind
    if kind is HKind.CONCURRENCE:
        # w C = sqrt(2 (w^2 - tr G^2)); its gradient is undefined on the cusp.
        val = np.sqrt(np.clip(2.0 * (w * w - p2), 0.0, None))
        grad = np.where(val > 0, 2.0 * (w * m - gm) / np.where(val > 0, val, 1.0), 0.0)
    elif kind is HKind.FIDELITY_F:
        g2m = g @ gm
        p3 = np.einsum("...ab,...ab->...", g2m, m.conj()).real[..., None, None]
        val = w - p3 / w ** 2
        grad = m - 3.0 * g2m / w ** 2 + 2.0 * p3 / w ** 3 * m
    elif kind is HKind.FIDELITY_F_PRIME:
        val = w - p2 ** 2 / w ** 3
        grad = m - 4.0 * p2 * gm / w ** 3 + 3.0 * p2 ** 2 / w ** 4 * m
    else:  # tangle 2(w - tr G^2 / w); tsallis:2 and tsallisprime:2 are half of it
        scale = 2.0 if kind is HKind.TANGLE else 1.0
        val = scale * (w - p2 / w)
        grad = scale * (m - 2.0 * gm / w + p2 / w ** 2 * m)
    live = live[..., None, None]
    return np.where(live, val, 0.0)[..., 0, 0], np.where(live, grad, 0.0)


def _roof_gradient(spec: MeasureSpec, basis: np.ndarray, dims: tuple[int, ...]
                   ) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Roof objective and its Euclidean gradient on a stack of isometries.

    For ``u`` of shape (R, m, r) the members are ``u.conj() @ basis.T`` as
    in :func:`_roof_objective`.  Returns the R objective values and the
    gradient E with df = Re tr(E^dag du); each cut counts with its
    :func:`~entmono.measures.linear_cut_weights` weight.
    """
    cuts = _cut_plan(dims, spec.family in _BIPART).cuts
    plan = [(order, np.argsort(order), d_s, d_r, coef)
            for (order, d_s, d_r), coef in zip(cuts, linear_cut_weights(spec.family, dims)) if coef]
    d = basis.shape[0]

    def value_and_gradient(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n_stack, k = u.shape[:2]
        phi = (u.conj() @ basis.T).reshape((n_stack * k,) + dims)
        total = np.zeros(n_stack * k)
        dphi = np.zeros(phi.shape, dtype=complex)
        for order, back, d_s, d_r, coef in plan:
            shape = phi.transpose(order).shape
            val, grad = _member_terms(spec.h, phi.transpose(order).reshape(-1, d_s, d_r))
            total += coef * val
            dphi += coef * grad.reshape(shape).transpose(back)
        egrad = 2.0 * dphi.reshape(n_stack, k, d).conj() @ basis
        return total.reshape(n_stack, k).sum(axis=1), egrad

    return value_and_gradient


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real Frobenius inner product Re tr(a^dag b) per stacked matrix."""
    return np.einsum("...ij,...ij->...", a.conj(), b).real


def _project(u: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Riemannian gradient on the Stiefel manifold: E - U sym(U^dag E)."""
    s = u.conj().swapaxes(-1, -2) @ e
    return e - u @ (0.5 * (s + s.conj().swapaxes(-1, -2)))


def _retract(x: np.ndarray) -> np.ndarray:
    """QR retraction onto isometries, with the diagonal of R made positive."""
    q, r = np.linalg.qr(x)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.where(np.abs(diag) > 0, np.abs(diag), 1.0))[..., None, :]


def _descend(fg: Callable, u: np.ndarray, iters: int, tol: float, stats: RoofStats
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Barzilai-Borwein descent with Armijo backtracking on a stack of isometries.

    Each restart of the stack (R, m, r) keeps its own step; every trial
    step of the stack is one batched evaluation.  A restart stops when its
    Riemannian gradient norm falls below ``tol``, when its value stops
    decreasing, or after ``iters`` steps.  Returns the final isometries,
    their values and per-restart convergence flags.
    """
    f, e = fg(u)
    stats.objective_evals += len(u)
    stats.gradient_evals += len(u)
    xi = _project(u, e)
    g2 = _inner(xi, xi)
    step = 1.0 / np.sqrt(np.maximum(g2, 1e-300))
    converged = g2 <= tol * tol
    active = ~converged
    for it in range(iters):
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        stats.iterations += idx.size
        t = np.minimum(step[idx], 1e6)
        new_u = np.empty_like(u[idx])
        new_f = np.empty(idx.size)
        new_e = np.empty_like(e[idx])
        pending = np.arange(idx.size)
        for _ in range(MAX_BACKTRACK):
            sel = idx[pending]
            trial = _retract(u[sel] - t[pending, None, None] * xi[sel])
            ft, et = fg(trial)
            stats.objective_evals += pending.size
            stats.gradient_evals += pending.size
            ok = ft <= f[sel] - ARMIJO * t[pending] * g2[sel]
            done = pending[ok]
            new_u[done], new_f[done], new_e[done] = trial[ok], ft[ok], et[ok]
            pending = pending[~ok]
            if not pending.size:
                break
            t[pending] *= 0.5
        # A restart whose step backtracked to nothing sits at a minimum to
        # rounding: keep its point.
        stuck = np.zeros(idx.size, dtype=bool)
        stuck[pending] = True
        active[idx[stuck]] = False
        converged[idx[stuck]] = True
        moved = np.flatnonzero(~stuck)
        sel = idx[moved]
        new_xi = _project(new_u[moved], new_e[moved])
        s = new_u[moved] - u[sel]
        y = new_xi - xi[sel]
        sy = np.abs(_inner(s, y))
        if it % 2:
            bb = _inner(s, s) / np.maximum(sy, 1e-300)
        else:
            bb = sy / np.maximum(_inner(y, y), 1e-300)
        decrease = f[sel] - new_f[moved]
        u[sel], f[sel], e[sel], xi[sel] = new_u[moved], new_f[moved], new_e[moved], new_xi
        g2[sel] = _inner(new_xi, new_xi)
        step[sel] = np.where(np.isfinite(bb) & (bb > 0), bb, t[moved])
        small = (g2[sel] <= tol * tol) | (decrease <= 1e-15 * np.maximum(np.abs(f[sel]), 1e-12))
        converged[sel[small]] = True
        active[sel[small]] = False
    return u, f, converged


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
    stats: RoofStats,
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

        stats.iterations += 1
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


def _powell_roof(objective: Callable, steer: Callable, r: int, m_full: int, restarts: int,
                 children: list, seed: int, max_iters: int, tol: float, stats: RoofStats
                 ) -> tuple[list[np.ndarray], list[float], bool]:
    """Staged Powell search; returns the best isometry, the restart optima and convergence."""
    budget_small = min(2000, max(200, 40 * _n_coords(r, r)))
    budget_full = min(3200, max(200, 40 * _n_coords(m_full, r)))

    results: list[float] = []
    best_val = np.inf
    best_q: np.ndarray | None = None
    best_conv = False

    def run(q0: np.ndarray, budget: int, xtol: float = 1e-5, outer: int | None = None,
            steered: bool = False) -> None:
        nonlocal best_val, best_q, best_conv
        rounds = outer if outer is not None else max_iters
        if steered and steer is not objective:
            _, q0, _ = _local_search(steer, q0, r, tol, rounds, budget, stats, xtol)
            rounds = 2
        val, q_opt, conv = _local_search(objective, q0, r, tol, rounds, budget, stats, xtol)
        stats.restarts += 1
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
        run(_widen(best_q[:, :r], m_full), budget_full)
        for i in range(max(1, restarts // 2)):
            run(_haar_unitary(np.random.default_rng(children[restarts + i]), m_full),
                budget_full, steered=True)
        if best_q.shape[0] == m_full and best_val > 1e-12:
            run(best_q, 3 * budget_full, xtol=1e-7, outer=4)
    return [best_q[:, :r]], results, best_conv


def _widen(u: np.ndarray, m: int) -> np.ndarray:
    """m x m unitary whose first columns are ``u`` padded with empty members."""
    r = u.shape[1]
    pad = np.zeros((m, r), dtype=complex)
    pad[:u.shape[0]] = u
    q, _ = np.linalg.qr(np.concatenate([pad, np.eye(m, dtype=complex)], axis=1))
    q[:, :r] = pad
    return q


def _gradient_roof(spec: MeasureSpec, basis: np.ndarray, dims: tuple[int, ...], r: int,
                   m_full: int, restarts: int, children: list, max_iters: int, tol: float,
                   stats: RoofStats) -> tuple[list[np.ndarray], list[float], bool]:
    """Staged gradient descent; returns each stage's best isometry, the restart optima and convergence.

    Each stage runs its restarts as one stack.  The concurrence descends on
    the tangle first and then on itself.
    """
    fg = _roof_gradient(spec, basis, dims)
    steer = None
    if spec.h.kind is HKind.CONCURRENCE:
        steer = _roof_gradient(MeasureSpec(spec.family, ReducedFunctionSpec(HKind.TANGLE)), basis, dims)
    iters = GRADIENT_ITERS * max_iters

    def stage(starts: list[np.ndarray]) -> tuple[np.ndarray, float, bool]:
        u = np.stack(starts)
        stats.restarts += len(u)
        if steer is not None:
            u, _, _ = _descend(steer, u, iters, tol, stats)
        u, f, conv = _descend(fg, u, iters, tol, stats)
        results.extend(float(x) for x in f)
        b = int(np.argmin(f))
        return u[b], float(f[b]), bool(conv[b])

    def haar(child, n: int) -> np.ndarray:
        return _haar_unitary(np.random.default_rng(child), n)[:, :r]

    # The eigenbasis of a symmetric state can be a saddle with zero gradient
    # (Powell steps off it, descent cannot), so that start is tilted by a
    # seeded rotation, from the child the last stage-1 restart leaves free.
    tilt = np.random.default_rng(children[restarts - 1])
    eigen = _retract(np.eye(r) + EIGEN_TILT * (tilt.standard_normal((r, r))
                                               + 1j * tilt.standard_normal((r, r))))
    results: list[float] = []
    # Stage 1 at cardinality r is identical for every requested m, and
    # stage 2 only adds candidates, so the reported optimum is monotone in m.
    best, val, conv = stage([eigen] + [haar(children[i], r) for i in range(max(0, restarts - 1))])
    candidates = [best]
    if m_full > r and val > 1e-12:
        wide, wide_val, wide_conv = stage(
            [_widen(best, m_full)[:, :r]]
            + [haar(children[restarts + i], m_full) for i in range(max(1, restarts // 2))])
        candidates.append(wide)
        if wide_val < val:
            conv = wide_conv
    return candidates, results, conv


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
    ``tol``.  Non-convergence is not an error.  Smooth objectives
    (:func:`takes_gradient_path`) are descended by gradient, with up to
    ``GRADIENT_ITERS * max_iters`` steps per restart and stage; the rest
    take ``max_iters`` Powell passes per restart.
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
        return RoofResult(float(value), dec, restarts_used=0, converged=True, spread=0.0,
                          stats=RoofStats("pure"))

    m_full = int(m) if m is not None else r * r
    if m_full < r:
        raise StateError(f"ensemble cardinality {m_full} below rank {r}")
    if m_full > MAX_MEMBERS:
        raise GuardError(f"ensemble cardinality {m_full} exceeds the guard ({MAX_MEMBERS})")

    basis = vecs[:, :r] * np.sqrt(w[:r])
    children = np.random.SeedSequence(seed).spawn(2 * restarts)
    if takes_gradient_path(spec, grouped.dims):
        stats = RoofStats("gradient")
        candidates, results, converged = _gradient_roof(
            spec, basis, grouped.dims, r, m_full, restarts, children, max_iters, tol, stats)
    else:
        stats = RoofStats("powell")
        objective = _roof_objective(spec, basis, grouped.dims)

        def counted(fn: Callable[[np.ndarray], float]) -> Callable[[np.ndarray], float]:
            def call(u: np.ndarray) -> float:
                stats.objective_evals += 1
                return fn(u)
            return call

        # The concurrence objective has square-root cusps where members turn
        # separable; its square (the tangle) is polynomial in the isometry and
        # descends far more reliably.  Use it to steer the search and keep the
        # true objective for acceptance and polishing.
        steer = objective = counted(objective)
        if spec.h.kind is HKind.CONCURRENCE:
            tangle = MeasureSpec(spec.family, ReducedFunctionSpec(HKind.TANGLE))
            steer = counted(_roof_objective(tangle, basis, grouped.dims))
        candidates, results, converged = _powell_roof(
            objective, steer, r, m_full, restarts, children, seed, max_iters, tol, stats)

    # Every candidate is certified by measure_pure on its own decomposition.
    achieved, dec = min((_certified(spec, grouped, u) for u in candidates), key=lambda c: c[0])
    spread = float(max(results) - min(results)) if results else 0.0
    return RoofResult(
        value=float(achieved),
        decomposition=dec,
        restarts_used=stats.restarts,
        converged=bool(converged),
        spread=spread,
        stats=stats,
    )


def _certified(spec: MeasureSpec, op: DensityOperator, u: np.ndarray) -> tuple[float, Decomposition]:
    """Weighted measure_pure sum of the decomposition an isometry gives, and that decomposition."""
    dec = decomposition_from_unitary(op, u)
    return math.fsum(wt * measure_pure(spec, psi) for wt, psi in dec.members), dec
