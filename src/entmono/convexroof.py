"""Convex-roof extension of pure-state measures to mixed states.

The roof value of a mixed state is the minimum, over all pure-state
decompositions, of the ensemble-average measure.  Decompositions of a
rank-r operator correspond to isometries: an m x r matrix with orthonormal
columns mixes the eigenvectors into m ensemble members.  One search serves
every measure: Riemannian descent on the isometry manifold (tangent
projection, polar retraction, Barzilai-Borwein steps with a non-monotone
Armijo backtrack), as in Audenaert, Verstraete & De Moor, PRA 64, 052304 (2001)
and Roethlisberger, Rehacek & Loss, PRA 80, 042301 (2009).  Each member's
gradient follows from the spectral rule for its cut Gram matrices, with
the family's max, min or gate taken at the member's active cut.  The
concurrence descends on its square, the tangle, before finishing on
itself.

The search runs in two stages, each one stack of restarts: stage 1 at
cardinality r from the eigendecomposition plus Haar-random isometries,
stage 2 at the requested m from a continuation start (the best rank-sized
ensemble padded with empty members) plus fresh Haar starts.  Stage 1 is
the same for every m, so the reported optimum is monotone in m.  Where
max, min and the gate have kinks, or h has cusps and rank cliffs, the
descent can stall and restarts land in different basins.  So the search
adds starts from what it observes: when a stage's optima scatter, stage 1
takes a second batch of Haar starts and stalled restarts descend again
from tilted copies; and when the stage-1 optimum is near zero, stage 2
screens extra Haar starts by a short descent.

Returned values are certified upper bounds on the true roof.  One
eigendecomposition per roof feeds the search and the certificate, which
drop light members by one rule; each candidate is valued by one
``member_values`` call, with ``measure_pure``'s bits per member.  The
spread over restart optima and deterministic search counters
(:class:`RoofStats`) are reported so callers can judge reliability and
cost.  The closed form for the two-qubit concurrence roof is included as
an independent validation oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GuardError, StateError
from .measures import (_BIPART, MeasureSpec, _cut_h, _cut_plan, _family_weights, _two_level,
                       measure_pure, member_values)
from .partitions import Partition
from .qstate import DensityOperator, PureState, Spectrum, clean_spectrum
from .redfun import HKind, ReducedFunctionSpec, h_gradient_batch, h_spectrum_batch
from . import qstate

#: Dimension guards for roof optimization (well past every desk-scale use).
MAX_ROOF_DIM = 64
MAX_MEMBERS = 256

WEIGHT_PRUNE = 1e-12
RECONSTRUCT_TOL = 1e-8


def __getattr__(name: str):
    # Only perfbench's tracer reads ``minimize`` (it wraps it by name); load scipy on that read.
    if name == "minimize":
        from scipy.optimize import minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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

    ``path`` is ``gradient``, or ``pure`` for rank one (no search).
    Evaluations count isometries, one per restart in a batched call;
    every objective evaluation also gives the gradient.  ``iterations``
    counts descent steps per restart, ``restarts`` the starts of all stages.
    """

    path: str
    objective_evals: int = 0
    iterations: int = 0
    restarts: int = 0


@dataclass(frozen=True)
class RoofResult:
    """Optimizer outcome: an upper bound on the roof plus its certificate."""

    value: float
    decomposition: Decomposition
    converged: bool
    spread: float
    stats: RoofStats

    @property
    def restarts_used(self) -> int:
        return self.stats.restarts


def _eig_desc(op: DensityOperator) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(op.matrix)
    order = np.argsort(w)[::-1]
    return clean_spectrum(w[order]), v[:, order]


def _ensemble(op: DensityOperator, basis: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights and unit rows of the members an isometry mixes from the scaled eigenbasis.

    Member ``j`` is ``u.conj()[j] @ basis.T``, unnormalized.  Members of weight
    at most ``WEIGHT_PRUNE`` are dropped, the rule of the roof objective, and
    the rest are checked to reconstruct ``op``.
    """
    phi = u.conj() @ basis.T
    weights = (np.abs(phi) ** 2).sum(axis=1)
    live = weights > WEIGHT_PRUNE
    phi, weights = phi[live], weights[live]
    if np.abs(phi.T @ phi.conj() - op.matrix).max() > RECONSTRUCT_TOL:
        raise StateError("decomposition does not reconstruct the operator")
    return weights, phi / np.sqrt(weights)[:, None]


def _decomposition(op: DensityOperator, weights: np.ndarray, rows: np.ndarray) -> Decomposition:
    return Decomposition(tuple((float(wt), PureState(op.labels, op.dims, row)) for wt, row in zip(weights, rows)))


def decomposition_from_unitary(op: DensityOperator, u: np.ndarray) -> Decomposition:
    """Ensemble obtained by mixing the eigenvectors with an isometry.

    ``u`` must have orthonormal columns, one per nonzero eigenvalue; member
    ``j`` has unnormalized vector ``sum_k conj(u[j, k]) sqrt(lam_k) e_k``.
    Members are pruned and checked as in :func:`_ensemble`.
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
    return _decomposition(op, *_ensemble(op, vecs[:, :r] * np.sqrt(w[:r]), u))


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
# Roof objective and its gradient, Riemannian descent
# ---------------------------------------------------------------------------

ARMIJO = 1e-4
MAX_BACKTRACK = 30
#: Weight of the past in the non-monotone Armijo reference (Zhang & Hager,
#: SIAM J. Optim. 14, 1043 (2004)), the value Wen & Yin use with BB steps on
#: the Stiefel manifold (Math. Program. 142, 397 (2013)).
NONMONOTONE = 0.85
#: Gradient iterations per restart and stage for each unit of ``max_iters``.
GRADIENT_ITERS = 60
#: Size of the seeded rotation applied to the eigenbasis start and to
#: restarts that stall.
TILT = 0.1
#: Optima of one stage that differ by more than SCATTER show several basins;
#: values below NEAR_ZERO are where cusps gather and relative accuracy
#: matters most.  Both call for more starts.
SCATTER = 1e-4
NEAR_ZERO = 0.05


def _roof_gradient(spec: MeasureSpec, basis: np.ndarray, dims: tuple[int, ...]
                   ) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Roof objective and its Euclidean gradient on a stack of isometries.

    For ``u`` of shape (R, m, r) the members are the rows of
    ``u.conj() @ basis.T``, unnormalized; those below ``WEIGHT_PRUNE`` are
    dropped.  A member of weight w adds w times its family value, the sum
    over cuts of a_c h(mu_c) with the weights a_c of
    :func:`~entmono.measures._family_weights` and mu_c the cut spectrum
    over w.  With the a_c held fixed, the gradient of w h(G / w) in conj(M)
    for a cut matrix M with Gram matrix G = M M^dag is D M, where
    D = V diag(h + dh_i - sum_j mu_j dh_j) V^dag and dh are the partials of
    :func:`~entmono.redfun.h_gradient_batch`.  On two-level cuts
    D = alpha I + beta G from the two eigenvalues, with no eigensolver;
    the wider cuts of each width take one batched ``eigh``.  Returns the R
    objective values and the gradient E with df = Re tr(E^dag du).
    """
    plan = _cut_plan(dims, spec.family in _BIPART)
    # Each cut's positions are a permutation of the member entries; its
    # inverse scatters a cut matrix's gradient back onto the member.
    unplace = [np.argsort(positions.reshape(len(positions), -1), axis=1) for _, _, positions in plan.groups]
    d = basis.shape[0]
    basis_t = basis.T

    def value_and_gradient(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n_stack, k = u.shape[:2]
        rows = (u.conj() @ basis_t).reshape(n_stack * k, d)
        w = (rows.view(float) ** 2).sum(axis=1)
        live = None
        if w.min() <= WEIGHT_PRUNE:  # dropped members stand in as a product vector
            live = w > WEIGHT_PRUNE
            rows[~live], w[~live] = np.eye(1, d), 1.0
        n = len(w)
        spectra = np.zeros((plan.n_cuts, n, plan.width))
        # Per group: the cut matrices M, their Gram eigenvalues, and G on
        # two-level cuts or the eigenvectors V on wider ones.
        solved = []
        for d_s, cuts, positions in plan.groups:
            m = rows[:, positions].swapaxes(0, 1)
            if d_s == 2:
                gram, lam = _two_level(m)
                solved.append((m, lam, gram))
            else:
                lam, vec = np.linalg.eigh(m @ m.conj().swapaxes(-1, -2))
                solved.append((m, lam, vec))
            spectra[cuts, :, :d_s] = lam / w[:, None]
        h_cuts = _cut_h(h_spectrum_batch, spec.h, spectra, plan)
        coef = _family_weights(spec.family, h_cuts, plan)
        if live is not None:
            coef = coef * live
        dh = _cut_h(h_gradient_batch, spec.h, spectra, plan)
        diag = coef[..., None] * (h_cuts[..., None] + dh - (spectra * dh).sum(axis=-1, keepdims=True))

        drows = np.zeros((n, d), dtype=complex)
        for (d_s, cuts, _), inverse, (m, lam, x) in zip(plan.groups, unplace, solved):
            dg = diag[cuts, :, :d_s]
            if d_s == 2:
                # D = d_small + beta (G - lam_small), both eigenvalue entries of diag
                gap = lam[..., 1] - lam[..., 0]
                beta = np.divide(dg[..., 1] - dg[..., 0], gap, out=np.zeros(gap.shape), where=gap > 0)
                dm = ((dg[..., 0] - beta * lam[..., 0])[..., None, None] * m
                      + beta[..., None, None] * (x @ m))
            else:
                dm = x @ (dg[..., None] * (x.conj().swapaxes(-1, -2) @ m))
            for dm_cut, inv in zip(dm.reshape(len(inverse), n, d), inverse):
                drows += dm_cut[:, inv]
        values = ((coef * h_cuts).sum(axis=0) * w).reshape(n_stack, k).sum(axis=1)
        return values, 2.0 * drows.reshape(n_stack, k, d).conj() @ basis

    return value_and_gradient


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real Frobenius inner product Re tr(a^dag b) per stacked matrix."""
    return np.einsum("...ij,...ij->...", a.conj(), b).real


def _project(u: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Riemannian gradient on the Stiefel manifold: E - U sym(U^dag E)."""
    s = u.conj().swapaxes(-1, -2) @ e
    return e - u @ (0.5 * (s + s.conj().swapaxes(-1, -2)))


def _retract(x: np.ndarray) -> np.ndarray:
    """Polar retraction onto isometries: the nearest isometry W V^dag, from x = W S V^dag."""
    w, _, vh = np.linalg.svd(x, full_matrices=False)
    return w @ vh


def _descend(fg: Callable, u: np.ndarray, iters: int, tol: float, stats: RoofStats
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Barzilai-Borwein descent with non-monotone Armijo backtracking on a stack of isometries.

    Each restart of the stack (R, m, r) keeps its own step; every trial
    step of the stack is one batched evaluation.  A step is accepted when
    it falls below a running average of past values by the Armijo margin.
    A restart stops when its Riemannian gradient norm falls below ``tol``,
    when its value stops changing, when its step backtracks to nothing, or
    after ``iters`` steps.  Returns the final isometries, their values,
    per-restart convergence flags, and which restarts stalled (stopped
    because backtracking failed, with the gradient still above ``tol``).
    """
    def evaluate(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        stats.objective_evals += len(x)
        return fg(x)

    f, e = evaluate(u)
    xi = _project(u, e)
    g2 = _inner(xi, xi)
    step = 1.0 / np.sqrt(np.maximum(g2, 1e-300))
    converged = g2 <= tol * tol
    stalled = np.zeros(len(u), dtype=bool)
    out_u, out_f = u.copy(), f.copy()
    # The restarts still descending, and their state.
    idx = np.flatnonzero(~converged)
    u, f, xi, g2, step = (x[idx] for x in (u, f, xi, g2, step))
    # Zhang-Hager reference value: a running average of past values.
    ref, weight = f.copy(), np.ones(len(f))
    for it in range(iters):
        if not idx.size:
            break
        stats.iterations += idx.size
        t = np.minimum(step, 1e6)
        new_u = _retract(u - t[:, None, None] * xi)
        new_f, new_e = evaluate(new_u)
        ok = new_f <= ref - ARMIJO * t * g2
        for _ in range(MAX_BACKTRACK - 1):
            if ok.all():
                break
            bad = np.flatnonzero(~ok)
            t[bad] *= 0.5
            trial = _retract(u[bad] - t[bad, None, None] * xi[bad])
            new_u[bad] = trial
            new_f[bad], new_e[bad] = evaluate(trial)
            ok[bad] = new_f[bad] <= ref[bad] - ARMIJO * t[bad] * g2[bad]
        # A restart whose step backtracked to nothing keeps its point: it
        # sits at a minimum to rounding, or on a kink, cusp or cliff of h.
        stuck = ~ok
        if stuck.any():
            new_u[stuck], new_f[stuck] = u[stuck], f[stuck]
        new_xi = _project(new_u, new_e)
        s, y = new_u - u, new_xi - xi
        sy = np.abs(_inner(s, y))
        if it % 2:
            bb = _inner(s, s) / np.maximum(sy, 1e-300)
        else:
            bb = sy / np.maximum(_inner(y, y), 1e-300)
        change = np.abs(f - new_f)
        ref = (NONMONOTONE * weight * ref + new_f) / (NONMONOTONE * weight + 1.0)
        weight = NONMONOTONE * weight + 1.0
        u, f, xi, g2 = new_u, new_f, new_xi, _inner(new_xi, new_xi)
        step = np.where(np.isfinite(bb) & (bb > 0), bb, t)
        done = stuck | (g2 <= tol * tol) | (change <= 1e-15 * np.maximum(np.abs(f), 1e-12))
        if done.any():
            out_u[idx[done]], out_f[idx[done]] = u[done], f[done]
            # A stuck restart still has its gradient above tol: it stalled.
            converged[idx[done & ~stuck]] = True
            stalled[idx[stuck]] = True
            go = ~done
            idx, u, f, xi, g2, step, ref, weight = (
                x[go] for x in (idx, u, f, xi, g2, step, ref, weight))
    out_u[idx], out_f[idx] = u, f
    return out_u, out_f, converged, stalled


def _tilt(u: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Isometries near ``u``, moved by a seeded rotation of size ``TILT``."""
    noise = rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape)
    return _retract(u + TILT * noise)


def _gradient_roof(spec: MeasureSpec, basis: np.ndarray, dims: tuple[int, ...], r: int,
                   m_full: int, restarts: int, seed: int, max_iters: int, tol: float,
                   stats: RoofStats) -> tuple[list[np.ndarray], list[float], bool]:
    """Staged gradient descent (see the module docstring).

    Returns each stage's best isometry, the restart optima and convergence.
    """
    fg = _roof_gradient(spec, basis, dims)
    steer = None
    if spec.h.kind is HKind.CONCURRENCE:
        steer = _roof_gradient(MeasureSpec(spec.family, ReducedFunctionSpec(HKind.TANGLE)), basis, dims)
    iters = GRADIENT_ITERS * max_iters
    children = np.random.SeedSequence(seed).spawn(2 * restarts)
    extra = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    results: list[float] = []

    def stage(u: np.ndarray) -> tuple[np.ndarray, float, bool, bool]:
        stats.restarts += len(u)
        finish = iters
        if steer is not None:
            # The steer does the bulk; near its cusps the concurrence only
            # crawls, so its finish gets one unit of steps.
            u = _descend(steer, u, iters, tol, stats)[0]
            finish = GRADIENT_ITERS
        u, f, conv, stalled = _descend(fg, u, finish, tol, stats)
        scattered = f.min() > 1e-12 and f.max() - f.min() > SCATTER
        for _ in range(max_iters if scattered else 0):
            sel = np.flatnonzero(stalled)
            if not sel.size:
                break
            u2, f2, conv2, stalled2 = _descend(fg, _tilt(u[sel], extra), finish, tol, stats)
            better = f2 < f[sel]
            stalled[:] = False
            moved = sel[better]
            u[moved], f[moved], conv[moved], stalled[moved] = (
                u2[better], f2[better], conv2[better], stalled2[better])
        results.extend(float(x) for x in f)
        b = int(np.argmin(f))
        return u[b], float(f[b]), bool(conv[b]), scattered

    def haar(n: int, sources: list) -> np.ndarray:
        """First r columns of Haar unitaries of size n, one per child or generator."""
        return qstate.haar_isometries(n, n, [np.random.default_rng(x) for x in sources])[..., :r]

    # The eigenbasis of a symmetric state can be a saddle with zero gradient,
    # so that start is tilted by a seeded rotation, from the child the last
    # stage-1 restart leaves free.
    eigen = _tilt(np.eye(r, dtype=complex), np.random.default_rng(children[restarts - 1]))
    # Stage 1 at cardinality r is identical for every requested m, and
    # stage 2 only adds candidates, so the reported optimum is monotone in m.
    best, val, conv, scattered = stage(np.concatenate([eigen[None], haar(r, children[:restarts - 1])]))
    if scattered:
        more = stage(haar(r, [extra] * (3 * restarts)))
        if more[1] < val:
            best, val, conv, _ = more
    candidates = [best]
    if m_full > r and val > 1e-12:
        # The continuation start pads the stage-1 optimum with empty members.
        starts = [np.vstack([best, np.zeros((m_full - r, r))])[None],
                  haar(m_full, children[restarts:restarts + max(1, restarts // 2)])]
        if val < NEAR_ZERO:
            # Screen more Haar starts by a short descent; the best one joins
            # if it already undercuts stage 1.
            probe = haar(m_full, [extra] * (3 * restarts))
            probe, f_probe = _descend(fg, probe, GRADIENT_ITERS // 4, tol, stats)[:2]
            if f_probe.min() < val:
                starts.append(probe[np.argmin(f_probe)][None])
        wide, wide_val, wide_conv, _ = stage(np.concatenate(starts))
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
    per label, in the operator's order), then the ensemble average of the
    pure-state measure is minimized over decompositions of cardinality
    ``m`` (default ``r**2`` for rank r).  Restarts are deterministic per
    ``(seed, restart index)``.
    The result's ``spread`` (max - min over restart optima) flags optimizer
    uncertainty; ``converged`` reports whether the best run stagnated below
    ``tol``, the Riemannian gradient norm.  Non-convergence is not an
    error.  Each restart takes up to ``GRADIENT_ITERS * max_iters`` descent
    steps per stage.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if not isinstance(op, DensityOperator):
        raise StateError("convex_roof needs a density operator")
    grouped = op if partition is None else qstate.regroup(op, partition)
    if len(grouped.dims) < 2:
        raise StateError("roof needs at least two effective parties")
    if grouped.dim > MAX_ROOF_DIM:
        raise GuardError(f"roof dimension {grouped.dim} exceeds the guard ({MAX_ROOF_DIM})")

    w, vecs = _eig_desc(grouped)
    r = Spectrum(w).effective_rank

    if r == 1:
        psi = PureState(grouped.labels, grouped.dims, vecs[:, 0])
        value = measure_pure(spec, psi)
        dec = Decomposition(((1.0, psi),))
        return RoofResult(float(value), dec, converged=True, spread=0.0, stats=RoofStats("pure"))

    m_full = int(m) if m is not None else r * r
    if m_full < r:
        raise StateError(f"ensemble cardinality {m_full} below rank {r}")
    if m_full > MAX_MEMBERS:
        raise GuardError(f"ensemble cardinality {m_full} exceeds the guard ({MAX_MEMBERS})")

    basis = vecs[:, :r] * np.sqrt(w[:r])
    stats = RoofStats("gradient")
    candidates, results, converged = _gradient_roof(
        spec, basis, grouped.dims, r, m_full, restarts, seed, max_iters, tol, stats)

    # Every candidate is certified by the family values of its own members.
    certified = [(math.fsum(wt * member_values(spec, rows, grouped.dims)), wt, rows)
                 for wt, rows in (_ensemble(grouped, basis, u) for u in candidates)]
    achieved, weights, rows = min(certified, key=lambda c: c[0])
    spread = float(max(results) - min(results)) if results else 0.0
    return RoofResult(float(achieved), _decomposition(grouped, weights, rows), bool(converged), spread, stats)
