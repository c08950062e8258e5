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
the family's max, min or gate taken at the member's active cut.

The search runs in two stages, each one stack of restarts: stage 1 at
cardinality r from the eigendecomposition plus Haar-random isometries,
stage 2 at the requested m from a continuation start (the best rank-sized
ensemble padded with empty members) plus fresh Haar starts.  Stage 1 is
the same for every m, so the reported optimum is monotone in m.  Where
max, min and the gate have kinks, or h has cusps and rank cliffs, the
descent can stall and restarts land in different basins.  So the search
adds starts from what it observes: when a stage's optima scatter, stage 1
takes a second batch of Haar starts and stalled restarts descend again
from tilted copies.

Two-qubit roofs of the twelve kinds in
:data:`~entmono.redfun.CONVEX_IN_CONCURRENCE` take no search.  There
h(psi) = f(C) with f convex and nondecreasing in the concurrence C.  For any
ensemble, sum_j p_j f(C_j) >= f(sum_j p_j C_j) >= f(C_W), by convexity, then
by monotonicity and C_W being the concurrence roof (Wootters, PRL 80, 2245
(1998)).  Wootters' optimal ensemble puts every member at C_W, so it attains
f(C_W): the roof is exact (for the tangle, Osborne, PRA 72, 022309 (2005)).
The ensemble is built from the roof's eigendecomposition, r members when
C_W > 0 and four product members (two at rank two) when C_W = 0.  Where
``m`` is below that count, or on other kinds and wider dims, the search runs.

Returned values are certified upper bounds on the true roof.  One
eigendecomposition per roof feeds the search or the closed form and the
certificate, which drop light members by one rule; each candidate is
valued by one ``member_values`` call, with ``measure_pure``'s bits per
member.  The spread over restart optima and deterministic search counters
(:class:`RoofStats`) are reported so callers can judge reliability and
cost, and each roof logs its path at DEBUG.  The closed form for the
two-qubit concurrence roof, from singular values, is included as an
independent validation oracle.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GuardError, StateError
from .measures import (_BIPART, MeasureSpec, _cut_h, _cut_plan, _family_weights, _two_level, measure_pure,
                       member_values)
from .partitions import Partition
from .qstate import DensityOperator, PureState, _eig_desc
from .redfun import CONVEX_IN_CONCURRENCE, h_gradient_batch
from . import qstate

#: Dimension guards for roof optimization (well past every desk-scale use).
MAX_ROOF_DIM = 64
MAX_MEMBERS = 256

WEIGHT_PRUNE = 1e-12
RECONSTRUCT_TOL = 1e-8

logger = logging.getLogger(__name__)


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

    ``path`` is ``gradient``, ``closed`` for Wootters' two-qubit ensemble or
    ``pure`` for rank one; the last two run no search and count nothing.
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
    w, vecs = _eig_desc(op.matrix)
    r = w.size
    if u.ndim != 2 or u.shape[1] != r:
        raise StateError(f"isometry must have {r} columns, got shape {u.shape}")
    if u.shape[0] < r:
        raise StateError("isometry needs at least as many rows as columns")
    if np.abs(u.conj().T @ u - np.eye(r)).max() > 1e-10:
        raise StateError("matrix columns are not orthonormal within tolerance")
    return _decomposition(op, *_ensemble(op, vecs * np.sqrt(w), u))


def eigen_ensemble_value(spec: MeasureSpec, op: DensityOperator) -> float:
    """Ensemble value of the eigendecomposition: an upper bound on the roof, with no search.

    Its r members are the eigenvectors of nonzero weight, valued by one
    ``member_values`` call; it holds for every family and h.
    """
    w, vecs = _eig_desc(op.matrix)
    return math.fsum(w * member_values(spec, vecs.T, op.dims))


# ---------------------------------------------------------------------------
# Two-qubit closed form: Wootters' optimal ensemble
# ---------------------------------------------------------------------------

#: sigma_y (x) sigma_y, real: a two-qubit vector psi has concurrence |psi^T S psi| / |psi|^2.
_SPIN_FLIP = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))


def wootters_concurrence(op: DensityOperator) -> float:
    """Closed-form two-qubit concurrence roof: max(0, l1 - l2 - l3 - l4).

    The l_i are the singular values of X^T (sy x sy) X for rho = X X^dagger.
    """
    if op.dims != (2, 2):
        raise StateError(f"needs a two-qubit operator, got dims {op.dims}")
    w, v = np.linalg.eigh(op.matrix)
    x = v * np.sqrt(np.clip(w, 0.0, None))
    lam = np.linalg.svd(x.T @ _SPIN_FLIP @ x, compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


#: Takagi values at or below this are zero: their vectors complete the basis.
TAKAGI_ZERO = 1e-13
#: Its rows mix two vectors into two members with equal squared coefficients; its
#: Kronecker square mixes four into four.
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def _takagi(tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Takagi factorization tau = U diag(s) U^T of a complex symmetric matrix, s descending.

    An eigenpair (s, (x, y)) of the real embedding [[Re tau, Im tau],
    [Im tau, -Re tau]] gives tau conj(x + iy) = s (x + iy), and the
    eigenvalues come in pairs +-s.  The r largest give U's columns, which
    the polar retraction makes orthonormal to rounding (eigh may tilt the
    vector of a small s toward its partner).  Where s vanishes, x + iy
    and i(x + iy) both appear, so those columns are an orthonormal
    completion instead (any completion serves a zero s).
    """
    r = len(tau)
    s, v = np.linalg.eigh(np.block([[tau.real, tau.imag], [tau.imag, -tau.real]]))
    s, v = s[:-r - 1:-1], v[:, :-r - 1:-1]
    live = s > TAKAGI_ZERO
    u = _retract(v[:r, live] + 1j * v[r:, live])
    if not live.all():
        rest = np.linalg.eigh(np.eye(r) - u @ u.conj().T)[1]  # eigenvalue 1 on the complement
        u = np.hstack([u, rest[:, u.shape[1]:]])
    return np.where(live, s, 0.0), u


def _zero_diagonal(k: np.ndarray) -> np.ndarray:
    """Real orthogonal Q with diag(Q^T K Q) = 0 for a traceless real symmetric K.

    Each of r - 1 Givens rotations zeroes one diagonal entry against a
    later one of opposite sign; such an entry exists because the entries
    still to come sum to minus the current one.
    """
    k, r = k.copy(), len(k)
    q = np.eye(r)
    for i in range(r - 1):
        j = i + 1 + int(np.argmax(-np.sign(k[i, i]) * k.diagonal()[i + 1:]))
        a, b, c = k[j, j], k[i, j], k[i, i]
        disc = b * b - a * c
        if c == 0 or disc <= 0:  # zero already, or rounding left no opposite sign
            continue
        # The smaller root t of a t^2 + 2 b t + c = 0, the rotation's tangent.
        t = -c / (b + math.copysign(math.sqrt(disc), b))
        g = np.eye(r)
        g[[i, j], [i, j]] = 1.0 / math.sqrt(1.0 + t * t)
        g[j, i] = t * g[i, i]
        g[i, j] = -g[j, i]
        k, q = g.T @ k @ g, q @ g
    return q


def _pair_phases(p: float, q: float, length: float) -> tuple[float, float]:
    """Angles (a, b) with p e^{ia} + q e^{ib} = length, for |p - q| <= length <= p + q."""
    cos = (p * p + length * length - q * q) / (2 * p * length) if p * length > 0 else 1.0
    a = math.acos(min(1.0, max(-1.0, cos)))
    return a, math.atan2(-p * math.sin(a), length - p * math.cos(a))


def _wootters_isometry(basis: np.ndarray) -> np.ndarray:
    """The isometry that mixes a two-qubit eigenbasis into Wootters' optimal ensemble.

    With X the scaled eigenbasis, tau = X^T S X = U diag(s) U^T (Takagi),
    and the vectors X conj(U) D with phases D have spin-flip overlaps
    s_k D_k^2.  C_W = s_1 - s_2 - ... - s_r.  If C_W > 0, D = (1, i, i, i)
    makes the overlaps A = diag(s_1, -s_2, ...), and a real rotation Q that
    zeroes the diagonal of K = A - C_W Re(B), B the vectors' Gram matrix,
    gives r members whose overlap is C_W times their weight: each has
    concurrence C_W.  Otherwise the phases close the polygon
    sum_k s_k D_k^2 = 0 and the Hadamard rows give product members, four
    (two at rank two, where s_1 = s_2).  Member j is row j of the result
    under :func:`_ensemble`.
    """
    r = basis.shape[1]
    s, u = _takagi(basis.T @ _SPIN_FLIP @ basis)
    c_w = s[0] - s[1:].sum()
    if c_w > 0:
        phases = np.array([1.0] + [1j] * (r - 1))
        vectors = basis @ (u.conj() * phases)
        mix = _zero_diagonal(np.diag(s * (phases ** 2).real) - c_w * (vectors.conj().T @ vectors).real)
    else:
        # Sides s_1, s_4 and s_2, s_3 make two opposite vectors of one length,
        # which both pairs reach when s_1 <= s_2 + s_3 + s_4.
        sides = np.concatenate([s, np.zeros(4 - r)])
        length = max(sides[0] - sides[3], sides[1] - sides[2])
        a1, b1 = _pair_phases(sides[0], sides[3], length)
        a2, b2 = _pair_phases(sides[1], sides[2], length)
        phases = np.exp(0.5j * np.array([a1, a2 + math.pi, b2 + math.pi, b1]))[:r]
        mix = (np.kron(_HADAMARD, _HADAMARD) if r > 2 else _HADAMARD)[:, :r].T
    return mix.T @ (phases.conj()[:, None] * u.T)


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
#: Optima of one stage that differ by more than SCATTER show several basins,
#: which call for more starts.
SCATTER = 1e-4


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
        # Per group: the cut matrices M, their Gram eigenvalues, G on
        # two-level cuts or the eigenvectors V on wider ones, and the spectra.
        solved = []
        for d_s, _, positions in plan.groups:
            m = rows[:, positions].swapaxes(0, 1)
            if d_s == 2:
                gram, lam = _two_level(m)
                solved.append((m, lam, gram, lam / w[:, None]))
            else:
                lam, vec = np.linalg.eigh(m @ m.conj().swapaxes(-1, -2))
                solved.append((m, lam, vec, np.maximum(lam, 0.0) / w[:, None]))
        h_cuts = _cut_h(spec.h, tuple(mu for *_, mu in solved))
        coef = _family_weights(spec.family, h_cuts, plan)
        if live is not None:
            coef = coef * live

        drows = np.zeros((n, d), dtype=complex)
        for (d_s, cuts, _), inverse, (m, lam, x, mu) in zip(plan.groups, unplace, solved):
            dh = h_gradient_batch(spec.h, mu)
            dg = coef[cuts, :, None] * (h_cuts[cuts, :, None] + dh - (mu * dh).sum(axis=-1, keepdims=True))
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
    iters = GRADIENT_ITERS * max_iters
    extra = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    children = list(qstate.child_generators(seed, 0, restarts + max(1, restarts // 2)))
    results: list[float] = []

    def stage(u: np.ndarray) -> tuple[np.ndarray, float, bool, bool]:
        stats.restarts += len(u)
        u, f, conv, stalled = _descend(fg, u, iters, tol, stats)
        scattered = f.min() > 1e-12 and f.max() - f.min() > SCATTER
        for _ in range(max_iters if scattered else 0):
            sel = np.flatnonzero(stalled)
            if not sel.size:
                break
            u2, f2, conv2, stalled2 = _descend(fg, _tilt(u[sel], extra), iters, tol, stats)
            better = f2 < f[sel]
            stalled[:] = False
            moved = sel[better]
            u[moved], f[moved], conv[moved], stalled[moved] = (
                u2[better], f2[better], conv2[better], stalled2[better])
        results.extend(float(x) for x in f)
        b = int(np.argmin(f))
        return u[b], float(f[b]), bool(conv[b]), scattered

    def haar(n: int, rngs) -> np.ndarray:
        """First r columns of Haar unitaries of size n, one per generator."""
        return qstate.haar_isometries(n, n, rngs)[..., :r]

    # The eigenbasis of a symmetric state can be a saddle with zero gradient,
    # so that start is tilted by a seeded rotation, from the child the last
    # stage-1 restart leaves free.
    eigen = _tilt(np.eye(r, dtype=complex), children[restarts - 1])
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
                  haar(m_full, children[restarts:])]
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

    Two-qubit operators under a kind convex and nondecreasing in the
    concurrence (``redfun.CONVEX_IN_CONCURRENCE``) take Wootters' ensemble
    instead when ``m`` admits its members (r, or four product members, two at
    rank two): the value is f(C_W), exact for the ungated families and
    within ``GATE_EPS`` of the roof for the gated ones.  ``restarts``,
    ``seed``, ``max_iters`` and ``tol`` do not act on that path, whose stats
    read ``closed``, and ``spread`` is 0.
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

    w, vecs = _eig_desc(grouped.matrix)
    r = w.size
    if r == 1:
        psi = PureState(grouped.labels, grouped.dims, vecs[:, 0])
        result = RoofResult(float(measure_pure(spec, psi)), Decomposition(((1.0, psi),)), converged=True,
                            spread=0.0, stats=RoofStats("pure"))
    else:
        m_full = int(m) if m is not None else r * r
        if m_full < r:
            raise StateError(f"ensemble cardinality {m_full} below rank {r}")
        if m_full > MAX_MEMBERS:
            raise GuardError(f"ensemble cardinality {m_full} exceeds the guard ({MAX_MEMBERS})")

        basis = vecs * np.sqrt(w)
        closed = None
        if grouped.dims == (2, 2) and spec.h in CONVEX_IN_CONCURRENCE:
            closed = _wootters_isometry(basis)
        if closed is not None and len(closed) <= m_full:
            stats, candidates, results, converged = RoofStats("closed"), [closed], [], True
        else:
            stats = RoofStats("gradient")
            candidates, results, converged = _gradient_roof(
                spec, basis, grouped.dims, r, m_full, restarts, seed, max_iters, tol, stats)

        # Every candidate is certified by the family values of its own members.
        certified = [(math.fsum(wt * member_values(spec, rows, grouped.dims)), wt, rows)
                     for wt, rows in (_ensemble(grouped, basis, u) for u in candidates)]
        achieved, weights, rows = min(certified, key=lambda c: c[0])
        spread = float(max(results) - min(results)) if results else 0.0
        result = RoofResult(float(achieved), _decomposition(grouped, weights, rows), bool(converged), spread,
                            stats)
    logger.debug("%s roof on dims %s, rank %d: path %s, %d evaluations", spec.name, grouped.dims, r,
                 result.stats.path, result.stats.objective_evals)
    return result
