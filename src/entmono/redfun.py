"""Catalog of concave spectral reduced functions and empirical property probes.

Every function here is a nonnegative concave function of a density operator
that depends only on its spectrum and vanishes on pure states.  Each one
induces a bipartite entanglement monotone on pure states through the
marginal; the measure families in :mod:`entmono.measures` are built on top.
Each kind is one row of ``_KINDS``, h beside its partials dh/dlam_i; nine kinds
are g(S) of one power sum S = sum lam^q, differentiated by one chain rule.

Entropic quantities use natural logarithms (nats) throughout; the CLI can
convert entropy-based outputs to bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from . import qstate
from .errors import StateError
from .qstate import DensityOperator, zero_noise


class HKind(str, Enum):
    """Reduced-function identifiers (also the CLI vocabulary)."""

    ENTROPY = "entropy"
    CONCURRENCE = "concurrence"
    TANGLE = "tangle"
    TSALLIS = "tsallis"
    RENYI = "renyi"
    NEGATIVITY = "negativity"
    FIDELITY_F = "fidelityF"
    FIDELITY_F_PRIME = "fidelityFprime"
    FIDELITY_AF = "fidelityAF"
    PNORM2 = "pnorm2"
    PNORM_MIN = "pnorm-min"
    PNORM_MIN_PRIME = "pnorm-minprime"
    PNEGATIVITY = "pnegativity"
    TSALLIS_PRIME = "tsallisprime"
    RENYI_PRIME = "renyiprime"


_PARAMETRIC = {HKind.TSALLIS, HKind.RENYI, HKind.TSALLIS_PRIME, HKind.RENYI_PRIME}


@dataclass(frozen=True)
class ReducedFunctionSpec:
    """One catalog entry: a kind plus its parameter where applicable."""

    kind: HKind
    param: float | None = None

    def __post_init__(self):
        kind = HKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind in _PARAMETRIC:
            if self.param is None:
                raise ValueError(f"{kind.value} requires a parameter")
            p = float(self.param)
            if not math.isfinite(p):
                raise ValueError(f"{kind.value} parameter must be finite, got {p!r}")
            if kind is HKind.TSALLIS and (p <= 0 or p == 1.0):
                raise ValueError("tsallis parameter must be positive and != 1")
            if kind is HKind.TSALLIS_PRIME and p <= 1.0:
                raise ValueError("tsallisprime parameter must be > 1")
            if kind in (HKind.RENYI, HKind.RENYI_PRIME) and not 0.0 < p < 1.0:
                raise ValueError("renyi parameter must lie in (0, 1)")
            object.__setattr__(self, "param", p)
        elif self.param is not None:
            raise ValueError(f"{kind.value} takes no parameter")

    @property
    def name(self) -> str:
        """CLI name, e.g. ``tsallis:2``: the parameter's shortest round-trip form, so that
        ``parse`` gives back the spec."""
        if self.param is None:
            return self.kind.value
        return f"{self.kind.value}:{repr(self.param).removesuffix('.0')}"

    @classmethod
    def parse(cls, text: str) -> "ReducedFunctionSpec":
        if ":" in text:
            kind, _, param = text.partition(":")
            return cls(HKind(kind), float(param))
        return cls(HKind(text))


def _one_hot(index: np.ndarray, width: int) -> np.ndarray:
    return (np.arange(width) == index[..., None]).astype(float)


def _positive(x):
    """x where positive, else inf: a divisor that turns x = 0 into a zero quotient."""
    return np.where(x > 0, x, np.inf)


def _rank_and_min(lam):
    """Count of the nonzero entries and the smallest of them, 0 on a pure spectrum (one nonzero entry)."""
    nz = lam > 0.0
    r = nz.sum(axis=-1)
    return r, np.where(r > 1, np.where(nz, lam, np.inf).min(axis=-1), 0.0)


def _smallest_nonzero(lam, p):
    """Indicator of the smallest nonzero entry, zero on a pure spectrum."""
    nz = lam > 0.0
    return _one_hot(np.where(nz, lam, np.inf).argmin(axis=-1), lam.shape[-1]) * (nz.sum(axis=-1) > 1)[..., None]


def _pnegativity(lam, p):
    if lam.shape[-1] < 2:
        return np.zeros(lam.shape[:-1])
    top2 = np.sort(lam, axis=-1)[..., -2:]
    return np.sqrt(np.clip(top2[..., 0] * top2[..., 1], 0.0, None))


def _top_two(lam, p):
    """Derivative of sqrt(a b) for the two largest entries a < b."""
    if lam.shape[-1] < 2:
        return np.zeros(lam.shape)
    a, b = np.moveaxis(np.sort(lam, axis=-1)[..., -2:, None], -2, 0)
    return 0.5 * (np.where(lam == a, np.sqrt(b / _positive(a)), 0.0)
                  + np.where(lam == b, np.sqrt(a / _positive(b)), 0.0))


def _concurrence(lam, p):
    """sqrt(2((sum lam)^2 - sum lam^2)): exactly 0 on a spectrum with one nonzero entry, where
    2(1 - sum lam^2) reads the rounding of that entry and the zeroed noise, lifted to ~1e-8."""
    s = lam.sum(axis=-1)
    return np.sqrt(np.clip(2.0 * (s * s - (lam * lam).sum(axis=-1)), 0.0, None))


def _power_sum(q, g, dh):
    """The row of h = g(S, p) for the power sum S = sum lam^q (q None: the parameter p).
    Its partials are dh(S, d, p): S kept as a trailing axis, and the chain
    factor d = q lam^(q - 1) on the nonzero entries, 0 elsewhere."""
    def h(lam, p):
        return g((lam ** (p if q is None else q)).sum(axis=-1), p)

    def partials(lam, p):
        e = p if q is None else q
        nz = lam > 0
        d = np.where(nz, e * np.where(nz, lam, 1.0) ** (e - 1.0), 0.0)
        return dh((lam ** e).sum(axis=-1, keepdims=True), d, p)

    return h, partials


#: One row (h, partials dh/dlam_i) per kind, as functions of noise-zeroed
#: spectra and the kind's parameter.  An entry h reads as zero has partial 0:
#: its eigenvector does not overlap the member, so any finite value gives the
#: same roof gradient.  Zeroing mass near a pure spectrum can take a
#: fractional power sum under 1, so those kinds are clamped at 0 like tangle.
_KINDS = {
    HKind.ENTROPY: (lambda lam, p: -(lam * np.log(np.where(lam > 0, lam, 1.0))).sum(axis=-1),
                    lambda lam, p: np.where(lam > 0, -np.log(np.where(lam > 0, lam, 1.0)) - 1.0, 0.0)),
    HKind.TANGLE: _power_sum(2, lambda s, p: np.clip(2.0 * (1.0 - s), 0.0, None), lambda s, d, p: -2.0 * d),
    HKind.CONCURRENCE: (_concurrence,
                        lambda lam, p: np.where(lam > 0, 2.0 * (lam.sum(axis=-1, keepdims=True) - lam), 0.0)
                        / _positive(_concurrence(lam, p)[..., None])),
    HKind.TSALLIS: _power_sum(None, lambda s, p: np.clip((1.0 - s) / (p - 1.0), 0.0, None),
                              lambda s, d, p: -d / (p - 1.0)),
    HKind.RENYI: _power_sum(None, lambda s, p: np.clip(np.log(s) / (1.0 - p), 0.0, None),
                            lambda s, d, p: d / ((1.0 - p) * s)),
    HKind.NEGATIVITY: _power_sum(0.5, lambda s, p: np.clip(0.5 * (s ** 2 - 1.0), 0.0, None),
                                 lambda s, d, p: s * d),
    HKind.FIDELITY_F: _power_sum(3, lambda s, p: 1.0 - s, lambda s, d, p: -d),
    HKind.FIDELITY_F_PRIME: _power_sum(2, lambda s, p: 1.0 - s ** 2, lambda s, d, p: -2.0 * s * d),
    HKind.FIDELITY_AF: _power_sum(3, lambda s, p: 1.0 - np.sqrt(s), lambda s, d, p: -0.5 * d / np.sqrt(s)),
    HKind.PNORM2: (lambda lam, p: 1.0 - lam.max(axis=-1),
                   lambda lam, p: -_one_hot(lam.argmax(axis=-1), lam.shape[-1])),
    HKind.PNORM_MIN: (lambda lam, p: _rank_and_min(lam)[1], _smallest_nonzero),
    HKind.PNORM_MIN_PRIME: (lambda lam, p: np.multiply(*_rank_and_min(lam)),
                            lambda lam, p: (lam > 0).sum(axis=-1, keepdims=True) * _smallest_nonzero(lam, p)),
    HKind.PNEGATIVITY: (_pnegativity, _top_two),
    HKind.TSALLIS_PRIME: _power_sum(None, lambda s, p: 1.0 - s, lambda s, d, p: -d),
    HKind.RENYI_PRIME: _power_sum(None, lambda s, p: np.clip(s - 1.0, 0.0, None), lambda s, d, p: d),
}


def h_spectrum_batch(spec: ReducedFunctionSpec, lam: np.ndarray) -> np.ndarray:
    """Evaluate the reduced function on a batch of spectra.

    ``lam`` is a float array with spectra along the last axis, read as
    trusted: every entry already clamped nonnegative and each row summing to
    one, as the library's spectra are where they are computed.
    :func:`h_spectrum` checks a caller's spectrum first.
    """
    kind = spec.kind
    # Two-level spectra: 2(1 - sum lam^2) = 4 lam0 lam1 without the
    # cancellation near pure spectra, and a small lam_min is signal here.
    if lam.shape[-1] == 2 and kind in (HKind.TANGLE, HKind.CONCURRENCE):
        prod = lam[..., 0] * lam[..., 1]
        return 4.0 * prod if kind is HKind.TANGLE else 2.0 * np.sqrt(prod)
    return _KINDS[kind][0](zero_noise(lam), spec.param)


def h_gradient_batch(spec: ReducedFunctionSpec, lam: np.ndarray) -> np.ndarray:
    """Partial derivatives of :func:`h_spectrum_batch` in each spectrum entry.

    Same trusted input and the same readings as the evaluator: two-level
    tangle and concurrence differentiate 4 lam0 lam1 and 2 sqrt(lam0 lam1),
    other spectra have their noise-level entries zeroed first.  Where h is not
    differentiable (ties of a max or min, a vanishing concurrence) one
    one-sided derivative is returned.
    """
    kind = spec.kind
    if lam.shape[-1] == 2 and kind in (HKind.TANGLE, HKind.CONCURRENCE):
        other = lam[..., ::-1]
        if kind is HKind.TANGLE:
            return 4.0 * other
        return np.sqrt(np.divide(other, lam, out=np.zeros(lam.shape), where=lam > 0))
    return _KINDS[kind][1](zero_noise(lam), spec.param)


#: The catalog, in the order the CLI's property scan reports it.
CATALOG: tuple[ReducedFunctionSpec, ...] = tuple(ReducedFunctionSpec.parse(name) for name in (
    "entropy", "concurrence", "tangle", "tsallis:2", "tsallis:0.5", "renyi:0.5", "negativity",
    "fidelityF", "fidelityFprime", "fidelityAF", "pnorm2", "pnorm-min", "pnorm-minprime",
    "pnegativity", "tsallisprime:2", "renyiprime:0.5"))


def h_spectrum(spec: ReducedFunctionSpec, eigs: Iterable[float]) -> float:
    """Reduced function of a single spectrum (any order, zeros allowed).

    An empty, non-1-D or non-finite spectrum, or an entry below ``-EIG_FLOOR``,
    raises :class:`StateError`; smaller negatives are clamped to zero.
    """
    lam = np.atleast_1d(np.asarray(list(eigs) if not isinstance(eigs, np.ndarray) else eigs, dtype=float))
    if lam.ndim != 1 or not lam.size:
        raise StateError(f"spectrum must be a nonempty 1-D sequence, got shape {lam.shape}")
    if not np.isfinite(lam).all():
        raise StateError("spectrum has a non-finite entry")
    if float(lam.min()) < -qstate.EIG_FLOOR:
        raise StateError(f"negative spectrum value {float(lam.min())!r}")
    return float(h_spectrum_batch(spec, np.maximum(lam, 0.0)[None, :])[0])


def h_eval(spec: ReducedFunctionSpec, op: DensityOperator) -> float:
    """Reduced function of a density operator (via its spectrum)."""
    return h_spectrum(spec, qstate.eigenvalues(op).eigenvalues)


# ---------------------------------------------------------------------------
# Documented property pattern per catalog entry.
#
# Values: True (holds, proven), False (fails, proven or witnessed),
# "conjectured" (asserted without proof), "qubit-only" (holds on qubits).
# ---------------------------------------------------------------------------

#: Concave, strictly concave, subadditive, additive; tsallis depends on q.
_PATTERNS: dict[HKind, tuple[object, ...]] = {
    HKind.ENTROPY: (True, True, True, True),
    HKind.CONCURRENCE: (True, True, True, False),
    HKind.TANGLE: (True, True, True, False),
    HKind.RENYI: (True, True, False, True),
    HKind.NEGATIVITY: (True, True, False, False),
    HKind.FIDELITY_F: (True, True, True, False),
    HKind.FIDELITY_F_PRIME: (True, True, "conjectured", False),
    HKind.FIDELITY_AF: (True, True, "conjectured", False),
    HKind.PNORM2: (True, False, True, False),
    HKind.PNORM_MIN: (True, False, False, False),
    HKind.PNORM_MIN_PRIME: (True, False, False, False),
    HKind.PNEGATIVITY: ("conjectured", "qubit-only", "conjectured", False),
    HKind.TSALLIS_PRIME: (True, True, True, False),
    HKind.RENYI_PRIME: (True, True, False, False),
}


#: The ``CATALOG`` entries whose value on a pure two-qubit state is a convex,
#: nondecreasing function f of its concurrence C (C = 2 sqrt(lam0 lam1) of the
#: marginal spectrum).  For these, Wootters' equal-concurrence ensemble makes
#: the two-qubit roof f(C_W) exactly (:mod:`entmono.convexroof`).  The other
#: four are concave or change curvature in C: tsallis:0.5 is 2(sqrt(1 + C) - 1),
#: renyi:0.5 log(1 + C), renyiprime:0.5 sqrt(1 + C) - 1 and fidelityFprime
#: C^2 - C^4 / 4.
CONVEX_IN_CONCURRENCE = frozenset(ReducedFunctionSpec.parse(name) for name in (
    "entropy", "concurrence", "tangle", "tsallis:2", "negativity", "fidelityF", "fidelityAF",
    "pnorm2", "pnorm-min", "pnorm-minprime", "pnegativity", "tsallisprime:2"))


def table_entry(spec: ReducedFunctionSpec) -> dict[str, object]:
    """Concavity / strict concavity / subadditivity / additivity pattern."""
    if spec.kind is HKind.TSALLIS:
        row = (True, spec.param > 1, spec.param > 1, False)
    else:
        row = _PATTERNS[spec.kind]
    return dict(zip(PATTERN_KEYS.values(), row))


class ProbeProperty(str, Enum):
    CONCAVITY = "concavity"
    STRICT_CONCAVITY = "strict-concavity"
    SUBADDITIVITY = "subadditivity"
    ADDITIVITY = "additivity"


#: The :func:`table_entry` key documenting each probed property.
PATTERN_KEYS = dict(zip(ProbeProperty, ("concave", "strictly_concave", "subadditive", "additive")))


@dataclass
class ProbeReport:
    """Outcome of a randomized property probe (report-only, never raises)."""

    h: str
    property: str
    trials: int
    dims: tuple[int, ...]
    seed: int
    violations: int
    worst_margin: float
    witness: dict | None
    note: str | None = None

    def to_dict(self) -> dict:
        # Shallow: the witness is shared, not deep-copied as ``asdict`` would copy it.
        return dict(vars(self), dims=list(self.dims))


def _serialize_op(labels: tuple[str, ...], dims: tuple[int, ...], matrix: np.ndarray) -> dict:
    return {"labels": list(labels), "dims": list(dims),
            "matrix": np.stack([matrix.real, matrix.imag], axis=-1).tolist()}


#: Properties the catalog cites as failing without giving an explicit state.
UNWITNESSED_NOTES: dict[tuple[HKind, ProbeProperty], str] = {
    (HKind.RENYI, ProbeProperty.SUBADDITIVITY): "non-subadditivity cited without an explicit witness",
}


def known_counterexamples(
    spec: ReducedFunctionSpec, property: ProbeProperty | str
) -> list[tuple[DensityOperator, float]]:
    """Curated witness states violating a property, with their margins.

    Empty when the property is expected to hold for the given kind, and
    for cited-but-unwitnessed failures (see :data:`UNWITNESSED_NOTES`).
    """
    property = ProbeProperty(property)
    out: list[tuple[DensityOperator, float]] = []
    if property is ProbeProperty.SUBADDITIVITY and spec.kind in (
        HKind.PNORM_MIN,
        HKind.PNORM_MIN_PRIME,
    ):
        # Rank-2 mixture of two entangled pure states with disjoint local
        # supports on a pair of 4-level systems: the global smallest nonzero
        # eigenvalue (1/2) exceeds the sum of the marginal ones (1/10 each).
        d = 4
        psi = np.zeros(d * d, dtype=complex)
        psi[0 * d + 0] = np.sqrt(4 / 5)
        psi[1 * d + 1] = np.sqrt(1 / 5)
        phi = np.zeros(d * d, dtype=complex)
        phi[2 * d + 2] = np.sqrt(4 / 5)
        phi[3 * d + 3] = np.sqrt(1 / 5)
        rho = 0.5 * np.outer(psi, psi.conj()) + 0.5 * np.outer(phi, phi.conj())
        op = DensityOperator(("A", "B"), (d, d), rho)
        margin = (
            h_eval(spec, op)
            - h_eval(spec, qstate.partial_trace(op, ["A"]))
            - h_eval(spec, qstate.partial_trace(op, ["B"]))
        )
        out.append((op, float(margin)))
    return out


#: Upper bound on the matrix entries of one stacked role in a probe batch,
#: so that a probe's memory does not grow with its trial count.
_BATCH_ENTRIES = 1 << 18


def _draw(property: ProbeProperty, dims: tuple[int, ...], rngs: Iterable) -> dict[str, np.ndarray]:
    """The samples of a batch of random trials, one generator each, by role.

    Each trial's generator draws the Ginibre normals of the first factor, then
    those of the second (additivity and both concavities), then the concavity
    mixing weight (strict concavity mixes at 1/2), and is dropped once drawn.
    """
    if property is ProbeProperty.SUBADDITIVITY:
        return {"state": qstate.ginibre_matrices(dims, rngs)}
    additive, weighted = property is ProbeProperty.ADDITIVITY, property is ProbeProperty.CONCAVITY
    n1, n2 = (dims[0], math.prod(dims[1:])) if additive else (math.prod(dims),) * 2
    first, second, weight = zip(*((r.standard_normal((2, n1, n1)), r.standard_normal((2, n2, n2)),
                                   r.uniform(0.05, 0.95) if weighted else 0.5) for r in rngs))
    a, b = qstate.unit_trace_gram(np.array(first)), qstate.unit_trace_gram(np.array(second))
    if not additive:
        return {"rho1": a, "rho2": b, "weight": np.array(weight)}
    qstate.stack_spectra(a)  # the factor operators' checks
    qstate.stack_spectra(b)
    return {"state": (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(len(a), n1 * n2, n1 * n2)}


def _margins(spec: ReducedFunctionSpec, property: ProbeProperty, sample: dict[str, np.ndarray],
             dims: tuple[int, ...]) -> np.ndarray:
    """Property margins of a batch of samples: one validated eigvalsh and one
    :func:`h_spectrum_batch` call per role."""
    def h(stack):
        return h_spectrum_batch(spec, qstate.stack_spectra(stack))

    if property in (ProbeProperty.CONCAVITY, ProbeProperty.STRICT_CONCAVITY):
        w, rho1, rho2 = sample["weight"], sample["rho1"], sample["rho2"]
        mix = w[:, None, None] * rho1 + (1 - w[:, None, None]) * rho2
        return h(mix) - w * h(rho1) - (1 - w) * h(rho2)
    state = sample["state"]
    whole = h(state)
    parts = h(qstate.trace_out(state, dims, range(1, len(dims)))) + h(qstate.trace_out(state, dims, [0]))
    if property is ProbeProperty.ADDITIVITY:
        return -np.abs(whole - parts)
    return parts - whole


def property_probe(
    spec: ReducedFunctionSpec,
    property: ProbeProperty | str,
    trials: int,
    seed: int = 0,
    dims: tuple[int, ...] = (2, 2),
) -> ProbeReport:
    """Randomized search for violations of a property of the reduced function.

    Concavity draws random operator pairs and mixing weights; strict
    concavity uses the midpoint and requires a strictly positive margin;
    subadditivity draws random bipartite states (first label versus the
    rest); additivity draws random product states.  Curated witnesses are
    prepended as extra trials.  Random trial i draws from
    ``default_rng`` of child i of ``SeedSequence(seed)``
    (:func:`~entmono.qstate.child_generators`); the trials are drawn and
    evaluated in stacks, each stack's generators made only as it is drawn.  The report
    carries the violation count, the worst margin seen, and a serialized
    witness: the first sample with the worst margin, if that margin is a
    violation.
    """
    property = ProbeProperty(property)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    pair = property in (ProbeProperty.SUBADDITIVITY, ProbeProperty.ADDITIVITY)
    if pair and len(dims) < 2:
        raise ValueError("subadditivity/additivity probes need at least two subsystems")
    labels, dims = qstate._check_layout([chr(ord("A") + i) for i in range(len(dims))], dims)
    step = max(1, _BATCH_ENTRIES // math.prod(dims) ** 2)

    known = known_counterexamples(spec, property) if pair else []
    batches = itertools.chain(
        (((op.labels, op.dims), {"state": op.matrix[None]}) for op, _ in known),
        (((labels, dims), _draw(property, dims, qstate.child_generators(seed, i, min(step, trials - i))))
         for i in range(0, trials, step)))
    violations, worst, witness = 0, np.inf, None
    for (labs, dm), sample in batches:
        margins = _margins(spec, property, sample, dm)
        bad = margins <= 1e-12 if property is ProbeProperty.STRICT_CONCAVITY else margins < -1e-9
        violations += int(bad.sum())
        i = int(np.argmin(margins))
        if margins[i] < worst:
            worst = margins[i]
            if bad[i]:
                witness = {key: float(v[i]) if key == "weight" else _serialize_op(labs, dm, v[i])
                           for key, v in sample.items()}
                witness["margin"] = float(margins[i])
        del sample  # free this stack before the next one is drawn

    return ProbeReport(h=spec.name, property=property.value, trials=trials, dims=dims, seed=seed,
                       violations=violations, worst_margin=float(worst), witness=witness,
                       note=UNWITNESSED_NOTES.get((spec.kind, property)))
