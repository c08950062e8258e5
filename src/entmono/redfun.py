"""Catalog of concave spectral reduced functions and empirical property probes.

Every function here is a nonnegative concave function of a density operator
that depends only on its spectrum and vanishes on pure states.  Each one
induces a bipartite entanglement monotone on pure states through the
marginal; the measure families in :mod:`entmono.measures` are built on top.

Entropic quantities use natural logarithms (nats) throughout; the CLI can
convert entropy-based outputs to bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from . import qstate
from .errors import StateError
from .qstate import DensityOperator, RANK_REL_TOL, clean_spectrum


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
        """CLI name, e.g. ``tsallis:2``."""
        if self.param is None:
            return self.kind.value
        return f"{self.kind.value}:{self.param:g}"

    @classmethod
    def parse(cls, text: str) -> "ReducedFunctionSpec":
        if ":" in text:
            kind, _, param = text.partition(":")
            return cls(HKind(kind), float(param))
        return cls(HKind(text))


def _zero_noise(lam: np.ndarray) -> np.ndarray:
    """Zero noise-level eigenvalues: fractional powers would otherwise turn
    O(1e-16) diagonalization noise into O(1e-8) contributions."""
    tau = RANK_REL_TOL * np.maximum(1.0, lam.max(axis=-1, keepdims=True))
    return np.where(lam > tau, lam, 0.0)


def h_spectrum_batch(spec: ReducedFunctionSpec, lam: np.ndarray) -> np.ndarray:
    """Evaluate the reduced function on a batch of spectra.

    ``lam`` has spectra along the last axis; entries must be nonnegative
    (small negatives beyond tolerance raise) and each row sums to one.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.size and float(lam.min()) < -qstate.EIG_FLOOR:
        raise StateError(f"negative spectrum value {float(lam.min())!r}")
    lam = np.maximum(lam, 0.0)
    kind, p = spec.kind, spec.param
    # Two-level spectra: 2(1 - sum lam^2) = 4 lam0 lam1 without the
    # cancellation near pure spectra, and a small lam_min is signal here.
    if lam.shape[-1] == 2 and kind in (HKind.TANGLE, HKind.CONCURRENCE):
        prod = lam[..., 0] * lam[..., 1]
        return 4.0 * prod if kind is HKind.TANGLE else 2.0 * np.sqrt(prod)
    lam = _zero_noise(lam)

    if kind is HKind.ENTROPY:
        safe = np.where(lam > 0, lam, 1.0)
        return -(lam * np.log(safe)).sum(axis=-1)
    if kind is HKind.TANGLE:
        return np.clip(2.0 * (1.0 - (lam ** 2).sum(axis=-1)), 0.0, None)
    if kind is HKind.CONCURRENCE:
        return np.sqrt(np.clip(2.0 * (1.0 - (lam ** 2).sum(axis=-1)), 0.0, None))
    if kind is HKind.TSALLIS:
        return (1.0 - (lam ** p).sum(axis=-1)) / (p - 1.0)
    if kind is HKind.RENYI:
        return np.log((lam ** p).sum(axis=-1)) / (1.0 - p)
    if kind is HKind.NEGATIVITY:
        return 0.5 * (np.sqrt(lam).sum(axis=-1) ** 2 - 1.0)
    if kind is HKind.FIDELITY_F:
        return 1.0 - (lam ** 3).sum(axis=-1)
    if kind is HKind.FIDELITY_F_PRIME:
        return 1.0 - (lam ** 2).sum(axis=-1) ** 2
    if kind is HKind.FIDELITY_AF:
        return 1.0 - np.sqrt((lam ** 3).sum(axis=-1))
    if kind is HKind.PNORM2:
        return 1.0 - lam.max(axis=-1)
    if kind is HKind.TSALLIS_PRIME:
        return 1.0 - (lam ** p).sum(axis=-1)
    if kind is HKind.RENYI_PRIME:
        return (lam ** p).sum(axis=-1) - 1.0

    # Rank-sensitive kinds: count and minimize over the surviving spectrum.
    nz = lam > 0.0
    if kind is HKind.PNORM_MIN:
        m = np.where(nz, lam, np.inf).min(axis=-1)
        return np.where(m > 1.0 - 1e-12, 0.0, m)
    if kind is HKind.PNORM_MIN_PRIME:
        m = np.where(nz, lam, np.inf).min(axis=-1)
        r = nz.sum(axis=-1)
        return np.where(m > 1.0 - 1e-12, 0.0, r * m)
    if kind is HKind.PNEGATIVITY:
        if lam.shape[-1] < 2:
            return np.zeros(lam.shape[:-1])
        top2 = np.sort(lam, axis=-1)[..., -2:]
        return np.sqrt(np.clip(top2[..., 0] * top2[..., 1], 0.0, None))

    raise ValueError(f"unhandled kind {kind!r}")


#: The catalog, in the order the CLI's property scan reports it.
CATALOG: tuple[ReducedFunctionSpec, ...] = tuple(ReducedFunctionSpec.parse(name) for name in (
    "entropy", "concurrence", "tangle", "tsallis:2", "tsallis:0.5", "renyi:0.5", "negativity",
    "fidelityF", "fidelityFprime", "fidelityAF", "pnorm2", "pnorm-min", "pnorm-minprime",
    "pnegativity", "tsallisprime:2", "renyiprime:0.5"))


def _one_hot(index: np.ndarray, width: int) -> np.ndarray:
    return (np.arange(width) == index[..., None]).astype(float)


def _smallest_nonzero(lam, nz, p):
    """Indicator of the smallest nonzero entry, zero where the value is cut to 0."""
    m = np.where(nz, lam, np.inf)
    return _one_hot(m.argmin(axis=-1), lam.shape[-1]) * (m.min(axis=-1) <= 1.0 - 1e-12)[..., None]


def _top_two(lam, nz, p):
    """Derivative of sqrt(a b) for the two largest entries a < b."""
    if lam.shape[-1] < 2:
        return np.zeros(lam.shape)
    a, b = np.moveaxis(np.sort(lam, axis=-1)[..., -2:, None], -2, 0)
    return 0.5 * (np.where(lam == a, np.sqrt(b / _positive(a)), 0.0)
                  + np.where(lam == b, np.sqrt(a / _positive(b)), 0.0))


def _power(lam, nz, p):
    """p lam^(p - 1) on the nonzero entries."""
    return np.where(nz, p * np.where(nz, lam, 1.0) ** (p - 1.0), 0.0)


def _positive(x):
    """x where positive, else inf: a divisor that turns x = 0 into a zero quotient."""
    return np.where(x > 0, x, np.inf)


#: Partial derivatives dh/dlam_i of :func:`h_spectrum_batch`, per kind, as
#: functions of the spectra, their nonzero mask and the parameter.  An entry
#: the evaluator reads as zero has derivative 0: its eigenvector does not
#: overlap the member, so any finite value gives the same roof gradient.
H_DERIVATIVES = {
    HKind.ENTROPY: lambda lam, nz, p: np.where(nz, -np.log(np.where(nz, lam, 1.0)) - 1.0, 0.0),
    HKind.TANGLE: lambda lam, nz, p: -4.0 * lam,
    HKind.CONCURRENCE: lambda lam, nz, p: -2.0 * lam / _positive(
        np.sqrt(np.clip(2.0 * (1.0 - (lam ** 2).sum(axis=-1, keepdims=True)), 0.0, None))),
    HKind.TSALLIS: lambda lam, nz, p: -_power(lam, nz, p) / (p - 1.0),
    HKind.RENYI: lambda lam, nz, p: _power(lam, nz, p) / ((1.0 - p) * (lam ** p).sum(axis=-1, keepdims=True)),
    HKind.NEGATIVITY: lambda lam, nz, p: np.sqrt(lam).sum(axis=-1, keepdims=True) * _power(lam, nz, 0.5),
    HKind.FIDELITY_F: lambda lam, nz, p: -3.0 * lam ** 2,
    HKind.FIDELITY_F_PRIME: lambda lam, nz, p: -4.0 * (lam ** 2).sum(axis=-1, keepdims=True) * lam,
    HKind.FIDELITY_AF: lambda lam, nz, p: (-1.5 * lam ** 2
                                           / np.sqrt((lam ** 3).sum(axis=-1, keepdims=True))),
    HKind.PNORM2: lambda lam, nz, p: -_one_hot(lam.argmax(axis=-1), lam.shape[-1]),
    HKind.TSALLIS_PRIME: lambda lam, nz, p: -_power(lam, nz, p),
    HKind.RENYI_PRIME: _power,
    HKind.PNORM_MIN: _smallest_nonzero,
    HKind.PNORM_MIN_PRIME: lambda lam, nz, p: nz.sum(axis=-1, keepdims=True) * _smallest_nonzero(lam, nz, p),
    HKind.PNEGATIVITY: _top_two,
}


def h_gradient_batch(spec: ReducedFunctionSpec, lam: np.ndarray) -> np.ndarray:
    """Partial derivatives of :func:`h_spectrum_batch` in each spectrum entry.

    Same input and the same readings as the evaluator: two-level tangle and
    concurrence differentiate 4 lam0 lam1 and 2 sqrt(lam0 lam1), other
    spectra have their noise-level entries zeroed first.  Where h is not
    differentiable (ties of a max or min, a vanishing concurrence) one
    one-sided derivative is returned.
    """
    lam = np.maximum(np.asarray(lam, dtype=float), 0.0)
    kind = spec.kind
    if lam.shape[-1] == 2 and kind in (HKind.TANGLE, HKind.CONCURRENCE):
        other = lam[..., ::-1]
        if kind is HKind.TANGLE:
            return 4.0 * other
        return np.sqrt(np.divide(other, lam, out=np.zeros(lam.shape), where=lam > 0))
    lam = _zero_noise(lam)
    return H_DERIVATIVES[kind](lam, lam > 0, spec.param)


def h_spectrum(spec: ReducedFunctionSpec, eigs: Iterable[float]) -> float:
    """Reduced function of a single spectrum (any order, zeros allowed)."""
    lam = np.atleast_1d(np.asarray(list(eigs) if not isinstance(eigs, np.ndarray) else eigs, dtype=float))
    return float(h_spectrum_batch(spec, lam[None, :])[0])


def h_eval(spec: ReducedFunctionSpec, op: DensityOperator) -> float:
    """Reduced function of a density operator (via its spectrum)."""
    return h_spectrum(spec, qstate.eigenvalues(op).eigenvalues)


# ---------------------------------------------------------------------------
# Documented property pattern per catalog entry.
#
# Values: True (holds, proven), False (fails, proven or witnessed),
# "conjectured" (asserted without proof), "qubit-only" (holds on qubits).
# ---------------------------------------------------------------------------

def table_entry(spec: ReducedFunctionSpec) -> dict[str, object]:
    """Concavity / strict concavity / subadditivity / additivity pattern."""
    k, p = spec.kind, spec.param
    if k is HKind.ENTROPY:
        return {"concave": True, "strictly_concave": True, "subadditive": True, "additive": True}
    if k in (HKind.CONCURRENCE, HKind.TANGLE):
        return {"concave": True, "strictly_concave": True, "subadditive": True, "additive": False}
    if k is HKind.TSALLIS:
        return {
            "concave": True,
            "strictly_concave": p > 1,
            "subadditive": p > 1,
            "additive": False,
        }
    if k is HKind.RENYI:
        return {"concave": True, "strictly_concave": True, "subadditive": False, "additive": True}
    if k is HKind.NEGATIVITY:
        return {"concave": True, "strictly_concave": True, "subadditive": False, "additive": False}
    if k is HKind.FIDELITY_F:
        return {"concave": True, "strictly_concave": True, "subadditive": True, "additive": False}
    if k in (HKind.FIDELITY_F_PRIME, HKind.FIDELITY_AF):
        return {"concave": True, "strictly_concave": True, "subadditive": "conjectured", "additive": False}
    if k is HKind.PNORM2:
        return {"concave": True, "strictly_concave": False, "subadditive": True, "additive": False}
    if k in (HKind.PNORM_MIN, HKind.PNORM_MIN_PRIME):
        return {"concave": True, "strictly_concave": False, "subadditive": False, "additive": False}
    if k is HKind.PNEGATIVITY:
        return {
            "concave": "conjectured",
            "strictly_concave": "qubit-only",
            "subadditive": "conjectured",
            "additive": False,
        }
    if k is HKind.TSALLIS_PRIME:
        return {"concave": True, "strictly_concave": True, "subadditive": True, "additive": False}
    if k is HKind.RENYI_PRIME:
        return {"concave": True, "strictly_concave": True, "subadditive": False, "additive": False}
    raise ValueError(f"unhandled kind {k!r}")


class ProbeProperty(str, Enum):
    CONCAVITY = "concavity"
    STRICT_CONCAVITY = "strict-concavity"
    SUBADDITIVITY = "subadditivity"
    ADDITIVITY = "additivity"


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
        return {
            "h": self.h,
            "property": self.property,
            "trials": self.trials,
            "dims": list(self.dims),
            "seed": self.seed,
            "violations": self.violations,
            "worst_margin": self.worst_margin,
            "witness": self.witness,
            "note": self.note,
        }


def _serialize_op(op: DensityOperator) -> dict:
    return {
        "labels": list(op.labels),
        "dims": list(op.dims),
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in op.matrix],
    }


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


def _marginal_pair(op: DensityOperator) -> tuple[np.ndarray, np.ndarray]:
    a = qstate.eigenvalues(qstate.partial_trace(op, [op.labels[0]])).eigenvalues
    b = qstate.eigenvalues(qstate.partial_trace(op, list(op.labels[1:]))).eigenvalues
    return a, b


def property_probe(
    spec: ReducedFunctionSpec,
    property: ProbeProperty | str,
    trials: int,
    seed: int = 0,
    dims: tuple[int, ...] = (2, 2),
    include_known: bool = True,
) -> ProbeReport:
    """Randomized search for violations of a property of the reduced function.

    Concavity draws random operator pairs and mixing weights; strict
    concavity uses the midpoint and requires a strictly positive margin;
    subadditivity draws random bipartite states (first label versus the
    rest); additivity draws random product states.  Curated witnesses are
    prepended as extra trials unless ``include_known`` is false.  The
    report carries the violation count, the worst margin seen, and a
    serialized witness for the worst violation.
    """
    property = ProbeProperty(property)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    dims = tuple(int(d) for d in dims)
    rng_root = np.random.SeedSequence(seed)
    tol = 1e-9

    violations = 0
    worst = np.inf
    witness: dict | None = None
    labels = [chr(ord("A") + i) for i in range(len(dims))]

    cases: list[tuple[str, object]] = []
    if include_known and property in (ProbeProperty.SUBADDITIVITY, ProbeProperty.ADDITIVITY):
        for op, _ in known_counterexamples(spec, property):
            cases.append(("known", op))
    for child in rng_root.spawn(trials):
        cases.append(("random", child))

    for origin, payload in cases:
        if property in (ProbeProperty.CONCAVITY, ProbeProperty.STRICT_CONCAVITY):
            rng = np.random.default_rng(payload)
            s1, s2 = (int(s) for s in rng.integers(0, 2**63 - 1, size=2))
            rho1 = qstate.random_density_operator(dims, s1, labels=labels)
            rho2 = qstate.random_density_operator(dims, s2, labels=labels)
            lam = 0.5 if property is ProbeProperty.STRICT_CONCAVITY else float(rng.uniform(0.05, 0.95))
            mix = DensityOperator(
                rho1.labels, rho1.dims, lam * rho1.matrix + (1 - lam) * rho2.matrix
            )
            margin = h_eval(spec, mix) - lam * h_eval(spec, rho1) - (1 - lam) * h_eval(spec, rho2)
            bad = margin < -tol if property is ProbeProperty.CONCAVITY else margin <= 1e-12
            sample = {"rho1": _serialize_op(rho1), "rho2": _serialize_op(rho2), "weight": lam}
        else:
            if len(dims) < 2:
                raise ValueError("subadditivity/additivity probes need at least two subsystems")
            if origin == "known":
                op = payload
            else:
                rng = np.random.default_rng(payload)
                if property is ProbeProperty.ADDITIVITY:
                    sa, sb = (int(s) for s in rng.integers(0, 2**63 - 1, size=2))
                    opa = qstate.random_density_operator(dims[:1], sa, labels=labels[:1])
                    opb = qstate.random_density_operator(dims[1:], sb, labels=labels[1:])
                    op = DensityOperator(tuple(labels), dims, np.kron(opa.matrix, opb.matrix))
                else:
                    s = int(rng.integers(0, 2**63 - 1))
                    op = qstate.random_density_operator(dims, s, labels=labels)
            a, b = _marginal_pair(op)
            whole = h_eval(spec, op)
            parts = h_spectrum(spec, a) + h_spectrum(spec, b)
            if property is ProbeProperty.ADDITIVITY:
                margin = -abs(whole - parts)
                bad = -margin > tol
            else:
                margin = parts - whole
                bad = margin < -tol
            sample = {"state": _serialize_op(op)}

        if bad:
            violations += 1
        if margin < worst:
            worst = margin
            if bad:
                witness = dict(sample, margin=float(margin))

    note = UNWITNESSED_NOTES.get((spec.kind, property))
    return ProbeReport(
        h=spec.name,
        property=property.value,
        trials=trials,
        dims=dims,
        seed=seed,
        violations=violations,
        worst_margin=float(worst),
        witness=witness,
        note=note,
    )
