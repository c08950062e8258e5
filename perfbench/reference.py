"""Reference values the benchmark checks entmono's outputs against.

Each reference takes a route independent of the code path it checks: the
two-qubit roofs are checked against Wootters' closed form written out here,
pure-state measures and hierarchy verdicts are rebuilt from single
marginals (``partial_trace`` + ``eigenvalues`` + ``h_spectrum``), and the
partition-lattice outputs are checked by digest and by their defining
invariants.
"""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np

#: Gap allowed between a roof upper bound and the closed form.
ROOF_GAP = (-1e-9, 1e-3)
#: Agreement required between measure_pure and the marginal reference.
MEASURE_TOL = 1e-10
#: Below this a gated family's single-block value counts as zero.
GATE_EPS = 1e-9

_SIGMA_YY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))


def wootters(rho: np.ndarray) -> float:
    """Two-qubit concurrence, Wootters, PRL 80, 2245 (1998)."""
    r = rho @ _SIGMA_YY @ rho.conj() @ _SIGMA_YY
    lam = np.sqrt(np.clip(np.sort(np.linalg.eigvals(r).real)[::-1], 0.0, None))
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


class MarginalReference:
    """h of every marginal of one pure state, from partial traces."""

    def __init__(self, em, state, h):
        self.em, self.state, self.h = em, state, h
        self._cache: dict[frozenset, float] = {}

    def h_of(self, labels) -> float:
        key = frozenset(labels)
        if key not in self._cache:
            # A pure state's two sides share their nonzero spectrum: trace to
            # the smaller one.
            rest = [lab for lab in self.state.labels if lab not in key]
            keep = sorted(key) if len(key) <= len(rest) else rest
            spec = self.em.eigenvalues(self.em.partial_trace(self.state, keep)).eigenvalues
            self._cache[key] = self.em.h_spectrum(self.h, spec)
        return self._cache[key]

    def family(self, family: str) -> float:
        """Value of a measure family on the all-singleton partition."""
        labels = list(self.state.labels)
        singles = [self.h_of([lab]) for lab in labels]
        if family.startswith("g") and min(singles) <= GATE_EPS:
            return 0.0
        if family.endswith("-bipart"):
            first, rest = labels[0], labels[1:]
            vals = [self.h_of([first, *sub])
                    for k in range(len(rest)) for sub in itertools.combinations(rest, k)]
        else:
            vals = singles
        agg = family.removeprefix("g").removesuffix("-bipart")
        if agg == "sum":
            return 0.5 * math.fsum(vals)
        if agg == "max":
            return max(vals)
        return min(vals)

    def partition_value(self, blocks, family: str) -> float:
        """sum or max of h over the blocks of a partition covering all labels."""
        if len(blocks) < 2:
            return 0.0
        vals = [self.h_of(b) for b in blocks]
        return 0.5 * math.fsum(vals) if family == "sum" else max(vals)


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def hierarchy_reference(ref: MarginalReference, family: str, tol: float = 1e-9) -> tuple[str, int]:
    """Verdict and pair count of the merge-monotonicity check on full covers.

    Every partition x of all labels with two or more blocks is compared
    with every y obtained by merging groups of x's blocks; the check fails
    when some y has a larger value than x beyond ``tol``.
    """
    labels = list(ref.state.labels)
    verdict, pairs = "pass", 0
    for x in set_partitions(labels):
        if len(x) < 2:
            continue
        vx = ref.partition_value(x, family)
        for grouping in set_partitions(list(range(len(x)))):
            if len(grouping) == len(x):
                continue
            y = [[lab for i in group for lab in x[i]] for group in grouping]
            pairs += 1
            if vx - ref.partition_value(y, family) < -tol:
                verdict = "fail"
    return verdict, pairs


def partition_digest(parts, relabel: dict[str, str]) -> str:
    """sha256 of a set of partitions after mapping labels through ``relabel``."""
    rows = sorted(
        "|".join(sorted("".join(sorted(relabel[lab] for lab in block)) for block in p.blocks))
        for p in parts
    )
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()
