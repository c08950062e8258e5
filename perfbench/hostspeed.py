"""A fixed kernel that measures the host's current speed.

The host is shared.  Its speed drifts by tens of percent within seconds and
between minutes, for CPU time as much as for wall time, and a run cannot
average that out.  The benchmark therefore times this kernel between
operations and scales each operation's time by the host speed measured
around it (see ``run.py``).

The kernel does the kinds of work entmono spends its time on: a short
Powell search whose objective diagonalises small Hermitian matrices (the
shape of a convex-roof objective), batched eigenvalues and entropies of
many small matrices (the shape of the property probes), and interpreted
Python on set partitions (the shape of the partition lattice).  It calls
no entmono code, so a change to entmono cannot move it.  Its work is the
same on every call.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import minimize

#: Seconds the kernel takes at the reference host speed: about its time on
#: a 2-core Intel Xeon in the host's faster stretches.  Scaled times are
#: seconds at that speed.
REF_S = 0.018

_rng = np.random.default_rng(0)
_HERMS = [(lambda a: a + a.conj().T)(_rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4)))
          for _ in range(4)]
_X0 = np.full(8, 0.3)
_BATCH = (lambda a: a @ a.conj().transpose(0, 2, 1))(
    _rng.standard_normal((400, 4, 4)) + 1j * _rng.standard_normal((400, 4, 4)))


def _objective(x: np.ndarray) -> float:
    m = sum(c * h for c, h in zip(np.tanh(x[:4]), _HERMS))
    w = np.abs(np.linalg.eigvalsh(m))
    p = w / w.sum()
    return float(-(p * np.log(p + 1e-300)).sum() + 0.01 * (x ** 2).sum())


def _batched() -> float:
    lam = np.linalg.eigvalsh(_BATCH)
    lam = lam / lam.sum(axis=1, keepdims=True)
    return float(-(lam * np.log(lam + 1e-300)).sum())


def _partitions(items: tuple[int, ...]):
    if not items:
        yield ()
        return
    head, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + (part[i] | {head},) + part[i + 1:]
        yield part + (frozenset({head}),)


def _lattice() -> int:
    parts = [frozenset(p) for p in _partitions(tuple(range(6)))]
    coarse = parts[::20]
    return sum(all(any(b <= c for c in q) for b in p) for p in parts for q in coarse)


def kernel_seconds() -> float:
    """Wall seconds of one pass of the fixed kernel."""
    t0 = time.perf_counter()
    minimize(_objective, _X0, method="Powell", options={"maxiter": 1, "xtol": 1e-12, "ftol": 1e-14})
    for _ in range(5):
        _batched()
    _lattice()
    return time.perf_counter() - t0
