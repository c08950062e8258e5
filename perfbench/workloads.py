"""The four workloads: seeded inputs, the timed operation, the output check.

Each workload is a generator of :class:`Op` objects, deterministic in the
workload seed.  Everything an op needs (input files, reference values) is
prepared before it is yielded, so only the call into entmono is timed.  An
op's ``kinds`` name the per-kind timings it contributes to.  A round ends at
an op with ``ends_cycle`` set; each kind's timing is its total per round,
or for the PER_CALL workloads its mean per op.

The ``verify``, ``lattice`` and ``pure`` workloads split each round into
short calls and interleave the kinds (:func:`interleave`), so that every
kind's round total is spread over the whole round instead of one stretch
of it: the host's speed drifts over seconds, and a kind timed in one short
stretch caught that drift alone.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

import reference as ref

#: Recorded outputs of xi_set / enumerate_coarsenings on canonical labels.
DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "lattice_digests.json")

#: Block sizes of the y partitions of the lattice workload's xi_set calls:
#: discards only, discard plus merge, merges on a partial cover, and
#: ("merge") the full cover with two labels merged.  x is always the
#: all-singleton partition; labels are permuted per call.
Y_SHAPES = ((1, 1), (2, 1), (2, 2, 2), (1, 1, 1, 1), "merge")

FAMILIES = ("sum", "sum-bipart", "max", "max-bipart", "gsum", "gsum-bipart",
            "gmax", "gmax-bipart", "gmin", "gmin-bipart")


@dataclass
class Op:
    """One timed call into entmono and the check of its output."""

    label: str
    kinds: tuple[str, ...]
    run: Callable[[], object]
    check: Callable[[object], str | None]  # failure reason, or None
    ends_cycle: bool = False  # last op of one round through every kind
    item: str | None = None  # ops of a round with the same item repeat the same work
    gap: float | None = field(default=None)  # roof gap to the oracle, set by check


def interleave(*groups: list[Op]) -> list[Op]:
    """One round of ops, each group's ops spread evenly over the round.

    Op j of a group of n sits at the fraction (j + 1/2) / n of the round.
    """
    placed = sorted(((j + 0.5) / len(g), k, j) for k, g in enumerate(groups) for j in range(len(g)))
    ops = [groups[k][j] for _, k, j in placed]
    for op in ops:
        op.ends_cycle = False
    ops[-1].ends_cycle = True
    return ops


class Context:
    """Modules under test, scratch directory, seed and fault switch."""

    def __init__(self, em, workdir: str, seed: int, fault: bool = False, small: bool = False):
        import entmono.cli
        import entmono.verify

        self.em = em
        self.cli = entmono.cli
        self.verify = entmono.verify
        self.workdir = workdir
        self.seed = seed
        self.fault = fault
        self.small = small
        self.tracer = None  # set while a traced op runs

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def run_cli(self, argv: list[str]) -> tuple[int, str, str]:
        """``entmono.cli.main`` in-process, with stdout and stderr captured."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(argv)
        if self.tracer is not None:
            self.tracer.count("cli.output_bytes", len(out.getvalue().encode()))
        return rc, out.getvalue(), err.getvalue()

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


def _cli_failure(result, want_rc: int = 0) -> str | None:
    rc, _, err = result
    if rc != want_rc:
        return f"exit code {rc}: {err.strip()[-200:]}"
    return None


# ---------------------------------------------------------------------------
# roof: two-qubit mixed states through `entmono eval`
# ---------------------------------------------------------------------------

#: The roof workload's states: a fixed draw from the criterion-11
#: distribution, STATES_PER_RANK of each rank 2, 3, 4.  Each run sees every
#: state under both h, in seeded order, local frame and optimizer seed, so
#: runs with different seeds face the same difficulty.
ROOF_POOL_SEED = 1109
STATES_PER_RANK = 3


def roof_pool(em) -> list[tuple[int, object]]:
    """(rank, state) pairs, ranks ascending."""
    rng = np.random.default_rng(ROOF_POOL_SEED)
    return [(rank, em.random_density_operator((2, 2), int(rng.integers(0, 2**62)), rank=rank))
            for rank in (2, 3, 4) for _ in range(STATES_PER_RANK)]


def _local_frame(rng: np.random.Generator) -> np.ndarray:
    """Haar-random U_A (x) U_B: leaves both roofs and the oracle unchanged."""
    def haar2():
        q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return np.kron(haar2(), haar2())


def roof_ops(ctx: Context) -> Iterator[Op]:
    """Every pool state under concurrence then tangle, passes in seeded order."""
    em = ctx.em
    rng = ctx.rng(1)
    shift = 1e-2 if ctx.fault else 0.0
    path = ctx.path("roof-state.json")
    pool = roof_pool(em)
    if ctx.small:
        pool = pool[::STATES_PER_RANK]
    while True:
        for n, idx in enumerate(rng.permutation(len(pool))):
            rank, base = pool[idx]
            u = _local_frame(rng)
            op = em.DensityOperator(base.labels, base.dims, u @ base.matrix @ u.conj().T)
            c = ref.wootters(np.asarray(op.matrix))
            for h in ("concurrence", "tangle"):
                oracle = (c if h == "concurrence" else c * c) + shift
                argv = ["eval", "--state", path, "--measure", "max", "--h", h, "--roof-m", "4",
                        "--restarts", "2", "--seed", str(int(rng.integers(0, 2**31)))]
                ctx.cli.save_state(path, op)
                roof = _roof_op(f"eval {h} rank {rank}", (h, "rank2" if rank == 2 else "rank34"),
                                lambda argv=argv: ctx.run_cli(argv), oracle)
                roof.ends_cycle = n == len(pool) - 1 and h == "tangle"
                yield roof


def _roof_op(label, kinds, run, oracle) -> Op:
    op = Op(label, kinds, run, check=None)

    def check(result):
        bad = _cli_failure(result)
        if bad:
            return bad
        op.gap = json.loads(result[1])["value"] - oracle
        lo, hi = ref.ROOF_GAP
        return None if lo <= op.gap <= hi else f"gap to oracle {op.gap:.3e}"

    op.check = check
    return op


# ---------------------------------------------------------------------------
# verify: the registry suites, conditions issued per state
# ---------------------------------------------------------------------------

#: Reproduce passes per verify round.  One pass is about 5 s of calls, and
#: the same call's time moved by 70 % between repeats.
REPRODUCE_PASSES = 2


def verify_ops(ctx: Context) -> Iterator[Op]:
    """Rounds of the conditions and the reproduce suites, in short calls.

    A round is one full pass of each suite.  The conditions suite is issued
    as one ``--case`` call per registry state, and per measure family on the
    four-party states, so the four-party states (roofs on three-party
    marginals) time separately from the three-party states (roofs on
    two-party marginals).  The reproduce suite is issued as one ``--case``
    call per case.  The round holds REPRODUCE_PASSES passes of it, and a
    pass's timing takes each case at its fastest.

    The suites' inputs are the registry's fixed states, and every call runs
    with the CLI's default optimizer seed, as users run the suites.  The
    cost of a roof depends on that seed: across seeds, one reproduce case
    (eta) took from 1.7 s to 3.9 s, more than a run can average out.  The
    workload seed sets the order of the calls in each round.
    """
    rng = ctx.rng(2)
    cells: dict[tuple[str, str], int] = {}
    for case in ctx.verify.CONDITION_CASES:
        key = (case.state, case.family.value)
        cells[key] = cells.get(key, 0) + 1
    registry = ctx.verify.registry()
    parties = {st: len(registry[st].state.labels) for st, _ in cells}
    states = ["xi", "w3"] if ctx.small else sorted(parties)
    cases = ["xi"] if ctx.small else list(ctx.verify.CASES)
    four, three = [], []
    for st in states:
        if parties[st] == 4:
            calls = [(["--measure", fam], n) for (s, fam), n in cells.items() if s == st]
        else:
            calls = [([], sum(n for (s, _), n in cells.items() if s == st))]
        for extra, n in calls:
            argv = ["verify", "--suite", "conditions", "--case", st, *extra]
            kind = "four_party" if parties[st] == 4 else "three_party"
            (four if parties[st] == 4 else three).append(
                (" ".join(["conditions", st, *extra[1:]]), ("conditions", kind), argv, "matched", n))
    reproduce = [(f"reproduce {case}", ("reproduce",),
                  ["verify", "--suite", "reproduce", "--case", case], "pass", 1)
                  for _ in range(REPRODUCE_PASSES) for case in cases]
    while True:
        groups = []
        for calls in (four, three, reproduce):
            groups.append([Op(label, kinds, lambda argv=argv: ctx.run_cli(argv),
                              _suite_check(ctx, flag, n), item=label)
                           for label, kinds, argv, flag, n in (calls[i] for i in rng.permutation(len(calls)))])
        yield from interleave(*groups)


def _suite_check(ctx: Context, flag: str | None, n_reports: int):
    """Exit code 0, ``pass`` set, the report count, and ``flag`` true in each report.

    Under the fault switch the expectation is inverted, so every op fails.
    """
    want = not ctx.fault

    def check(result):
        bad = _cli_failure(result, 0 if want else 1)
        if bad:
            return bad
        doc = json.loads(result[1])
        reports = doc["reports"]
        if len(reports) != n_reports:
            return f"{len(reports)} reports, expected {n_reports}"
        if doc["pass"] is not want:
            return "the suite did not pass"
        if want and flag and not all(r[flag] for r in reports):
            return f"{flag} does not hold in every report"
        return None

    return check


# ---------------------------------------------------------------------------
# lattice: hierarchy checks and coarsening targets on many labels
# ---------------------------------------------------------------------------

def lattice_ops(ctx: Context) -> Iterator[Op]:
    """Rounds of four hierarchy checks and the coarsening targets on two label counts."""
    em, verify = ctx.em, ctx.verify
    rng = ctx.rng(3)
    n_hier, sizes = (4, (5, 6)) if ctx.small else (6, (7, 8))
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        digests = json.load(fh)
    tangle = em.ReducedFunctionSpec(em.HKind.TANGLE)
    w_state = verify.make_w_state(n_hier)
    w_ref = ref.MarginalReference(em, w_state, tangle)
    while True:
        haar = em.random_pure_state((2,) * n_hier, int(rng.integers(0, 2**62)))
        groups = []
        for kind, state, mref in (("hierarchy_w", w_state, w_ref),
                                  ("hierarchy_haar", haar, ref.MarginalReference(em, haar, tangle))):
            group = []
            for family in ("sum", "max"):
                verdict, pairs = ref.hierarchy_reference(mref, family)
                if ctx.fault:
                    verdict = "pass" if verdict == "fail" else "fail"
                spec = em.MeasureSpec(em.Family(family), tangle)
                group.append(Op(f"check_hierarchy {family} {kind}", (kind,),
                                lambda spec=spec, state=state: ctx.verify.check_hierarchy(spec, state),
                                _hierarchy_check(verdict, pairs)))
            groups.append(group)
        for kind, n in zip(("targets_small", "targets_large"), sizes):
            groups.append(_targets_ops(ctx, kind, n, rng, digests))
        yield from interleave(*groups)


def _hierarchy_check(verdict: str, pairs: int):
    def check(rep):
        if len(rep.comparisons) != pairs:
            return f"{len(rep.comparisons)} comparisons, expected {pairs}"
        return None if rep.verdict == verdict else f"verdict {rep.verdict}, expected {verdict}"

    return check


def y_blocks(shape, n: int) -> list[list[str]]:
    """Canonical y of a shape over labels 'A'...: consecutive blocks of the given sizes.

    ``"merge"`` is the full cover with the first two labels merged, the case
    where xi_set takes its single-merge branch.
    """
    labels = "ABCDEFGH"[:n]
    if shape == "merge":
        return [list(labels[:2])] + [[lab] for lab in labels[2:]]
    out, pos = [], 0
    for size in shape:
        out.append(list(labels[pos:pos + size]))
        pos += size
    return out


def shape_key(n: int, shape) -> str:
    return f"{n}:{shape if shape == 'merge' else ','.join(map(str, shape))}"


def _targets_ops(ctx: Context, kind: str, n: int, rng, digests) -> list[Op]:
    """enumerate_coarsenings(x), then xi_set(x, y) for every y shape, on n labels.

    x is the all-singleton partition.  Each call relabels its inputs by a
    seeded permutation, and its output is mapped back before the digest is
    compared.
    """
    em = ctx.em
    canon = "ABCDEFGH"[:n]
    x = em.full_partition(canon)
    is_coarser = em.is_coarser  # bound now: checks run untraced
    shapes = [s for s in Y_SHAPES if s == "merge" or sum(s) <= n]
    shapes = [shapes[i] for i in rng.permutation(len(shapes))]
    ops = []
    for shape in [None] + shapes:
        perm = rng.permutation(n)
        to_actual = {canon[j]: canon[perm[j]] for j in range(n)}
        to_canon = {v: k for k, v in to_actual.items()}
        if shape is None:
            label, want = f"enumerate_coarsenings n={n}", digests["enumerate_coarsenings"][str(n)]
            y = None
            run = (lambda: ctx.em.enumerate_coarsenings(x))
        else:
            key = shape_key(n, shape)
            label, want = f"xi_set {key}", digests["xi_set"][key]
            y = em.Partition([[to_actual[lab] for lab in b] for b in y_blocks(shape, n)], canon)
            run = (lambda y=y: ctx.em.xi_set(x, y))
        if ctx.fault:
            want = "0" * 64
        ops.append(Op(label, (kind,), run, _targets_check(x, y, to_canon, want, is_coarser)))
    return ops


def _targets_check(x, y, to_canon, want, is_coarser):
    def check(parts):
        if ref.partition_digest(parts, to_canon) != want:
            return "digest differs from the recorded one"
        if not all(is_coarser(x, z) for z in parts):
            return "a result is not strictly coarser than x"
        if y is not None and any(is_coarser(y, z) or is_coarser(z, y) for z in parts):
            return "an xi_set member is comparable with y"
        return None

    return check


# ---------------------------------------------------------------------------
# pure: probe suites, sweep and pure-state evaluations
# ---------------------------------------------------------------------------

#: The 16 reduced functions of the scan suite, probed for concavity and
#: subadditivity.
SCAN_H = ("entropy", "concurrence", "tangle", "tsallis:2", "tsallis:0.5", "renyi:0.5",
          "negativity", "fidelityF", "fidelityFprime", "fidelityAF", "pnorm2", "pnorm-min",
          "pnorm-minprime", "pnegativity", "tsallisprime:2", "renyiprime:0.5")

#: Calls per round that the locc trials and each measure_pure batch are split into.
PURE_CHUNKS = 4


def pure_ops(ctx: Context) -> Iterator[Op]:
    """Rounds of the scan and locc suites, one fig2 sweep and two measure_pure batches.

    The scan pass is one call per reduced function, the locc pass PURE_CHUNKS calls
    of a quarter of the trials, each measure_pure batch PURE_CHUNKS calls.
    """
    em = ctx.em
    rng = ctx.rng(4)
    small = ctx.small
    tangle = em.ReducedFunctionSpec(em.HKind.TANGLE)
    specs = [em.MeasureSpec(em.Family(f), tangle) for f in FAMILIES]
    n_small, n_large = (4, 4) if small else (300, 20)
    points = 6 if small else 40
    trials = (48 if small else 1000) // PURE_CHUNKS
    sweep_ref = _sweep_reference(em, points)
    outdir = ctx.path("sweep")
    while True:
        seed = str(int(rng.integers(0, 2**31)))
        scan = []
        for h in ("tangle",) if small else SCAN_H:
            argv = ["verify", "--suite", "scan", "--h", h, "--seed", seed]
            scan.append(Op(f"verify scan {h}", ("scan",), lambda argv=argv: ctx.run_cli(argv),
                           _suite_check(ctx, None, 2)))
        locc = []
        for _ in range(PURE_CHUNKS):
            argv = ["verify", "--suite", "locc", "--trials", str(trials),
                    "--seed", str(int(rng.integers(0, 2**31)))]
            locc.append(Op("verify locc", ("locc",), lambda argv=argv: ctx.run_cli(argv),
                           _locc_check(ctx, trials)))
        sweep = [Op("sweep fig2", ("sweep",),
                    lambda: ctx.run_cli(["sweep", "--figure", "fig2", "--points", str(points),
                                         "--out", outdir]),
                    _sweep_check(ctx, os.path.join(outdir, "fig2.csv"), sweep_ref))]
        groups = [scan, locc, sweep]
        for kind, n_qubits, count in (("evals_small", 3, n_small), ("evals_large", 8, n_large)):
            states = [em.random_pure_state((2,) * n_qubits, int(s))
                      for s in rng.integers(0, 2**62, size=count)]
            refs = [ref.MarginalReference(em, st, tangle) for st in states]
            want = np.array([[r.family(f) for f in FAMILIES] for r in refs])
            if ctx.fault:
                want += 1e-2
            size = count // PURE_CHUNKS
            groups.append([
                Op(f"measure_pure x{size * len(specs)} on {n_qubits} qubits", (kind,),
                   lambda chunk=states[i:i + size]: np.array(
                       [[ctx.em.measure_pure(spec, st) for spec in specs] for st in chunk]),
                   _values_check(want[i:i + size]))
                for i in range(0, count, size)])
        yield from interleave(*groups)


def _values_check(want: np.ndarray):
    def check(got):
        err = float(np.abs(got - want).max())
        return None if err <= ref.MEASURE_TOL else f"measure_pure off by {err:.3e}"

    return check


def _locc_check(ctx: Context, trials: int):
    def check(result):
        bad = _cli_failure(result, 1 if ctx.fault else 0)
        if bad:
            return bad
        summary = json.loads(result[1])["reports"][-1]
        return None if summary["trials"] == trials else f"{summary['trials']} trials, expected {trials}"

    return check


def _w_class(em, p: float, q: float):
    amps = np.zeros(8, dtype=complex)
    amps[0b100], amps[0b010], amps[0b001] = np.sqrt([p, q, 1.0 - p - q])
    return em.PureState(("A", "B", "C"), (2, 2, 2), amps)


def _sweep_reference(em, points: int) -> dict[tuple[float, float], list[float]]:
    """fig2 rows keyed by (p, q): gsum, gmax, gmin for each swept h."""
    hs = [em.ReducedFunctionSpec.parse(h) for h in ("concurrence", "fidelityFprime", "pnorm2")]
    grid = np.linspace(0.0, 1.0, points + 2)[1:-1]
    rows = {}
    for p, q in itertools.product(grid, grid):
        if p >= q >= 1.0 - p - q > 1e-9:
            st = _w_class(em, float(p), float(q))
            rows[(float(p), float(q))] = [
                ref.MarginalReference(em, st, h).family(f) for h in hs for f in ("gsum", "gmax", "gmin")
            ]
    return rows


def _sweep_check(ctx: Context, path: str, want: dict):
    shift = 1e-2 if ctx.fault else 0.0

    def check(result):
        bad = _cli_failure(result)
        if bad:
            return bad
        with open(path, encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        if len(rows) != len(want):
            return f"{len(rows)} rows, expected {len(want)}"
        grid = sorted(want)
        for row, key in zip(rows, grid):
            got = [float(v) for v in row]
            if abs(got[0] - key[0]) > 1e-11 or abs(got[1] - key[1]) > 1e-11:
                return f"row at p={row[0]} q={row[1]} out of order"
            err = max(abs(a - b - shift) for a, b in zip(got[3:], want[key]))
            if err > 1e-9:
                return f"sweep value off by {err:.3e} at p={row[0]} q={row[1]}"
        return None

    return check


WORKLOADS = {"roof": roof_ops, "verify": verify_ops, "lattice": lattice_ops, "pure": pure_ops}

#: Timings per op (mean over a round), not per round.
PER_CALL = {"roof"}

#: The kinds whose timings each workload reports as time1_s ... time4_s;
#: "all" pools every op.
TIMINGS = {
    "roof": ("all", "rank34", "concurrence", "tangle"),
    "verify": ("conditions", "reproduce", "four_party", "three_party"),
    "lattice": ("hierarchy_w", "hierarchy_haar", "targets_small", "targets_large"),
    "pure": ("scan", "locc", "evals_small", "evals_large"),
}


def calibration(ctx: Context) -> float:
    """Call every traced function once on a tiny input; return the roof's oracle gap.

    Traced runs end with this pass so that no per-layer time is exactly zero
    on a workload that never reaches the layer.
    """
    em, verify = ctx.em, ctx.verify
    tangle = em.ReducedFunctionSpec(em.HKind.TANGLE)
    rho = em.random_density_operator((2, 2), 7, rank=2)
    roof = em.convex_roof(em.MeasureSpec(em.Family.MAX, tangle), rho, m=2, restarts=1, max_iters=1)
    bell = em.PureState(("A", "B"), (2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2))
    em.eigenvalues(em.partial_trace(bell, ["A"]))
    verify.check_hierarchy(em.MeasureSpec(em.Family.SUM, tangle), bell)
    labels = "ABC"
    em.xi_set(em.full_partition(labels), em.parse_partition("A|B", labels))
    em.property_probe(tangle, "concavity", 1, seed=0, dims=(2,))
    ghz = verify.make_ghz()
    inst = em.random_local_instrument(2, 2, 0, party="A")
    em.monotonicity_trial(em.MeasureSpec(em.Family.SUM, tangle), ghz, inst)
    path = ctx.path("calibration.json")
    ctx.cli.save_state(path, bell)
    ctx.run_cli(["eval", "--state", path, "--measure", "sum", "--h", "tangle"])
    return roof.value - ref.wootters(np.asarray(rho.matrix)) ** 2
