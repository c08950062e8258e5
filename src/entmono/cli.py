"""Command-line surface: state I/O, measure evaluation, reproduction suites.

Subcommands
-----------
``eval``    evaluate a measure on a state file (mixed states go through the
            convex roof automatically)
``sweep``   write figure-data CSV files for the two named state families
``verify``  run the reproduction / conditions / property-scan / local-
            operation suites and emit JSON (or JSONL) reports

Exit codes: 0 success, 1 hard-expectation failure in ``verify``, 2 invalid
input, 3 size guard exceeded.  All randomized commands are deterministic
given ``--seed``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import Sequence

import numpy as np

from . import locc, measures, qstate, redfun, verify
from .convexroof import convex_roof
from .errors import GuardError, PartitionError, StateError
from .measures import Family, MeasureSpec, measure_pure
from .partitions import Partition, full_partition, parse_partition
from .qstate import DensityOperator, PureState
from .redfun import HKind, ProbeProperty, ReducedFunctionSpec, property_probe, table_entry

LN2 = math.log(2.0)

EXIT_OK = 0
EXIT_EXPECTATION = 1
EXIT_INVALID = 2
EXIT_GUARD = 3


# ---------------------------------------------------------------------------
# State files
# ---------------------------------------------------------------------------

def state_to_json(state: PureState | DensityOperator) -> dict:
    doc = {"labels": list(state.labels), "dims": list(state.dims)}
    if isinstance(state, PureState):
        doc["kind"] = "pure"
        doc["amplitudes"] = [[float(z.real), float(z.imag)] for z in state.amplitudes]
    else:
        doc["kind"] = "mixed"
        doc["matrix"] = [[[float(z.real), float(z.imag)] for z in row] for row in state.matrix]
    return doc


def state_from_json(doc: dict) -> PureState | DensityOperator:
    try:
        labels = [str(x) for x in doc["labels"]]
        dims = [int(x) for x in doc["dims"]]
        kind = doc["kind"]
        if kind == "pure":
            amps = np.array([complex(re, im) for re, im in doc["amplitudes"]])
        elif kind == "mixed":
            mat = np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])
        else:
            raise StateError(f"unknown state kind {kind!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise StateError(f"malformed state document: {exc}") from exc
    if kind == "mixed":
        return DensityOperator(labels, dims, mat)
    norm2 = float(np.vdot(amps, amps).real)
    if abs(norm2 - 1.0) > 1e-9:
        raise StateError(f"state file not normalized: sum |a|^2 = {norm2!r}")
    if abs(norm2 - 1.0) > 1e-12:
        amps = amps / math.sqrt(norm2)
    return PureState(labels, dims, amps)


def canonical_state_text(state: PureState | DensityOperator) -> str:
    """Serialized form that round-trips byte-identically."""
    return json.dumps(state_to_json(state), indent=2, sort_keys=True) + "\n"


def load_state(path: str) -> PureState | DensityOperator:
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_json(json.load(fh))


def save_state(path: str, state: PureState | DensityOperator) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_state_text(state))


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

_ENTROPIC = {HKind.ENTROPY, HKind.RENYI}


def _roof_opts(args) -> dict:
    opts = {}
    if args.roof_m is not None:
        opts["m"] = args.roof_m
    if args.restarts is not None:
        opts["restarts"] = args.restarts
    if args.tol is not None:
        opts["tol"] = args.tol
    return opts


def cmd_eval(args) -> int:
    state = load_state(args.state)
    spec = MeasureSpec(Family(args.measure), ReducedFunctionSpec.parse(args.h))
    partition = (parse_partition(args.partition, state.labels)
                 if args.partition else full_partition(state.labels))

    roof_info = None
    grouped = qstate.regroup(state, partition)
    if isinstance(grouped, PureState):
        value = measure_pure(spec, grouped)
    else:
        res = convex_roof(spec, grouped, seed=args.seed, **_roof_opts(args))
        value = res.value
        roof_info = {
            "upper_bound": res.value,
            "spread": res.spread,
            "restarts_used": res.restarts_used,
            "converged": res.converged,
            "stats": dataclasses.asdict(res.stats),
        }

    if args.bits and spec.h.kind in _ENTROPIC:
        value = value / LN2

    out = {
        "value": value,
        "family": spec.family.value,
        "h": spec.h.name,
        "partition": str(partition),
        "roof": roof_info,
    }
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_SWEEP_H = (
    ("concurrence", ReducedFunctionSpec(HKind.CONCURRENCE)),
    ("fidelityFprime", ReducedFunctionSpec(HKind.FIDELITY_F_PRIME)),
    ("pnorm2", ReducedFunctionSpec(HKind.PNORM2)),
)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def cmd_sweep(args) -> int:
    if args.points < 2:
        raise StateError("--points must be >= 2")
    os.makedirs(args.out, exist_ok=True)
    # Per figure: its parameter columns, its (parameters, state) points and its families.
    if args.figure == "fig1":
        columns, families = ["t"], (Family.GSUM, Family.GMAX)
        points = [((t,), verify.make_ghz_class(t)) for t in np.linspace(0.0, 1.0, args.points).tolist()]
    else:
        columns, families = ["p", "q", "r"], (Family.GSUM, Family.GMAX, Family.GMIN)
        grid = np.linspace(0.0, 1.0, args.points + 2)[1:-1].tolist()
        points = [((p, q, 1.0 - p - q), verify.make_w_class(p, q))
                  for p in grid for q in grid if p >= q >= 1.0 - p - q > 1e-9]
    path = os.path.join(args.out, f"{args.figure}.csv")
    header = columns + [f"{fam.value}_{name}" for name, _ in _SWEEP_H for fam in families]
    rows = [list(params) + [measure_pure(MeasureSpec(fam, h), st) for _, h in _SWEEP_H for fam in families]
            for params, st in points]

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")
    sys.stdout.write(path + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _suite_reproduce(args, report) -> bool:
    names = [args.case] if args.case else list(verify.CASES)
    ok = True
    for name in names:
        rep = verify.reproduce_case(name, seed=args.seed)
        report(rep)
        ok = ok and rep["pass"]
    return ok


def _suite_conditions(args, report) -> bool:
    cases = [case for case in verify.CONDITION_CASES
             if (not args.measure or case.family.value == args.measure)
             and (not args.h or case.h.value == args.h)
             and (not args.case or case.state == args.case)]
    if not cases:
        raise ValueError("no conditions case matches the selection")
    ok = True
    for case in cases:
        rep = verify.run_condition_case(case, seed=args.seed)
        matched = case.matches(rep)
        doc = rep.to_dict()
        doc["expected"] = case.expected
        doc["provenance"] = case.provenance
        doc["matched"] = matched
        report(doc)
        if case.provenance != "conjectured" and not matched:
            ok = False
    return ok


def _suite_scan(args, report) -> bool:
    ok = True
    kinds = [ReducedFunctionSpec.parse(args.h)] if args.h else list(redfun.CATALOG)
    props = ([ProbeProperty(args.property)] if args.property
             else [ProbeProperty.CONCAVITY, ProbeProperty.SUBADDITIVITY])
    trials = 300 if args.trials is None else args.trials
    for spec in kinds:
        pattern = table_entry(spec)
        for prop in props:
            if prop in (ProbeProperty.SUBADDITIVITY, ProbeProperty.ADDITIVITY):
                dims = (2, 2)
            else:
                dims = (3,)
            rep = property_probe(spec, prop, trials, seed=args.seed, dims=dims)
            doc = rep.to_dict()
            expected = pattern[redfun.PATTERN_KEYS[prop]]
            doc["documented"] = expected
            hard = expected is True
            doc["hard"] = hard
            report(doc)
            if hard and rep.violations > 0:
                ok = False
    return ok


#: Trials the locc suite draws and evaluates together, so that its memory
#: does not grow with ``--trials``.
_LOCC_CHUNK = 1024


def _suite_locc(args, report) -> bool:
    ok = True
    trials = 200 if args.trials is None else args.trials
    if trials < 1:
        raise ValueError("trials must be >= 1")
    fam = Family(args.measure) if args.measure else Family.SUM
    h = ReducedFunctionSpec.parse(args.h) if args.h else ReducedFunctionSpec(HKind.TANGLE)
    spec = MeasureSpec(fam, h)
    hard = fam in measures._SUMS
    violations = 0
    worst = -np.inf
    # Successive spawns continue the child sequence, so every trial keeps its seed.
    seeds = np.random.SeedSequence(args.seed)
    for start in range(0, trials, _LOCC_CHUNK):
        batch = locc.random_trials(seeds.spawn(min(_LOCC_CHUNK, trials - start)))
        for i, rec in enumerate(locc.trial_records(spec, batch), start):
            worst = max(worst, rec.delta)
            if rec.delta > 1e-9:
                violations += 1
                report({"trial": i, **rec.to_dict(), "violation": True})
    report({
        "family": fam.value, "h": h.name, "trials": trials,
        "violations": violations, "worst_delta": worst, "hard": hard,
    })
    if hard and violations:
        ok = False
    return ok


#: Each suite and the filters it reads; a suite given any other filter rejects it.
SUITES = {
    "reproduce": (_suite_reproduce, ("case",)),
    "conditions": (_suite_conditions, ("case", "measure", "h")),
    "scan": (_suite_scan, ("h", "property", "trials")),
    "locc": (_suite_locc, ("measure", "h", "trials")),
}
_FILTERS = ("case", "measure", "h", "property", "trials")


def cmd_verify(args) -> int:
    run_suite, reads = SUITES[args.suite]
    unread = [f"--{name}" for name in _FILTERS if getattr(args, name) is not None and name not in reads]
    if unread:
        raise ValueError(f"suite {args.suite} does not read {', '.join(unread)}")
    lines: list[dict] = []

    def report(doc: dict) -> None:
        lines.append(doc)

    ok = run_suite(args, report)
    if args.jsonl:
        for doc in lines:
            sys.stdout.write(json.dumps(doc) + "\n")
    else:
        json.dump({"suite": args.suite, "pass": ok, "reports": lines}, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return EXIT_OK if ok else EXIT_EXPECTATION


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entmono",
        description="Multipartite entanglement monotones on explicit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a measure on a state file")
    p_eval.add_argument("--state", required=True, help="JSON state file")
    p_eval.add_argument("--measure", required=True, choices=[f.value for f in Family])
    p_eval.add_argument("--h", required=True, help="reduced function, e.g. tangle or tsallis:2")
    p_eval.add_argument("--partition", default=None, help='e.g. "AB|C|D" (default: all singletons)')
    p_eval.add_argument("--bits", action="store_true",
                        help="report entropy-based values in bits instead of nats")
    p_eval.add_argument("--roof-m", type=int, default=None, help="roof ensemble cardinality")
    p_eval.add_argument("--restarts", type=int, default=None, help="roof optimizer restarts")
    p_eval.add_argument("--tol", type=float, default=None, help="roof stagnation tolerance")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.set_defaults(fn=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="write figure-data CSV files")
    p_sweep.add_argument("--figure", required=True, choices=["fig1", "fig2"])
    p_sweep.add_argument("--points", type=int, default=21)
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_ver = sub.add_parser("verify", help="run reproduction and verification suites")
    p_ver.add_argument("--suite", required=True, choices=list(SUITES))
    p_ver.add_argument("--case", default=None, help="restrict to one named case")
    p_ver.add_argument("--measure", default=None, help="restrict to one measure family")
    p_ver.add_argument("--h", default=None, help="restrict to one reduced function")
    p_ver.add_argument("--property", default=None,
                       choices=[p.value for p in ProbeProperty])
    p_ver.add_argument("--trials", type=int, default=None)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--jsonl", action="store_true", help="stream one JSON object per line")
    p_ver.set_defaults(fn=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (StateError, PartitionError, ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
