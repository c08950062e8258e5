"""entmono benchmark: one closed-loop client driving the public entry points.

Run from the root of a source checkout (the directory holding ``src/``)::

    python3 perfbench/run.py --workload roof --seed 1 --seconds 20 --trace 0

Workloads are ``roof``, ``verify``, ``lattice`` and ``pure`` (see README.md).
With ``--trace 0`` the run times operations for ``--seconds`` seconds and
reports the end-to-end metrics, each time scaled to a reference host speed
by a speed kernel timed between operations (``hostspeed.py``); with
``--trace 1`` it runs a fixed number of rounds, each operation once
untraced and once traced, and reports the per-layer metrics.  Every output is checked; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before numpy loads; entmono's own pool stays off.
THREAD_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_ENV)
os.environ.pop("ENTMONO_THREADS", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402

#: Fresh-interpreter imports timed for ``setup_s``.
SETUP_REPEATS = 3
#: Typical seconds of one untraced round per workload on a 2-core Xeon; a
#: traced run does ``seconds // (2 * ROUND_S)`` rounds (each op runs twice),
#: at least one.
ROUND_S = {"roof": 25.0, "verify": 28.0, "lattice": 11.0, "pure": 7.0}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import entmono, entmono.cli; "
    "print(time.perf_counter() - t)"
)


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it, and its rank.

    Below 21 samples that percentile would not exceed the median, so the
    maximum is reported instead, with rank 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 21:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def summary(values: list[float]) -> dict:
    t, pct = tail(values)
    return {"median": statistics.median(values), "tail": t, "tail_pct": round(pct, 1),
            "n": len(values)}


def environment(root: str) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas, "blas_threads": THREAD_ENV,
        "git_commit": commit,
    }


def measure_setup(root: str) -> tuple[float, float]:
    """Seconds to import entmono and entmono.cli in a fresh interpreter.

    Returns the median over SETUP_REPEATS interpreters scaled to the
    reference host (each import by the speed kernel timed on both
    sides of it), and the raw median.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    scaled, raw = [], []
    before = hostspeed.kernel_seconds()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"importing entmono failed: {proc.stderr.strip()[-300:]}")
        after = hostspeed.kernel_seconds()
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * 2 * hostspeed.REF_S / (before + after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


class Runner:
    """Closed loop over one workload's ops: time, check, tally."""

    def __init__(self, workloads, ctx, name: str):
        self.ops = workloads.WORKLOADS[name](ctx)
        self.attempted = 0
        self.failed = 0
        self.gaps: list[float] = []
        self.kernel_s: list[float] = []

    def execute(self, op) -> float:
        """Run one op, check its output, return its wall time.

        Garbage left by earlier ops and checks is collected first, so that
        a collection it would trigger is not charged to this op.
        """
        gc.collect()
        t0 = time.perf_counter()
        try:
            result = op.run()
            err = None
        except Exception:  # a crashing op is a failed op; keep measuring
            err = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0
        if err is None:
            try:
                err = op.check(result)
            except Exception:
                err = "check raised " + traceback.format_exc(limit=3)
        self.attempted += 1
        if err is not None:
            self.failed += 1
            print(f"FAILED {op.label}: {err}", file=sys.stderr)
        if op.gap is not None:
            self.gaps.append(op.gap)
        return elapsed

    def timed(self, seconds: float, per_call: bool) -> tuple[dict, dict, dict]:
        """Whole rounds of ops, stopping at the round end nearest ``seconds``.

        The speed kernel (hostspeed.py) runs before the first op and after
        every op.  Each op's time is scaled to the reference host by the
        mean of the two kernel times on either side of it.

        Returns, per kind, every op's scaled time and one scaled and one raw
        value per round: the round's total, or with ``per_call`` its mean per
        op.  Ops of one round that share an ``item`` repeat the same work;
        the fastest of them stands for the item, since the host's drift only
        ever slows a call.  Every round holds the same mix of inputs, so the
        round values compare across runs.
        """
        samples: dict[str, list[float]] = {}
        rounds: dict[str, list[float]] = {}
        raw_rounds: dict[str, list[float]] = {}
        in_round: dict[str, dict[object, tuple[float, float]]] = {}
        start = round_start = time.perf_counter()
        before = hostspeed.kernel_seconds()
        for n in itertools.count():
            op = next(self.ops)
            dt = self.execute(op)
            after = hostspeed.kernel_seconds()
            self.kernel_s.append(after)
            scaled = dt * 2 * hostspeed.REF_S / (before + after)
            before = after
            item = ("op", n) if op.item is None else op.item
            for k in op.kinds + ("all",):
                samples.setdefault(k, []).append(scaled)
                best = in_round.setdefault(k, {})
                best[item] = min((scaled, dt), best.get(item, (math.inf, math.inf)))
            if not op.ends_cycle:
                continue
            for k, best in in_round.items():
                div = len(best) if per_call else 1
                rounds.setdefault(k, []).append(sum(v[0] for v in best.values()) / div)
                raw_rounds.setdefault(k, []).append(sum(v[1] for v in best.values()) / div)
            in_round.clear()
            now = time.perf_counter()
            elapsed, last_round = now - start, now - round_start
            round_start = now
            # Another round would end further past ``seconds`` than we are short of it.
            if elapsed + last_round - seconds >= seconds - elapsed:
                return samples, rounds, raw_rounds
        raise AssertionError("unreachable")


def end_to_end(args, workloads, ctx) -> tuple[Runner, dict, dict]:
    runner = Runner(workloads, ctx, args.workload)
    samples, rounds, raw_rounds = runner.timed(args.seconds, args.workload in workloads.PER_CALL)
    setup_s, setup_raw_s = args.setup_s
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = {"setup_s": setup_raw_s}
    for i, kind in enumerate(workloads.TIMINGS[args.workload], 1):
        metrics[f"time{i}_s"] = (statistics.median(rounds[kind]), "s")
        raw[f"time{i}_s"] = statistics.median(raw_rounds[kind])
    detail = {"timings": workloads.TIMINGS[args.workload], "rounds": len(rounds["all"]),
              "raw_seconds": raw, "kernel_s": summary(runner.kernel_s),
              "ops": {k: summary(v) for k, v in samples.items()},
              "round_values": {k: summary(v) for k, v in rounds.items()}}
    return runner, metrics, detail


def per_layer(args, workloads, ctx, em) -> tuple[Runner, dict, dict]:
    import tracing

    runner = Runner(workloads, ctx, args.workload)
    tracer = tracing.Tracer()
    rounds = max(1, int(args.seconds // (2 * ROUND_S[args.workload])))
    totals: dict[str, dict] = {"calls": {}, "self_s": {}, "total_s": {}, "counters": {}}
    extra = {"spans": 0, "self_sum_s": 0.0, "verify_roofs": 0, "verify_roofs_repeated": 0,
             "verify_pure_values": 0}

    def add(h: dict) -> None:
        for key in totals:
            for name, v in h[key].items():
                totals[key][name] = totals[key].get(name, 0) + v
        for key in extra:
            extra[key] += h[key]

    def traced(fn):
        tracer.install()
        ctx.tracer = tracer
        try:
            return fn()
        finally:
            ctx.tracer = None
            tracer.uninstall()

    untraced_s = traced_s = 0.0
    done = 0
    items: set[str] = set()  # repeats of an item within a round run once here
    while done < rounds:
        op = next(runner.ops)
        if op.item is None or op.item not in items:
            items.add(op.item)
            untraced_s += runner.execute(op)
            traced_s += traced(lambda: runner.execute(op))
            add(tracer.harvest())
        if op.ends_cycle:
            tracer.end_round()
            items.clear()
            done += 1
    op_self_s = extra["self_sum_s"]
    t0 = time.perf_counter()
    gap = traced(lambda: workloads.calibration(ctx))
    calibration_s = time.perf_counter() - t0
    add(tracer.harvest())

    calls, self_s, total_s, counters = (totals[k] for k in ("calls", "self_s", "total_s", "counters"))
    m: dict[str, tuple[float, str]] = {}
    for mod, attr in tracing.TRACED:
        name = f"{mod}.{attr}"
        if mod != "verify":
            m[f"{name}.calls"] = (calls.get(name, 0), "count")
            m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    evals = calls.get("convexroof.objective", 0)
    m["convexroof.powell_searches"] = (calls.get("convexroof.minimize", 0), "count")
    m["convexroof.objective_evals"] = (evals, "count")
    m["convexroof.objective_eval_us"] = (
        1e6 * total_s.get("convexroof.objective", 0.0) / max(evals, 1), "us")
    m["convexroof.powell_overhead_s"] = (self_s.get("convexroof.minimize", 0.0), "s")
    m["convexroof.oracle_gap_max"] = (max(runner.gaps + [gap]), "abs")
    m["verify.checks.calls"] = (sum(calls.get(c, 0) for c in tracing.VERIFY_CHECKS), "count")
    m["verify.checks.self_s"] = (sum(self_s.get(c, 0.0) for c in tracing.VERIFY_CHECKS), "s")
    m["verify.roofs"] = (extra["verify_roofs"], "count")
    m["verify.pure_values"] = (extra["verify_pure_values"], "count")
    m["verify.roofs_repeated"] = (extra["verify_roofs_repeated"], "count")
    m["redfun.h_spectrum_batch.spectra"] = (counters.get("redfun.h_spectrum_batch.spectra", 0), "count")
    m["cli.output_bytes"] = (counters.get("cli.output_bytes", 0), "bytes")
    for layer in tracing.LAYERS:
        m[f"layer.{layer}.self_s"] = (
            sum(v for k, v in self_s.items() if k.startswith(layer + ".")), "s")
    m["trace.spans"] = (extra["spans"], "count")
    m["trace.untraced_s"] = (untraced_s, "s")
    m["trace.traced_s"] = (traced_s, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    m["trace.unattributed_s"] = (traced_s - op_self_s, "s")
    m["trace.calibration_s"] = (calibration_s, "s")
    m.update(micro(em))
    return runner, m, {"rounds": rounds}


def micro(em) -> dict[str, tuple[float, str]]:
    """Per-call costs of three kernels, untraced, median of five repeats."""
    import numpy as np
    from entmono.redfun import h_spectrum_batch

    rng = np.random.default_rng(0)
    tangle = em.ReducedFunctionSpec(em.HKind.TANGLE)
    lam = rng.dirichlet(np.ones(4), size=10_000)
    mat = em.random_density_operator((2, 2), 1).matrix
    psi = em.random_pure_state((2, 2, 2, 2), 1)

    def per_call_us(fn, n: int, per: int = 1) -> float:
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(n):
                fn()
            times.append((time.perf_counter() - t0) / (n * per))
        return 1e6 * statistics.median(times)

    return {
        "micro.h_spectrum_batch_us_per_spectrum": (
            per_call_us(lambda: h_spectrum_batch(tangle, lam), 20, len(lam)), "us"),
        "micro.density_operator_us": (
            per_call_us(lambda: em.DensityOperator(("A", "B"), (2, 2), mat), 2000), "us"),
        "micro.partial_trace_us": (
            per_call_us(lambda: em.partial_trace(psi, ["A"]), 2000), "us"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["roof", "verify", "lattice", "pure"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true", help="minimal op sizes (self-test)")
    parser.add_argument("--fault", action="store_true",
                        help="shift every reference so that every op must fail (self-test)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "entmono", "__init__.py")):
        fail(f"no entmono sources under {src}; run from the root of a checkout")
    args.setup_s = None if args.trace else measure_setup(root)
    sys.path.insert(0, src)
    import entmono as em
    import workloads

    env = environment(root)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        ctx = workloads.Context(em, workdir, args.seed, fault=args.fault, small=args.small)
        if args.trace:
            runner, metrics, detail = per_layer(args, workloads, ctx, em)
        else:
            runner, metrics, detail = end_to_end(args, workloads, ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "environment": env, **detail}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
