"""Self-test of the benchmark itself.

Run from the root of a checkout (takes about a minute)::

    python3 perfbench/selftest.py

For every workload at minimal size it checks that

* an untraced run reports 0 failed ops and exactly the end-to-end metrics
  BENCHMARK.json lists, and a traced run exactly the per-layer metrics;
* a run with every reference shifted (``--fault``: roof oracles and
  pure-state values by 1e-2, inverted verdicts, wrong digests) fails every
  op it attempts;

and that the benchmark exits with an error, printing no result, from a
directory that holds only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("roof", "verify", "lattice", "pure")


def run(cwd: str, workload: str, *flags: str) -> subprocess.CompletedProcess:
    argv = [sys.executable, os.path.join(cwd, os.path.basename(HERE), "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "0", "--small", *flags]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = {0: {m["name"] for m in bench["end_to_end"]}, 1: {m["name"] for m in bench["per_layer"]}}
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            res = result(run(root, w, "--trace", str(trace)))
            if res["failed"] or not res["correct"]:
                problems.append(f"{w} trace {trace}: {res['failed']} of {res['attempted']} ops failed")
            if set(res["metrics"]) != names[trace]:
                problems.append(f"{w} trace {trace}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(res['metrics']) ^ names[trace])}")
        res = result(run(root, w, "--trace", "0", "--fault"))
        if res["failed"] != res["attempted"] or res["correct"]:
            problems.append(f"{w} with shifted references: only {res['failed']} of "
                            f"{res['attempted']} ops failed")
        print(f"{w}: checked", flush=True)

    bare = tempfile.mkdtemp(prefix=".perfbench-bare-", dir=root)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(root, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "roof", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("a directory without sources did not make the benchmark fail")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("SELFTEST FAILED:", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
