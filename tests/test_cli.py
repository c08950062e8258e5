import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from entmono import DensityOperator, cli, partial_trace, random_density_operator, random_pure_state
from entmono.cli import (
    canonical_state_text,
    load_state,
    main,
    save_state,
    state_from_json,
    state_to_json,
)
from entmono.verify import make_ghz, make_zeta
from conftest import ket


@pytest.fixture
def ghz_file(tmp_path):
    path = tmp_path / "ghz3.json"
    save_state(str(path), make_ghz(2, 3))
    return str(path)


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_state_round_trip(tmp_path, bell):
    path = tmp_path / "bell.json"
    save_state(str(path), bell)
    loaded = load_state(str(path))
    assert loaded.labels == bell.labels
    assert np.allclose(loaded.amplitudes, bell.amplitudes)
    # canonical text is byte-stable
    assert canonical_state_text(loaded) == canonical_state_text(bell)
    save_state(str(path), loaded)
    assert canonical_state_text(load_state(str(path))) == canonical_state_text(bell)


def test_mixed_state_round_trip(tmp_path):
    op = DensityOperator(("A", "B"), (2, 2), np.diag([0.5, 0, 0, 0.5]).astype(complex))
    path = tmp_path / "sep.json"
    save_state(str(path), op)
    loaded = load_state(str(path))
    assert isinstance(loaded, DensityOperator)
    assert np.allclose(loaded.matrix, op.matrix)


def test_eval_ghz_gsum_concurrence(capsys, ghz_file):
    code, out, _ = run(capsys, "eval", "--state", ghz_file, "--measure", "gsum",
                       "--h", "concurrence", "--partition", "A|B|C")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["value"] - 1.5) < 1e-9
    assert doc["roof"] is None
    assert doc["partition"] == "A|B|C"


def test_eval_zeta_gmin(capsys, tmp_path):
    path = tmp_path / "zeta.json"
    save_state(str(path), make_zeta())
    code, out, _ = run(capsys, "eval", "--state", str(path), "--measure", "gmin",
                       "--h", "pnorm2")
    assert code == 0
    assert abs(json.loads(out)["value"] - 0.25) < 1e-12


def test_eval_product_gate(capsys, tmp_path):
    st = ket("AB", (2, 2), {(0, 0): 1.0})
    path = tmp_path / "prod.json"
    save_state(str(path), st)
    code, out, _ = run(capsys, "eval", "--state", str(path), "--measure", "gsum",
                       "--h", "tangle")
    assert code == 0
    assert json.loads(out)["value"] == 0.0


def test_eval_mixed_routes_through_roof(capsys, tmp_path):
    op = DensityOperator(("A", "B"), (2, 2), np.diag([0.5, 0, 0, 0.5]).astype(complex))
    path = tmp_path / "sep.json"
    save_state(str(path), op)
    code, out, _ = run(capsys, "eval", "--state", str(path), "--measure", "max",
                       "--h", "concurrence", "--restarts", "2", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["roof"] is not None
    assert doc["value"] <= 1e-6


def test_eval_reports_roof_stats(capsys, tmp_path):
    from entmono import random_density_operator

    stats = {}
    # Two-qubit tangle and pnorm2 roofs take the closed form; three qubits descend.
    for dims in ((2, 2), (2, 2, 2)):
        path = tmp_path / f"mixed{len(dims)}.json"
        save_state(str(path), random_density_operator(dims, seed=3, rank=2))
        for h in ("tangle", "pnorm2"):
            argv = ["eval", "--state", str(path), "--measure", "max", "--h", h,
                    "--roof-m", "2", "--restarts", "1", "--seed", "2"]
            code, out, _ = run(capsys, *argv)
            assert code == 0
            roof = json.loads(out)["roof"]
            stats[dims, h] = roof["stats"]
            assert stats[dims, h]["restarts"] == roof["restarts_used"]
            assert run(capsys, *argv)[1] == out  # deterministic
    for (dims, _), doc in stats.items():
        assert set(doc) == {"path", "objective_evals", "iterations", "restarts"}
        if dims == (2, 2):
            assert doc == {"path": "closed", "objective_evals": 0, "iterations": 0, "restarts": 0}
        else:
            assert doc["path"] == "gradient"
            assert doc["objective_evals"] > 0
            assert doc["iterations"] > 0 and doc["restarts"] >= 1


# Runs in a fresh interpreter: imports both entry modules, runs each argv through the
# CLI, and prints their outputs with every scipy module left in sys.modules.
_SCIPY_FREE_PROBE = """
import contextlib, io, json, sys
import entmono, entmono.cli
outputs = []
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = entmono.cli.main(json.loads(argv))
    outputs.append((code, json.loads(out.getvalue())))
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"outputs": outputs, "scipy": scipy}))
"""


def test_import_and_eval_load_no_scipy(tmp_path, ghz_file):
    import entmono
    from entmono import random_density_operator

    mixed = tmp_path / "mixed.json"
    save_state(str(mixed), random_density_operator((2, 2), seed=3, rank=2))
    runs = [
        ["eval", "--state", str(mixed), "--measure", "max", "--h", "tangle",
         "--restarts", "1", "--seed", "2"],
        ["eval", "--state", ghz_file, "--measure", "gsum", "--h", "concurrence"],
    ]
    src = os.path.dirname(os.path.dirname(entmono.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _SCIPY_FREE_PROBE, *map(json.dumps, runs)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    (mixed_code, mixed_out), (pure_code, pure_out) = doc["outputs"]
    assert mixed_code == pure_code == 0
    assert mixed_out["roof"] is not None  # the mixed state took the roof path
    assert abs(pure_out["value"] - 1.5) < 1e-9
    assert doc["scipy"] == []


def test_eval_bits_flag(capsys, ghz_file):
    code, out, _ = run(capsys, "eval", "--state", ghz_file, "--measure", "max",
                       "--h", "entropy", "--bits")
    assert code == 0
    assert abs(json.loads(out)["value"] - 1.0) < 1e-9


def test_eval_bits_scales_the_roof_block(capsys, tmp_path):
    """Under ``--bits`` an entropic roof reports its bound and spread in bits, like its value."""
    path = tmp_path / "ab.json"
    save_state(str(path), partial_trace(random_pure_state((2, 2, 2), seed=1), ["A", "B"]))
    argv = ["eval", "--state", str(path), "--measure", "sum", "--h", "entropy"]
    nats = json.loads(run(capsys, *argv)[1])
    code, out, _ = run(capsys, *argv, "--bits")
    assert code == 0
    bits = json.loads(out)
    assert bits["roof"]["upper_bound"] == bits["value"] == nats["value"] / math.log(2)
    nats["roof"].update(upper_bound=bits["value"], spread=nats["roof"]["spread"] / math.log(2))
    assert bits["roof"] == nats["roof"]


def test_eval_invalid_inputs(capsys, ghz_file, tmp_path):
    code, _, err = run(capsys, "eval", "--state", str(tmp_path / "missing.json"),
                       "--measure", "sum", "--h", "tangle")
    assert code == 2
    code, _, err = run(capsys, "eval", "--state", ghz_file, "--measure", "sum",
                       "--h", "tsallis:1")
    assert code == 2
    code, _, err = run(capsys, "eval", "--state", ghz_file, "--measure", "sum",
                       "--h", "tangle", "--partition", "A|X")
    assert code == 2


@pytest.mark.parametrize("doc", [
    {"labels": ["A", "B"], "dims": [2, 2], "kind": "pure", "amplitudes": 5},
    {"labels": ["A", "B"], "dims": [2, 2], "kind": "pure", "amplitudes": [["a", "b"]] * 4},
    {"labels": ["A", "B"], "dims": [2, 2], "kind": "mixed",
     "matrix": np.eye(4).tolist()},
], ids=["amplitudes-scalar", "amplitudes-strings", "matrix-bare-numbers"])
def test_eval_malformed_state_file_is_invalid_input(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "eval", "--state", str(path), "--measure", "sum",
                         "--h", "tangle")
    assert (code, out) == (2, "")
    assert "malformed state document" in err


@pytest.mark.parametrize("doc", [
    {"labels": ["A"], "dims": [2], "kind": "pure", "amplitudes": [[math.nan, 0.0], [1.0, 0.0]]},
    {"labels": ["A"], "dims": [2], "kind": "pure", "amplitudes": [[math.inf, 0.0], [1.0, 0.0]]},
    {"labels": ["A"], "dims": [2], "kind": "mixed",
     "matrix": [[[0.5, 0.0], [math.nan, 0.0]], [[math.nan, 0.0], [0.5, 0.0]]]},
    {"labels": ["A"], "dims": [2], "kind": "mixed",
     "matrix": [[[math.inf, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
], ids=["pure-nan", "pure-inf", "mixed-nan", "mixed-inf"])
def test_eval_rejects_a_non_finite_state(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))  # written as the JSON extensions NaN and Infinity
    code, out, err = run(capsys, "eval", "--state", str(path), "--measure", "sum",
                         "--h", "tangle")
    assert (code, out) == (2, "")
    assert "finite" in err


@pytest.mark.parametrize("restarts", ["0", "-1"])
def test_eval_rejects_restarts_below_one(capsys, tmp_path, restarts):
    op = DensityOperator(("A", "B"), (2, 2), np.diag([0.5, 0, 0, 0.5]).astype(complex))
    path = tmp_path / "sep.json"
    save_state(str(path), op)
    code, out, err = run(capsys, "eval", "--state", str(path), "--measure", "max",
                         "--h", "concurrence", f"--restarts={restarts}")
    assert (code, out) == (2, "")
    assert "restarts must be at least 1" in err


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_eval_rejects_a_tol_that_is_not_positive_and_finite(capsys, tmp_path, tol):
    op = DensityOperator(("A", "B"), (2, 2), np.diag([0.5, 0, 0, 0.5]).astype(complex))
    path = tmp_path / "sep.json"
    save_state(str(path), op)
    code, out, err = run(capsys, "eval", "--state", str(path), "--measure", "max",
                         "--h", "concurrence", f"--tol={tol}")
    assert (code, out) == (2, "")
    assert "tol must be positive and finite" in err


def test_eval_guard_exit(capsys, tmp_path):
    st = ket("ABCDEFG", (2,) * 7, {(0,) * 7: 1.0})
    path = tmp_path / "big.json"
    save_state(str(path), st)
    # a 7-qubit mixed-marginal evaluation would need a roof on dim 128
    from entmono import projector

    op = projector(st)
    path2 = tmp_path / "big-mixed.json"
    save_state(str(path2), op)
    code, _, err = run(capsys, "eval", "--state", str(path2), "--measure", "max",
                       "--h", "tangle")
    assert code == 3


def test_eval_roof_cardinality_guards(capsys, tmp_path):
    """A cardinality below the rank is invalid input; one past ``MAX_MEMBERS`` trips the guard."""
    path = tmp_path / "rank3.json"
    save_state(str(path), random_density_operator((2, 2), seed=4, rank=3))
    for m, want, message in (("2", 2, "below rank 3"), ("300", 3, "exceeds the guard")):
        code, out, err = run(capsys, "eval", "--state", str(path), "--measure", "max",
                             "--h", "concurrence", "--roof-m", m)
        assert (code, out) == (want, "")
        assert message in err


def test_eval_state_file_normalization(capsys, tmp_path):
    """A pure state file off unit norm by more than 1e-9 is invalid input; within it, it is renormalized."""
    amps = random_pure_state((2, 2), 5).amplitudes
    args = ("--measure", "sum", "--h", "tangle")
    code, exact, _ = run(capsys, "eval", "--state", _saved(tmp_path / "exact.json", amps), *args)
    assert code == 0
    code, out, err = run(capsys, "eval", "--state",
                         _saved(tmp_path / "far.json", amps * math.sqrt(1 + 2e-5)), *args)
    assert (code, out) == (2, "")
    assert "not normalized" in err
    code, out, _ = run(capsys, "eval", "--state",
                       _saved(tmp_path / "near.json", amps * math.sqrt(1 + 4e-10)), *args)
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(json.loads(exact)["value"], abs=1e-12)


def _saved(path, amplitudes):
    """Write a two-qubit pure state file with the given amplitudes, unnormalized."""
    doc = {"labels": ["A", "B"], "dims": [2, 2], "kind": "pure",
           "amplitudes": [[float(z.real), float(z.imag)] for z in amplitudes]}
    path.write_text(json.dumps(doc))
    return str(path)


def test_sweep_rejects_a_single_point(capsys, tmp_path):
    code, out, err = run(capsys, "sweep", "--figure", "fig1", "--points", "1", "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert "--points must be >= 2" in err


def test_eval_one_block_roof_is_invalid_input(capsys, tmp_path):
    path = tmp_path / "rank2.json"
    save_state(str(path), random_density_operator((2,) * 7, seed=1, rank=2))
    for block in ("ABC", "ABCDEFG"):
        code, out, err = run(capsys, "eval", "--state", str(path), "--measure", "max",
                             "--h", "tangle", "--partition", block)
        assert (code, out) == (2, "")
        assert "at least two effective parties" in err


def test_sweep_fig1(capsys, tmp_path):
    out_dir = str(tmp_path / "figs")
    code, out, _ = run(capsys, "sweep", "--figure", "fig1", "--points", "5",
                       "--out", out_dir)
    assert code == 0
    path = os.path.join(out_dir, "fig1.csv")
    with open(path) as fh:
        lines = fh.read().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "t"
    assert "gsum_concurrence" in header and "gmax_concurrence" in header
    assert len(lines) == 6
    mid = dict(zip(header, map(float, lines[3].split(","))))
    assert abs(mid["t"] - 0.5) < 1e-12
    assert abs(mid["gmax_concurrence"] - 1.0) < 1e-9
    assert abs(mid["gsum_concurrence"] - 1.5) < 1e-9
    first = dict(zip(header, map(float, lines[1].split(","))))
    assert all(first[k] == 0.0 for k in header if k != "t")


def test_sweep_fig2_simplex(capsys, tmp_path):
    out_dir = str(tmp_path / "figs")
    code, out, _ = run(capsys, "sweep", "--figure", "fig2", "--points", "8",
                       "--out", out_dir)
    assert code == 0
    with open(os.path.join(out_dir, "fig2.csv")) as fh:
        lines = fh.read().strip().split("\n")
    header = lines[0].split(",")
    assert lines[1:], "grid must be nonempty"
    for line in lines[1:]:
        row = dict(zip(header, map(float, line.split(","))))
        assert row["p"] >= row["q"] >= row["r"] > 0
        assert abs(row["p"] + row["q"] + row["r"] - 1.0) < 1e-9
        for name in ("concurrence", "fidelityFprime", "pnorm2"):
            assert row[f"gmin_{name}"] <= row[f"gmax_{name}"] + 1e-9
            assert row[f"gmax_{name}"] <= row[f"gsum_{name}"] + 1e-9


def test_repeat_callers_keep_their_bytes(capsys, tmp_path):
    """The reproduce suite and the sweeps evaluate many families on each state,
    so they read its memoized cut spectra; their bytes at seed 0 are pinned to
    those of the evaluator that rediagonalized every cut on every call (fig2)
    and of the separate per-figure sweep loops (fig1).  The conditions suite's
    bytes are pinned to those of the hand-listed report keys and of the
    ``xi_set`` that re-tested every target against ``y``, with the 56 discard
    pairs (28 + 28 in w4) that print their eigen-ensemble bound.
    Both suite digests were re-pinned when two-qubit roofs took Wootters'
    closed form, after a field-by-field diff against the descent's output:
    only float fields moved, 4 in reproduce and 19 in conditions, each by at
    most 4.5e-16 (their restart spreads read 0.0), and no key, verdict,
    ``matched`` or ``pass`` changed.  The conditions digest was re-pinned
    again when partitions covering every label of a pure state came to be
    read from the state's own cut table, after a field-by-field diff against
    the regrouping valuation's output at seeds 0 and 1: only 5 float fields
    moved, all in report 4 (hierarchy, gmin-bipart/concurrence on xi), each
    by 2.2e-16: the value of A|BD|C, 0.7395099728874516 -> ...514, as
    ``value_x`` of its 4 merges and ``value_y`` of A|B|C|D -> A|BD|C, now
    equal to AC|BD's, the cut that sets it.  No key, verdict, ``matched`` or
    ``pass`` changed.  It was re-pinned once more when every bound came to be
    read from a table of its cover's eigen-ensemble, after the same diff at
    seeds 0 and 1: only 32 float fields moved, the same at both seeds, all
    ``value_y`` of bound-decided pairs in reports 6 and 7 (unification,
    sum/tangle and max/tangle on w4), each by 6.7e-16 to 1.6e-15: the 16 of
    each report's 28 bounds whose y covers three labels, such as A|B|C,
    0.9999999999999991 -> 1.0000000000000007 in report 6.  Both were re-pinned
    when concurrence came to be read as sqrt(2((sum lam)^2 - sum lam^2)), exactly 0 at
    a product cut, after the same diff at seeds 0 and 1: in conditions only 17
    float fields moved, the same at both seeds, all in report 4 (hierarchy,
    gmin-bipart/concurrence on xi): 10 of 1.0077822185373184 -> ...189 (the AB|CD
    cut, 4.4e-16) and 7 of 0.7395099728874514 -> ...452 (A|BD|C, 6.7e-16); in
    reproduce one, xi's "concurrence at cut AB|CD", by the same 4.4e-16.  No key,
    verdict, ``matched`` or ``pass`` changed.  The conditions digest was re-pinned
    when a y that a lookup had valued as an x stopped being bounded, after the
    same diff at seeds 0 and 1: only report 8 (unification, gmax/pnorm-min on
    eta), comparison 9 (A|B|C -> A|C) moved, the same at both seeds, from the
    bound to the roof already run: ``roofed`` false -> true and ``note``
    "eigen-ensemble upper bound" -> null, with ``value_y`` and ``spread`` (0.0)
    unchanged.  No verdict, ``matched`` or ``pass`` changed."""
    for suite, digest in (
        ("reproduce", "f6fce1fc75da65b5f22f6afe815a1e99b63c01bbf70be40d340938d58de9f193"),
        ("conditions", "3d968d46a1684d0fcb2ddef095f6c1069bb502304518395b3cfcc283b5dc8af6"),
    ):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--seed", "0")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
    for figure, digest in (
        ("fig1", "ef4fd1868b0ef950803e670ab6f1ec414428cb40a6f3732014dc653f0fb119d0"),
        ("fig2", "b543228615a73aaa66cdfb6603f8a5b16598b2edf7b36c8e6af6a9b2d67051fa"),
    ):
        code, _, _ = run(capsys, "sweep", "--figure", figure, "--out", str(tmp_path))
        assert code == 0
        assert hashlib.sha256((tmp_path / f"{figure}.csv").read_bytes()).hexdigest() == digest


def test_verify_reproduce_case(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "reproduce", "--case", "zeta")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["reports"][0]["case"] == "zeta"


def test_verify_locc_sum(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "locc", "--measure", "sum",
                       "--h", "tangle", "--trials", "40", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    tail = doc["reports"][-1]
    assert tail["violations"] == 0


def test_verify_scan_witnessed_violation(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "scan", "--h", "pnorm-min",
                       "--property", "subadditivity", "--trials", "30")
    assert code == 0  # documented non-subadditive kind: informational
    doc = json.loads(out)
    rep = doc["reports"][0]
    assert rep["violations"] >= 1
    assert rep["worst_margin"] <= -0.3 + 1e-12


def test_verify_scan_hard_is_documented_true(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "scan", "--trials", "2")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert len(reports) == 32
    for rep in reports:
        assert rep["hard"] == (rep["documented"] is True), (rep["h"], rep["property"])
    tsallis_prime = [r for r in reports if (r["h"], r["property"]) == ("tsallisprime:2", "subadditivity")]
    assert tsallis_prime[0]["hard"] is True


def test_verify_conditions_stats(capsys):
    """``--stats`` adds each report's partition-value counts and changes nothing else; the
    other suites do not read it."""
    argv = ("verify", "--suite", "conditions", "--case", "zeta")
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    code, out, _ = run(capsys, *argv, "--stats")
    assert code == 0
    with_stats, reports = json.loads(out), json.loads(plain)["reports"]
    stats = [doc.pop("stats") for doc in with_stats["reports"]]
    assert with_stats == json.loads(plain) and "stats" not in reports[0]
    assert [set(s) for s in stats] == [{"pure_values", "roofs", "shared", "cache_hits",
                                        "bound_decided", "roof_s"}] * 2
    assert [s["roofs"] for s in stats] == [3, 0]  # the second cell reads the first's roofs
    for suite in ("reproduce", "scan", "locc"):
        code, out, err = run(capsys, "verify", "--suite", suite, "--stats")
        assert (code, out) == (2, "")
        assert "does not read --stats" in err


def test_verify_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--suite", "locc", "--measure", "max",
                         "--h", "tangle", "--trials", "25", "--seed", "11")
    code2, out2, _ = run(capsys, "verify", "--suite", "locc", "--measure", "max",
                         "--h", "tangle", "--trials", "25", "--seed", "11")
    assert out1 == out2


def test_verify_locc_output_does_not_depend_on_the_chunk(capsys, monkeypatch):
    calls = [("--measure", "max", "--h", "pnorm-min", "--trials", "30", "--seed", "9"),
             ("--measure", "max", "--trials", "30")]
    whole = [run(capsys, "verify", "--suite", "locc", *argv)[1] for argv in calls]
    for chunk in (3, 7):
        monkeypatch.setattr(cli, "_LOCC_CHUNK", chunk)
        assert [run(capsys, "verify", "--suite", "locc", *argv)[1] for argv in calls] == whole
    # violations keep their global trial index, past the first chunk
    assert [rep["trial"] for rep in json.loads(whole[0])["reports"] if "trial" in rep] == [0, 9, 10]


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "locc", "--measure", "max", "--h", "pnorm-min", "--trials", "1500",
     "--seed", "4"),  # crosses a chunk
    ("verify", "--suite", "conditions"),
    ("verify", "--suite", "reproduce"),
    # a rank-3 three-qubit roof: stage 2 and tilted restarts
    ("eval", "--state", "{mixed}", "--measure", "gmin-bipart", "--h", "concurrence", "--restarts", "4"),
], ids=["locc", "conditions", "reproduce", "eval-roof"])
def test_verify_output_does_not_depend_on_the_thread_count(argv, tmp_path):
    import entmono

    mixed = tmp_path / "mixed.json"
    save_state(str(mixed), random_density_operator((2, 2, 2), 4, rank=3))
    cmd = [sys.executable, "-c", "import sys, entmono.cli; sys.exit(entmono.cli.main(sys.argv[1:]))",
           *(arg.format(mixed=mixed) for arg in argv)]
    src = os.path.dirname(os.path.dirname(entmono.__file__))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(cmd, env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "reproduce", "--case", "w4", "--js"),
    ("verify", "--suite", "reproduce", "--case", "w4", "--see", "1"),
    ("eval", "--state", "ghz.json", "--measure", "sum", "--h", "tangle", "--rest", "4"),
], ids=["verify-js", "verify-see", "eval-rest"])
def test_an_abbreviated_option_is_rejected(capsys, argv):
    """A prefix of an option is an unknown option, not the option it begins."""
    with pytest.raises(SystemExit) as raised:
        main(list(argv))
    out = capsys.readouterr()
    assert (raised.value.code, out.out) == (2, "")
    assert "unrecognized arguments" in out.err


def test_successive_calls_share_one_parser(capsys, ghz_file):
    """The parser is built once per process; a second call with another subcommand
    still gets its own options and defaults."""
    code, out, _ = run(capsys, "eval", "--state", ghz_file, "--measure", "gsum", "--h", "concurrence")
    assert code == 0 and abs(json.loads(out)["value"] - 1.5) < 1e-9
    code, out, _ = run(capsys, "verify", "--suite", "reproduce", "--case", "w4", "--jsonl")
    assert code == 0 and json.loads(out)["case"] == "w4"
    assert cli.build_parser() is cli.build_parser()


def test_verify_unknown_case_prints_the_message(capsys):
    code, out, err = run(capsys, "verify", "--suite", "reproduce", "--case", "nosuch")
    assert (code, out, err) == (2, "", "error: unknown case 'nosuch'\n")


def test_eval_rejects_a_non_integer_dim(capsys, tmp_path):
    doc = {"labels": ["A", "B"], "dims": [2.9, 2], "kind": "pure",
           "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "eval", "--state", str(path), "--measure", "sum", "--h", "tangle")
    assert (code, out) == (2, "")
    assert "local dimensions must be integers" in err
    # An integer-valued float dim still loads.
    doc["dims"] = [2.0, 2]
    path.write_text(json.dumps(doc))
    assert run(capsys, "eval", "--state", str(path), "--measure", "sum", "--h", "tangle")[0] == 0


def test_verify_jsonl(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "reproduce", "--case", "w4", "--jsonl")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().split("\n")]
    assert lines[0]["case"] == "w4"


@pytest.mark.parametrize("suite", ["scan", "locc"])
def test_verify_rejects_too_few_trials(capsys, suite):
    for trials in ("0", "-1"):
        code, out, err = run(capsys, "verify", "--suite", suite, "--h", "tangle", "--trials", trials)
        assert code == 2
        assert out == ""
        assert "trials must be >= 1" in err


@pytest.mark.parametrize("suite", ["scan", "locc"])
@pytest.mark.parametrize("h", ["tsallis:nan", "tsallis:inf", "tsallisprime:nan", "tsallisprime:inf"])
def test_verify_rejects_a_non_finite_h_parameter(capsys, suite, h):
    code, out, err = run(capsys, "verify", "--suite", suite, "--h", h, "--trials", "3")
    assert (code, out) == (2, "")
    assert "parameter must be finite" in err


@pytest.mark.parametrize("selection", [["--case", "nope"], ["--case", "w3", "--measure", "sum"]])
def test_verify_conditions_rejects_an_empty_selection(capsys, selection):
    code, out, err = run(capsys, "verify", "--suite", "conditions", *selection)
    assert code == 2
    assert out == ""
    assert "no conditions case matches" in err


@pytest.mark.parametrize("argv,unread", [
    (["--suite", "reproduce", "--h", "nonsense", "--measure", "nope"], "--measure, --h"),
    (["--suite", "locc", "--case", "nope"], "--case"),
    (["--suite", "scan", "--measure", "sum"], "--measure"),
    (["--suite", "conditions", "--trials", "5"], "--trials"),
])
def test_verify_rejects_filters_the_suite_does_not_read(capsys, argv, unread):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert f"does not read {unread}" in err
