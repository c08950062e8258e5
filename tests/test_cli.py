import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from entmono import DensityOperator, cli, random_density_operator
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

    path = tmp_path / "mixed.json"
    save_state(str(path), random_density_operator((2, 2), seed=3, rank=2))
    stats = {}
    for h in ("tangle", "pnorm2"):
        argv = ["eval", "--state", str(path), "--measure", "max", "--h", h,
                "--roof-m", "2", "--restarts", "1", "--seed", "2"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        roof = json.loads(out)["roof"]
        stats[h] = roof["stats"]
        assert stats[h]["restarts"] == roof["restarts_used"]
        assert run(capsys, *argv)[1] == out  # deterministic
    for doc in stats.values():
        assert doc["path"] == "gradient"
        assert doc["objective_evals"] > 0
        assert set(doc) == {"path", "objective_evals", "iterations", "restarts"}
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
    ``xi_set`` that re-tested every target against ``y``."""
    for suite, digest in (
        ("reproduce", "0b232e40d7cfa7e0b75e86e4c23b6f27f50e4dde9685a640d954dd22be8cb5c6"),
        ("conditions", "be725b8ab4602c20100057f635e4bb087ec1e01fde4784fc60697262f69e8330"),
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
    ("--suite", "locc", "--measure", "max", "--h", "pnorm-min", "--trials", "1500", "--seed", "4"),  # crosses a chunk
    ("--suite", "conditions"),
    ("--suite", "reproduce"),
], ids=["locc", "conditions", "reproduce"])
def test_verify_output_does_not_depend_on_the_thread_count(argv):
    import entmono

    cmd = [sys.executable, "-c", "import sys, entmono.cli; sys.exit(entmono.cli.main(sys.argv[1:]))",
           "verify", *argv]
    src = os.path.dirname(os.path.dirname(entmono.__file__))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(cmd, env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


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
