import json
import math
import os

import numpy as np
import pytest

from entmono import DensityOperator
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
    assert stats["tangle"]["path"] == "gradient"
    assert stats["tangle"]["gradient_evals"] == stats["tangle"]["objective_evals"] > 0
    assert stats["pnorm2"]["path"] == "powell"
    assert stats["pnorm2"]["gradient_evals"] == 0 < stats["pnorm2"]["objective_evals"]
    for doc in stats.values():
        assert set(doc) == {"path", "objective_evals", "gradient_evals", "iterations", "restarts"}
        assert doc["iterations"] > 0 and doc["restarts"] >= 1


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


def test_verify_jsonl(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "reproduce", "--case", "w4", "--jsonl")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().split("\n")]
    assert lines[0]["case"] == "w4"
