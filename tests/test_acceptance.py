"""Acceptance suite: one test per criterion, tolerances pinned in-line.

Each criterion prints a PASS/FAIL line.  Three literal stated values from
the source material are not reproducible from the printed states (the
closed-form oracle and the independent roof optimizer agree against them);
those assertions are kept verbatim in strict-xfail tests so the suite
documents the discrepancy without faking a pass.  See the companion tests
carrying the reproducible part of each of those criteria.
"""

import itertools
import math

import numpy as np
import pytest

from entmono import (
    Family,
    HKind,
    MeasureSpec,
    ReducedFunctionSpec,
    convex_roof,
    eigenvalues,
    h_spectrum,
    known_counterexamples,
    measure_pure,
    parse_partition,
    partial_trace,
    property_probe,
    random_density_operator,
    random_pure_state,
    wootters_concurrence,
    xi_set,
)
from entmono.cli import main as cli_main
from entmono.locc import random_trials, trial_records
from entmono.qstate import child_generators
from entmono.redfun import ProbeProperty, h_eval
from entmono.verify import make_ghz, make_omega, make_phi_eg, make_w_state, make_xi, make_zeta

H = ReducedFunctionSpec


def report(num: str, ok: bool, text: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


# -- 1 ------------------------------------------------------------------------

XI_GOLDEN_1 = {
    "CD|E", "A|CD|E", "B|CD|E", "A|CD", "B|CD", "B|C|E", "B|D|E", "A|D|E", "A|C|E",
    "A|E", "B|E", "A|C", "A|D", "B|C", "B|D", "C|E", "D|E", "AB|CDE", "AB|CD|E",
    "AB|CD", "AB|E",
}
XI_GOLDEN_2 = {
    "D|E", "A|D|E", "A|D", "A|E", "B|D|E", "B|D", "B|E", "C|D|E", "C|D", "C|E",
    "AB|D|E", "AB|D", "AB|E", "AC|D|E", "AC|D", "AC|E", "BC|D|E", "BC|D", "BC|E",
    "ABC|DE", "ABC|D|E", "ABC|D", "ABC|E", "AB|DE", "AC|DE", "BC|DE",
}
XI_GOLDEN_3 = {"B|C|D", "B|CD", "BC|D", "BD|C", "B|C", "C|D", "B|D"}


def test_criterion_01_xi_set_goldens():
    from entmono import format_partition

    got1 = {format_partition(z) for z in
            xi_set(parse_partition("A|B|CD|E", "ABCDE"), parse_partition("A|B", "ABCDE"))}
    got2 = {format_partition(z) for z in
            xi_set(parse_partition("A|B|C|D|E", "ABCDE"), parse_partition("A|B|C", "ABCDE"))}
    got3 = {format_partition(z) for z in
            xi_set(parse_partition("A|B|C|D", "ABCD"), parse_partition("A|BCD", "ABCD"))}
    ok = got1 == XI_GOLDEN_1 and got2 == XI_GOLDEN_2 and got3 == XI_GOLDEN_3
    report("1", ok,
           f"target-set goldens match exactly (sizes {len(got1)}, {len(got2)}, {len(got3)}; "
           "the first worked set as printed has 21 elements)")


# -- 2 ------------------------------------------------------------------------

def test_criterion_02_xi_state_values():
    st = make_xi()
    v1 = measure_pure(MeasureSpec(Family.GMIN_BIPART, H(HKind.CONCURRENCE)), st)
    v2 = measure_pure(MeasureSpec(Family.MAX, H(HKind.CONCURRENCE)), st,
                      parse_partition("AB|CD", "ABCD"))
    rho_bd = partial_trace(st, ["B", "D"])
    w = wootters_concurrence(rho_bd)
    roof = convex_roof(MeasureSpec(Family.MAX, H(HKind.CONCURRENCE)), rho_bd,
                       restarts=3, seed=2)
    ok = (abs(v1 - math.sqrt(15) / 8) < 1e-9
          and abs(v2 - math.sqrt(65) / 8) < 1e-9
          and w - 1e-9 <= roof.value <= w + 1e-3)
    report("2", ok,
           f"gme concurrence {v1:.9f} = sqrt15/8, cut AB|CD {v2:.9f} = sqrt65/8, "
           f"roof {roof.value:.6f} within [-1e-9, +1e-3] of the closed form {w:.6f}")


@pytest.mark.xfail(strict=True,
                   reason="stated value 0.839 for C(rho_BD) is not reproducible from the "
                          "printed state; closed form and roof agree on sqrt(5)/8 "
                          "(decisions ledger)")
def test_criterion_02_stated_rho_bd_value():
    rho_bd = partial_trace(make_xi(), ["B", "D"])
    w = wootters_concurrence(rho_bd)
    print(f"[criterion 2x] literal stated C(rho_BD) = 0.839 vs computed {w:.6f}")
    assert abs(w - 0.839) < 5e-3


# -- 3 ------------------------------------------------------------------------

def test_criterion_03_zeta_values():
    st = make_zeta()
    spec = MeasureSpec(Family.GMIN, H(HKind.PNORM2))
    v0 = measure_pure(spec, st)
    v1 = measure_pure(MeasureSpec(Family.MAX, H(HKind.PNORM2)), st,
                      parse_partition("A|BC", "ABC"))
    v2 = measure_pure(MeasureSpec(Family.MAX, H(HKind.PNORM2)), st,
                      parse_partition("AB|C", "ABC"))
    ok = abs(v0 - 0.25) < 1e-12 and abs(v1 - 5 / 12) < 1e-12 and abs(v2 - 1 / 3) < 1e-12
    report("3", ok, f"min-norm family values {v0:.12f}, {v1:.12f}, {v2:.12f} "
                    "= 1/4, 5/12, 1/3 within 1e-12")


# -- 4 ------------------------------------------------------------------------

def test_criterion_04_phi_marginals_and_cuts():
    st = make_phi_eg()
    ok = True
    for lab in "ABC":
        eig = eigenvalues(partial_trace(st, [lab])).eigenvalues
        ok = ok and abs(eig[0] - 2 / 3) < 1e-12 and abs(eig[1] - 1 / 3) < 1e-12
    for cut in ("A|BC", "AB|C", "B|AC"):
        v = measure_pure(MeasureSpec(Family.MAX, H(HKind.PNORM2)), st,
                         parse_partition(cut, "ABC"))
        ok = ok and abs(v - 1 / 3) < 1e-12
    # the stated mixed-marginal numbers are the reduced function of the
    # marginals; they reproduce exactly
    for pair in (("A", "B"), ("A", "C"), ("B", "C")):
        op = partial_trace(st, list(pair))
        ok = ok and abs(h_eval(H(HKind.PNORM2), op) - 1 / 3) < 1e-12
    report("4", ok, "single-party spectra {2/3, 1/3}, all pure cuts and marginal "
                    "reduced-function values equal 1/3")


@pytest.mark.xfail(strict=True,
                   reason="the stated two-party value 1/3 is the reduced function of the "
                          "mixed marginal, not its convex roof; an explicit two-member "
                          "decomposition averages (3-sqrt5)/6 (decisions ledger)")
def test_criterion_04_stated_roof_value():
    st = make_phi_eg()
    op = partial_trace(st, ["A", "B"])
    roof = convex_roof(MeasureSpec(Family.MAX, H(HKind.PNORM2)), op, restarts=4, seed=3)
    print(f"[criterion 4x] literal stated roof 1/3 vs computed {roof.value:.6f} "
          f"(= (3-sqrt5)/6 = {(3 - math.sqrt(5)) / 6:.6f})")
    assert abs(roof.value - 1 / 3) < 1e-3


# -- 5 ------------------------------------------------------------------------

def test_criterion_05_omega_cases():
    ok = True
    msgs = []
    for variant, mirror in (("i", "B|AC"), ("ii", "C|AB")):
        st = make_omega(variant)
        cg = measure_pure(MeasureSpec(Family.GMIN_BIPART, H(HKind.CONCURRENCE)), st)
        c1 = measure_pure(MeasureSpec(Family.MAX, H(HKind.CONCURRENCE)), st,
                          parse_partition("A|BC", "ABC"))
        c2 = measure_pure(MeasureSpec(Family.MAX, H(HKind.CONCURRENCE)), st,
                          parse_partition(mirror, "ABC"))
        ok = ok and abs(cg - 0.5879) < 5e-4 and abs(c1 - 0.8315) < 5e-4 \
            and abs(c2 - 0.8315) < 5e-4
        msgs.append(f"{variant}: gme {cg:.4f}, cuts {c1:.4f}/{c2:.4f}")
    report("5", ok, "; ".join(msgs) + " (0.5879 and 0.8315 within 5e-4)")


@pytest.mark.xfail(strict=True,
                   reason="stated 0.8090 for the entangled-pair concurrence is not "
                          "reproducible; the corner state gives 2*sqrt(7)/9, confirmed "
                          "by the roof optimizer (decisions ledger)")
def test_criterion_05_stated_pair_concurrence():
    w = wootters_concurrence(partial_trace(make_omega("i"), ["A", "B"]))
    print(f"[criterion 5x] literal stated C(rho_AB) = 0.8090 vs computed {w:.6f}")
    assert abs(w - 0.8090) < 5e-4


# -- 6 ------------------------------------------------------------------------

SUBADDITIVE_CATALOG = [
    H(HKind.ENTROPY), H(HKind.CONCURRENCE), H(HKind.TANGLE), H(HKind.TSALLIS, 2.0),
    H(HKind.TSALLIS, 3.0), H(HKind.FIDELITY_F), H(HKind.FIDELITY_F_PRIME),
    H(HKind.FIDELITY_AF), H(HKind.PNORM2), H(HKind.PNEGATIVITY), H(HKind.TSALLIS_PRIME, 2.0),
]


def test_criterion_06_w4_hierarchy_violation():
    st = make_w_state(4)
    merged = parse_partition("AB|CD", "ABCD")
    worst = math.inf
    for h in SUBADDITIVE_CATALOG:
        fine = measure_pure(MeasureSpec(Family.MAX, h), st)
        coarse = measure_pure(MeasureSpec(Family.MAX, h), st, merged)
        worst = min(worst, coarse - fine)
    t_fine = measure_pure(MeasureSpec(Family.MAX, H(HKind.TANGLE)), st)
    t_coarse = measure_pure(MeasureSpec(Family.MAX, H(HKind.TANGLE)), st, merged)
    ok = worst > 1e-6 and abs(t_fine - 0.75) < 1e-12 and abs(t_coarse - 1.0) < 1e-12
    report("6", ok, f"merge increases the max family for every subadditive kind "
                    f"(worst margin {worst:.4f} > 1e-6); tangle pair (3/4, 1)")


# -- 7 ------------------------------------------------------------------------

def test_criterion_07_min_norm_witness():
    wits = known_counterexamples(H(HKind.PNORM_MIN), ProbeProperty.SUBADDITIVITY)
    op, margin = wits[0]
    whole = h_eval(H(HKind.PNORM_MIN), op)
    parts = [h_eval(H(HKind.PNORM_MIN), partial_trace(op, [lab])) for lab in ("A", "B")]
    ok = (abs(whole - 0.5) < 1e-12 and all(abs(p - 0.1) < 1e-12 for p in parts)
          and abs(margin - 0.3) < 1e-12)
    report("7", ok, f"witness: whole {whole} vs marginals {parts}, margin {margin} = 0.3")


# -- 8 ------------------------------------------------------------------------

def test_criterion_08_four_qubit_spectra_and_values():
    from entmono.verify import make_varphi

    st = make_varphi()
    eig_a = eigenvalues(partial_trace(st, ["A"])).eigenvalues
    eig_ab = eigenvalues(partial_trace(st, ["A", "B"])).eigenvalues
    ok = (np.allclose(eig_a, [5 / 8, 3 / 8], atol=1e-12)
          and np.allclose(eig_ab, [3 / 8, 5 / 16, 5 / 16, 0], atol=1e-12))
    # the stated min-norm and negativity numbers evaluate on those spectra
    hmin, hneg = H(HKind.PNORM_MIN), H(HKind.PNEGATIVITY)
    a, b = h_spectrum(hmin, eig_a), h_spectrum(hmin, eig_ab)
    ok = ok and abs(a - 3 / 8) < 1e-12 and abs(b - 5 / 16) < 1e-12 and b < a
    ok = ok and abs(h_spectrum(hneg, eig_a) - math.sqrt(15) / 8) < 1e-12
    ok = ok and abs(h_spectrum(hneg, eig_ab) - math.sqrt(15) / (8 * math.sqrt(2))) < 1e-12
    # measure level: the all-cut minimum sits strictly below the single-party one
    gmin = measure_pure(MeasureSpec(Family.GMIN, hmin), st)
    gminb = measure_pure(MeasureSpec(Family.GMIN_BIPART, hmin), st)
    ok = ok and gminb < gmin - 1e-9
    ok = ok and abs(measure_pure(MeasureSpec(Family.GMIN_BIPART, hneg), st)
                    - math.sqrt(15) / (8 * math.sqrt(2))) < 1e-12
    report("8", ok, "spectra {5/8,3/8} and {3/8,5/16,5/16}; min-norm 5/16 < 3/8 on them; "
                    "negativity values sqrt15/(8 sqrt2) and sqrt15/8; strict all-cut gap")


@pytest.mark.xfail(strict=True,
                   reason="the stated measure-level pair 5/16 < 3/8 assumes all marginals "
                          "share the quoted spectra; rho_D and the AC|BD cut differ "
                          "(decisions ledger)")
def test_criterion_08_stated_measure_level_values():
    from entmono.verify import make_varphi

    st = make_varphi()
    gmin = measure_pure(MeasureSpec(Family.GMIN, H(HKind.PNORM_MIN)), st)
    gminb = measure_pure(MeasureSpec(Family.GMIN_BIPART, H(HKind.PNORM_MIN)), st)
    print(f"[criterion 8x] literal stated (5/16, 3/8) vs computed "
          f"({gminb:.6f}, {gmin:.6f})")
    assert abs(gmin - 3 / 8) < 1e-12 and abs(gminb - 5 / 16) < 1e-12


# -- 9 ------------------------------------------------------------------------

def test_criterion_09_ghz_relation_grid():
    worst = 0.0
    hs = [H(HKind.TANGLE), H(HKind.CONCURRENCE), H(HKind.ENTROPY), H(HKind.PNORM2)]
    for d, n in itertools.product((2, 3), (3, 4)):
        for t in np.linspace(0.0, 1.0, 21):
            weights = [float(t)] + [float(1 - t) / (d - 1)] * (d - 1)
            st = make_ghz(d, n, tuple(weights))
            for h in hs:
                gmin = measure_pure(MeasureSpec(Family.GMIN, h), st)
                gmax = measure_pure(MeasureSpec(Family.GMAX, h), st)
                gsum = measure_pure(MeasureSpec(Family.GSUM, h), st)
                gminb = measure_pure(MeasureSpec(Family.GMIN_BIPART, h), st)
                worst = max(worst, abs(n * gmin - 2 * gsum), abs(n * gmax - 2 * gsum),
                            abs(gmin - gminb))
    ok = worst < 1e-9
    report("9", ok, f"n*gmin = n*gmax = 2*gsum and gmin = gmin-bipart on the grid "
                    f"(worst gap {worst:.2e} < 1e-9)")


# -- 10 -----------------------------------------------------------------------

SC_KINDS = [
    H(HKind.ENTROPY), H(HKind.CONCURRENCE), H(HKind.TANGLE), H(HKind.TSALLIS, 2.0),
    H(HKind.RENYI, 0.5), H(HKind.NEGATIVITY), H(HKind.FIDELITY_F),
    H(HKind.FIDELITY_F_PRIME), H(HKind.FIDELITY_AF), H(HKind.TSALLIS_PRIME, 2.0),
    H(HKind.RENYI_PRIME, 0.5),
]
SC_AND_SA = [H(HKind.ENTROPY), H(HKind.CONCURRENCE), H(HKind.TANGLE),
             H(HKind.TSALLIS, 2.0), H(HKind.FIDELITY_F)]


def test_criterion_10_ordering_chains():
    violations = 0
    for i in range(500):
        dims = (2, 2, 2) if i % 2 == 0 else (2, 2, 2, 2)
        st = random_pure_state(dims, seed=10_000 + i)
        for h in SC_KINDS:
            gminb = measure_pure(MeasureSpec(Family.GMIN_BIPART, h), st)
            gmin = measure_pure(MeasureSpec(Family.GMIN, h), st)
            gmax = measure_pure(MeasureSpec(Family.GMAX, h), st)
            gsum = measure_pure(MeasureSpec(Family.GSUM, h), st)
            s = measure_pure(MeasureSpec(Family.SUM, h), st)
            sb = measure_pure(MeasureSpec(Family.SUM_BIPART, h), st)
            if not (gminb <= gmin + 1e-9 and gmin <= gmax + 1e-9
                    and gmax <= gsum + 1e-9 and s <= sb + 1e-9):
                violations += 1
        for h in SC_AND_SA:
            mx = measure_pure(MeasureSpec(Family.MAX, h), st)
            s = measure_pure(MeasureSpec(Family.SUM, h), st)
            if mx > s + 1e-9:
                violations += 1
    ok = violations == 0
    report("10", ok, f"ordering chains on 500 random 3/4-qubit states, "
                     f"{len(SC_KINDS)} strictly concave kinds: {violations} violations")


# -- 11 -----------------------------------------------------------------------

def test_criterion_11_roof_against_oracle():
    spec = MeasureSpec(Family.MAX, H(HKind.CONCURRENCE))
    rng = np.random.default_rng(1109)
    bad = 0
    worst = -math.inf
    for i in range(100):
        rank = int(rng.integers(2, 5))
        op = random_density_operator((2, 2), int(rng.integers(0, 2 ** 62)), rank=rank)
        w = wootters_concurrence(op)
        # four ensemble members always suffice for a two-qubit roof, and
        # rank-3 separable states genuinely need the fourth
        res = convex_roof(spec, op, m=4, restarts=2, seed=i, max_iters=5)
        gap = res.value - w
        worst = max(worst, gap)
        if not (-1e-9 <= gap <= 1e-3):
            bad += 1
    ok = bad == 0
    report("11", ok, f"100 random two-qubit roofs within [oracle - 1e-9, oracle + 1e-3] "
                     f"(worst gap {worst:.2e}, {bad} outside)")


# -- 12 -----------------------------------------------------------------------

CONCAVE_KINDS = SC_KINDS + [H(HKind.TSALLIS, 0.5), H(HKind.PNORM2), H(HKind.PNORM_MIN),
                            H(HKind.PNORM_MIN_PRIME), H(HKind.PNEGATIVITY)]


def test_criterion_12_locc_sweeps():
    batch = random_trials(child_generators(1201, 0, 1000))
    hard_worst = max(rec.delta for f in (Family.SUM, Family.GSUM) for h in CONCAVE_KINDS
                     for rec in trial_records(MeasureSpec(f, h), batch))
    max_violations = sum(rec.delta > 1e-9 for f in (Family.MAX, Family.GMAX) for h in CONCAVE_KINDS
                         for rec in trial_records(MeasureSpec(f, h), batch))
    ok = hard_worst <= 1e-9
    report("12", ok, f"1000 instruments: sum families worst average change "
                     f"{hard_worst:.2e} <= 1e-9 (hard); max families report "
                     f"{max_violations} increase(s) (informational, archived in the log)")


# -- 13 -----------------------------------------------------------------------

ALL_C_MARKED = CONCAVE_KINDS  # every catalog kind is documented concave
HARD_SA = [H(HKind.ENTROPY), H(HKind.CONCURRENCE), H(HKind.TANGLE), H(HKind.TSALLIS, 2.0),
           H(HKind.FIDELITY_F), H(HKind.PNORM2)]
CONJECTURED_SA = [H(HKind.FIDELITY_F_PRIME), H(HKind.FIDELITY_AF), H(HKind.PNEGATIVITY)]


def test_criterion_13_probe_matrix():
    ok = True
    msgs = []
    for h in ALL_C_MARKED:
        if h.kind is HKind.PNEGATIVITY:
            continue  # concavity documented as conjectured: reported below
        rep = property_probe(h, ProbeProperty.CONCAVITY, trials=10_000, seed=13, dims=(3,))
        if rep.violations:
            ok = False
            msgs.append(f"concavity {h.name}: {rep.violations}")
    for h in HARD_SA:
        rep = property_probe(h, ProbeProperty.SUBADDITIVITY, trials=10_000, seed=13,
                             dims=(2, 2))
        if rep.violations:
            ok = False
            msgs.append(f"subadditivity {h.name}: {rep.violations}")
    informational = {}
    for h in CONJECTURED_SA:
        rep = property_probe(h, ProbeProperty.SUBADDITIVITY, trials=2_000, seed=13,
                             dims=(2, 2))
        informational[f"SA {h.name}"] = rep.violations
    rep = property_probe(H(HKind.PNEGATIVITY), ProbeProperty.CONCAVITY, trials=2_000,
                         seed=13, dims=(3,))
    informational["concavity pnegativity"] = rep.violations
    report("13", ok, "documented-concave kinds and proven-subadditive kinds show zero "
                     f"violations in 1e4 trials{'; ' + '; '.join(msgs) if msgs else ''}; "
                     f"conjectured cells (informational): {informational}")


# -- 14 -----------------------------------------------------------------------

def test_criterion_14_figure_sweeps(tmp_path, capsys):
    out = str(tmp_path)
    assert cli_main(["sweep", "--figure", "fig1", "--points", "21", "--out", out]) == 0
    assert cli_main(["sweep", "--figure", "fig2", "--points", "12", "--out", out]) == 0
    capsys.readouterr()

    with open(f"{out}/fig1.csv") as fh:
        lines = fh.read().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]
    mid = min(rows, key=lambda r: abs(r["t"] - 0.5))
    ok = abs(mid["gmax_concurrence"] - 1.0) < 1e-9 and abs(mid["gsum_concurrence"] - 1.5) < 1e-9
    # the grid family has one spectrum for every cut, so gmax and gmin agree
    for row in rows:
        from entmono.verify import make_ghz_class

        st = make_ghz_class(row["t"])
        for name, h in (("concurrence", H(HKind.CONCURRENCE)),
                        ("fidelityFprime", H(HKind.FIDELITY_F_PRIME)),
                        ("pnorm2", H(HKind.PNORM2))):
            gmin = measure_pure(MeasureSpec(Family.GMIN, h), st)
            ok = ok and abs(gmin - row[f"gmax_{name}"]) < 1e-12

    with open(f"{out}/fig2.csv") as fh:
        lines = fh.read().strip().split("\n")
    header = lines[0].split(",")
    assert len(lines) > 1
    for ln in lines[1:]:
        row = dict(zip(header, map(float, ln.split(","))))
        ok = ok and row["p"] >= row["q"] >= row["r"] > 0
        for name in ("concurrence", "fidelityFprime", "pnorm2"):
            ok = ok and row[f"gmin_{name}"] <= row[f"gmax_{name}"] + 1e-9
            ok = ok and row[f"gmax_{name}"] <= row[f"gsum_{name}"] + 1e-9
    report("14", ok, "fig1 midpoint (1.0, 1.5); gmax = gmin across the grid; fig2 simplex "
                     "constraint and the min <= max <= sum chain hold row-wise")
