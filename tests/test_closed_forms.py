"""The closed forms behind ``reproduce_case``'s literals, derived exactly.

Each closed form is derived with sympy from the exact amplitudes of a
registry state and compared with the claim that states it: with the float
``expected`` literal when the claim carries it, or with the formula text of
the claim's note (and the computed value) when only the note states it.
"""

import functools
import itertools

import numpy as np
import pytest
import sympy as sp

from entmono.verify import registry, reproduce_case

R = sp.Rational
S5 = sp.sqrt(5) / 4
L3 = 1 / sp.sqrt(3)

#: Exact amplitudes, {basis index: amplitude}, of the registry states used below.
EXACT = {
    "xi": {(0, 0, 0, 0): S5, (1, 1, 1, 1): R(1, 4), (0, 1, 0, 0): S5, (1, 0, 1, 0): S5},
    "varphi": {(0, 0, 0, 0): S5, (1, 1, 1, 1): S5, (0, 1, 0, 0): R(1, 4), (1, 0, 1, 0): S5},
    "omega-i": {(0, 0, 0): sp.sqrt(7) / 3, (1, 1, 0): R(1, 3), (1, 1, 1): R(1, 3)},
    "omega-ii": {(0, 0, 0): sp.sqrt(7) / 3, (1, 0, 1): R(1, 3), (1, 1, 1): R(1, 3)},
    "phi-eg2": {(0, 0, 0): L3, (1, 0, 1): L3, (1, 1, 0): L3},
}


def _num(x):
    return sp.N(x, 50)


def _marginal(terms: dict, keep: str) -> sp.Matrix:
    """Exact reduced density matrix on the labels ``keep`` of a real qubit state."""
    pos = ["ABCD".index(lab) for lab in keep]
    index = {idx: i for i, idx in enumerate(itertools.product((0, 1), repeat=len(pos)))}
    rho = sp.zeros(len(index), len(index))
    for a, x in terms.items():
        for b, y in terms.items():
            if all(a[i] == b[i] for i in range(len(a)) if i not in pos):
                rho[index[tuple(a[i] for i in pos)], index[tuple(b[i] for i in pos)]] += x * y
    return rho


def _spectrum(rho: sp.Matrix) -> list:
    """Exact eigenvalues with multiplicity, largest first."""
    lam = [sp.simplify(v) for v, mult in rho.eigenvals().items() for _ in range(mult)]
    return sorted(lam, key=_num, reverse=True)


H = {
    "concurrence": lambda lam: sp.sqrt(2 * (1 - sum(x ** 2 for x in lam))),
    "pnorm2": lambda lam: 1 - lam[0],
    "pnorm-min": lambda lam: min((x for x in lam if x != 0), key=_num),
    "pnegativity": lambda lam: sp.sqrt(lam[0] * lam[1]),
}


def _cut(terms: dict, kind: str, side: str) -> sp.Expr:
    """h of one side of a pure-state cut (both sides share the nonzero spectrum)."""
    return H[kind](_spectrum(_marginal(terms, side)))


def _gmin(terms: dict, kind: str, bipart: bool) -> sp.Expr:
    """Smallest h over single parties, or over every bipartition when ``bipart``."""
    labels = "ABCD"[:len(next(iter(terms)))]
    sizes = range(1, len(labels) // 2 + 1) if bipart else (1,)
    sides = ["".join(c) for k in sizes for c in itertools.combinations(labels, k)]
    return min((_cut(terms, kind, side) for side in sides), key=_num)


def _wootters(terms: dict, pair: str) -> sp.Expr:
    """Exact Wootters concurrence of a real two-qubit marginal."""
    rho = _marginal(terms, pair)
    yy = sp.Matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])  # sy x sy
    roots = sorted((sp.sqrt(v) for v in _spectrum(rho * yy * rho * yy)), key=_num, reverse=True)
    return sp.Max(0, roots[0] - sum(roots[1:]))


def _phi_eg2_members() -> sp.Expr:
    """pnorm2 averaged over psi+- = sqrt(2/3)|Phi+> +- sqrt(1/3)|10>, weight 1/2 each."""
    members = [{(0, 0): 1 / sp.sqrt(3), (1, 1): 1 / sp.sqrt(3), (1, 0): sign / sp.sqrt(3)}
               for sign in (1, -1)]
    average = sum((_marginal(m, "AB") for m in members), sp.zeros(4, 4)) / 2
    assert sp.simplify(average - _marginal(EXACT["phi-eg2"], "AB")) == sp.zeros(4, 4)
    values = [_cut(m, "pnorm2", "A") for m in members]
    assert values[0] == values[1]
    return values[0]


# (case, claim, exact derivation, closed form, where the claim states it:
#  "expected" for the float literal, else a text its note contains)
CLOSED_FORMS = [
    ("xi", "concurrence at cut ABC|D", lambda t: _cut(t, "concurrence", "D"),
     sp.sqrt(15) / 8, "expected"),
    ("xi", "gmin-bipart/concurrence", lambda t: _gmin(t, "concurrence", True),
     sp.sqrt(15) / 8, "expected"),
    ("xi", "concurrence at cut AB|CD", lambda t: _cut(t, "concurrence", "AB"),
     sp.sqrt(65) / 8, "expected"),
    ("varphi", "min-norm of stated two-party spectrum", lambda t: _cut(t, "pnorm-min", "AB"),
     R(5, 16), "expected"),
    ("varphi", "gmin/pnorm-min", lambda t: _gmin(t, "pnorm-min", False),
     R(5, 16), "minimum is 5/16"),
    ("varphi", "gmin-bipart/pnorm-min", lambda t: _gmin(t, "pnorm-min", True),
     (8 - sp.sqrt(29)) / 16, "(8-sqrt29)/16"),
    ("varphi", "gmin-bipart/pnegativity", lambda t: _gmin(t, "pnegativity", True),
     sp.sqrt(15) / (8 * sp.sqrt(2)), "expected"),
    ("varphi", "pnegativity of stated two-party spectrum", lambda t: _cut(t, "pnegativity", "AB"),
     sp.sqrt(15) / (8 * sp.sqrt(2)), "expected"),
    ("omega-i", "wootters C(rho_AB)", lambda t: _wootters(t, "AB"),
     2 * sp.sqrt(7) / 9, "2*sqrt(7)/9"),
    ("omega-ii", "wootters C(rho_AC)", lambda t: _wootters(t, "AC"),
     2 * sp.sqrt(7) / 9, "2*sqrt(7)/9"),
    ("phi-eg2", "roof max/pnorm2 on rho_AB", lambda t: _phi_eg2_members(),
     (3 - sp.sqrt(5)) / 6, "(3-sqrt5)/6"),
]


@functools.cache
def _claims(case: str) -> dict:
    return {c["claim"]: c for c in reproduce_case(case)["claims"]}


@pytest.mark.parametrize("case", sorted(EXACT))
def test_exact_amplitudes_are_the_registry_states(case):
    state = registry()[case].state
    exact = np.zeros(2 ** len(state.labels))
    for idx, amp in EXACT[case].items():
        exact[int("".join(map(str, idx)), 2)] = float(amp)
    assert np.abs(state.amplitudes - exact).max() <= 1e-15


@pytest.mark.parametrize("case,claim,derive,closed,stated", CLOSED_FORMS,
                         ids=[f"{c}:{n}" for c, n, *_ in CLOSED_FORMS])
def test_closed_form_matches_its_claim(case, claim, derive, closed, stated):
    assert sp.simplify(derive(EXACT[case]) - closed) == 0
    row = _claims(case)[claim]
    if stated == "expected":
        assert abs(row["expected"] - float(closed)) <= 1e-15
    else:
        assert stated in row["note"]
        assert abs(row["computed"] - float(closed)) <= 1e-12


def test_varphi_ac_bd_spectrum():
    """The AC|BD cut, whose smallest nonzero eigenvalue sets gmin-bipart/pnorm-min."""
    lam = _spectrum(_marginal(EXACT["varphi"], "AC"))
    expected = [R(1, 2) + sp.sqrt(29) / 16, R(1, 2) - sp.sqrt(29) / 16, 0, 0]
    assert all(sp.simplify(a - b) == 0 for a, b in zip(lam, expected))
