import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import entmono
from entmono import (
    DensityOperator,
    Partition,
    PureState,
    StateError,
    convex_roof,
    eigenvalues,
    format_partition,
    full_partition,
    measure_pure,
    parse_partition,
    partial_trace,
    projector,
    random_density_operator,
    random_pure_state,
    regroup,
    tensor_product,
)
from entmono.errors import GuardError
from entmono.measures import Family, MeasureSpec
from entmono.qstate import PURITY_TOL, child_generators, haar_isometries, stack_spectra
from entmono.redfun import HKind, ReducedFunctionSpec
from conftest import haar, ket


def brute_partial_trace(state, keep_idx):
    """Index-by-index partial trace, independent of any reshape tricks."""
    dims = state.dims
    n = len(dims)
    rest = [i for i in range(n) if i not in keep_idx]
    dk = math.prod(dims[i] for i in keep_idx)
    rho = np.zeros((dk, dk), dtype=complex)
    psi = state.amplitudes

    def unpack(flat):
        out = []
        for d in reversed(dims):
            out.append(flat % d)
            flat //= d
        return list(reversed(out))

    def pack(idx, axes):
        k = 0
        for i in axes:
            k = k * dims[i] + idx[i]
        return k

    for a in range(len(psi)):
        ia = unpack(a)
        for b in range(len(psi)):
            ib = unpack(b)
            if all(ia[i] == ib[i] for i in rest):
                rho[pack(ia, keep_idx), pack(ib, keep_idx)] += psi[a] * np.conj(psi[b])
    return rho


def test_w4_single_party_marginal(w4):
    op = partial_trace(w4, ["A"])
    assert np.allclose(op.matrix, np.diag([0.75, 0.25]), atol=1e-12)


def test_product_state_marginal():
    st = ket("AB", (2, 2), {(0, 0): 1.0})
    op = partial_trace(st, ["A"])
    assert np.allclose(op.matrix, [[1, 0], [0, 0]], atol=1e-14)


def test_xi_two_party_purity_against_brute_force(xi_state):
    op = partial_trace(xi_state, ["A", "B"])
    oracle = brute_partial_trace(xi_state, [0, 1])
    assert np.allclose(op.matrix, oracle, atol=1e-12)
    purity = float((op.matrix @ op.matrix).trace().real)
    assert abs(purity - 63 / 128) < 1e-12


def test_partial_trace_errors(bell):
    with pytest.raises(StateError):
        partial_trace(bell, [])
    with pytest.raises(StateError):
        partial_trace(bell, ["X"])


def test_partial_trace_commutes_with_permutation(xi_state):
    direct = partial_trace(xi_state, ["B", "D"])
    t = xi_state.tensor().transpose([3, 1, 2, 0])
    permuted = PureState(("D", "B", "C", "A"), (2, 2, 2, 2), t.reshape(-1))
    other = partial_trace(permuted, ["B", "D"])  # comes back ordered D, B
    # reorder other (D,B) -> (B,D)
    m = other.matrix.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    assert np.allclose(direct.matrix, m, atol=1e-12)


def test_eigenvalues_maximally_mixed():
    op = DensityOperator(("A",), (2,), np.eye(2) / 2)
    spec = eigenvalues(op)
    assert np.allclose(spec.eigenvalues, [0.5, 0.5])
    assert spec.effective_rank == 2


def test_varphi_marginal_spectra():
    s = math.sqrt(5) / 4
    st = ket("ABCD", (2, 2, 2, 2),
             {(0, 0, 0, 0): s, (1, 1, 1, 1): s, (0, 1, 0, 0): 0.25, (1, 0, 1, 0): s})
    spec_a = eigenvalues(partial_trace(st, ["A"]))
    assert np.allclose(spec_a.eigenvalues, [5 / 8, 3 / 8], atol=1e-12)
    spec_ab = eigenvalues(partial_trace(st, ["A", "B"]))
    assert np.allclose(spec_ab.eigenvalues, [3 / 8, 5 / 16, 5 / 16, 0.0], atol=1e-12)
    assert spec_ab.effective_rank == 3


def test_schmidt_symmetry_random_states():
    for seed in range(8):
        st = random_pure_state((2, 3, 2), seed=seed)
        left = eigenvalues(partial_trace(st, ["A"])).eigenvalues
        right = eigenvalues(partial_trace(st, ["B", "C"])).eigenvalues
        assert np.allclose(left, right[: len(left)], atol=1e-9)


def test_regroup_three_qubit_shapes(ghz3):
    part = parse_partition("A|BC", "ABC")
    g = regroup(ghz3, part)
    assert g.labels == ("A", "BC")
    assert g.dims == (2, 4)
    # GHZ amplitudes land on |0>|00> and |1>|11>
    assert abs(abs(g.amplitudes[0]) - 1 / math.sqrt(2)) < 1e-12
    assert abs(abs(g.amplitudes[7]) - 1 / math.sqrt(2)) < 1e-12


def test_regroup_w4_pair_cut_spectrum(w4):
    g = regroup(w4, parse_partition("AB|CD", "ABCD"))
    spec = eigenvalues(partial_trace(g, ["AB"]))
    assert np.allclose(spec.eigenvalues, [0.5, 0.5, 0.0, 0.0], atol=1e-12)


def test_regroup_identity(ghz3):
    part = parse_partition("A|B|C", "ABC")
    g = regroup(ghz3, part)
    assert g.labels == ("A", "B", "C")
    assert np.allclose(g.amplitudes, ghz3.amplitudes)


def test_regroup_traces_product_factor(ghz3):
    st = tensor_product(ghz3, ket("D", (2,), {(0,): 1.0}))
    g = regroup(st, parse_partition("A|BC", "ABC"))
    assert g.labels == ("A", "BC")


def test_regroup_returns_the_mixed_marginal(ghz3):
    g = regroup(ghz3, parse_partition("A|B", "ABC"))
    assert isinstance(g, DensityOperator)
    assert (g.labels, g.dims) == (("A", "B"), (2, 2))
    assert np.abs(g.matrix - np.diag([0.5, 0, 0, 0.5])).max() <= 1e-15


def test_regroup_joins_multi_character_labels_with_plus():
    st = PureState(("A1", "B2", "C"), (2, 2, 2), random_pure_state((2, 2, 2), 0).amplitudes)
    g = regroup(st, parse_partition("A1,B2|C", st.labels))
    assert (g.labels, g.dims) == (("A1+B2", "C"), (4, 2))
    assert np.array_equal(g.amplitudes, st.amplitudes)


@pytest.mark.parametrize("labels", [("A|B", "C"), ("A,B", "C"), (" A", "B"), ("A", "B\t")])
def test_labels_that_partition_names_cannot_carry_are_rejected(labels):
    """``|`` splits a partition name into blocks and ``,`` a block into labels, and both
    parts are stripped, so such a label would print a name that parses to other labels."""
    amps = random_pure_state((2, 2), 0).amplitudes
    with pytest.raises(StateError, match="partition names cannot carry"):
        PureState(labels, (2, 2), amps)
    with pytest.raises(StateError, match="partition names cannot carry"):
        DensityOperator(labels, (2, 2), np.eye(4) / 4)


def test_regrouped_labels_load_again():
    """``+``, which regroup writes between multi-character labels, stays a legal label."""
    st = PureState(("A1", "B2", "C"), (2, 2, 2), random_pure_state((2, 2, 2), 0).amplitudes)
    g = regroup(st, parse_partition("A1,B2|C", st.labels))
    again = PureState(g.labels, g.dims, g.amplitudes)
    assert again.labels == ("A1+B2", "C")
    assert parse_partition(format_partition(full_partition(again.labels)), again.labels).blocks == (("A1+B2",), ("C",))


def test_regroup_density_preserves_spectrum():
    op = random_density_operator((2, 2, 2), seed=11)
    g = regroup(op, parse_partition("AC|B", "ABC"))
    w0 = np.linalg.eigvalsh(op.matrix)
    w1 = np.linalg.eigvalsh(g.matrix)
    assert np.allclose(w0, w1, atol=1e-12)


def test_tensor_product_and_recovery(bell):
    other = ket("CD", (2, 2), {(0, 0): 1.0})
    st = tensor_product(bell, other)
    assert st.labels == ("A", "B", "C", "D")
    back = partial_trace(st, ["A", "B"])
    assert np.allclose(back.matrix, projector(bell).matrix, atol=1e-12)


def test_tensor_product_label_collision(bell):
    with pytest.raises(StateError):
        tensor_product(bell, bell)


def test_random_pure_state_determinism():
    a = random_pure_state((2, 2), seed=1)
    b = random_pure_state((2, 2), seed=1)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert abs(float(np.vdot(a.amplitudes, a.amplitudes).real) - 1) < 1e-12


@pytest.mark.parametrize("dims,rank", [((2,), None), ((2, 2), None), ((2, 2), 2), ((3, 2), 1), ((2, 3, 2), 5)])
def test_random_density_operator_is_the_seeded_ginibre_state(dims, rank):
    # G G^dag / tr from default_rng(seed): the real part of G, then its imaginary part.
    d = math.prod(dims)
    for seed in (0, 3, 2**40):
        rng = np.random.default_rng(seed)
        shape = (d, d if rank is None else rank)
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        rho = g @ g.conj().T
        op = random_density_operator(dims, seed, rank=rank)
        assert op.labels == tuple("ABC"[:len(dims)]) and op.dims == dims
        assert np.array_equal(op.matrix, rho / np.trace(rho).real)


def test_random_state_marginals_are_states():
    for seed in (0, 1, 2):
        st = random_pure_state((2, 2, 2), seed=seed)
        for lab in "ABC":
            spec = eigenvalues(partial_trace(st, [lab]))
            assert spec.eigenvalues[0] <= 1 + 1e-12
            assert spec.eigenvalues[-1] >= -1e-12


def test_validation_errors():
    with pytest.raises(StateError):
        PureState(("A",), (2,), [1.0, 0.1])  # not normalized
    with pytest.raises(StateError):
        PureState(("A", "A"), (2, 2), [1, 0, 0, 0])
    with pytest.raises(StateError):
        DensityOperator(("A",), (2,), [[0.5, 1.0], [0.0, 0.5]])  # not Hermitian
    with pytest.raises(GuardError):
        PureState(tuple("ABCDEFGHIJKLM"), (2,) * 13, [0.0] * 2 ** 13)


@pytest.mark.parametrize("dim", [2.9, 2.5, math.nan, math.inf, "2", None, np.float64(2.5)])
def test_a_non_integer_dim_is_rejected_not_truncated(dim):
    with pytest.raises(StateError, match="must be integers"):
        PureState(("A", "B"), (dim, 2), [1, 0, 0, 0])
    with pytest.raises(StateError, match="must be integers"):
        DensityOperator(("A", "B"), (dim, 2), np.diag([1, 0, 0, 0]))
    with pytest.raises(StateError, match="must be integers"):
        random_pure_state((dim, 2), seed=0)


@pytest.mark.parametrize("dim", [2, 2.0, np.int64(2), np.float64(2.0)])
def test_an_integer_valued_dim_is_kept(dim):
    assert PureState(("A", "B"), (dim, 2), [1, 0, 0, 0]).dims == (2, 2)
    assert DensityOperator(("A", "B"), (dim, 2), np.diag([1, 0, 0, 0])).dims == (2, 2)
    assert type(PureState(("A", "B"), (dim, 2), [1, 0, 0, 0]).dims[0]) is int


def test_projector_matches_outer(bell):
    op = projector(bell)
    assert np.allclose(op.matrix, np.outer(bell.amplitudes, bell.amplitudes.conj()))


# --- validation at the boundary --------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: PureState("AB", (2, 2), [1.0, 0.0, 0.0, 0.1]),  # not normalized
    lambda: PureState("AB", (2, 2), [1.0, 0.0, 0.0]),  # wrong length
    lambda: DensityOperator("A", (2,), [[0.5, 0.2], [0.0, 0.5]]),  # not Hermitian
    lambda: DensityOperator("A", (2,), [[0.6, 0.0], [0.0, 0.6]]),  # trace 1.2
    lambda: DensityOperator("AB", (2, 2), np.eye(2) / 2),  # wrong shape
    lambda: DensityOperator("A", (2,), [[1.5, 0.0], [0.0, -0.5]]),  # not positive
    lambda: PureState("A", (2,), [np.nan, 1.0]),  # not finite
    lambda: PureState("A", (2,), [np.nan, 1.0], normalize=True),
    lambda: PureState("A", (2,), [np.inf, 0.0], normalize=True),
    lambda: PureState("A", (2,), [1.0, complex(0.0, -np.inf)]),
    lambda: PureState("A", (2,), [1e200, 1.0], normalize=True),  # norm overflows
    lambda: DensityOperator("A", (2,), [[0.5, np.nan], [np.nan, 0.5]]),
    lambda: DensityOperator("A", (2,), [[np.nan, 0.0], [0.0, 0.5]]),
    lambda: DensityOperator("A", (2,), [[np.inf, 0.0], [0.0, 0.5]]),
])
def test_public_constructors_validate(make):
    with pytest.raises(StateError):
        make()


@pytest.mark.parametrize("matrix", [
    [[0.5, 0.2], [0.0, 0.5]],  # not Hermitian
    [[0.6, 0.0], [0.0, 0.6]],  # trace 1.2
    [[1.5, 0.3j], [-0.3j, -0.5]],  # not positive
])
def test_operator_checks_are_the_stack_checks(matrix):
    """DensityOperator and eigenvalues apply stack_spectra's one validation, error text included."""
    matrix = np.array(matrix, dtype=complex)
    with pytest.raises(StateError) as stacked:
        stack_spectra(matrix[None])
    with pytest.raises(StateError) as built:
        DensityOperator("A", (2,), matrix)
    with pytest.raises(StateError) as read:
        eigenvalues(DensityOperator._trusted("A", (2,), matrix))
    assert str(built.value) == str(read.value) == str(stacked.value)


def test_measure_pure_and_convex_roof_reject_the_other_kind(ghz3):
    spec = MeasureSpec(Family.SUM, ReducedFunctionSpec(HKind.TANGLE))
    part = parse_partition("A|B", "ABC")
    assert isinstance(regroup(ghz3, part), DensityOperator)
    with pytest.raises(StateError, match="mixed"):
        measure_pure(spec, ghz3, part)
    # the input's type decides, whatever the regrouped marginal is
    for p in (part, None):
        with pytest.raises(StateError, match="density operator"):
            convex_roof(spec, ghz3, p)


@st.composite
def _states_with_a_proper_cover(draw):
    """A 3-5 party state of local dims 2-3 and a partition of a proper subset of its labels.

    Half the states are a product across a cut, and half the covers are one
    side of it, so that pure and mixed marginals are both drawn.
    """
    dims = draw(st.lists(st.integers(2, 3), min_size=3, max_size=5))
    labels = "ABCDE"[:len(dims)]
    seed = draw(st.integers(0, 2**32 - 1))
    side = draw(st.lists(st.booleans(), min_size=len(dims), max_size=len(dims)))
    if draw(st.booleans()) and 0 < sum(side) < len(dims):
        parts = [[i for i in range(len(dims)) if side[i] == s] for s in (True, False)]
        state = tensor_product(*(haar([labels[i] for i in idx], [dims[i] for i in idx], seed + k)
                                 for k, idx in enumerate(parts)))
    else:
        state = haar(labels, dims, seed)
    if draw(st.booleans()) and 0 < sum(side) < len(dims):
        kept = [lab for lab, s in zip(labels, side) if s]
    else:
        kept = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=len(dims) - 1, unique=True))
    blocks = draw(st.lists(st.integers(0, len(kept) - 1), min_size=len(kept), max_size=len(kept)))
    part = Partition([[lab for lab, b in zip(kept, blocks) if b == k] for k in set(blocks)], labels)
    return state, part


@given(_states_with_a_proper_cover())
def test_regroup_is_pure_exactly_when_the_marginal_is(case):
    state, part = case
    g = regroup(state, part)
    ref = regroup(projector(state), part)
    assert (g.labels, g.dims) == (ref.labels, ref.dims)
    assert isinstance(g, PureState) == (1 - np.linalg.eigvalsh(ref.matrix)[-1] <= PURITY_TOL)
    mat = np.outer(g.amplitudes, g.amplitudes.conj()) if isinstance(g, PureState) else g.matrix
    assert np.abs(mat - ref.matrix).max() <= 1e-14


def test_states_built_internally_are_read_only(ghz3):
    st = tensor_product(ghz3, ket("D", (2,), {(0,): 1.0}))
    for out in (regroup(st, parse_partition("AC|B", "ABCD")), partial_trace(st, ["A", "B"]),
                regroup(projector(st), parse_partition("AC|B|D", "ABCD"))):
        data = out.amplitudes if isinstance(out, PureState) else out.matrix
        assert not data.flags.writeable
        assert isinstance(out.labels, tuple) and isinstance(out.dims, tuple)


def test_density_operator_copies_stay_read_only():
    op = random_density_operator((2, 2), 3, rank=2)
    for twin in (pickle.loads(pickle.dumps(op)), copy.deepcopy(op)):
        assert (twin.labels, twin.dims) == (op.labels, op.dims)
        assert np.array_equal(twin.matrix, op.matrix)
        assert not twin.matrix.flags.writeable


@pytest.mark.parametrize("n", range(2, 9))
def test_haar_isometries_are_the_sign_fixed_qr_of_each_draw(n):
    # Per generator: real then imaginary (n, n) normals, QR, and R's diagonal signs moved
    # into Q; the roof's Haar starts are the first r columns of that unitary.
    for seeds in ((0,), (1, 7), (2**40, 5, 3)):
        got = haar_isometries(n, n, [np.random.default_rng(seed) for seed in seeds])
        assert got.shape == (len(seeds), n, n)
        for u, seed in zip(got, seeds):
            rng = np.random.default_rng(seed)
            q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            for cols in range(1, n + 1):
                assert np.array_equal(u[:, :cols], (q * np.sign(np.diagonal(r)))[:, :cols])
    # One generator listed twice draws its two matrices in turn.
    rng = np.random.default_rng(4)
    twice = haar_isometries(n, 1, [rng] * 2)
    again = np.random.default_rng(4)
    assert np.array_equal(twice, np.concatenate([haar_isometries(n, 1, [again]) for _ in range(2)]))
    assert haar_isometries(n, n, []).shape == (0, n, n)


@given(st.integers(0, 2**130 - 1),
       st.one_of(st.integers(0, 1000), st.integers(2**32 - 60, 2**32 + 10), st.integers(2**64 - 60, 2**64 + 10)),
       st.integers(1, 50))
@example(0, 0, 1)
@example(1, 2**32 - 2, 4)
@example(2**128, 2**64 - 2, 4)
def test_child_generators_are_numpys_own_children(seed, start, n):
    """Children from 2**32 take a two-word spawn key, and from 2**64 three; seeds from
    2**128 have more words than the pool.  numpy's ``spawn`` counts its children in 32 bits
    and does not return past child 2**32 - 2, so the children from there on are built
    from the spawn key ``spawn`` gives a child."""
    if start + n < 2**32:
        children = np.random.SeedSequence(seed, n_children_spawned=start).spawn(n)
    else:
        children = [np.random.SeedSequence(seed, spawn_key=(i,)) for i in range(start, start + n)]
    want = [np.random.default_rng(child) for child in children]
    got = list(child_generators(seed, start, n))
    assert [g.bit_generator.state for g in got] == [g.bit_generator.state for g in want]
    for g, w in zip(got, want):
        assert np.array_equal(g.standard_normal(3), w.standard_normal(3))
        assert g.integers(0, 5) == w.integers(0, 5)


def test_child_generators_check_the_seed_as_numpy_does():
    with pytest.raises(ValueError) as numpy_error:
        np.random.SeedSequence(-1)
    with pytest.raises(ValueError, match=str(numpy_error.value)):
        child_generators(-1, 0, 3)
    assert list(child_generators(5, 7, 0)) == []


def test_unvalidated_constructors_are_not_exported():
    exported = [getattr(entmono, name) for name in entmono.__all__]
    for cls in (PureState, DensityOperator):
        assert cls._trusted not in exported
    assert not [name for name in entmono.__all__ if name.startswith("_")]
    assert not hasattr(entmono, "_trusted")
