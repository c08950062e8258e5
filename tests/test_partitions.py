import copy
import itertools
import math
import pickle
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entmono import (
    CoarseningKind,
    Partition,
    PartitionError,
    PureState,
    enumerate_coarsenings,
    format_partition,
    full_partition,
    is_coarser,
    parse_partition,
    random_pure_state,
    regroup,
    xi_set,
)
from entmono.errors import GuardError
from entmono.partitions import _target_candidates, all_partitions_of_subsets
from entmono.verify import _pair_index

ANY = CoarseningKind.ANY
A_ = CoarseningKind.DISCARD_BLOCKS
B_ = CoarseningKind.COMBINE_BLOCKS
C_ = CoarseningKind.DISCARD_WITHIN_BLOCK


def P(text, universe):
    return parse_partition(text, universe)


# --- oracle: the subset-partition lattice, filtered by the relations -------------

def _oracle_set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _oracle_set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def _oracle_lattice(labels, universe):
    """Every partition of every nonempty subset of ``labels``."""
    labs = sorted(labels)
    return {
        Partition(blocks, universe)
        for k in range(1, len(labs) + 1)
        for sub in itertools.combinations(labs, k)
        for blocks in _oracle_set_partitions(sub)
    }


def _oracle_coarsenings(x, kind):
    return {z for z in _oracle_lattice(x.cover, x.universe) if is_coarser(x, z, kind)}


def _oracle_admissible(x, y, z):
    """A target meeting at most one y-block is built from pieces of single
    x-blocks; one meeting two or more holds their union as one block, and
    its other blocks are unions of whole x-blocks disjoint from that union."""
    zc = z.cover
    xb = [frozenset(b) for b in x.blocks]
    zb = [frozenset(b) for b in z.blocks]
    touched = [frozenset(b) for b in y.blocks if frozenset(b) & zc]
    if len(touched) <= 1:
        return all(any(b <= bx for bx in xb) for b in zb)
    union_t = frozenset(itertools.chain.from_iterable(touched))
    if any(not (b <= zc) for b in touched):
        return False
    if union_t not in zb:
        return False
    rem = [bx for bx in xb if not (bx & union_t)]
    for b in zb:
        if b == union_t:
            continue
        hit = [bx for bx in rem if bx & b]
        if not hit:
            return False
        if frozenset(itertools.chain.from_iterable(hit)) != b:
            return False
    return True


def _oracle_single_merge_group(x, y):
    """If ``y`` equals ``x`` with exactly one group of blocks merged, return the group."""
    if x.cover != y.cover or y.n_blocks >= x.n_blocks:
        return None
    xs = {frozenset(b) for b in x.blocks}
    ys = {frozenset(b) for b in y.blocks}
    extra = ys - xs
    if len(extra) != 1:
        return None
    merged = next(iter(extra))
    group = [b for b in xs if b <= merged]
    if len(group) < 2:
        return None
    if frozenset(itertools.chain.from_iterable(group)) != merged:
        return None
    if xs - set(group) != ys - {merged}:
        return None
    return tuple(sorted(tuple(sorted(g)) for g in group))


def _oracle_xi(x, y, candidates):
    """xi_set(x, y) by filtering ``candidates``, all partitions strictly coarser than x."""
    group = _oracle_single_merge_group(x, y)
    if group is not None:
        base = Partition(group, x.universe)
        return {z for z in candidates | {base}
                if z.n_blocks >= 2 and (z == base or is_coarser(base, z, ANY))}
    return {
        z for z in candidates
        if z.n_blocks >= 2 and z != y
        and not is_coarser(z, y, ANY) and not is_coarser(y, z, ANY)
        and _oracle_admissible(x, y, z)
    }


def _index_pairs(labels, kind):
    """The pairs of the checkers' cached index, as (x, y) partitions, and its point names."""
    points, names, xi, yi = _pair_index(labels, kind)
    assert list(names) == [format_partition(p) for p in points]
    return [(points[i], points[j]) for i, j in zip(xi.tolist(), yi.tolist())]


def _oracle_pairs(labels, kind, scope):
    lattice = sorted(_oracle_lattice(labels, labels),
                     key=lambda p: (-len(p.cover), p.n_blocks, format_partition(p)))
    xs = [p for p in lattice if p.cover == frozenset(labels)] if scope == "cover" else lattice
    return [(x, y) for x in xs if x.n_blocks >= 2 for y in lattice if is_coarser(x, y, kind)]


# --- independent oracle: closure over explicit single moves -----------------

def _single_moves(p: Partition):
    blocks = [set(b) for b in p.blocks]
    # discard one block
    if len(blocks) > 1:
        for i in range(len(blocks)):
            rest = blocks[:i] + blocks[i + 1:]
            yield Partition(rest, p.universe)
    # merge two blocks
    for i, j in itertools.combinations(range(len(blocks)), 2):
        merged = [b for k, b in enumerate(blocks) if k not in (i, j)]
        merged.append(blocks[i] | blocks[j])
        yield Partition(merged, p.universe)
    # drop one label from a composite block
    for i, b in enumerate(blocks):
        if len(b) < 2:
            continue
        for lab in b:
            out = [set(x) for x in blocks]
            out[i] = b - {lab}
            yield Partition(out, p.universe)


def _bfs_closure(p: Partition):
    seen = set()
    frontier = [p]
    while frontier:
        nxt = []
        for q in frontier:
            for z in _single_moves(q):
                if z not in seen:
                    seen.add(z)
                    nxt.append(z)
        frontier = nxt
    seen.discard(p)
    return seen


# --- parsing -----------------------------------------------------------------

def test_parse_and_format_round_trip():
    p = P("AB|C|DE", "ABCDE")
    assert [list(b) for b in p.blocks] == [["A", "B"], ["C"], ["D", "E"]]
    assert format_partition(p) == "AB|C|DE"
    assert parse_partition(format_partition(p), "ABCDE") == p


def test_parse_singletons():
    p = P("A|B|C|D", "ABCD")
    assert p.n_blocks == 4
    assert all(len(b) == 1 for b in p.blocks)


def test_parse_comma_separated_multichar():
    p = parse_partition("Q1,Q2|Q3", ["Q1", "Q2", "Q3"])
    assert format_partition(p) == "Q1,Q2|Q3"


def test_parse_rejects_duplicates_and_unknown():
    with pytest.raises(PartitionError):
        P("A|A|B", "AB")
    with pytest.raises(PartitionError):
        P("A|X", "AB")
    with pytest.raises(PartitionError):
        P("A||B", "AB")


def test_canonical_ordering():
    p = Partition([["C"], ["B", "A"]], "ABC")
    assert format_partition(p) == "AB|C"


# --- single-kind relations ----------------------------------------------------

def test_discard_chain():
    u = "ABCD"
    assert is_coarser(P("A|B|C|D", u), P("A|B|D", u), A_)
    assert is_coarser(P("A|B|C|D", u), P("B|D", u), A_)
    assert not is_coarser(P("A|B|C|D", u), P("A|B|C|D", u), A_)


def test_combine_chain():
    u = "ABCD"
    assert is_coarser(P("A|B|C|D", u), P("AC|B|D", u), B_)
    assert is_coarser(P("A|B|C|D", u), P("AC|BD", u), B_)
    assert not is_coarser(P("A|B|C|D", u), P("A|B|D", u), B_)


def test_discard_within_block():
    u = "ABC"
    assert is_coarser(P("A|BC", u), P("A|B", u), C_)
    assert not is_coarser(P("A|BC", u), P("A", u), C_)
    assert not is_coarser(P("AB|C", u), P("A|B", u), C_)


def test_universe_mismatch_raises():
    with pytest.raises(PartitionError):
        is_coarser(P("A|B", "AB"), P("A|B", "ABC"), ANY)


# --- closure relation ---------------------------------------------------------

def test_any_matches_bfs_closure_three_and_four_labels():
    for text, uni in [("A|B|C", "ABC"), ("AB|C", "ABC"), ("A|B|CD", "ABCD"), ("A|B|C|D", "ABCD")]:
        x = P(text, uni)
        oracle = _bfs_closure(x)
        mine = {z for z in _oracle_lattice(x.cover, x.universe) if is_coarser(x, z, ANY)}
        assert mine == oracle


@st.composite
def partitions(draw, min_labels=1, max_labels=5, min_blocks=1):
    """A partition of a nonempty subset of the first n labels of "ABCDEFGH"."""
    n = draw(st.integers(min_labels, max_labels))
    labels = "ABCDEFGH"[:n]
    # Block index per label; index n leaves the label out.
    slots = draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
    blocks = [[lab for lab, s in zip(labels, slots) if s == b] for b in range(n)]
    blocks = [b for b in blocks if b]
    assume(len(blocks) >= min_blocks)
    return Partition(blocks, labels)


@settings(max_examples=60)
@given(partitions(max_labels=5))
def test_any_matches_bfs_closure_up_to_five_labels(x):
    closure = _bfs_closure(x)
    assert {z for z in _oracle_lattice(x.cover, x.universe) if is_coarser(x, z, ANY)} == closure
    assert enumerate_coarsenings(x, ANY) == closure


def test_enumerate_kinds_are_subsets_of_any():
    x = P("A|B|CD", "ABCD")
    every = enumerate_coarsenings(x, ANY)
    for kind in (A_, B_, C_):
        assert enumerate_coarsenings(x, kind) <= every


def test_enumerate_simple_cases():
    x = P("A|B", "AB")
    assert {format_partition(z) for z in enumerate_coarsenings(x, A_)} == {"A", "B"}
    assert {format_partition(z) for z in enumerate_coarsenings(x, B_)} == {"AB"}


def test_strictness_and_transitivity():
    uni = "ABCD"
    parts = list(_oracle_lattice(uni, uni))
    for p in parts:
        assert not is_coarser(p, p, ANY)
    # transitivity on a sample
    import random

    rnd = random.Random(7)
    sample = rnd.sample(parts, 20)
    for x in sample:
        ys = [y for y in parts if is_coarser(x, y, ANY)]
        for y in rnd.sample(ys, min(4, len(ys))):
            for z in parts:
                if is_coarser(y, z, ANY):
                    assert is_coarser(x, z, ANY)


def test_enumeration_guard():
    labels = [chr(ord("A") + i) for i in range(9)]
    with pytest.raises(GuardError):
        enumerate_coarsenings(Partition([[lab] for lab in labels], labels), ANY)


# --- golden target sets ---------------------------------------------------------

XI_1 = {
    "CD|E", "A|CD|E", "B|CD|E", "A|CD", "B|CD", "B|C|E", "B|D|E", "A|D|E", "A|C|E",
    "A|E", "B|E", "A|C", "A|D", "B|C", "B|D", "C|E", "D|E", "AB|CDE", "AB|CD|E",
    "AB|CD", "AB|E",
}

XI_2 = {
    "D|E", "A|D|E", "A|D", "A|E", "B|D|E", "B|D", "B|E", "C|D|E", "C|D", "C|E",
    "AB|D|E", "AB|D", "AB|E", "AC|D|E", "AC|D", "AC|E", "BC|D|E", "BC|D", "BC|E",
    "ABC|DE", "ABC|D|E", "ABC|D", "ABC|E", "AB|DE", "AC|DE", "BC|DE",
}

XI_3 = {"B|C|D", "B|CD", "BC|D", "BD|C", "B|C", "C|D", "B|D"}


def test_xi_golden_one():
    got = {format_partition(z) for z in xi_set(P("A|B|CD|E", "ABCDE"), P("A|B", "ABCDE"))}
    assert got == XI_1
    assert len(got) == 21


def test_xi_golden_two():
    got = {format_partition(z) for z in xi_set(P("A|B|C|D|E", "ABCDE"), P("A|B|C", "ABCDE"))}
    assert got == XI_2
    assert len(got) == 26


def test_xi_golden_three():
    got = {format_partition(z) for z in xi_set(P("A|B|C|D", "ABCD"), P("A|BCD", "ABCD"))}
    assert got == XI_3
    assert len(got) == 7


def test_xi_three_party_discard():
    got = {format_partition(z) for z in xi_set(P("A|B|C", "ABC"), P("A|B", "ABC"))}
    assert got == {"A|C", "B|C", "AB|C"}


def test_xi_merge_pair_targets():
    got = {format_partition(z) for z in xi_set(P("A|B|C", "ABC"), P("A|BC", "ABC"))}
    assert got == {"B|C"}


def test_xi_requires_coarser():
    with pytest.raises(PartitionError):
        xi_set(P("A|B", "ABC"), P("A|C", "ABC"))


def test_xi_subset_and_incomparability_invariants():
    x, y = P("A|B|CD|E", "ABCDE"), P("A|B", "ABCDE")
    coarser = enumerate_coarsenings(x, ANY)
    for z in xi_set(x, y):
        assert z in coarser
        assert not is_coarser(z, y, ANY)
        assert not is_coarser(y, z, ANY)
        assert z != y


@st.composite
def coarser_pairs(draw):
    """(x, y) over 6 to 8 labels with y strictly coarser than x.

    Each x-block keeps a nonempty sub-piece or nothing, and the kept pieces
    are grouped by drawn group indices.
    """
    x = draw(partitions(min_labels=6, max_labels=8, min_blocks=2))
    pieces = []
    for block in x.blocks:
        keep = draw(st.lists(st.booleans(), min_size=len(block), max_size=len(block)))
        piece = [lab for lab, k in zip(block, keep) if k]
        if piece:
            pieces.append(piece)
    assume(pieces)
    groups = draw(st.lists(st.integers(0, len(pieces) - 1), min_size=len(pieces), max_size=len(pieces)))
    blocks = [[lab for piece, g in zip(pieces, groups) if g == i for lab in piece] for i in range(len(pieces))]
    y = Partition([b for b in blocks if b], x.universe)
    assume(y != x)
    return x, y


@settings(max_examples=40)
@given(coarser_pairs())
def test_xi_members_strictly_coarser_and_incomparable(pair):
    x, y = pair
    assert is_coarser(x, y, ANY)
    if y.n_blocks == 1 and y.cover == x.cover:
        # y merges every block of x: the single-merge rule gives x itself and
        # its coarsenings with two or more blocks.
        assert xi_set(x, y) == {x} | {z for z in enumerate_coarsenings(x, ANY) if z.n_blocks >= 2}
        return
    for z in xi_set(x, y):
        assert is_coarser(x, z, ANY)
        assert not is_coarser(z, y, ANY)
        assert not is_coarser(y, z, ANY)
        assert z.n_blocks >= 2


# --- generated sets against the filtered lattice --------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_generators_match_filtered_lattice(n):
    """Every coarsening kind and every xi_set over n labels equals the oracle."""
    labels = "ABCDE"[:n]
    for x in _oracle_lattice(labels, labels):
        for kind in CoarseningKind:
            assert enumerate_coarsenings(x, kind) == _oracle_coarsenings(x, kind), (x, kind)
        coarser = _oracle_coarsenings(x, ANY)
        for y in coarser:
            assert xi_set(x, y) == _oracle_xi(x, y, coarser), (x, y)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_target_candidates_are_x_or_coarser(n):
    """Every xi_set candidate is x or coarser than x, so xi_set need only drop x itself."""
    labels = "ABCDE"[:n]
    for x in _oracle_lattice(labels, labels):
        allowed = _oracle_coarsenings(x, ANY) | {x}
        for y in allowed - {x}:
            assert _target_candidates(x, y) <= allowed, (x, y)


def _relation_filter(x, y, z):
    """A target test by the relations themselves: two blocks, strictly coarser than x
    (every candidate is x or coarser) and incomparable with y."""
    return (z.n_blocks >= 2 and z != y and z != x
            and not is_coarser(z, y, ANY) and not is_coarser(y, z, ANY))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_xi_set_keeps_the_candidates_the_relations_keep(n):
    """Outside the merged-tail rule, xi_set's shape filter keeps exactly the
    candidates that explicit relation tests keep."""
    labels = "ABCDE"[:n]
    for x in all_partitions_of_subsets(labels, labels):
        for y in enumerate_coarsenings(x, ANY):
            if _oracle_single_merge_group(x, y) is None:
                want = {z for z in _target_candidates(x, y) if _relation_filter(x, y, z)}
                assert xi_set(x, y) == want, (x, y)


@pytest.mark.parametrize("x,y", [("A|B|CD|E", "A|B"), ("A|B|C|D|E", "A|B|C"), ("A|B|C|D|E", "AB|CD"),
                                 ("A|B|C|D", "BC"), ("A|B|C|D", "A|BCD")])
def test_xi_set_tests_one_relation(monkeypatch, x, y):
    """The candidates' shapes fix their relations, so only the input pair is tested."""
    calls = []
    monkeypatch.setattr("entmono.partitions.is_coarser", lambda *args: calls.append(args) or is_coarser(*args))
    universe = "ABCDE"[:len(x.replace("|", ""))]
    xi_set(P(x, universe), P(y, universe))
    assert len(calls) == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_pairs_match_filtered_lattice_in_order(n):
    labels = tuple("ABCDEF"[:n])
    scope = "full" if n <= 3 else "cover"  # every x on up to three labels, else covers only
    for kind in (A_, B_):  # the discards and merges the checkers test
        got = [(x.blocks, y.blocks) for x, y in _index_pairs(labels, kind)]
        want = [(x.blocks, y.blocks) for x, y in _oracle_pairs(labels, kind, scope)]
        assert got == want, kind


@pytest.mark.parametrize("kind", [C_, ANY])
def test_pairs_reject_kinds_not_read_off_the_blocks(kind):
    with pytest.raises(ValueError, match=kind.value):
        _pair_index(tuple("ABC"), kind)


def _stirling2(n, k):
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)) // math.factorial(k)


def _bell(n):
    return sum(_stirling2(n, k) for k in range(n + 1))


def test_pair_counts_reach_the_eight_party_guard():
    """Discard pairs are S(n,k)(2^k - 2) and merge pairs S(n,k)(B_k - 1) over k blocks."""
    assert len(_pair_index(tuple("ABCDEF"), B_)[2]) == 2268
    labels = tuple("ABCDEFGH")
    for kind, per_k, count in ((A_, lambda k: 2 ** k - 2, 81638), (B_, lambda k: _bell(k) - 1, 163754)):
        start = time.perf_counter()
        points, _, xi, yi = _pair_index.__wrapped__(labels, kind)  # built anew, not read from the cache
        elapsed = time.perf_counter() - start
        assert len(xi) == len(yi) == sum(_stirling2(8, k) * per_k(k) for k in range(1, 9)) == count
        # Discards reach every partition of every nonempty subset (B_9 - 1 of them) but the one
        # block of all labels; merges every partition of the labels.
        assert len(points) == (_bell(9) - 2 if kind is A_ else _bell(8))
        assert elapsed < 15.0


#: Labels whose concatenations name no other label, so that every partition's text parses back.
LABEL_POOL = ("A", "B", "C", "D", "E", "F", "Q1", "Q2", "R10")


def _assert_canonical(p, universe):
    q = parse_partition(str(p), universe)
    assert (p, hash(p), p.cover) == (q, hash(q), q.cover), p


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(LABEL_POOL), min_size=2, max_size=6, unique=True),
       st.sampled_from([A_, B_]), st.data())
def test_lattice_points_are_canonical_and_shared(labels, kind, data):
    """Within one pair index equal partitions are one point, and every pair side,
    coarsening and target equals its parsed text, with an equal hash and cover."""
    universe = frozenset(labels)
    points = {}
    for p in itertools.chain.from_iterable(_index_pairs(tuple(labels), kind)):
        assert points.setdefault(p.blocks, p) is p
        _assert_canonical(p, universe)
    assert len(points) == len(_pair_index(tuple(labels), kind)[0])
    x = data.draw(st.sampled_from(sorted(points.values(), key=str)))
    for move in CoarseningKind:
        for z in enumerate_coarsenings(x, move):
            _assert_canonical(z, universe)
    coarser = sorted(enumerate_coarsenings(x, ANY), key=str)
    if coarser:
        for z in xi_set(x, data.draw(st.sampled_from(coarser))):
            _assert_canonical(z, universe)


@pytest.mark.parametrize("labels", ["ABCDEF", "ABCDEFG", "ABCDEFGH", ("A", "Q1", "B", "R10", "Q2", "C")])
def test_coarsenings_at_the_guard_are_canonical_as_generated(labels):
    """The finest partition's coarsenings are every partition of every nonempty subset but
    itself and the one block of all labels, B(n+1) - 2 of them, each canonical."""
    universe = frozenset(labels)
    coarser = enumerate_coarsenings(full_partition(labels))
    assert len(coarser) == _bell(len(labels) + 1) - 2
    for z in coarser:
        _assert_canonical(z, universe)


@pytest.mark.parametrize("y,size", [("A|B", 1059), ("AB|C", 353), ("AB|CD|EF", 47), ("A|B|C|D", 632),
                                    ("AB|C|D|E|F|G|H", 1)])
def test_xi_sets_at_the_guard_are_canonical_as_generated(y, size):
    """Targets on eight labels, x the finest partition, for discards only, discard plus merge,
    merges on a partial cover, and the single merge on the full cover."""
    labels = "ABCDEFGH"
    targets = xi_set(full_partition(labels), P(y, labels))
    assert len(targets) == size
    for z in targets:
        _assert_canonical(z, frozenset(labels))


def test_generators_build_no_validated_partition(monkeypatch):
    """Coarsenings under every move and the target candidates are built unvalidated: the
    generators construct their blocks canonical, so ``Partition.__init__`` never runs."""
    labels = "ABCDEF"
    xs = [full_partition(labels), P("AB|CDE|F", labels), P("ACE|BD", labels)]
    ys = [P(text, labels) for text in ("A|B", "AB|C", "AB|CD|EF", "ABCD", "ABCDEF")]
    built = []
    init = Partition.__init__
    monkeypatch.setattr(Partition, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    counts = [sum(len(enumerate_coarsenings(x, kind)) for x in xs) for kind in CoarseningKind]
    candidates = [len(_target_candidates(xs[0], y)) for y in ys]
    assert built == [] and all(counts) and all(candidates)
    P("A|B", labels)
    assert len(built) == 1  # the spy sees a validated construction


def test_partitions_pickle_and_copy_without_an_instance_dict():
    p = P("AB|C,D", "ABCDE")
    z = next(iter(enumerate_coarsenings(full_partition("ABC"), B_)))
    for q in (p, z):
        assert not hasattr(q, "__dict__")
        for r in (pickle.loads(pickle.dumps(q)), copy.deepcopy(q)):
            assert (r, hash(r), r.cover, r.universe) == (q, hash(q), q.cover, q.universe)
            assert not hasattr(r, "__dict__")


@pytest.mark.parametrize("labels", [("A", "B", "AB"), ("A", "B", "C", "AB", "BC", "ABC")])
def test_block_names_stay_apart_from_labels(labels):
    """Where a concatenation of one-character labels is itself a label, the block is printed
    and regrouped with separators: parse inverts format on every partition of every subset,
    and a regrouped state's labels are unique."""
    state = random_pure_state((2,) * len(labels), seed=0)
    state = PureState(labels, state.dims, state.amplitudes)
    for p in all_partitions_of_subsets(labels, labels):
        assert parse_partition(format_partition(p), labels) == p
        grouped = regroup(state, p).labels
        assert len(set(grouped)) == len(grouped), (format_partition(p), grouped)
    ab = Partition([["A", "B"]], labels)
    assert (format_partition(ab), regroup(state, ab).labels) == ("A,B", ("A+B",))
