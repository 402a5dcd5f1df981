import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from orbitlat.errors import PartitionFormatError
from orbitlat.partitions import (
    SetPartition,
    _check_rgs,
    _coarsenings,
    _refinements,
    all_partitions,
    is_chain,
    partition_codes,
)
from orbitlat.perms import Permutation


# --- independent oracles -------------------------------------------------
#
# The join oracle merges blocks to a fixpoint; the meet oracle intersects
# blocks pairwise.  Neither shares code with the library implementations.

def join_oracle(P, Q):
    blocks = [set(b) for b in P.blocks()] + [set(b) for b in Q.blocks()]
    changed = True
    while changed:
        changed = False
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                if blocks[i] and blocks[j] and blocks[i] & blocks[j]:
                    blocks[i] |= blocks[j]
                    blocks[j] = set()
                    changed = True
    return SetPartition.from_blocks([b for b in blocks if b], P.degree)


def meet_oracle(P, Q):
    out = []
    for a in P.blocks():
        for b in Q.blocks():
            c = set(a) & set(b)
            if c:
                out.append(c)
    return SetPartition.from_blocks(out, P.degree)


def canonical(labels):
    """Relabel a tuple of labels by first use."""
    ids = {}
    return tuple(ids.setdefault(lab, len(ids)) for lab in labels)


def image(partition, g):
    """The partition whose blocks are the images of the blocks of
    `partition` under the permutation g, mapped point by point."""
    blocks = [[g(x) for x in block] for block in partition.blocks()]
    return SetPartition.from_blocks(blocks, partition.degree)


def random_partition(rng, degree):
    rgs, mx = [0], 0
    for _ in range(degree - 1):
        lab = rng.randint(0, mx + 1)
        rgs.append(lab)
        mx = max(mx, lab)
    return SetPartition(tuple(rgs))


@st.composite
def partitions_st(draw, max_degree=9, degree=None):
    n = degree or draw(st.integers(1, max_degree))
    rgs, mx = [0], 0
    for _ in range(n - 1):
        lab = draw(st.integers(0, mx + 1))
        rgs.append(lab)
        mx = max(mx, lab)
    return SetPartition(tuple(rgs))


def pair_st(max_degree=9):
    return partitions_st(max_degree).flatmap(
        lambda p: st.tuples(st.just(p), partitions_st(degree=p.degree))
    )


LABELS = st.one_of(
    st.integers(-2, 3),
    st.integers(250, 300),
    st.booleans(),
    st.sampled_from([0.0, 1.0, "0", None]),
)


class _AsIndex:
    """Not an int, though `bytes()` reads it as one through __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def _verdict(check, rgs):
    """None when `check` accepts rgs, else its ValueError message."""
    try:
        check(rgs)
    except ValueError as exc:
        return str(exc)
    return None


class TestCanonical:
    def test_from_blocks(self):
        p = SetPartition.from_blocks([[2, 3], [0], [1]], 4)
        assert p.rgs == bytes((0, 1, 2, 2))
        assert p.blocks() == [[0], [1], [2, 3]]

    def test_block_order_irrelevant(self):
        a = SetPartition.from_blocks([[0, 2], [1, 3]], 4)
        b = SetPartition.from_blocks([[3, 1], [2, 0]], 4)
        assert a == b

    def test_bad_blocks(self):
        with pytest.raises(ValueError):
            SetPartition.from_blocks([[0, 1], [1, 2]], 3)
        with pytest.raises(ValueError):
            SetPartition.from_blocks([[0, 1]], 3)
        with pytest.raises(ValueError):
            SetPartition.from_blocks([[0, 3]], 3)
        with pytest.raises(ValueError):
            SetPartition.from_blocks([[0], []], 1)

    def test_rgs_validation(self):
        with pytest.raises(ValueError):
            SetPartition((1, 0))
        with pytest.raises(ValueError):
            SetPartition((0, 2))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(0, 4), min_size=0, max_size=300).map(canonical),
        st.integers(0, 299),
        st.one_of(st.none(), LABELS),
        st.lists(LABELS, max_size=12).map(tuple),
        st.one_of(
            st.lists(st.integers(-2, 300), max_size=12).map(tuple),
            st.lists(st.integers(0, 255), max_size=300).map(bytes),
            st.lists(st.integers(0, 4), max_size=300).map(canonical).map(bytes),
        ),
    )
    def test_fast_path_matches_the_loop(self, valid, pos, label, arbitrary, ints):
        # The constructor's bytes fast path and the position loop accept and
        # reject the same tuples, with the same message: valid RGS of any
        # length, each with one label replaced, and short arbitrary tuples
        # of mixed types and of ints.
        mutated = valid
        if label is not None and valid:
            pos %= len(valid)
            mutated = valid[:pos] + (label,) + valid[pos + 1 :]
        for rgs in (valid, mutated, arbitrary, ints):
            assert _verdict(SetPartition, rgs) == _verdict(_check_rgs, rgs), rgs

    @settings(max_examples=400, deadline=None)
    @given(
        st.one_of(
            st.lists(LABELS, max_size=12).map(tuple),
            st.lists(st.integers(-1, 256), max_size=12).map(tuple),
            st.lists(st.booleans(), max_size=12).map(tuple),
            st.integers(250, 260).map(lambda n: tuple(i % 4 for i in range(n))),
            st.lists(st.integers(0, 255), max_size=12).map(bytes),
            st.lists(st.integers(0, 4), max_size=12).map(canonical).map(bytearray),
            st.lists(st.integers(0, 4), max_size=12).map(canonical).map(list),
        )
    )
    @example(())
    @example(b"")
    @example(tuple(range(255)))
    @example(tuple(range(256)))
    @example((0,) * 256)
    @example((False, True))
    @example((True,))
    @example((0, -1))
    @example((0, 256))
    @example((0, 1.0))
    @example(bytes((0, 2)))
    @example(bytearray((0, 1, 0)))
    @example([0, 1, 1])
    @example((0, _AsIndex(1)))
    def test_constructor_matches_the_loop(self, rgs):
        # Every input, whichever path it takes: bools, negative and large
        # ints, non-ints, empty, degree 256, bytearray and list input, and
        # bytes that are not an RGS.  An accepted one keeps its labels.
        verdict = _verdict(SetPartition, rgs)
        assert verdict == _verdict(_check_rgs, rgs), rgs
        if verdict is None:
            assert SetPartition(rgs).rgs == bytes(rgs)

    def test_text_roundtrip(self):
        p = SetPartition.from_blocks([[0, 1], [2], [3]], 4)
        assert str(p) == "{1,2|3|4}"
        assert SetPartition.from_string("{1,2|3|4}", 4) == p

    def test_text_errors(self):
        with pytest.raises(PartitionFormatError):
            SetPartition.from_string("1,2|3", 3)
        with pytest.raises(PartitionFormatError):
            SetPartition.from_string("{1,2||3}", 3)
        with pytest.raises(PartitionFormatError):
            SetPartition.from_string("{1,2}", 3)

    @pytest.mark.parametrize(
        "build",
        [
            lambda n: SetPartition(tuple(range(n))),
            lambda n: SetPartition((0,) * n),
            lambda n: SetPartition(bytes(n)),
            lambda n: SetPartition.from_blocks([[x] for x in range(n)], n),
            lambda n: next(all_partitions(n)),
        ],
        ids=["tuple", "zeros", "bytes", "from_blocks", "all_partitions"],
    )
    def test_degree_below_256(self, build):
        # A code holds one byte per point: degree 255 is built, and degree
        # 256 or more is refused when the partition is built.
        assert build(255).degree == 255
        for n in (256, 300):
            with pytest.raises(ValueError, match="codes need degree below 256, got %d" % n):
                build(n)

    def test_text_degree_below_256(self):
        def text(n):
            return "{%s}" % "|".join(str(x + 1) for x in range(n))

        assert SetPartition.from_string(text(255), 255).block_count == 255
        with pytest.raises(PartitionFormatError, match="below 256, got 256"):
            SetPartition.from_string(text(256), 256)


class TestLattice:
    def test_join_example(self):
        a = SetPartition.from_blocks([[0, 1], [2], [3]], 4)
        b = SetPartition.from_blocks([[1, 2], [0], [3]], 4)
        assert (a | b).blocks() == [[0, 1, 2], [3]]

    def test_meet_example(self):
        a = SetPartition.from_blocks([[0, 1, 2], [3]], 4)
        b = SetPartition.from_blocks([[0, 1], [2, 3]], 4)
        assert (a & b).blocks() == [[0, 1], [2], [3]]

    def test_against_oracles_random(self):
        rng = random.Random(20260823)
        for _ in range(400):
            n = rng.randint(1, 12)
            p, q = random_partition(rng, n), random_partition(rng, n)
            assert p | q == join_oracle(p, q)
            assert p & q == meet_oracle(p, q)

    @given(pair_st())
    @settings(max_examples=200)
    def test_join_meet_oracle_props(self, pq):
        p, q = pq
        assert p | q == join_oracle(p, q)
        assert p & q == meet_oracle(p, q)

    @given(pair_st())
    @settings(max_examples=100)
    def test_lattice_axioms(self, pq):
        p, q = pq
        assert p | q == q | p and p & q == q & p
        assert p | p == p and p & p == p
        assert (p & q).refines(p) and p.refines(p | q)
        # absorption
        assert p | (p & q) == p and p & (p | q) == p

    def test_distributive_inequalities_exhaustive_small(self):
        # The one-sided laws hold in any lattice.
        for n in (1, 2, 3, 4):
            parts = list(all_partitions(n))
            for p in parts:
                for q in parts:
                    for r in parts:
                        assert ((p & q) | (p & r)).refines(p & (q | r))
                        assert (p | (q & r)).refines((p | q) & (p | r))

    def test_partition_lattice_is_not_distributive(self):
        # The three pairings of {0,1,2} with top and bottom form an M3
        # diamond, the canonical non-distributive lattice, so the two-sided
        # distributive law cannot hold for degree >= 3.
        p = SetPartition.from_blocks([[0, 1], [2]], 3)
        q = SetPartition.from_blocks([[0, 2], [1]], 3)
        r = SetPartition.from_blocks([[1, 2], [0]], 3)
        assert p & (q | r) == p
        assert (p & q) | (p & r) == SetPartition(bytes(range(3)))

    def test_bounds(self):
        p = SetPartition.from_blocks([[0, 2], [1]], 3)
        assert SetPartition(bytes(range(3))).refines(p)
        assert p.refines(SetPartition(bytes(3)))

    def test_refines_iff_join_meet(self):
        for n in (2, 3, 4):
            parts = list(all_partitions(n))
            for p in parts:
                for q in parts:
                    r = p.refines(q)
                    assert r == (p | q == q)
                    assert r == (p & q == p)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            SetPartition(bytes(range(3))) | SetPartition(bytes(range(4)))


class TestApply:
    def test_blocks_move(self):
        p = SetPartition.from_blocks([[0, 1], [2, 3]], 4)
        g = Permutation.from_cycles("(1 3)", 4)
        assert image(p, g).blocks() == [[0, 3], [1, 2]]

    def test_join_commutes_with_apply(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(2, 8)
            p, q = random_partition(rng, n), random_partition(rng, n)
            images = list(range(n))
            rng.shuffle(images)
            g = Permutation(tuple(images))
            assert image(p | q, g) == image(p, g) | image(q, g)
            assert image(p & q, g) == image(p, g) & image(q, g)


class TestChains:
    def test_power_partitions_of_4_cycle(self):
        g = Permutation.from_cycles("(1 2 3 4)", 4)
        powers = [Permutation.identity(4)]
        for _ in range(3):
            powers.append(powers[-1] * g)
        parts = {p.orbit_partition() for p in powers}
        assert parts == {
            SetPartition(bytes(range(4))),
            SetPartition.from_blocks([[0, 2], [1, 3]], 4),
            SetPartition(bytes(4)),
        }
        assert is_chain(parts)

    def test_incomparable(self):
        a = SetPartition.from_blocks([[0, 1], [2], [3]], 4)
        b = SetPartition.from_blocks([[2, 3], [0], [1]], 4)
        assert not is_chain({a, b})

    def test_singleton_and_empty(self):
        assert is_chain([])
        assert is_chain([SetPartition(bytes(range(5)))])


class TestCoarseningMaps:
    """Behaviour of P -> P | B, the projection onto partitions above B."""

    def test_join_homomorphism_and_surjectivity(self):
        # The join half holds in any lattice; checked here by enumeration.
        for n in (2, 3, 4):
            parts = list(all_partitions(n))
            for b in parts:
                above = {p for p in parts if b.refines(p)}
                image = {p | b for p in parts}
                assert image == above
                for p in parts:
                    for q in parts:
                        assert (p | q) | b == (p | b) | (q | b)

    def test_up_and_down_sets_are_sublattices(self):
        for n in (3, 4):
            parts = list(all_partitions(n))
            for b in parts:
                up = [p for p in parts if b.refines(p)]
                dn = [p for p in parts if p.refines(b)]
                for fam in (up, dn):
                    for p in fam:
                        for q in fam:
                            assert (p | q) in fam or not set(fam)
                            assert (p & q) in fam

    def test_meet_half_fails_without_distributivity(self):
        # (P & Q) | B == (P | B) & (Q | B) would need a distributive
        # lattice; the M3 diamond inside degree 3 breaks it.
        b = SetPartition.from_blocks([[0, 1], [2]], 3)
        p = SetPartition.from_blocks([[0, 2], [1]], 3)
        q = SetPartition.from_blocks([[1, 2], [0]], 3)
        assert (p & q) | b == b
        assert (p | b) & (q | b) == SetPartition(bytes(3))


# Bell numbers B(0)..B(9): the partitions of 0..9 points.
BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147)


class TestEnumeration:
    def test_bell_counts(self):
        # Bell(n) distinct codes in lex order, the codes of the
        # restricted-growth enumeration they replaced, kept here as the
        # reference: step the last position that can still grow.
        def reference(degree):
            rgs, mx = [0] * degree, [0] * degree
            while True:
                yield bytes(rgs)
                i = degree - 1
                while i > 0 and rgs[i] == mx[i - 1] + 1:
                    i -= 1
                if i == 0:
                    return
                rgs[i] += 1
                mx[i] = max(mx[i - 1], rgs[i])
                for j in range(i + 1, degree):
                    rgs[j], mx[j] = 0, mx[i]

        for n, bell in enumerate(BELL[1:], 1):
            codes = list(partition_codes(n))
            assert len(set(codes)) == len(codes) == bell
            assert codes == sorted(codes) == list(reference(n))
            assert [p.code() for p in all_partitions(n)] == codes

    def test_degree_0_is_refused(self):
        for listing in (all_partitions, partition_codes):
            codes = listing(0)
            with pytest.raises(ValueError, match="degree must be at least 1"):
                next(codes)

    def test_intervals_match_the_refinement_order(self):
        # Above and below every code of degree <= 7, against `refines` over
        # every pair, with no code listed twice.
        for n in range(1, 8):
            parts = list(all_partitions(n))
            above = {p: set() for p in parts}
            below = {p: set() for p in parts}
            for p in parts:
                for q in parts:
                    if p.block_count >= q.block_count and p.refines(q):
                        above[p].add(q.code())
                        below[q].add(p.code())
            for p in parts:
                up = list(_coarsenings(p.code()))
                down = list(_refinements(p.code()))
                assert len(up) == BELL[p.block_count] and set(up) == above[p]
                sizes = [len(block) for block in p.blocks()]
                assert len(down) == math.prod(BELL[k] for k in sizes)
                assert set(down) == below[p]
