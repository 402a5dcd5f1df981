import itertools

import pytest
from hypothesis import given, settings, strategies as st

from orbitlat.errors import CycleNotationError
from orbitlat.partitions import SetPartition
from orbitlat.perms import Permutation


def perm(text, n):
    return Permutation.from_cycles(text, n)


def image(partition, g):
    """The partition whose blocks are the images of the blocks of
    `partition` under the permutation g, mapped point by point."""
    blocks = [[g(x) for x in block] for block in partition.blocks()]
    return SetPartition.from_blocks(blocks, partition.degree)


@st.composite
def permutations(draw, max_degree=10):
    n = draw(st.integers(1, max_degree))
    images = list(range(n))
    # Fisher-Yates driven by drawn indices keeps shrinking sane
    for i in range(n - 1, 0, -1):
        j = draw(st.integers(0, i))
        images[i], images[j] = images[j], images[i]
    return Permutation(tuple(images))


class TestParsing:
    def test_basic(self):
        p = perm("(1 2 3)", 3)
        assert p.images == bytes((1, 2, 0))

    def test_two_cycles(self):
        p = perm("(1 7)(4 10)", 12)
        assert p.images[0] == 6 and p.images[6] == 0
        assert p.images[3] == 9 and p.images[9] == 3
        assert p.order() == 2

    def test_commas(self):
        assert perm("(1,2,3)(4,5)", 5) == perm("(1 2 3)(4 5)", 5)

    def test_identity_forms(self):
        assert perm("", 4).is_identity()
        assert perm("()", 4).is_identity()

    def test_singleton_cycle(self):
        assert perm("(3)", 4).is_identity()

    def test_out_of_range(self):
        with pytest.raises(CycleNotationError):
            perm("(1 5)", 4)
        with pytest.raises(CycleNotationError):
            perm("(0 1)", 4)

    def test_repeated_point(self):
        with pytest.raises(CycleNotationError):
            perm("(1 2)(2 3)", 4)

    def test_malformed(self):
        with pytest.raises(CycleNotationError):
            perm("(1 2", 4)
        with pytest.raises(CycleNotationError):
            perm("1 2)", 4)
        with pytest.raises(CycleNotationError):
            perm("(1 2) junk", 4)
        with pytest.raises(CycleNotationError):
            perm("(1 x)", 4)

    def test_degree_is_checked_before_parsing(self):
        # A degree of 256 or more is refused before the text is read or the
        # images allocated, so malformed text gets the degree message too.
        message = "permutations need degree below 256, got %d"
        for n in (256, 3_000_000):
            for text in ("(1 2)", "(1 2", "(1 x)", "(1 %d)" % (n + 1), "(1 2)(2 3)"):
                with pytest.raises(ValueError, match=message % n) as caught:
                    perm(text, n)
                assert type(caught.value) is ValueError
        assert perm("(1 255)", 255).images[254] == 0


class TestCompose:
    def test_pointwise(self):
        # right action: i -> q(p(i)); derived by chasing each point
        p, q = perm("(1 2 3)", 3), perm("(1 2)", 3)
        r = p * q
        assert [r(i) for i in range(3)] == [q(p(i)) for i in range(3)]
        assert r == perm("(2 3)", 3)

    def test_inverse(self):
        p = perm("(1 2 3)(4 5)", 6)
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            perm("(1 2)", 3) * perm("(1 2)", 4)

    @pytest.mark.parametrize("degree", range(1, 6))
    def test_product_and_inverse_exhaustive(self, degree):
        # Against the pointwise definitions, degree 1 included.
        perms = list(itertools.permutations(range(degree)))
        for p in perms:
            inverse = [0] * degree
            for i, j in enumerate(p):
                inverse[j] = i
            assert list(Permutation(p).inverse().images) == inverse
            for q in perms:
                assert list((Permutation(p) * Permutation(q)).images) == [q[i] for i in p]

    @given(permutations(), permutations())
    def test_associative_when_same_degree(self, p, q):
        if p.degree == q.degree:
            r = perm("(1 2)", p.degree) if p.degree >= 2 else Permutation.identity(1)
            assert (p * q) * r == p * (q * r)


class TestConstruction:
    def test_any_int_sequence_gives_bytes_images(self):
        forms = [(2, 0, 1), [2, 0, 1], bytes((2, 0, 1)), bytearray((2, 0, 1))]
        built = [Permutation(images) for images in forms]
        for p in built:
            assert type(p.images) is bytes and p.images == bytes((2, 0, 1))
            assert p == built[0] and hash(p) == hash(built[0])

    def test_non_int_images_are_refused(self):
        # Refused when built, so str() and PermGroup never meet them.
        for images in [(1.0, 0.0), (1, 0.0), ("b", "a"), "ba", (1, None)]:
            with pytest.raises(ValueError, match="images must be ints"):
                Permutation(images)

    def test_non_bijections_are_refused(self):
        for images in [(0, 0), (1, 2), (-1, 0), (0, 256), (0, 1, 1)]:
            with pytest.raises(ValueError, match="not a bijection"):
                Permutation(images)

    def test_degree_0_is_refused(self):
        for images in [(), b"", []]:
            with pytest.raises(ValueError, match="degree must be at least 1"):
                Permutation(images)


class TestCycles:
    def test_decomposition_sorted_with_fixed_points(self):
        p = perm("(2 4)(3 6 5)", 7)
        assert p.cycles() == [(0,), (1, 3), (2, 5, 4), (6,)]
        assert p.order() == 6

    def test_twelve_cycle(self):
        p = perm("(1 2 3 4 5 6 7 8 9 10 11 12)", 12)
        assert p.order() == 12
        assert len(p.cycles()) == 1

    def test_cycle_string_roundtrip(self):
        p = perm("(1 7)(4 10)", 12)
        assert Permutation.from_cycles(p.cycle_string(), 12) == p
        assert Permutation.identity(5).cycle_string() == "()"

    @given(permutations())
    def test_roundtrip_any(self, p):
        assert Permutation.from_cycles(p.cycle_string(), p.degree) == p

    @given(permutations())
    @settings(max_examples=50)
    def test_order_by_iteration(self, p):
        k, q = 1, p
        while not q.is_identity():
            q = q * p
            k += 1
        assert k == p.order()


class TestOrbitPartition:
    def test_cycles_become_blocks(self):
        p = perm("(1 2)(3 4 5)", 6)
        assert p.orbit_partition().blocks() == [[0, 1], [2, 3, 4], [5]]

    def test_identity_is_discrete(self):
        assert Permutation.identity(4).orbit_partition().block_count == 4

    def test_degree_below_256(self):
        # The identity and a full cycle are coded alike at degree 255.  From
        # degree 256 neither is built, so no permutation is too large to code.
        for n in (255, 256, 300):
            cycle = tuple(range(1, n)) + (0,)
            if n == 255:
                for p in (Permutation.identity(n), Permutation(cycle)):
                    assert p.orbit_partition().degree == 255
            else:
                message = "permutations need degree below 256, got %d" % n
                for build in (Permutation.identity, lambda n: Permutation(cycle)):
                    with pytest.raises(ValueError, match=message):
                        build(n)

    @given(permutations())
    def test_inverse_same_partition(self, p):
        assert p.orbit_partition() == p.inverse().orbit_partition()


class TestConjugation:
    def test_example(self):
        h = perm("(2 3)", 3)
        assert h.inverse() * perm("(1 2)", 3) * h == perm("(1 3)", 3)

    @given(permutations(), permutations())
    @settings(max_examples=50)
    def test_partition_transport(self, p, h):
        if p.degree == h.degree:
            assert (h.inverse() * p * h).orbit_partition() == image(p.orbit_partition(), h)

    @given(permutations(), permutations())
    @settings(max_examples=50)
    def test_order_invariant(self, p, h):
        if p.degree == h.degree:
            assert (h.inverse() * p * h).order() == p.order()
