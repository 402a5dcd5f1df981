import hashlib
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import orbitlat.groups as groups
from orbitlat.arith import is_prime
from orbitlat.constructions import build_group, symmetric_group
from orbitlat.errors import CapExceeded
from orbitlat.groups import PermGroup, pi_set, subgroups
from orbitlat.partitions import SetPartition, _relabel
from orbitlat.perms import Permutation, _image_order, _invert_images, _orbit_rgs
from orbitlat.verification import _packaged_group


# --- brute-force oracle --------------------------------------------------
#
# Multiplicative closure by breadth-first search over image bytes, composed
# point by point; no stabilizer chain involved.

def brute_closure(gens, degree):
    els = {bytes(range(degree))}
    frontier = list(els)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = bytes(g.images[x] for x in a)
                if b not in els:
                    els.add(b)
                    nxt.append(b)
        frontier = nxt
    return els


def fixer_counts(group):
    """For each point, how many elements of the group fix it."""
    els = list(group.element_images())
    return [sum(im[pt] == pt for im in els) for pt in range(group.degree)]


@st.composite
def small_groups_st(draw):
    degree = draw(st.integers(1, 6))
    count = draw(st.integers(0, 2))
    gens = []
    for _ in range(count):
        images = draw(st.permutations(range(degree)))
        gens.append(Permutation(tuple(images)))
    return PermGroup(gens, degree)


class TestChain:
    @given(small_groups_st())
    @settings(max_examples=150, deadline=None)
    def test_order_and_stream_match_closure(self, group):
        closure = brute_closure(group.generators, group.degree)
        assert group.order == len(closure)
        streamed = list(group.element_images())
        assert len(streamed) == len(closure)
        assert set(streamed) == closure
        assert {type(images) for images in streamed} == {bytes}

    @given(small_groups_st())
    @settings(max_examples=100, deadline=None)
    def test_membership(self, group):
        closure = brute_closure(group.generators, group.degree)
        for images in itertools.permutations(range(group.degree)):
            assert (Permutation(images) in group) == (bytes(images) in closure)

    # sha256 over the concatenated image bytes of the stream (first `limit`
    # elements) of a packaged generator file or a spec, recorded from the
    # recursive transversal product this stream replaced.  Witness elements
    # are the first match in stream order, so these pin them too.
    STREAM_DIGESTS = [
        ("m11.gens", None, "eafc51936c6490a35fc5849378200c37c3a5ab0890a842fc5493d60b71f4d8a5"),
        ("psl2_11.gens", None, "0e711ca95d3c435a55d0c699b08000c02dbebdeb55038f4e88dcb8975065f36d"),
        ("lin:3,4,GL·Frob,lines", None, "fc353d426de04550d7b6fbfc64f595e488259e278ba2731ad111a2e574987246"),
        ("wr:(sym:3,sym:3)", None, "3aa12ff1000bdd9a97d78f1aafc7f3f0c88143b611fdd31dfc3f9f4dc4656b11"),
        ("m23.gens", 200_000, "48fcdba0765c4bff1dba0a81b2e1bee6b02a42a87da96441d93fa7533c2f66bd"),
    ]

    @pytest.mark.parametrize(
        "source,limit,digest", STREAM_DIGESTS, ids=[source for source, _, _ in STREAM_DIGESTS]
    )
    def test_stream_order_is_pinned(self, source, limit, digest):
        if source.endswith(".gens"):
            group = _packaged_group(source)
        else:
            group = build_group(source)
        h = hashlib.sha256()
        for images in itertools.islice(group.element_images(), limit):
            h.update(bytes(images))
        assert h.hexdigest() == digest

    # sha256 over each level's base point, strong generators and forward
    # transversal (point, representative) in sorted point order, recorded
    # from the chain that stored forward representatives.  Raw bytes, not
    # pickles: pickle output depends on object sharing, not only on values.
    CHAIN_DIGESTS = [
        ("sym:30", "cd9ad568d317d28d8b307712be6388be010874b62d4aba191b9ce645bc6f5741"),
        ("alt:30", "fdc8cad4b4192a49a8880d886b2b5f178f18b7f34aae0851b4ebd38b435961b9"),
        ("wr:(sym:8,sym:8)", "aa1ab9129503327bc2dc9070206b9a8e297085b8e26598ddfa3d1ebe84d21b7e"),
        (
            "cent:(1 2 3 4)(5 6 7 8)(9 10 11 12)(13 14 15 16)@40",
            "cc7e29dd3198f85e807c0c99b728eb50df80ea0f760d43fee665cdb6b533961e",
        ),
        ("m11.gens", "ce3423d5da79796892ebec7625d6a8da685c58f7387c39d2b77012a728295b5e"),
        ("lin:3,4,GL·Frob,lines", "66a26198d7909f6a6b5b7984f854ff5a8c03e632c525ac60fb0cd41003b93bef"),
        # Recorded from the chain whose Schreier pass re-sifted every pair.
        ("sym:40", "38691558fa485da22161084c6412c743ec803245fb025fef15e3eec1cd5addc9"),
        ("alt:9", "1d57e5ff2533cdff658fc71b1f107fab1f3e320087c24ff6ed2c0e952660a9a0"),
        ("wr:(sym:2,sym:4)", "756865db0744b4980ca80c69d1d98c83118f3e38885289cecff881c2ef5f3681"),
        ("dsum:(sym:3,alt:5)", "5d2e687674c8c46dad2ae1a134c304771293576bba86ccf78915425925bda9b2"),
        ("dprod:(sym:3,cyclic:4)", "cc6f475166108176669afbbdd4708290f7d03e8f93da1b219826683dd1fc8e76"),
    ]

    @staticmethod
    def hash_chain(h, chain):
        # The chain keeps generators and inverse representatives as 256-byte
        # tables padded with the identity; the digest reads their first
        # `degree` bytes, and checks the padding and the stored inverses.
        n, pad = chain.degree, bytes(range(chain.degree, 256))
        for pt, gens, reps, inverse in zip(chain.base, chain.gens, chain.reps, chain.inverse):
            h.update(bytes([pt]))
            for g, g_inv in gens:
                assert g[n:] == g_inv[n:] == pad
                assert bytes(_invert_images(g[:n])) == g_inv[:n]
                h.update(g[:n])
            assert sorted(reps) == sorted(inverse)
            for x in sorted(inverse):
                u = bytes(_invert_images(inverse[x][:n]))
                assert inverse[x][n:] == pad and reps[x] == u
                h.update(bytes([x]))
                h.update(u)

    @pytest.mark.parametrize(
        "source,digest", CHAIN_DIGESTS, ids=[source for source, _ in CHAIN_DIGESTS]
    )
    def test_chain_is_pinned(self, source, digest):
        if source.endswith(".gens"):
            group = _packaged_group(source)
        else:
            group = build_group(source)
        h = hashlib.sha256()
        self.hash_chain(h, group._chain)
        assert h.hexdigest() == digest

    @staticmethod
    def random_groups():
        # 300 seeded groups of degree 1-14, each generator shuffling a random
        # subset of the points.
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(1, 14)
            gens = []
            for _ in range(rng.randint(1, 4)):
                pts = rng.sample(range(n), rng.randint(min(2, n), n))
                images = list(range(n))
                for a, b in zip(pts, rng.sample(pts, len(pts))):
                    images[a] = b
                gens.append(Permutation(tuple(images)))
            yield PermGroup(gens, n)

    def test_random_chains_are_pinned(self):
        # One digest over the chains of random_groups(), same recipe and
        # same source as CHAIN_DIGESTS.  Generic inputs reach Schreier pass
        # orders that the named groups above do not.
        h = hashlib.sha256()
        for group in self.random_groups():
            self.hash_chain(h, group._chain)
        assert h.hexdigest() == "566e029c922c114878d717ee7f4895bdb2716fde408877a8cd776c1507100b5d"

    def test_schreier_generators_found_strong_are_members(self, monkeypatch):
        # A pass at level i does not sift a Schreier generator h found in the
        # chain's set of strong generators, their inverses and the identity.
        # Each such h must fix base[:i+1] and sift to the identity from level
        # i+1, both when it is skipped (deeper levels then hold, so a sift
        # would have returned the identity) and through the finished chain.
        passes, skipped = [], []

        class Recording(set):
            def __contains__(self, h):
                found = set.__contains__(self, h)
                if found:
                    chain, i = passes[-1]
                    assert chain.sift(h, i + 1) == chain.one
                    skipped.append((chain, i, h))
                return found

        init, schreier_pass = groups._Chain.__init__, groups._Chain._schreier_pass

        def recording_init(chain, degree):
            init(chain, degree)
            chain.strong = Recording(chain.strong)

        def recording_pass(chain, i):
            passes.append((chain, i))
            try:
                return schreier_pass(chain, i)
            finally:
                passes.pop()

        monkeypatch.setattr(groups._Chain, "__init__", recording_init)
        monkeypatch.setattr(groups._Chain, "_schreier_pass", recording_pass)
        # The wreath product's construction builds other chains too; each
        # skip is checked against the chain it was made in, once built.
        counts = []
        named = (build_group(spec) for spec in ("sym:40", "wr:(sym:8,sym:8)"))
        for group in itertools.chain(named, self.random_groups()):
            for chain, i, h in skipped:
                assert all(h[b] == b for b in chain.base[: i + 1])
                assert chain.sift(h, i + 1) == chain.one
            counts.append(sum(c is group._chain and h != c.one for c, _, h in skipped))
            skipped.clear()
        # Skips of a Schreier generator other than the identity, in the
        # chain of each group: sym:40 sifted 42,491 before this rule.
        assert counts[:2] == [25_673, 27_867]
        assert sum(counts[2:]) > 0

    def test_schreier_pass_skips_proved_generators(self, monkeypatch):
        # Every sift with start > 0 comes from a Schreier generator.  A pass
        # that re-sifted every pair after each new strong generator made
        # 90,536 of them for sym:30; sifting every Schreier generator that
        # is not the identity made 17,736 for sym:30 and 30,692 for
        # wr:(sym:8,sym:8).
        sift = groups._Chain.sift
        calls = Counter()

        def counting_sift(chain, g, start=0):
            calls[start > 0] += 1
            return sift(chain, g, start)

        monkeypatch.setattr(groups._Chain, "sift", counting_sift)
        assert symmetric_group(30).order == 265252859812191058636308480000000
        assert calls[True] == 6_643
        calls.clear()
        assert build_group("wr:(sym:8,sym:8)").order == 40320**9
        assert calls[True] == 2_551

    def test_chain_inverts_each_strong_generator_once(self, monkeypatch):
        # Sift steps, Schreier generators and representatives compose stored
        # tables; only a new strong generator is inverted.  Inverting every
        # generator and representative again at each pass took 27,170
        # inversions for sym:40.  The sifts are counted exactly, so a change
        # to which Schreier generators are sifted shows here: every one that
        # is not the identity made 42,493 sifts, skipping the strong
        # generators and their inverses makes 16,820.
        invert, sift = groups._invert_images, groups._Chain.sift
        calls = Counter()

        def counting_invert(p):
            calls["invert"] += 1
            return invert(p)

        def counting_sift(chain, g, start=0):
            calls["sift"] += 1
            return sift(chain, g, start)

        monkeypatch.setattr(groups, "_invert_images", counting_invert)
        monkeypatch.setattr(groups._Chain, "sift", counting_sift)
        chain = build_group("sym:40")._chain
        strong = sum(map(len, chain.gens))
        assert strong == 74
        assert calls["invert"] <= strong
        assert calls["sift"] == 16_820

    def test_coset_prefix_and_rest_make_the_stream(self):
        # sym:5 has only level 0 ahead of the precomputed tail; the linear
        # group's head spans two levels.
        for group in (symmetric_group(5), build_group("lin:3,4,SL·Frob,lines")):
            chain = group._chain
            whole = list(chain.element_images())
            orbit = sorted(chain.inverse[0])
            beta = chain.base[0]
            for cut in range(len(orbit) + 1):
                rest = orbit[cut:]
                random.Random(cut).shuffle(rest)
                parts = list(chain.element_images({beta: orbit[:cut]}))
                parts += chain.element_images({beta: rest})
                assert parts == whole

    @given(
        st.one_of(st.builds(PermGroup, st.just([]), st.integers(1, 6)), small_groups_st()),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_allowed_images_filter_the_stream(self, group, data):
        # The pruned walk gives the elements of the whole stream, in order,
        # that map every named base point into its set.  With base[0] alone
        # named the deeper levels form the tail; with every point named
        # there is no tail.
        chain = group._chain
        n = group.degree
        whole = list(chain.element_images())
        images = st.sets(st.integers(0, n - 1))
        empty_at = data.draw(st.integers(0, n - 1))
        for allowed in (
            {b: data.draw(images) for b in chain.base[:1]},
            {x: data.draw(images) for x in range(n)},
            {**dict.fromkeys(range(n), range(n)), empty_at: set()},
        ):
            named = [b for b in chain.base if b in allowed]
            expected = [im for im in whole if all(im[b] in allowed[b] for b in named)]
            assert list(chain.element_images(allowed)) == expected

    @given(small_groups_st(), st.integers(0, 5), st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_first_element_is_first_match_of_the_stream(self, group, pt, order):
        # With every image allowed, the depth-first search visits the whole
        # stream in order, so it finds the stream's first match or nothing.
        # Allowed images that every match gives prune only non-matches, so
        # the search finds the same element.
        n = group.degree
        q = min(pt, n - 1)
        images = list(group.element_images())
        every = dict.fromkeys(range(n), range(n))
        # Each point's images over the whole group: its orbit.
        orbit_of = {x: {im[x] for im in images} for x in range(n)}
        to_pt = {**every, q: {pt}}
        for test, consistent in (
            (lambda im: _image_order(im) == order, orbit_of),
            (lambda im: im[q] == pt, to_pt),
            (lambda im: False, dict.fromkeys(range(n), ())),
        ):
            expected = next((Permutation(im) for im in images if test(im)), None)
            assert group.first_element(test, every) == expected
            assert group.first_element(test, consistent) == expected

    def test_generator_degree_checked(self):
        with pytest.raises(ValueError):
            PermGroup([Permutation.identity(3), Permutation.identity(4)])
        with pytest.raises(ValueError):
            PermGroup([], degree=None)

    def test_degree_255_is_the_largest(self):
        n = 255
        cycle = Permutation(tuple(range(1, n)) + (0,))
        cyclic = PermGroup([cycle])
        assert cyclic.order == n
        assert cycle * cycle in cyclic and cycle.inverse() in cyclic
        # (1 2)(3 4)...(253 254), 255 fixed.
        swaps = Permutation(tuple(i ^ 1 for i in range(n - 1)) + (n - 1,))
        involution = PermGroup([swaps])
        assert involution.order == 2
        assert swaps in involution and cycle not in involution
        assert swaps not in cyclic
        assert Permutation.from_cycles("(1 2)", n) not in involution

    def test_degree_256_is_refused_before_any_chain_work(self, monkeypatch):
        def chain(degree):
            pytest.fail("a stabilizer chain was started")

        monkeypatch.setattr(groups, "_Chain", chain)
        # A generator of degree 256 is refused when it is built.
        with pytest.raises(ValueError, match="permutations need degree below 256, got 256"):
            PermGroup([Permutation(tuple(range(1, 256)) + (0,))])
        with pytest.raises(ValueError, match="permutation groups need degree below 256, got 256"):
            PermGroup([], 256)

    def test_degree_below_1_is_refused_before_any_chain_work(self, monkeypatch):
        def chain(degree):
            pytest.fail("a stabilizer chain was started")

        monkeypatch.setattr(groups, "_Chain", chain)
        for degree in (0, -3):
            with pytest.raises(ValueError, match="degree must be at least 1"):
                PermGroup([], degree)


def bfs_orbits(group):
    """Orbits under the input generators by breadth-first search from each
    unreached point in order, each sorted; no stabilizer chain involved."""
    reached = set()
    out = []
    for start in range(group.degree):
        if start in reached:
            continue
        orbit = [start]
        reached.add(start)
        for x in orbit:
            for g in group.generators:
                if g(x) not in reached:
                    reached.add(g(x))
                    orbit.append(g(x))
        out.append(sorted(orbit))
    return out


# One spec per family of the spec grammar (the packaged generator files
# stand for `file:`).
FAMILY_SPECS = (
    "sym:5",
    "alt:6",
    "cyclic:12",
    "dihedral:7",
    "dsum:(cyclic:3,sym:4)",
    "dprod:(sym:3,cyclic:4)",
    "wr:(cyclic:3,sym:3)",
    "cent:(1 2 3)(4 5 6)(7 8)@10",
    "frob:7,3",
    "gamma:3,2",
    "lin:2,3,GL,points",
)


class TestActions:
    def test_orbits_match_a_breadth_first_search_of_the_generators(self):
        named = [build_group(spec) for spec in FAMILY_SPECS]
        named += [_packaged_group("m11.gens")]
        for group in itertools.chain(named, TestChain.random_groups()):
            assert group.orbits() == bfs_orbits(group)

    def test_orbits_and_transitivity(self):
        g = PermGroup([Permutation.from_cycles("(1 2)(4 5 6)", 6)], 6)
        assert g.orbits() == [[0, 1], [2], [3, 4, 5]]
        assert str(g.orbit_partition()) == "{1,2|3|4,5,6}"
        assert not g.is_transitive()
        assert symmetric_group(4).is_transitive()

    def test_semiregular(self):
        # Semiregular: no element but the identity fixes a point.
        c4 = PermGroup([Permutation.from_cycles("(1 2 3 4)", 4)], 4)
        assert fixer_counts(c4) == [1] * 4
        assert fixer_counts(symmetric_group(3)) == [2] * 3

    def test_point_stabilizer(self):
        assert fixer_counts(symmetric_group(4)) == [6] * 4

    @given(small_groups_st())
    @settings(max_examples=75, deadline=None)
    def test_orbit_stabilizer_theorem(self, group):
        # Orbits from the generators, stabilizers counted over the stream,
        # the order from the chain: three independent routes.
        counts = fixer_counts(group)
        for orbit in group.orbits():
            assert all(counts[pt] * len(orbit) == group.order for pt in orbit)


class TestPiSet:
    def test_codes_match_elementwise_partitions(self):
        group = symmetric_group(4)
        pi = pi_set(group)
        expected = {p.orbit_partition().code() for p in map(Permutation, group.element_images())}
        assert pi.codes == expected
        assert pi.source_order == 24
        assert len(pi) == 15

    def test_partitions_sorted_and_membership(self):
        pi = pi_set(symmetric_group(3))
        listed = list(pi.partitions())
        assert listed == sorted(listed, key=lambda p: p.code())
        assert SetPartition(bytes(3)).code() in pi.codes
        assert SetPartition(bytes(range(3))).code() in pi.codes

    def test_cap(self):
        with pytest.raises(CapExceeded) as exc:
            pi_set(symmetric_group(6), cap=100)
        assert exc.value.required == 720

    def test_workers_do_not_change_result(self):
        group = symmetric_group(5)
        assert pi_set(group, workers=3).codes == pi_set(group).codes

    @staticmethod
    def oracle(group):
        return {_orbit_rgs(im) for im in group.element_images()}

    @given(small_groups_st())
    @settings(max_examples=150, deadline=None)
    def test_matches_whole_stream_on_random_groups(self, group):
        assert pi_set(group).codes == self.oracle(group)

    def test_matches_whole_stream(self):
        # dsum:(cyclic:4,sym:3) has base[0] in the cyclic part, whose
        # stabilizer fixes every point of its orbit, so it takes the whole
        # stream; the other groups stream a few cosets and relabel their
        # codes onto the rest.
        named = [
            build_group(spec)
            for spec in (
                "sym:1",
                "sym:2",
                "cyclic:12",
                "dsum:(cyclic:4,sym:3)",
                "wr:(sym:3,sym:3)",
                "lin:3,4,SL·Frob,lines",
                "lin:3,4,GL·Frob,lines",
            )
        ]
        named += [_packaged_group("m11.gens"), _packaged_group("psl2_11.gens")]
        for group in named + subgroups(symmetric_group(5)):
            assert pi_set(group).codes == self.oracle(group)

    def test_streams_only_cosets_of_orbit_representatives(self, monkeypatch):
        # alt:9 is 2-transitive: the stabilizer of base[0] has two orbits,
        # base[0] itself and the other 8 points, so 2 of the 9 level-0
        # cosets (20,160 elements each) are coded; the whole group is 181,440.
        calls = Counter()

        def counting(images):
            calls["codes"] += 1
            return _orbit_rgs(images)

        monkeypatch.setattr(groups, "_orbit_rgs", counting)
        assert len(pi_set(build_group("alt:9"))) == 10440
        assert calls["codes"] <= 40_320

    def test_relabels_about_once_per_code(self, monkeypatch):
        # lin:3,4,GL·Frob,lines has 5 generators; closing the streamed codes
        # under them relabelled each of its 28,815 codes 5 times.
        calls = Counter()

        def counting(code, table):
            calls["relabels"] += 1
            return _relabel(code, table)

        monkeypatch.setattr(groups, "_relabel", counting)
        pi = pi_set(build_group("lin:3,4,GL·Frob,lines"))
        assert len(pi) == 28815
        assert 0 < calls["relabels"] <= 1.25 * len(pi)

    @pytest.mark.parametrize("source", ["sym:5", "wr:(sym:2,sym:3)", "psl2_11.gens", "m11.gens"])
    def test_realizing_images_of_base_point(self, source):
        # R(Q) = {β^g : pi(g) = Q}, by brute force over the whole stream.
        # If β lies in a block B of Q of prime size, R(Q) = B - {β}; and
        # β^(g^-1) is in R(pi(g)) for every g.
        if source.endswith(".gens"):
            group = _packaged_group(source)
        else:
            group = build_group(source)
        beta = group.base[0]
        elements = list(group.element_images())
        realized = {}
        for im in elements:
            realized.setdefault(_orbit_rgs(im), set()).add(im[beta])
        prime_blocks = 0
        for code, points in realized.items():
            block = {x for x, label in enumerate(code) if label == code[beta]}
            if is_prime(len(block)):
                prime_blocks += 1
                assert points == block - {beta}
        assert prime_blocks > 0
        for im in elements:
            assert im.index(beta) in realized[_orbit_rgs(im)]


class TestSubgroups:
    def test_sym3(self):
        subs = subgroups(symmetric_group(3))
        assert [s.order for s in subs] == [1, 2, 2, 2, 3, 6]

    def test_sym4_histogram(self):
        subs = subgroups(symmetric_group(4))
        histogram = Counter(s.order for s in subs)
        assert histogram == {1: 1, 2: 9, 3: 4, 4: 7, 6: 4, 8: 3, 12: 1, 24: 1}
        assert len(subs) == 30

    def test_element_sets_distinct_and_closed(self):
        subs = subgroups(symmetric_group(4))
        seen = set()
        for sub in subs:
            els = frozenset(sub.element_images())
            assert els not in seen
            seen.add(els)
            assert 24 % sub.order == 0

    def test_deterministic_order(self):
        a = [tuple(sorted(s.element_images())) for s in subgroups(symmetric_group(4))]
        b = [tuple(sorted(s.element_images())) for s in subgroups(symmetric_group(4))]
        assert a == b

    def test_enumeration_cap(self):
        with pytest.raises(CapExceeded) as exc:
            subgroups(symmetric_group(8))
        assert exc.value.required == 40_320

    def test_subgroups_are_pinned(self):
        # sha256 over each subgroup's order and generator images, in list
        # order, for sym:1..5 and for the subgroups of sym:5 of order at
        # most 12; recorded from the enumerator that closed every candidate
        # element by element.
        h = hashlib.sha256()
        lists = [subgroups(symmetric_group(n)) for n in range(1, 6)]
        lists.append([s for s in lists[-1] if s.order <= 12])
        for subs in lists:
            for sub in subs:
                h.update(b"%d:" % sub.order)
                for g in sub.generators:
                    h.update(bytes(g.images) + b";")
                h.update(b"\n")
        assert h.hexdigest() == "6a2de7a01641f9cc2f2a6290b2581288360d5f5fbe2ff150c31b9fdf4d65de51"

    def test_sym5_published_counts(self):
        # S_5 has 156 subgroups (OEIS A005432) in 19 conjugacy classes
        # (OEIS A000638); the classes are found by conjugating each element
        # set with all 120 elements and keeping the least conjugate.
        group = symmetric_group(5)
        subs = subgroups(group)
        sets = {frozenset(s.element_images()) for s in subs}
        assert len(subs) == len(sets) == 156
        inverses = {g: _invert_images(g) for g in group.element_images()}
        classes = {
            min(
                tuple(sorted(tuple(g[a[j]] for j in g_inv) for a in els))
                for g, g_inv in inverses.items()
            )
            for els in sets
        }
        assert len(classes) == 19

    def test_insoluble_subgroup_found(self):
        # A_5 inside S_5: reachable only if the search is not limited to
        # soluble extensions.
        subs = subgroups(symmetric_group(5))
        assert [s.order for s in subs].count(60) == 1
