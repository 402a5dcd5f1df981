import functools
import hashlib
import itertools
import random

import pytest

import orbitlat.cli as cli
import orbitlat.groups as groups
import orbitlat.witnesses as witnesses
from orbitlat.constructions import (
    build_group,
    centralizer_in_sym,
    cyclic_group,
    symmetric_group,
    wreath_imprimitive,
)
from orbitlat.coherence import find_witness_element
from orbitlat.groups import PermGroup, pi_set
from orbitlat.partitions import SetPartition, all_partitions
from orbitlat.perms import Permutation, _orbit_rgs
from orbitlat.verification import _join_oracle
from orbitlat.witnesses import (
    WreathConditions,
    build_centralizer_element,
    build_wreath_element,
    centralizer_partition_conditions,
    wreath_partition_conditions,
)


WREATH_PAIRS = [("sym:3", "sym:3"), ("cyclic:2", "sym:4"), ("sym:4", "cyclic:2")]


def _tilde(code, dx, dy):
    """The induced block code the wreath criterion reads for this code."""
    return witnesses._wreath_verdict(code, symmetric_group(dx), symmetric_group(dy))[3]


class TestBlockHelpers:
    def test_induced_aligned(self):
        part = SetPartition.from_blocks([[0, 1], [2, 3], [4, 5]], 6)
        assert _tilde(part.code(), 2, 3) == SetPartition(bytes(range(3))).code()

    def test_induced_crossing(self):
        part = SetPartition.from_blocks([[0, 3], [1, 2], [4, 5]], 6)
        assert _tilde(part.code(), 2, 3) == SetPartition.from_blocks([[0, 1], [2]], 3).code()

    def test_induced_single_block(self):
        assert _tilde(SetPartition(bytes(6)).code(), 3, 2) == SetPartition(bytes(2)).code()

    @pytest.mark.parametrize("degree,dx", [(8, 2), (8, 4), (9, 3)])
    def test_induced_matches_oracle_join(self, degree, dx):
        # Join with the block partition by the transitive-closure oracle,
        # then read the label of each block's first point.
        blocks = SetPartition.from_blocks(
            [range(y, y + dx) for y in range(0, degree, dx)], degree
        )
        g, h = symmetric_group(dx), symmetric_group(degree // dx)
        for part in all_partitions(degree):
            want = bytes(_join_oracle(part, blocks).rgs[::dx])
            assert witnesses._wreath_verdict(part.code(), g, h)[3] == want, str(part)

    def test_restricted(self):
        part = SetPartition.from_blocks([[0, 3], [1, 2], [4, 5]], 6)
        assert witnesses._restricted_code(part.code(), 0, 2) == SetPartition(bytes(range(2))).code()
        assert witnesses._restricted_code(part.code(), 1, 2) == SetPartition(bytes(range(2))).code()
        assert witnesses._restricted_code(part.code(), 2, 2) == SetPartition(bytes(2)).code()


def _cycle_types(n, most=None):
    """Every partition of the integer n into parts of at most `most`, as
    non-increasing tuples."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, most or n), 0, -1):
        for rest in _cycle_types(n - first, first):
            yield (first,) + rest


class TestCentralizerWitness:
    def test_hand_case_pair_partition(self):
        g = Permutation.from_cycles("(1 2)(3 4)", 4)
        part = SetPartition.from_blocks([[0, 2], [1, 3]], 4)
        h = build_centralizer_element(part, g)
        assert h.cycle_string() == "(1 3)(2 4)"

    def test_hand_case_single_block(self):
        g = Permutation.from_cycles("(1 2)(3 4)", 4)
        h = build_centralizer_element(SetPartition(bytes(4)), g)
        assert h.cycle_string() == "(1 3 2 4)"

    def test_criterion_matches_centralizer_pi_exhaustively(self):
        # every g in Sym(4), every partition of a 4-set
        for images in itertools.permutations(range(4)):
            g = Permutation(images)
            realized = {p.code() for p in pi_set(centralizer_in_sym(g)).partitions()}
            for part in all_partitions(4):
                feasible = centralizer_partition_conditions(part, g)
                assert feasible == (part.code() in realized)
                if feasible:
                    h = build_centralizer_element(part, g)
                    assert h * g == g * h
                    assert h.orbit_partition() == part
                else:
                    with pytest.raises(ValueError):
                        build_centralizer_element(part, g)

    def test_random_larger_degrees(self):
        rng = random.Random(20260823)
        for n in (6, 7, 8):
            for _ in range(20):
                images = list(range(n))
                rng.shuffle(images)
                g = Permutation(tuple(images))
                cent = centralizer_in_sym(g)
                codes = sorted(pi_set(cent).codes)
                part = SetPartition(tuple(rng.choice(codes)))
                assert centralizer_partition_conditions(part, g)
                h = build_centralizer_element(part, g)
                assert h * g == g * h and h.orbit_partition() == part

    @pytest.mark.parametrize("degree", range(1, 8))
    def test_criterion_matches_centralizer_group_pi(self, degree):
        # One g of each cycle type: the verdict on every partition equals
        # membership in pi of the centralizer built from its spec.
        for lengths in _cycle_types(degree):
            cycles, start = [], 1
            for length in lengths:
                cycles.append("(%s)" % " ".join(map(str, range(start, start + length))))
                start += length
            g = Permutation.from_cycles("".join(cycles), degree)
            realized = pi_set(build_group("cent:%s@%d" % ("".join(cycles), degree))).codes
            for part in all_partitions(degree):
                feasible = centralizer_partition_conditions(part, g)
                assert feasible == (part.code() in realized), (str(g), str(part))

    def test_infeasible_message(self):
        g = Permutation.from_cycles("(1 2 3)", 4)
        part = SetPartition.from_blocks([[0, 3], [1], [2]], 4)  # mixes lengths 3 and 1
        assert not centralizer_partition_conditions(part, g)
        with pytest.raises(ValueError, match="not realized"):
            build_centralizer_element(part, g)


class TestWreathWitness:
    @pytest.mark.parametrize("inner,outer", [("cyclic:2", "cyclic:2"), ("cyclic:2", "cyclic:3"), ("cyclic:3", "cyclic:2"), ("sym:2", "sym:2")])
    def test_criterion_matches_wreath_pi_exhaustively(self, inner, outer):
        g = build_group(inner)
        h = build_group(outer)
        wreath = wreath_imprimitive(g, h)
        realized = {p.code() for p in pi_set(wreath).partitions()}
        for part in all_partitions(wreath.degree):
            conditions = wreath_partition_conditions(part, g, h)
            assert conditions.overall == (part.code() in realized)
            if conditions.overall:
                k = build_wreath_element(part, g, h)
                assert k in wreath
                assert k.orbit_partition() == part
            else:
                # The builder names the first false condition, in c1, c2, c4 order.
                first = next(n for n in ("c1", "c2", "c4") if not getattr(conditions, n))
                with pytest.raises(ValueError, match="^wreath criterion fails at condition %s$" % first):
                    build_wreath_element(part, g, h)

    def test_overall_property(self):
        assert WreathConditions(True, True, True).overall
        assert not WreathConditions(True, False, True).overall

    def test_named_failing_condition(self):
        g = build_group("cyclic:2")
        h = build_group("cyclic:3")
        # blocks {0,1},{2,3},{4,5}; pairing 0 with 2 crosses blocks in a way
        # no outer 3-cycle image can produce, failing c1
        part = SetPartition.from_blocks([[0, 2], [1, 3], [4, 5]], 6)
        conditions = wreath_partition_conditions(part, g, h)
        assert not conditions.c1
        with pytest.raises(ValueError, match="condition c1"):
            build_wreath_element(part, g, h)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            wreath_partition_conditions(
                SetPartition(bytes(range(5))), build_group("cyclic:2"), build_group("cyclic:3")
            )

    def test_sym3_wreath_c2_round_trip(self):
        g = build_group("sym:3")
        h = build_group("cyclic:2")
        wreath = wreath_imprimitive(g, h)
        for part in pi_set(wreath).partitions():
            conditions = wreath_partition_conditions(part, g, h)
            assert conditions.overall
            k = build_wreath_element(part, g, h)
            assert k in wreath and k.orbit_partition() == part


# Wreath products whose every partition the prefix-state tests decide.
STATE_PAIRS = WREATH_PAIRS + [("dihedral:4", "cyclic:2"), ("cyclic:3", "sym:3")]


@functools.lru_cache(maxsize=None)
def _reference(inner, outer):
    """(g, h, codes, verdicts) for a wreath product: every code of its degree
    in lex order, with (c1, c2, c4, tilde) read without the criterion's code.
    tilde is the join with the block partition by the closure oracle; c1 and
    c2 are membership in pi(H) and pi(G); c4 searches G's whole element list
    for a translation between every two blocks of one induced part.  The
    overall verdict is also checked against membership in pi(W)."""
    g, h = build_group(inner), build_group(outer)
    dx, dy = g.degree, h.degree
    elements = list(g.element_images())
    g_codes, h_codes = pi_set(g).codes, pi_set(h).codes
    w_codes = pi_set(wreath_imprimitive(g, h)).codes
    blocks = SetPartition.from_blocks([range(y, y + dx) for y in range(0, dx * dy, dx)], dx * dy)
    codes, verdicts = [], []
    for part in all_partitions(dx * dy):
        code = part.code()
        tilde = bytes(_join_oracle(part, blocks).rgs[::dx])
        at = [code[y * dx : (y + 1) * dx] for y in range(dy)]
        c1 = tilde in h_codes
        c2 = all(SetPartition.from_blocks(_blocks_of(piece), dx).rgs in g_codes for piece in at)
        c4 = all(
            any(all(at[z][c[x]] == at[y][x] for x in range(dx)) for c in elements)
            for y, z in itertools.combinations(range(dy), 2)
            if tilde[y] == tilde[z]
        )
        assert (c1 and c2 and c4) == (code in w_codes), str(part)
        codes.append(code)
        verdicts.append((c1, c2, c4, tilde))
    return g, h, codes, verdicts


def _blocks_of(labels):
    out = {}
    for x, label in enumerate(labels):
        out.setdefault(label, []).append(x)
    return list(out.values())


class TestPrefixState:
    """The wreath decider keeps one prefix state per G record; whatever the
    order of the codes, its verdicts equal the reference."""

    @pytest.mark.parametrize("order", ["lex", "reversed", "shuffled"])
    @pytest.mark.parametrize("inner,outer", STATE_PAIRS)
    def test_verdicts_match_reference(self, inner, outer, order):
        g, h, codes, verdicts = _reference(inner, outer)
        cases = list(zip(codes, verdicts))
        if order == "reversed":
            cases.reverse()
        elif order == "shuffled":
            random.Random(20261021).shuffle(cases)
        witnesses._factor.cache_clear()
        for code, want in cases:
            assert witnesses._wreath_verdict(code, g, h) == want, code
            c = wreath_partition_conditions(SetPartition._trusted(code), g, h)
            assert (c.c1, c.c2, c.c4) == want[:3]

    @pytest.mark.parametrize(
        "first,second",
        [
            # Same G, two H of one degree: the state must be keyed by H.
            (("cyclic:2", "sym:3"), ("cyclic:2", "cyclic:3")),
            (("sym:3", "sym:3"), ("sym:3", "cyclic:3")),
            # Same H, two G of one degree.
            (("sym:3", "cyclic:2"), ("cyclic:3", "cyclic:2")),
        ],
    )
    def test_interleaved_pairs(self, first, second):
        # One G object (or H object) serves both pairs, and the codes of the
        # two pairs alternate.
        g1, h1 = build_group(first[0]), build_group(first[1])
        g2 = g1 if first[0] == second[0] else build_group(second[0])
        h2 = h1 if first[1] == second[1] else build_group(second[1])
        refs = []
        for g, h, (inner, outer) in ((g1, h1, first), (g2, h2, second)):
            _, _, codes, verdicts = _reference(inner, outer)
            refs.append((g, h, dict(zip(codes, verdicts))))
        witnesses._factor.cache_clear()
        for code in refs[0][2]:
            for g, h, want in refs:
                assert witnesses._wreath_verdict(code, g, h) == want[code], code

    def test_reports_are_shared(self):
        g, h = build_group("cyclic:2"), build_group("cyclic:2")
        parts = list(all_partitions(4))
        reports = {id(wreath_partition_conditions(p, g, h)) for p in parts}
        assert reports <= set(map(id, witnesses._REPORTS.values()))


class TestFactorCodes:
    """The wreath criterion reads each factor's pi-set from a small cache."""

    def test_each_factor_streamed_once(self, monkeypatch):
        witnesses._factor.cache_clear()
        streamed = []

        def counted(group, cap):
            streamed.append(group)
            return pi_set(group, cap=cap)

        monkeypatch.setattr(witnesses, "pi_set", counted)
        g, h = build_group("sym:3"), build_group("sym:3")
        for part in all_partitions(9):
            if wreath_partition_conditions(part, g, h).overall:
                build_wreath_element(part, g, h)
        assert sorted(map(id, streamed)) == sorted([id(g), id(h)])

    def test_cache_is_bounded(self):
        witnesses._factor.cache_clear()
        h = cyclic_group(2)
        for _ in range(20):
            g = cyclic_group(2)
            assert wreath_partition_conditions(SetPartition(bytes(range(4))), g, h).overall
        assert witnesses._factor.cache_info().currsize == 16

    def test_memos_are_bounded_with_their_records(self):
        # The first matches, c2 verdicts and realizing elements live in the
        # factor's record, so 20 factor groups leave 16 records, each with
        # the memos of its own factor only.  Blocks 1 and 2 of the partition
        # carry the labels 1,2 and 2,1, so the pair is kept by its canonical
        # code 0,1,1,0 and c2 by the raw slices.
        witnesses._factor.cache_clear()
        h = symmetric_group(3)
        part = SetPartition((0, 0, 1, 2, 2, 1))
        factors = [cyclic_group(2) for _ in range(20)]
        for g in factors:
            assert wreath_partition_conditions(part, g, h).overall
            assert build_wreath_element(part, g, h).orbit_partition() == part
        assert witnesses._factor.cache_info().currsize == 16
        record = witnesses._factor(factors[-1])
        # The builder also aligns block 0 with itself, and block 2 with
        # block 1 under the same key as block 1 with block 2.
        assert record.first_match == {
            bytes((0, 1, 1, 0)): Permutation((1, 0)),
            bytes((0, 0, 0, 0)): Permutation((0, 1)),
        }
        assert record.in_pi == {bytes((0, 0)): True, bytes((1, 2)): True, bytes((2, 1)): True}
        assert sorted(record.realizing) == [bytes((0, 0)), bytes((0, 1))]
        assert list(witnesses._factor(h).realizing) == [bytes((0, 1, 1))]
        # The prefix state sits in one slot of G's record, keyed by H and
        # the first two blocks.  Its last block 2,1 touches the part of
        # block 1 only, so the induced code is 0,1,1 and block 2 is aligned
        # with block 1.
        state = record.prefix
        assert state.h_group is h and state.prefix == bytes((0, 0, 1, 2))
        assert state.closed == {bytes((1, 1)): (True, bytes((0, 1, 1)), (1,))}
        assert witnesses._factor(h).prefix is None
        # Every code of degree 6 leaves one state per G record, not one per
        # prefix: the last prefix's.
        for part in all_partitions(6):
            wreath_partition_conditions(part, factors[-1], h)
        held = [v for v in vars(record).values() if isinstance(v, witnesses._Prefix)]
        held += [
            v
            for memo in vars(record).values()
            if isinstance(memo, dict)
            for v in memo.values()
            if isinstance(v, witnesses._Prefix)
        ]
        assert held == [record.prefix] and record.prefix.prefix == bytes((0, 1, 2, 3))

    def test_factor_order_above_the_default_cap(self, monkeypatch):
        # The witness paths stream a factor whatever its order: witness-wreath
        # has no --cap, so a factor above the default cap is still decided.
        monkeypatch.setattr(groups.pi_set, "__defaults__", (10, 1))
        witnesses._factor.cache_clear()
        g, h = symmetric_group(4), cyclic_group(2)
        part = SetPartition.from_blocks([[0, 1, 2, 3], [4, 5], [6], [7]], 8)
        assert wreath_partition_conditions(part, g, h).overall
        assert build_wreath_element(part, g, h).orbit_partition() == part


class TestPostconditions:
    def test_wrong_witness_raises_under_optimize(self, run_optimized):
        # The builders check their result explicitly, so a wrong element from
        # the search is caught even when asserts are stripped by `python -O`.
        script = (
            "import orbitlat.witnesses as witnesses\n"
            "from orbitlat.constructions import cyclic_group\n"
            "from orbitlat.errors import PostconditionError\n"
            "from orbitlat.partitions import SetPartition\n"
            "from orbitlat.perms import Permutation\n"
            "witnesses.find_witness_element = (\n"
            "    lambda group, partition: Permutation.identity(group.degree)\n"
            ")\n"
            "c2 = cyclic_group(2)\n"
            "try:\n"
            "    witnesses.build_wreath_element(SetPartition(bytes(4)), c2, c2)\n"
            "except PostconditionError as exc:\n"
            "    print(__debug__, exc)\n"
        )
        done = run_optimized(script)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False constructed element does not realize {1,2,3,4}\n"


class TestPrunedSearch:
    """The searches that skip elements by their base images find the first
    element of the unpruned stream that passes the same test."""

    @pytest.mark.parametrize(
        "spec", ["sym:5", "alt:5", "dihedral:8", "wr:(sym:2,sym:3)", "cent:(1 2)(3 4)(5 6)@6", None]
    )
    def test_witness_search(self, spec):
        group = PermGroup([], 4) if spec is None else build_group(spec)
        elements = list(map(Permutation, group.element_images()))
        for part in all_partitions(group.degree):
            want = part.code()
            expected = next((g for g in elements if _orbit_rgs(g.images) == want), None)
            assert find_witness_element(group, part) == expected

    @pytest.mark.parametrize("inner,outer", WREATH_PAIRS)
    def test_translation_search(self, inner, outer):
        g = build_group(inner)
        dx, dy = g.degree, build_group(outer).degree
        elements = list(map(Permutation, g.element_images()))
        witnesses._factor.cache_clear()
        for part in all_partitions(dx * dy):
            code = part.code()
            for y, z in itertools.permutations(range(dy), 2):
                at_y, at_z = code[y * dx : (y + 1) * dx], code[z * dx : (z + 1) * dx]
                expected = next(
                    (c for c in elements if all(at_z[c(x)] == at_y[x] for x in range(dx))), None
                )
                if sorted(at_y) != sorted(at_z):
                    assert expected is None
                # The second call reads the first match from the memo.
                for _ in range(2):
                    assert witnesses._translation(g, code, dx, y, z) == expected


def _centralizer_cases(rng, count):
    """Seeded (g, partition) pairs of degree 8-40: g has cycles of lengths
    1-6, and the partition is the cycle partition of a random element
    commuting with g (cycles of equal length permuted, each mapped on with a
    random rotation), so every case is feasible."""
    for _ in range(count):
        n = rng.randint(8, 40)
        points = list(range(n))
        rng.shuffle(points)
        cycles, pos = [], 0
        while pos < n:
            length = rng.randint(1, min(6, n - pos))
            cycles.append(points[pos : pos + length])
            pos += length
        g, h = [0] * n, [0] * n
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                g[a] = b
        for length in sorted({len(c) for c in cycles}):
            same = [c for c in cycles if len(c) == length]
            targets = same[:]
            rng.shuffle(targets)
            for src, dst in zip(same, targets):
                shift = rng.randrange(length)
                for k, pt in enumerate(src):
                    h[pt] = dst[(k + shift) % length]
        yield Permutation(tuple(g)), Permutation(tuple(h)).orbit_partition()


class TestPinnedWitnesses:
    """Witnesses are first matches in stream order, so a faster search must
    reproduce them byte for byte.  The digests were recorded from the search
    that streamed every element and from the criterion on SetPartition
    objects."""

    def test_wreath_witnesses_are_pinned(self):
        # sha256 over (c1, c2, c4) and the built element's images for every
        # partition of the three wreath products of the many-small workload.
        h = hashlib.sha256()
        for inner, outer in WREATH_PAIRS:
            g, k = build_group(inner), build_group(outer)
            for part in all_partitions(g.degree * k.degree):
                c = wreath_partition_conditions(part, g, k)
                h.update(bytes((c.c1, c.c2, c.c4)))
                if c.overall:
                    h.update(bytes(build_wreath_element(part, g, k).images))
                h.update(b";")
        assert h.hexdigest() == "44f720d8a2d606d40012aa98783aebee6332fa8f64294b39c436fd5637639ad7"

    def test_centralizer_witnesses_are_pinned(self):
        # sha256 over the built element's images for 500 seeded feasible
        # cases, recorded from the builder on SetPartition objects.
        h = hashlib.sha256()
        for g, part in _centralizer_cases(random.Random(20261019), 500):
            h.update(bytes(build_centralizer_element(part, g).images))
            h.update(b";")
        assert h.hexdigest() == "710cf6e4ba8c46307ec95d7ed11ec168ea6a6eeaa4fca7d463240accb51336ea"

    @pytest.mark.parametrize(
        "command,calls,digest",
        [
            (
                "witness-wreath",
                [
                    ("sym:3", "sym:3", "{1,2,3,4,5,6,7,8,9}"),
                    ("cyclic:2", "sym:4", "{1,3|2,4|5,6|7,8}"),
                    ("sym:4", "cyclic:2", "{1,2,5|3,6|4|7,8}"),
                    ("dihedral:4", "cyclic:3", "{1,5,9|2,6,10|3,7,11|4,8,12}"),
                    ("cyclic:2", "cyclic:3", "{1,3|2,4|5,6}"),
                ],
                "f0caea95a95533ab5507c560453cd6ff69748de18a13375d31698f11fdbd2b22",
            ),
            (
                "witness-cent",
                [
                    ("(1 2)(3 4)@4", "{1,3|2,4}"),
                    ("(1 2 3 4)(5 6 7 8)@8", "{1,5|2,6|3,7|4,8}"),
                    ("(1 2 3)(4 5 6)@7", "{1,2,3,4,5,6|7}"),
                    ("(1 2)(3 4)(5 6)@6", "{1,2,3,4|5,6}"),
                    ("(1 2 3)@4", "{1,2|3|4}"),
                ],
                "67fb6aa39314e2483e91e93c716f07e3f17ac3a835985fe44aec14d78e94eb0b",
            ),
        ],
        ids=["witness-wreath", "witness-cent"],
    )
    def test_cli_output_is_pinned(self, capsys, command, calls, digest):
        h = hashlib.sha256()
        for argv in calls:
            assert cli.main([command, *argv]) == 0
            h.update(capsys.readouterr().out.encode())
        assert h.hexdigest() == digest
