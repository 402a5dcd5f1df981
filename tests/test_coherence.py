import functools
import itertools
import json
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import orbitlat.coherence as coherence
from orbitlat.coherence import (
    ChainClassification,
    analyze,
    census,
    classify_chain,
    find_witness_element,
    verify_normal_cyclic_classification,
)
from orbitlat.constructions import build_group, cyclic_group, symmetric_group
from orbitlat.errors import CapExceeded
from orbitlat.groups import PermGroup, _close_codes, pi_set, subgroups
from orbitlat.partitions import SetPartition, is_chain, join_codes, meet_codes
from orbitlat.perms import Permutation, _orbit_rgs
from orbitlat.verification import _join_oracle, _meet_oracle, _packaged_group


# The groups of the benchmark's scan workload.
SCAN_SPECS = (
    "sym:7",
    "wr:(sym:3,sym:3)",
    "wr:(sym:2,sym:4)",
    "cent:(1 2)(3 4)(5 6)(7 8)@8",
    "sym:6",
)


@functools.cache
def census_6():
    """The records of census(6), summary last; shared by the slow tests."""
    return list(census(6))


def brute_pi(group):
    return {p.orbit_partition() for p in map(Permutation, group.element_images())}


def brute_closed(parts, op):
    return all(op(a, b) in parts for a in parts for b in parts)


def brute_first_failure(parts, op):
    ordered = sorted(parts, key=lambda p: p.code())
    for a, b in itertools.combinations_with_replacement(ordered, 2):
        if op(a, b) not in parts:
            return (a, b)
    return None


def labels_st(n):
    # A block count first, so that coarse partitions are drawn as often as
    # fine ones.
    return st.integers(1, n).flatmap(
        lambda k: st.lists(st.integers(0, k - 1), min_size=n, max_size=n)
    )


label_pairs_st = st.integers(1, 64).flatmap(lambda n: st.tuples(labels_st(n), labels_st(n)))


def to_partition(labels):
    canon, nxt = {}, 0
    out = []
    for x in labels:
        if x not in canon:
            canon[x] = nxt
            nxt += 1
        out.append(canon[x])
    return SetPartition(tuple(out))


class TestAnalyze:
    def test_symmetric_group_fully_coherent(self):
        report = analyze(symmetric_group(4), "sym:4")
        assert report.join_coherent and report.meet_coherent
        assert report.join_witness is None and report.meet_witness is None
        assert (report.group, report.degree, report.order) == ("sym:4", 4, 24)
        assert report.pi_size == 15
        assert report.ms_elapsed >= 0

    def test_alternating_group_neither(self):
        report = analyze(build_group("alt:4"))
        assert not report.join_coherent and not report.meet_coherent
        parts = brute_pi(build_group("alt:4"))
        a, b = report.join_witness
        assert a in parts and b in parts and (a | b) not in parts
        a, b = report.meet_witness
        assert a in parts and b in parts and (a & b) not in parts

    def test_witness_is_lex_least(self):
        # wr:(sym:3,sym:3) fails meet only after rows skipped by symmetry.
        specs = ("alt:4", "alt:5", "dprod:(cyclic:2,cyclic:2)", "wr:(sym:3,sym:3)")
        cases = [build_group(spec) for spec in specs] + subgroups(symmetric_group(5))
        for group in cases:
            report = analyze(group, chain=False)
            parts = brute_pi(group)
            if not report.join_coherent:
                assert report.join_witness == brute_first_failure(parts, lambda a, b: a | b)
            if not report.meet_coherent:
                assert report.meet_witness == brute_first_failure(parts, lambda a, b: a & b)

    def test_cyclic_groups_always_coherent(self):
        for n in (1, 2, 6, 8, 12):
            report = analyze(cyclic_group(n))
            assert report.join_coherent and report.meet_coherent

    def test_skipped_checks_stay_none(self):
        report = analyze(symmetric_group(3), join=False, meet=False, chain=False)
        assert report.join_coherent is None
        assert report.meet_coherent is None
        assert report.is_chain is None

    def test_to_json_shape(self):
        data = json.loads(analyze(build_group("alt:4"), "alt:4").to_json())
        assert set(data) == {
            "group",
            "degree",
            "order",
            "pi_size",
            "join_coherent",
            "meet_coherent",
            "is_chain",
            "join_witness",
            "meet_witness",
            "ms_elapsed",
        }
        assert data["join_witness"] == ["{1,2,3|4}", "{1,2,4|3}"]
        assert all(isinstance(s, str) for s in data["meet_witness"])

    def test_cap_propagates(self):
        with pytest.raises(CapExceeded) as info:
            analyze(symmetric_group(4), cap=10)
        assert info.value.required == 24

    @staticmethod
    def count_kernel_calls(monkeypatch):
        calls = {"join": 0, "meet": 0}

        def counted(name, op):
            def wrapper(a, b):
                calls[name] += 1
                return op(a, b)

            return wrapper

        monkeypatch.setattr(coherence, "join_codes", counted("join", coherence.join_codes))
        monkeypatch.setattr(coherence, "meet_codes", counted("meet", coherence.meet_codes))
        return calls

    def test_scan_skips_rows_settled_by_symmetry(self, monkeypatch):
        # An ordered scan of sym:7's 877 partitions makes 384,126 calls of
        # each, and one row per orbit of the group 10,752.  Skipping cleared
        # columns and passing a row whose interval lies in pi(G) leaves 21
        # joins and no meet: every partition of 7 points is in pi(sym:7).
        calls = self.count_kernel_calls(monkeypatch)
        report = analyze(symmetric_group(7))
        assert report.join_coherent and report.meet_coherent
        assert calls["join"] <= 21 and calls["meet"] == 0

    def test_scan_calls_the_kernel_to_find_a_witness(self, monkeypatch):
        # Only a kernel call finds a failing pair: alt:4 fails join, and
        # wr:(sym:3,sym:3) fails meet.
        calls = self.count_kernel_calls(monkeypatch)
        assert not analyze(build_group("alt:4"), meet=False, chain=False).join_coherent
        assert calls["join"] >= 1
        report = analyze(build_group("wr:(sym:3,sym:3)"), join=False, chain=False)
        assert not report.meet_coherent and calls["meet"] >= 1


class TestClosureAgainstBruteForce:
    def test_all_subgroups_of_sym_4(self):
        # The oracles share no code with join_codes/meet_codes.
        for sub in subgroups(symmetric_group(4)):
            parts = brute_pi(sub)
            join = analyze(sub, meet=False, chain=False).join_coherent
            meet = analyze(sub, join=False, chain=False).meet_coherent
            assert join == brute_closed(parts, _join_oracle)
            assert meet == brute_closed(parts, _meet_oracle)


class TestChains:
    def test_structural_test_agrees_on_subgroups_of_sym_4(self):
        for sub in subgroups(symmetric_group(4)):
            c = classify_chain(sub)
            assert c.is_chain == c.group_is_cyclic_prime_power

    def test_size_guard_agrees_with_full_chain_test(self):
        # More members than points cannot form a chain; the guarded verdict
        # must match the full pairwise test on both sides of the bound.
        sizes = set()
        for sub in subgroups(symmetric_group(4)):
            pi = pi_set(sub)
            full = is_chain(pi.partitions())
            assert analyze(sub, join=False, meet=False).is_chain == full
            assert classify_chain(sub).is_chain == full
            sizes.add(len(pi) > sub.degree)
        assert sizes == {False, True}

    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("cyclic:8", True),
            ("cyclic:9", True),
            ("cyclic:1", True),
            ("cyclic:6", False),
            ("sym:3", False),
            ("dprod:(cyclic:2,cyclic:2)", False),
        ],
    )
    def test_known_values(self, spec, expected):
        c = classify_chain(build_group(spec))
        assert c == ChainClassification(expected, expected)


class TestWitnessElement:
    def test_every_realized_partition_has_a_witness(self):
        group = symmetric_group(4)
        from orbitlat.groups import pi_set

        for part in pi_set(group).partitions():
            g = find_witness_element(group, part)
            assert g is not None and g.orbit_partition() == part

    def test_unrealized_partition_returns_none(self):
        single = SetPartition(bytes(4))
        assert find_witness_element(build_group("alt:4"), single) is None

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            find_witness_element(symmetric_group(4), SetPartition(bytes(range(3))))


class TestLatticeKernels:
    """join_codes and meet_codes, the bytes lattice kernels, against the
    oracles of verification, which share no code with them.  The first code
    of a join is canonical; every other code may use any labelling."""

    @given(label_pairs_st)
    @settings(max_examples=200, deadline=None)
    def test_join_matches_oracle(self, pair):
        a, b = map(to_partition, pair)
        want = _join_oracle(a, b)
        assert join_codes(a.code(), bytes(pair[1])) == want.code()
        assert a | b == want

    @given(label_pairs_st)
    @settings(max_examples=200, deadline=None)
    def test_meet_matches_oracle(self, pair):
        a, b = map(to_partition, pair)
        want = _meet_oracle(a, b)
        assert meet_codes(bytes(pair[0]), bytes(pair[1])) == want.code()
        assert a & b == want

    def test_identity_cases(self):
        d = SetPartition(bytes(range(5)))
        s = SetPartition(bytes(5))
        assert join_codes(d.code(), s.code()) == s.code()
        assert join_codes(d.code(), d.code()) == d.code()

    @pytest.mark.parametrize("op", ["join", "meet"])
    def test_degree_256_is_refused(self, op):
        # Codes hold one byte per point, so degree 256 is refused when the
        # partitions are built, before the kernel could see them.
        with pytest.raises(ValueError, match="below 256, got 256"):
            getattr(SetPartition(bytes(256)), op)(SetPartition(tuple(range(256))))


class TestSubgroupCharacterization:
    """G is join-coherent iff the orbit partition of every subgroup generated
    by two elements is the orbit partition of one element.  The subgroup's
    orbits come from its generators, not from a lattice join."""

    @staticmethod
    def two_generated_realized(group):
        reps = {}
        for p in map(Permutation, group.element_images()):
            reps.setdefault(p.orbit_partition(), p)
        return all(
            PermGroup([a, b]).orbit_partition() in reps
            for a, b in itertools.combinations_with_replacement(reps.values(), 2)
        )

    def test_positive_and_negative(self):
        assert self.two_generated_realized(symmetric_group(4))
        assert not self.two_generated_realized(build_group("alt:4"))

    def test_agreement_with_join_coherence(self):
        for sub in subgroups(symmetric_group(4)):
            assert self.two_generated_realized(sub) == bool(
                analyze(sub, meet=False, chain=False).join_coherent
            )


class TestNormalCyclicClassification:
    def test_small_moduli_agree(self):
        for n in (1, 2, 3, 4, 6, 8, 12):
            report = verify_normal_cyclic_classification(n)
            assert all(e.verdict == e.prediction for e in report.entries)

    def test_multipliers_are_every_unit_subgroup(self):
        # Brute force: every set of units mod n that holds 1 and is closed
        # under multiplication, listed by (size, elements).
        for n in range(1, 65):
            units = [u for u in range(n) if gcd(u, n) == 1]
            if len(units) > 12:
                continue
            one = 1 % n
            rest = [u for u in units if u != one]
            closed = []
            for k in range(len(rest) + 1):
                for extra in itertools.combinations(rest, k):
                    s = {one, *extra}
                    if all(a * b % n in s for a in s for b in s):
                        closed.append(tuple(sorted(s)))
            closed.sort(key=lambda t: (len(t), t))
            report = verify_normal_cyclic_classification(n)
            assert [e.multipliers for e in report.entries] == closed, n
            # That order comes from `subgroups` listing by sorted image tuples:
            # the image tuple of x -> ux is ordered by its entry at 1, u.
            images = [tuple(x * u % n for x in range(n)) for u in units]
            assert sorted(images) == sorted(images, key=lambda im: im[1 % n]), n

    def test_entry_orders_are_n_times_the_multipliers(self):
        for n in range(1, 17):
            for e in verify_normal_cyclic_classification(n).entries:
                assert e.order == n * len(e.multipliers), (n, e.multipliers)

    def test_mod_4_details(self):
        report = verify_normal_cyclic_classification(4)
        assert report.n == 4
        assert [e.multipliers for e in report.entries] == [(1,), (1, 3)]
        assert [e.order for e in report.entries] == [4, 8]
        assert all(e.verdict and e.prediction for e in report.entries)

    def test_mod_12_has_incoherent_extension(self):
        report = verify_normal_cyclic_classification(12)
        by_h = {e.multipliers: e for e in report.entries}
        assert not by_h[(1, 5)].verdict  # gcd(4*1, 3*2) = 2 blocks coherence
        assert by_h[(1, 7)].verdict  # acts only on the 3-part factor

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_normal_cyclic_classification(0)
        with pytest.raises(ValueError):
            verify_normal_cyclic_classification(65)


class TestCensus:
    def test_degree_3_exact(self):
        records = list(census(3))
        summary = records.pop()["summary"]
        assert [r["order"] for r in records] == [1, 2, 2, 2, 3, 6]
        assert [r["index"] for r in records] == list(range(6))
        assert all(r["degree"] == 3 for r in records)
        assert all(r["join_coherent"] and r["meet_coherent"] for r in records)
        assert [r["is_chain"] for r in records] == [True] * 5 + [False]
        assert sum(r["transitive"] for r in records) == 2
        assert summary == {
            "degree": 3,
            "groups": 6,
            "transitive": 2,
            "join_coherent": 6,
            "meet_coherent": 6,
            "join_coherent_transitive": 2,
            "meet_coherent_transitive": 2,
        }

    def test_generators_rebuild_each_group(self):
        records = list(census(3))[:-1]
        subs = subgroups(symmetric_group(3))
        for record, sub in zip(records, subs):
            gens = [
                Permutation.from_cycles(text, record["degree"])
                for text in record["generators"]
            ]
            rebuilt = PermGroup(gens if gens else [Permutation.identity(3)], 3)
            assert set(rebuilt.element_images()) == set(sub.element_images())

    def test_degree_4_summary_consistent(self):
        records = list(census(4))
        summary = records.pop()["summary"]
        assert summary["groups"] == len(records) == 30
        assert summary["transitive"] == sum(r["transitive"] for r in records)
        assert summary["join_coherent"] == sum(r["join_coherent"] for r in records)
        assert summary["join_coherent_transitive"] == 7  # 3 C4 + 3 D8 + S4

    @pytest.mark.slow
    def test_degree_6_published_count(self):
        # S_6 has 1,455 subgroups (OEIS A005432).  Each record's generators
        # give an element set of the recorded order, closed under products,
        # and no two records give the same set.
        *records, last = census_6()
        assert last["summary"]["groups"] == len(records) == 1455
        seen = set()
        for record in records:
            gens = [Permutation.from_cycles(text, 6) for text in record["generators"]]
            els = frozenset(PermGroup(gens, 6).element_images())
            assert len(els) == record["order"]
            assert bytes(range(6)) in els
            assert all(bytes(b[i] for i in a) in els for a in els for b in els)
            assert els not in seen
            seen.add(els)

    @pytest.mark.slow
    def test_degree_6_verdicts_match_oracles(self):
        # Each record's pi-set against the codes of its whole element
        # stream, and its join and meet verdicts against a pairwise closure
        # by the independent oracles, memoized over pairs of codes.
        oracles = {"join": (_join_oracle, {}), "meet": (_meet_oracle, {})}

        def closed(codes, name):
            oracle, memo = oracles[name]
            for a in codes:
                for b in codes:
                    if (a, b) not in memo:
                        memo[a, b] = oracle(SetPartition(tuple(a)), SetPartition(tuple(b))).code()
                    if memo[a, b] not in codes:
                        return False
            return True

        *records, _ = census_6()
        for record in records:
            gens = [Permutation.from_cycles(text, 6) for text in record["generators"]]
            group = PermGroup(gens, 6)
            codes = {_orbit_rgs(im) for im in group.element_images()}
            assert pi_set(group).codes == codes
            assert record["pi_size"] == len(codes)
            assert record["join_coherent"] == closed(codes, "join")
            assert record["meet_coherent"] == closed(codes, "meet")

    @pytest.mark.slow
    def test_witnesses_match_the_ordered_scan(self):
        # The ordered scan that skips only cleared rows, comparing each row
        # with every later code, finds the lex-least failing pair; the scan
        # that also skips cleared columns and passes rows by their interval
        # must report the same pair.
        def ordered(group, op):
            pi = pi_set(group)
            codes = sorted(pi.codes)
            cleared = {bytes(group.degree)}
            for i, a in enumerate(codes):
                if a in cleared:
                    continue
                for b in codes[i + 1 :]:
                    if op(a, b) not in pi.codes:
                        return SetPartition(a), SetPartition(b)
                cleared.add(a)
                _close_codes(cleared, [a], [g.images for g in group.generators])
            return None

        *records, _ = census_6()
        groups = [sub for n in range(1, 6) for sub in subgroups(symmetric_group(n))]
        for record in records:
            gens = [Permutation.from_cycles(text, 6) for text in record["generators"]]
            groups.append(PermGroup(gens, 6))
        groups += [build_group(spec) for spec in ("alt:9", *SCAN_SPECS)]
        groups.append(_packaged_group("m11.gens"))
        for group in groups:
            report = analyze(group, chain=False)
            assert report.join_witness == ordered(group, join_codes)
            assert report.meet_witness == ordered(group, meet_codes)

    def test_deterministic(self):
        assert list(census(3)) == list(census(3))

    def test_validation(self):
        with pytest.raises(ValueError):
            list(census(0))
        with pytest.raises(ValueError):
            list(census(7))
