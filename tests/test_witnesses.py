import itertools
import random

import pytest

import orbitlat.coherence as coherence
import orbitlat.groups as groups
import orbitlat.witnesses as witnesses
from orbitlat.constructions import (
    build_group,
    centralizer_in_sym,
    cyclic_group,
    symmetric_group,
    wreath_imprimitive,
)
from orbitlat.groups import pi_set
from orbitlat.partitions import SetPartition, all_partitions
from orbitlat.perms import Permutation
from orbitlat.witnesses import (
    WreathConditions,
    build_centralizer_element,
    build_wreath_element,
    centralizer_partition_conditions,
    induced_block_partition,
    restricted_partition,
    wreath_partition_conditions,
)


class TestBlockHelpers:
    def test_induced_aligned(self):
        part = SetPartition.from_blocks([[0, 1], [2, 3], [4, 5]], 6)
        assert induced_block_partition(part, 2) == SetPartition.discrete(3)

    def test_induced_crossing(self):
        part = SetPartition.from_blocks([[0, 3], [1, 2], [4, 5]], 6)
        assert induced_block_partition(part, 2) == SetPartition.from_blocks(
            [[0, 1], [2]], 3
        )

    def test_induced_single_block(self):
        assert induced_block_partition(
            SetPartition.single_block(6), 3
        ) == SetPartition.single_block(2)

    def test_restricted(self):
        part = SetPartition.from_blocks([[0, 3], [1, 2], [4, 5]], 6)
        assert restricted_partition(part, 0, 2) == SetPartition.discrete(2)
        assert restricted_partition(part, 1, 2) == SetPartition.discrete(2)
        assert restricted_partition(part, 2, 2) == SetPartition.single_block(2)


class TestCentralizerWitness:
    def test_hand_case_pair_partition(self):
        g = Permutation.from_cycles("(1 2)(3 4)", 4)
        part = SetPartition.from_blocks([[0, 2], [1, 3]], 4)
        h = build_centralizer_element(part, g)
        assert h.cycle_string() == "(1 3)(2 4)"

    def test_hand_case_single_block(self):
        g = Permutation.from_cycles("(1 2)(3 4)", 4)
        h = build_centralizer_element(SetPartition.single_block(4), g)
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
                with pytest.raises(ValueError, match="condition c[124]"):
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
                SetPartition.discrete(5), build_group("cyclic:2"), build_group("cyclic:3")
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


class TestFactorCodes:
    """The wreath criterion reads each factor's pi-set from a small cache."""

    def test_each_factor_streamed_once(self, monkeypatch):
        witnesses._factor_codes.cache_clear()
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
        witnesses._factor_codes.cache_clear()
        h = cyclic_group(2)
        for _ in range(20):
            g = cyclic_group(2)
            assert wreath_partition_conditions(SetPartition.discrete(4), g, h).overall
        assert witnesses._factor_codes.cache_info().currsize == 16

    def test_factor_order_above_the_default_cap(self, monkeypatch):
        # The witness paths stream a factor whatever its order: witness-wreath
        # has no --cap, so a factor above the default cap is still decided.
        monkeypatch.setattr(groups.pi_set, "__defaults__", (10, 1))
        monkeypatch.setattr(coherence.find_witness_element, "__defaults__", (10,))
        witnesses._factor_codes.cache_clear()
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
            "    lambda group, partition, cap: Permutation.identity(group.degree)\n"
            ")\n"
            "c2 = cyclic_group(2)\n"
            "try:\n"
            "    witnesses.build_wreath_element(SetPartition.single_block(4), c2, c2)\n"
            "except PostconditionError as exc:\n"
            "    print(__debug__, exc)\n"
        )
        done = run_optimized(script)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False constructed element does not realize {1,2,3,4}\n"
