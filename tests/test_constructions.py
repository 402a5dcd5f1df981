import contextlib
import itertools
import random
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from orbitlat.constructions import (
    DEGREE_CAP,
    alternating_group,
    build_group,
    centralizer_in_sym,
    cyclic_group,
    dihedral_group,
    direct_sum_action,
    format_generator_file,
    frobenius_cyclic,
    gamma_group,
    linear_group_action,
    load_generators,
    parse_element_spec,
    parse_group_spec,
    product_action,
    symmetric_group,
    wreath_imprimitive,
)
from orbitlat.errors import (
    CycleNotationError,
    GeneratorFileError,
    GroupSpecError,
    PartitionFormatError,
)
from orbitlat.groups import PermGroup
from orbitlat.partitions import SetPartition
from orbitlat.perms import Permutation


def sign(p):
    return (-1) ** (p.degree - len(p.cycles()))


def fixer_counts(group):
    """For each point, how many elements of the group fix it."""
    els = list(group.element_images())
    return [sum(im[pt] == pt for im in els) for pt in range(group.degree)]


class TestNamedFamilies:
    def test_orders(self):
        for n in range(1, 8):
            assert symmetric_group(n).order == factorial(n)
            assert alternating_group(n).order == (factorial(n) // 2 if n >= 3 else 1)
            assert cyclic_group(n).order == n
            assert dihedral_group(n).order == (2 * n if n >= 3 else n)

    def test_alternating_elements_even(self):
        for p in map(Permutation, alternating_group(5).element_images()):
            assert sign(p) == 1

    def test_cyclic_regular(self):
        c6 = cyclic_group(6)
        assert c6.is_transitive() and fixer_counts(c6) == [1] * 6

    def test_dihedral_contains_reflection(self):
        d5 = dihedral_group(5)
        flip = Permutation(tuple(-x % 5 for x in range(5)))
        assert flip in d5

    def test_affine_generators(self):
        # x -> x+1 first, then x -> ux per multiplier; on Z_1 there is no
        # translation, and dihedral:2 keeps its identity reflection, so
        # `construct` writes the same generator files as ever.
        assert cyclic_group(1).generators == dihedral_group(1).generators == ()
        assert frobenius_cyclic(1, 1).generators == ()
        assert [str(g) for g in cyclic_group(5).generators] == ["(1 2 3 4 5)"]
        assert [str(g) for g in dihedral_group(2).generators] == ["(1 2)", "()"]
        assert [str(g) for g in dihedral_group(5).generators] == ["(1 2 3 4 5)", "(2 5)(3 4)"]
        assert [str(g) for g in gamma_group(2, 3).generators] == [
            "(1 2 3 4 5 6 7 8)",
            "(2 6)(4 8)",
        ]

    def test_degree_bounds(self):
        for build in (symmetric_group, alternating_group, cyclic_group, dihedral_group):
            with pytest.raises(GroupSpecError):
                build(0)
            with pytest.raises(GroupSpecError):
                build(DEGREE_CAP + 1)


class TestPostconditions:
    def test_wrong_chain_order_raises_under_optimize(self, run_optimized):
        # The order check is the independent test of the stabilizer chain,
        # so it must not vanish with asserts under `python -O`.
        script = (
            "import orbitlat.groups as groups\n"
            "from orbitlat.constructions import symmetric_group\n"
            "from orbitlat.errors import PostconditionError\n"
            "groups._Chain.order = property(lambda self: 7)\n"
            "try:\n"
            "    symmetric_group(5)\n"
            "except PostconditionError as exc:\n"
            "    print(__debug__, exc)\n"
        )
        done = run_optimized(script)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False stabilizer chain gives order 7, expected 120\n"


class TestProducts:
    def test_direct_sum(self):
        g = direct_sum_action(symmetric_group(3), cyclic_group(2))
        assert g.degree == 5
        assert g.order == 12
        assert g.orbits() == [[0, 1, 2], [3, 4]]

    def test_product_action_is_transitive_regular_for_cyclics(self):
        g = product_action(cyclic_group(2), cyclic_group(3))
        assert g.degree == 6
        assert g.order == 6
        assert g.is_transitive() and fixer_counts(g) == [1] * 6

    def test_wreath_order_and_blocks(self):
        w = wreath_imprimitive(symmetric_group(3), cyclic_group(2))
        assert w.degree == 6
        assert w.order == 6**2 * 2
        blocks = SetPartition.from_blocks([[0, 1, 2], [3, 4, 5]], 6)
        rgs = blocks.rgs
        for p in map(Permutation, w.element_images()):
            assert len({rgs[p(x)] for x in (0, 1, 2)}) == 1

    def test_wreath_with_intransitive_outer(self):
        outer = PermGroup([Permutation.identity(2)], 2)
        w = wreath_imprimitive(cyclic_group(2), outer)
        assert w.order == 4

    def test_degree_caps(self):
        with pytest.raises(GroupSpecError):
            direct_sum_action(symmetric_group(60), symmetric_group(10))
        with pytest.raises(GroupSpecError):
            product_action(symmetric_group(9), symmetric_group(9))
        with pytest.raises(GroupSpecError):
            wreath_imprimitive(symmetric_group(9), symmetric_group(9))


class TestCentralizer:
    def brute(self, g):
        n = g.degree
        return {
            bytes(p)
            for p in itertools.permutations(range(n))
            if all(p[g(x)] == g(p[x]) for x in range(n))
        }

    def test_against_brute_force_exhaustive(self):
        for images in itertools.permutations(range(4)):
            g = Permutation(images)
            cent = centralizer_in_sym(g)
            assert set(cent.element_images()) == self.brute(g)

    def test_against_brute_force_random(self):
        rng = random.Random(20260823)
        for n in (5, 6, 7):
            for _ in range(5):
                images = list(range(n))
                rng.shuffle(images)
                g = Permutation(tuple(images))
                assert set(centralizer_in_sym(g).element_images()) == self.brute(g)


class TestFrobenius:
    def test_orders(self):
        assert frobenius_cyclic(7, 3).order == 21
        assert frobenius_cyclic(11, 5).order == 55
        assert frobenius_cyclic(9, 2).order == 18
        assert frobenius_cyclic(15, 2).order == 30
        assert frobenius_cyclic(5, 4).order == 20

    def test_r_one_is_regular_cyclic(self):
        g = frobenius_cyclic(6, 1)
        assert g.order == 6 and fixer_counts(g) == [1] * 6

    def test_invalid_multiplier_order(self):
        with pytest.raises(GroupSpecError):
            frobenius_cyclic(8, 2)  # 2 does not divide 2 - 1
        with pytest.raises(GroupSpecError):
            frobenius_cyclic(7, 4)  # 4 does not divide 6

    def test_point_stabilizers_have_order_r(self):
        assert fixer_counts(frobenius_cyclic(7, 3)) == [3] * 7


class TestGamma:
    def test_gamma_4_is_dihedral(self):
        assert set(gamma_group(2, 2).element_images()) == set(
            dihedral_group(4).element_images()
        )

    def test_orders(self):
        assert gamma_group(2, 3).order == 16
        assert gamma_group(3, 2).order == 27
        assert gamma_group(5, 2).order == 125

    def test_validation(self):
        with pytest.raises(GroupSpecError):
            gamma_group(4, 2)
        with pytest.raises(GroupSpecError):
            gamma_group(2, 1)
        with pytest.raises(GroupSpecError):
            gamma_group(2, 7)


class TestLinear:
    @pytest.mark.parametrize(
        "spec,degree,order",
        [
            ("lin:2,2,GL,points", 3, 6),
            ("lin:2,3,GL,points", 8, 48),
            ("lin:2,3,GL,lines", 4, 24),
            ("lin:3,2,GL,lines", 7, 168),
            ("lin:3,3,SL,lines", 13, 5616),
            ("lin:3,3,GL,lines", 13, 5616),
            ("lin:2,4,GL·Frob,lines", 5, 120),
            ("lin:2,4,GL.Frob,lines", 5, 120),
            ("lin:3,4,SL·Frob,lines", 21, 40320),
        ],
    )
    def test_degrees_and_orders(self, spec, degree, order):
        g = build_group(spec)
        assert (g.degree, g.order) == (degree, order)

    def test_lines_and_hyperplanes_agree_in_dimension_3(self):
        lines = linear_group_action(3, 2, "GL", "lines")
        planes = linear_group_action(3, 2, "GL", "hyperplanes")
        assert set(lines.element_images()) == set(planes.element_images())

    def test_validation(self):
        with pytest.raises(GroupSpecError):
            linear_group_action(2, 6, "GL", "points")
        with pytest.raises(GroupSpecError):
            linear_group_action(2, 3, "PGL", "points")
        with pytest.raises(GroupSpecError):
            linear_group_action(2, 3, "GL", "flags")
        with pytest.raises(GroupSpecError):
            linear_group_action(1, 3, "GL", "points")
        with pytest.raises(GroupSpecError):
            linear_group_action(2, 9, "GL", "points")  # degree 80 over the cap


class TestGeneratorFiles:
    def test_round_trip(self, tmp_path):
        group = build_group("wr:(cyclic:2,cyclic:3)")
        path = tmp_path / "w.gens"
        path.write_text(format_generator_file(group, comment="round trip"))
        loaded = load_generators(path)
        assert loaded.degree == group.degree
        assert set(loaded.element_images()) == set(group.element_images())

    def test_format_layout(self):
        text = format_generator_file(cyclic_group(3), comment="two\nlines")
        assert text.splitlines() == ["degree 3", "# two", "# lines", "(1 2 3)"]

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "g.gens"
        path.write_text("# header\n\ndegree 4  # trailing\n(1 2) # swap\n\n(3 4)\n")
        assert load_generators(path).order == 4

    @pytest.mark.parametrize(
        "content",
        [
            "(1 2)\n",  # missing degree line
            "degree x\n",
            "degree 3\n(1 4)\n",  # point out of range
            "degree 3\n(1 1 2)\n",  # repeated point
            "degree 3\n(1 2\n",  # unbalanced
            "degree 0\n",
        ],
    )
    def test_malformed(self, tmp_path, content):
        path = tmp_path / "bad.gens"
        path.write_text(content)
        with pytest.raises(GeneratorFileError):
            load_generators(path)

    def test_missing_file(self):
        with pytest.raises(GeneratorFileError):
            load_generators("/nonexistent/there.gens")


class TestSpecGrammar:
    @pytest.mark.parametrize(
        "text,degree,order",
        [
            ("sym:4", 4, 24),
            ("alt:4", 4, 12),
            ("cyclic:12", 12, 12),
            ("dihedral:9", 9, 18),
            ("dsum:(sym:3,cyclic:2)", 5, 12),
            ("dprod:(cyclic:2,cyclic:2)", 4, 4),
            ("wr:(sym:3,cyclic:2)", 6, 72),
            ("wr:(cyclic:2,wr:(cyclic:2,cyclic:2))", 8, 128),
            ("cent:(1 2)(3 4)@5", 5, 8),
            ("frob:7,3", 7, 21),
            ("gamma:2,3", 8, 16),
            ("lin:2,2,GL,points", 3, 6),
        ],
    )
    def test_positive(self, text, degree, order):
        g = build_group(text)
        assert (g.degree, g.order) == (degree, order)

    def test_file_spec(self, tmp_path):
        path = tmp_path / "c5.gens"
        path.write_text("degree 5\n(1 2 3 4 5)\n")
        assert build_group("file:%s" % path).order == 5

    @pytest.mark.parametrize(
        "text",
        [
            "sym",
            "sym:",
            "sym:abc",
            "sym:4,5",
            "unknown:3",
            "dsum:(sym:3)",
            "dsum:sym:3,sym:3",
            "dsum:(sym:3,sym:3",
            "wr:(sym:3,)",
            "cent:(1 2)@",
            "cent:(1 2)",
            "frob:7",
            "lin:2,3,GL",
            "lin:a,3,GL,points",
            "file:",
            "sym:99",
            "dprod:(sym:9,sym:9)",
        ],
    )
    def test_negative(self, text):
        with pytest.raises(GroupSpecError):
            build_group(text)

    @pytest.mark.parametrize(
        "text,degree",
        [
            ("sym:4", 4),
            ("cyclic:12", 12),
            ("dihedral:9", 9),
            ("cent:(1 2)(3 4)@5", 5),
            ("dsum:(sym:3,cyclic:2)", 5),
            ("dprod:(cyclic:2,cyclic:3)", 6),
            ("wr:(cyclic:2,wr:(cyclic:2,cyclic:2))", 8),
            ("dsum:(sym:3,frob:7,3)", None),
            ("frob:7,3", None),
            ("gamma:2,3", None),
            ("lin:2,2,GL,points", None),
            ("file:x.gens", None),
        ],
    )
    def test_degree_known_before_build(self, text, degree):
        assert parse_group_spec(text).degree == degree

    def test_spec_text_preserved(self):
        spec = parse_group_spec("  wr:(sym:3,cyclic:2) ")
        assert spec.text == "wr:(sym:3,cyclic:2)"
        assert spec.family == "wr"

    def test_deterministic_generators(self):
        a = build_group("lin:3,2,GL,lines")
        b = build_group("lin:3,2,GL,lines")
        assert [p.images for p in a.generators] == [p.images for p in b.generators]


class TestElementSpec:
    def test_ok(self):
        g = parse_element_spec("(1 2)(3 4)@6")
        assert g.degree == 6
        assert g.cycle_string() == "(1 2)(3 4)"

    def test_empty_cycles_is_identity(self):
        assert parse_element_spec("@4") == Permutation.identity(4)

    @pytest.mark.parametrize("text", ["(1 2)", "(1 2)@x", "(1 9)@4", "(1 2@4"])
    def test_bad(self, text):
        with pytest.raises(GroupSpecError):
            parse_element_spec(text)


# Text built from the grammar reaches the branches that arbitrary text
# rarely does; "²", "³" and "٣" are non-ASCII digits (only "٣" is decimal).
_NUMBER = st.one_of(
    st.sampled_from(["0", "3", "64", "65", "²", "٣", "-1", " 4 ", "1_0", "", "x"]),
    st.text(max_size=6),
)
_CYCLES = st.lists(st.sampled_from(list("(),12³²x ") + ["65", "-1"]), max_size=12).map("".join)
_ELEMENT = st.builds("{}@{}".format, _CYCLES, _NUMBER)
_LEAF_SPEC = st.one_of(
    st.builds(
        "{}:{}".format,
        st.sampled_from("sym alt cyclic dihedral frob gamma lin file unknown".split()),
        st.lists(st.one_of(_NUMBER, st.sampled_from(["GL", "SL.Frob", "lines"])), max_size=4).map(
            ",".join
        ),
    ),
    st.builds("cent:{}".format, _ELEMENT),
    st.text(max_size=20),
)
_SPEC = st.recursive(
    _LEAF_SPEC,
    lambda inner: st.builds(
        "{}:({},{})".format, st.sampled_from(["dsum", "dprod", "wr"]), inner, inner
    ),
    max_leaves=4,
)
_PARTITION = st.one_of(
    st.text(max_size=20),
    st.lists(st.sampled_from(list("|,12³²x ") + ["65", "0", "-1"]), max_size=12).map(
        "{{{}}}".format
    ),
)


class TestParserFuzz:
    """The parsers reject malformed text with their own typed errors (each a
    ValueError, so the CLI exits 1); nothing is built and no file is opened."""

    @given(_SPEC)
    @example("cent:(1 2)@" + "9" * 5000)  # beyond int()'s default digit limit
    @settings(max_examples=500, deadline=None)
    def test_group_spec(self, text):
        with contextlib.suppress(GroupSpecError):
            parse_group_spec(text)

    @given(st.one_of(_ELEMENT, st.text(max_size=20)))
    @example("(1 2)@" + "9" * 5000)
    @settings(max_examples=300, deadline=None)
    def test_element_spec(self, text):
        with contextlib.suppress(GroupSpecError):
            parse_element_spec(text)

    @given(st.one_of(_CYCLES, st.text(max_size=20)), st.integers(1, DEGREE_CAP))
    @settings(max_examples=300, deadline=None)
    def test_cycles(self, text, degree):
        with contextlib.suppress(CycleNotationError):
            Permutation.from_cycles(text, degree)

    @given(_PARTITION, st.integers(1, DEGREE_CAP))
    @settings(max_examples=300, deadline=None)
    def test_partition(self, text, degree):
        with contextlib.suppress(PartitionFormatError):
            SetPartition.from_string(text, degree)
