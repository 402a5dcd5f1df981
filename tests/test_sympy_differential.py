"""Differential tests against sympy's permutation groups.

sympy is a test-only reference: these tests are skipped when it is missing,
and orbitlat never imports it.  Order, membership and orbits are compared for
every spec family and every packaged generator file, and for groups of order
at most PI_ORDER_MAX the pi-set is compared with the cycle partitions of the
elements that sympy's `generate()` lists.
"""

import random
from importlib import resources

import pytest

sympy_combinatorics = pytest.importorskip("sympy.combinatorics")
SymPermutation = sympy_combinatorics.Permutation
SymGroup = sympy_combinatorics.PermutationGroup

from orbitlat.constructions import build_group  # noqa: E402
from orbitlat.groups import pi_set  # noqa: E402
from orbitlat.perms import Permutation  # noqa: E402
from orbitlat.verification import _packaged_group  # noqa: E402

PI_ORDER_MAX = 5000
PACKAGED = ("m11.gens", "m23.gens", "psl2_11.gens")

# At least one spec of each family but `file`, which SOURCES adds.
SPECS = (
    "sym:1",
    "sym:5",
    "sym:12",
    "sym:40",
    "alt:4",
    "alt:7",
    "alt:30",
    "cyclic:1",
    "cyclic:12",
    "dihedral:8",
    "dihedral:9",
    "dsum:(sym:3,cyclic:2)",
    "dsum:(cyclic:4,sym:3)",
    "dprod:(cyclic:2,cyclic:2)",
    "dprod:(sym:3,cyclic:4)",
    "wr:(sym:3,sym:3)",
    "wr:(sym:2,sym:4)",
    "wr:(cyclic:2,sym:4)",
    "wr:(sym:8,sym:8)",
    "cent:(1 2)(3 4)@5",
    "cent:(1 2 3 4)(5 6 7 8)@8",
    "cent:(1 2 3 4)(5 6 7 8)(9 10 11 12)(13 14 15 16)@40",
    "frob:7,3",
    "frob:11,5",
    "gamma:2,3",
    "lin:2,3,GL,points",
    "lin:3,2,GL,lines",
    "lin:2,4,GL·Frob,lines",
    "lin:3,4,SL·Frob,lines",
    "lin:3,4,GL·Frob,lines",
)


def packaged_path(name):
    return str(resources.files("orbitlat.data").joinpath(name))


def load(source):
    if source in PACKAGED:
        return _packaged_group(source)
    return build_group(source)


def as_sympy(group):
    gens = [SymPermutation(list(g.images)) for g in group.generators]
    return SymGroup(gens or [SymPermutation(list(range(group.degree)))])


def cycle_code(points, image):
    """Canonical code of the cycle partition of x -> image(x): blocks
    labelled in order of their least point."""
    label = [-1] * len(points)
    nxt = 0
    for x in points:
        if label[x] < 0:
            y = x
            while label[y] < 0:
                label[y] = nxt
                y = image(y)
            nxt += 1
    return bytes(label)


SOURCES = SPECS + PACKAGED + ("file:" + packaged_path("psl2_11.gens"),)


@pytest.fixture(params=SOURCES, ids=[s.replace(packaged_path(""), "") for s in SOURCES])
def pair(request):
    group = load(request.param)
    return group, as_sympy(group)


def test_order(pair):
    group, reference = pair
    assert group.order == reference.order()


def test_orbits(pair):
    group, reference = pair
    expected = sorted(sorted(orbit) for orbit in reference.orbits())
    # Both list each fixed point as an orbit of its own.
    assert sorted(group.orbits()) == expected


def test_membership(pair):
    group, reference = pair
    n = group.degree
    rng = random.Random(n)
    candidates = []
    # Random words in the generators are members; random permutations of
    # the points mostly are not.
    gens = [g.images for g in group.generators]
    for _ in range(20):
        images = tuple(range(n))
        for _ in range(rng.randint(0, 12)):
            if gens:
                g = rng.choice(gens)
                images = tuple(g[x] for x in images)
        candidates.append(images)
    for _ in range(20):
        images = list(range(n))
        rng.shuffle(images)
        candidates.append(tuple(images))
    members = 0
    for images in candidates:
        verdict = Permutation(images) in group
        assert verdict == reference.contains(SymPermutation(list(images)))
        members += verdict
    assert members >= 20


def test_pi_set_matches_generated_cycle_partitions(pair):
    group, reference = pair
    if group.order > PI_ORDER_MAX:
        pytest.skip("order above %d" % PI_ORDER_MAX)
    points = range(group.degree)
    expected = {cycle_code(points, p) for p in reference.generate()}
    assert pi_set(group).codes == expected
