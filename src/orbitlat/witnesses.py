"""Executable forms of the two constructive realizability criteria.

Given a target partition, decide whether it is the orbit partition of some
element of an imprimitive wreath product or of a symmetric-group centralizer,
and when it is, actually produce such an element.  Both builders follow the
constructive halves of the corresponding proofs step by step, then check
their postconditions (also under ``python -O``), so a slip in the
bookkeeping cannot go unnoticed.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from functools import lru_cache

from .coherence import find_witness_element
from .errors import PostconditionError
from .groups import PermGroup, pi_set
from .partitions import SetPartition, _relabel, _table, join_codes
from .perms import Permutation


@dataclass(frozen=True)
class WreathConditions:
    """Report for the wreath-product criterion.

    c1: the induced partition of the block set is an orbit partition of H.
    c2: every within-block restriction is an orbit partition of G.
    c4: blocks equivalent under the induced partition can be aligned by a
        translation from G.  (The remaining condition of the criterion
        concerns infinite parts only and is vacuous here.)
    """

    c1: bool
    c2: bool
    c4: bool

    @property
    def overall(self) -> bool:
        return self.c1 and self.c2 and self.c4


class _Factor:
    """What the wreath criterion reads of one factor group: its pi codes and
    memos of answers that depend on the factor alone, never on the
    partition being decided.

    `first_match` maps the canonical code of a pair of block slices to the
    first translation aligning them (or None); `in_pi` maps a raw block
    slice to whether its partition is in pi(G); `realizing` maps a code to
    the first element realizing it; `block_codes` maps a degree to the code
    of the partition into consecutive blocks of this factor's degree.
    """

    def __init__(self, group: PermGroup):
        self.codes: Set[bytes] = pi_set(group, cap=group.order).codes
        self.first_match: dict[bytes, Permutation | None] = {}
        self.in_pi: dict[bytes, bool] = {}
        self.realizing: dict[bytes, Permutation] = {}
        self.block_codes: dict[int, bytes] = {}


@lru_cache(maxsize=16)
def _factor(group: PermGroup) -> _Factor:
    """The record of a wreath factor, kept for the last few factor groups.
    The key is the group object itself (PermGroup compares by identity)."""
    return _Factor(group)


def _realizing(group: PermGroup, code: bytes) -> Permutation:
    """The first element of the group whose orbit partition has this code,
    which the criterion has already shown to exist."""
    memo = _factor(group).realizing
    found = memo.get(code)
    if found is None:
        partition = SetPartition._trusted(code)
        found = find_witness_element(group, partition)
        if found is None:
            raise PostconditionError("no element of the factor realizes %s" % partition)
        memo[code] = found
    return found


def _block_code(factor: _Factor, degree: int, dx: int) -> bytes:
    """Code of the partition of 0..degree-1 into the blocks [y*dx, (y+1)*dx),
    built once per degree for the factor of degree dx."""
    blocks = factor.block_codes.get(degree)
    if blocks is None:
        blocks = factor.block_codes[degree] = bytes(pt // dx for pt in range(degree))
    return blocks


def _induced_code(code: bytes, blocks: bytes, dx: int) -> bytes:
    """Code of the partition of the blocks [y*dx, (y+1)*dx) joining y and z
    when some part meets both; closed transitively.  It is the join with the
    block code `blocks` read at each block's first point, which is
    canonical: every class of that join is a union of blocks, first met in
    its least block."""
    return join_codes(blocks, code)[::dx]


def _restricted_code(code: bytes, y: int, dx: int) -> bytes:
    """Code of the partition induced on the block [y*dx, (y+1)*dx)."""
    return _relabel(code[y * dx : (y + 1) * dx], bytearray(256))


def _translation(g_group: PermGroup, code: bytes, dx: int, y: int, z: int) -> Permutation | None:
    """First c in G with (x, y) ~ (x c, z) for every x, if one exists.

    c is a bijection of the block, so the two blocks must carry the same
    multiset of labels.  The first match depends only on the pair of slices
    up to a common relabelling, so it is kept by their canonical code.  The
    search maps x only to points p with the label of (p, z) equal to that of
    (x, y), and skips every element that does not."""
    at_y = code[y * dx : (y + 1) * dx]
    at_z = code[z * dx : (z + 1) * dx]
    if sorted(at_y) != sorted(at_z):
        return None
    key = _relabel(at_y + at_z, bytearray(256))
    memo = _factor(g_group).first_match
    if key in memo:
        return memo[key]
    at_y, at_z = key[:dx], key[dx:]
    points: dict[int, set[int]] = {}
    for p, label in enumerate(at_z):
        points.setdefault(label, set()).add(p)
    allowed = {x: points[label] for x, label in enumerate(at_y)}
    at_z_table = _table(at_z)
    found = g_group.first_element(lambda im: im.translate(at_z_table) == at_y, allowed)
    memo[key] = found
    return found


def _block_conditions(
    partition: SetPartition, g_group: PermGroup, h_group: PermGroup
) -> tuple[bytes, bytes, bool, bool]:
    """The partition's code, its induced block code, and conditions c1 and c2
    of the wreath criterion."""
    dx, dy = g_group.degree, h_group.degree
    if partition.degree != dx * dy:
        raise ValueError(
            "partition degree %d does not match %d x %d" % (partition.degree, dx, dy)
        )
    code = partition.code()
    g_factor = _factor(g_group)
    tilde = _induced_code(code, _block_code(g_factor, len(code), dx), dx)
    c1 = tilde in _factor(h_group).codes
    c2 = True
    for y in range(dy):
        piece = code[y * dx : (y + 1) * dx]
        ok = g_factor.in_pi.get(piece)
        if ok is None:
            ok = g_factor.in_pi[piece] = _relabel(piece, bytearray(256)) in g_factor.codes
        if not ok:
            c2 = False
            break
    return code, tilde, c1, c2


def wreath_partition_conditions(
    partition: SetPartition, g_group: PermGroup, h_group: PermGroup
) -> WreathConditions:
    """Decide whether the partition is realizable as an orbit partition in
    the imprimitive wreath product of G by H, condition by condition."""
    code, tilde, c1, c2 = _block_conditions(partition, g_group, h_group)
    dx = g_group.degree
    # Blocks of one induced part are aligned when each is aligned with the
    # previous block of its part.
    previous: dict[int, int] = {}
    c4 = True
    for z, part in enumerate(tilde):
        y = previous.get(part)
        previous[part] = z
        if y is not None and _translation(g_group, code, dx, y, z) is None:
            c4 = False
            break
    return WreathConditions(c1, c2, c4)


def build_wreath_element(
    partition: SetPartition, g_group: PermGroup, h_group: PermGroup
) -> Permutation:
    """Produce an element of the imprimitive wreath product of G by H whose
    orbit partition is the given one.

    Follows the constructive proof: pick h realizing the induced block
    partition, translations c along each h-orbit, then correct the first
    translation of each orbit so the round-trip product realizes the
    within-block restriction at the orbit representative.  An infeasible
    partition raises ValueError naming its first false condition: c1 and c2
    are read as in `wreath_partition_conditions`, and c4 fails exactly when
    a translation along an h-orbit is missing, since the h-orbits are the
    induced parts and alignment is an equivalence relation.
    """
    code, tilde, c1, c2 = _block_conditions(partition, g_group, h_group)
    for name, holds in (("c1", c1), ("c2", c2)):
        if not holds:
            raise ValueError("wreath criterion fails at condition %s" % name)
    dx, dy = g_group.degree, h_group.degree
    h = _realizing(h_group, tilde)

    f_parts: dict[int, Permutation] = {}
    for orbit in h.cycles():
        m = len(orbit)
        trans = []
        for t in range(m):
            c = _translation(g_group, code, dx, orbit[t], orbit[(t + 1) % m])
            if c is None:
                raise ValueError("wreath criterion fails at condition c4")
            trans.append(c)
        b = Permutation.identity(dx)
        for c in trans:
            b = b * c
        g_rep = _realizing(g_group, _restricted_code(code, orbit[0], dx))
        trans[0] = g_rep * b.inverse() * trans[0]
        for t, y in enumerate(orbit):
            f_parts[y] = trans[t]

    images = [0] * (dx * dy)
    for y in range(dy):
        fy = f_parts[y]
        target = h(y) * dx
        for x in range(dx):
            images[y * dx + x] = target + fy(x)
    k = Permutation(images)

    for y in range(dy):
        if len({k(y * dx + x) // dx for x in range(dx)}) != 1:
            raise PostconditionError("constructed element breaks block %d" % y)
    if k.orbit_partition() != partition:
        raise PostconditionError("constructed element does not realize %s" % partition)
    return k


def _centralizer_conditions(
    partition: SetPartition, g: Permutation
) -> tuple[bytes, list[tuple[int, ...]], bool]:
    """The partition's code, g's cycles, and the centralizer criterion read
    on the code: each label meets one cycle length, and relabelling the code
    read through g gives the code back."""
    if partition.degree != g.degree:
        raise ValueError("degree mismatch")
    code = partition.code()
    cycles = g.cycles()
    length_of = [0] * g.degree
    for cycle in cycles:
        for pt in cycle:
            length_of[pt] = len(cycle)
    feasible = len(set(zip(code, length_of))) == max(code) + 1 and (
        _relabel(g.images.translate(_table(code)), bytearray(256)) == code
    )
    return code, cycles, feasible


def centralizer_partition_conditions(partition: SetPartition, g: Permutation) -> bool:
    """Whether the partition is the orbit partition of an element commuting
    with g: no part may mix points from g-cycles of different lengths, and
    applying g must fix the partition."""
    return _centralizer_conditions(partition, g)[2]


def build_centralizer_element(partition: SetPartition, g: Permutation) -> Permutation:
    """Produce an element commuting with g whose orbit partition is the
    given one.

    Follows the constructive proof: work inside each part of the join of the
    partition with g's orbit partition, pick one part of the partition
    there, choose one representative per g-cycle inside it, and route each
    representative to the next, closing the loop with a shift by the least t
    that maps the chosen part back to itself under g^t.
    """
    _, cycles, feasible = _centralizer_conditions(partition, g)
    if not feasible:
        raise ValueError("partition is not realized in the centralizer")
    n = g.degree
    cycle_index: dict[int, tuple[int, int]] = {}
    for ci, cycle in enumerate(cycles):
        for pos, pt in enumerate(cycle):
            cycle_index[pt] = (ci, pos)

    labels = partition.rgs
    block_of = partition.blocks()

    images = list(range(n))
    merged = partition | g.orbit_partition()
    for part in merged.blocks():
        p0 = set(block_of[labels[part[0]]])
        m = len(cycles[cycle_index[part[0]][0]])

        t = 1
        current = {g(pt) for pt in p0}
        while current != p0:
            t += 1
            current = {g(pt) for pt in current}
        if not (t <= m and m % t == 0):
            raise PostconditionError("shift %d does not divide cycle length %d" % (t, m))

        reps = []
        seen_cycles = set()
        for pt in sorted(p0):
            ci = cycle_index[pt][0]
            if ci not in seen_cycles:
                seen_cycles.add(ci)
                reps.append(pt)
        if {cycle_index[pt][0] for pt in part} != seen_cycles:
            raise PostconditionError("chosen part misses a g-cycle of its join part")

        for j, rep in enumerate(reps):
            cycle = cycles[cycle_index[rep][0]]
            base = cycle_index[rep][1]
            if j + 1 < len(reps):
                nxt_cycle = cycles[cycle_index[reps[j + 1]][0]]
                nxt_base = cycle_index[reps[j + 1]][1]
                shift = 0
            else:
                nxt_cycle = cycles[cycle_index[reps[0]][0]]
                nxt_base = cycle_index[reps[0]][1]
                shift = t
            for e in range(m):
                src = cycle[(base + e) % m]
                images[src] = nxt_cycle[(nxt_base + e + shift) % m]

    h = Permutation(images)
    if h * g != g * h:
        raise PostconditionError("constructed element does not commute with %s" % g)
    if h.orbit_partition() != partition:
        raise PostconditionError("constructed element does not realize %s" % partition)
    return h
