"""Executable forms of the two constructive realizability criteria.

Given a target partition, decide whether it is the orbit partition of some
element of an imprimitive wreath product or of a symmetric-group centralizer,
and when it is, actually produce such an element.  Both builders follow the
constructive halves of the corresponding proofs step by step, then check
their postconditions (also under ``python -O``), so a slip in the
bookkeeping cannot go unnoticed.

Both criteria are read on the canonical code.  The wreath criterion reads
it one block of dx points at a time, and keeps what it learnt of the first
dy - 1 blocks for the next code with the same prefix: codes in lex order
share a prefix in runs, so most of them cost one step for their last block.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .coherence import find_witness_element
from .errors import PostconditionError
from .groups import PermGroup, pi_set
from .partitions import _IDENTITY, SetPartition, _relabel, _table, join_codes
from .perms import Permutation, _cycles, _invert_images, _orbit_rgs

# The part of a label that no earlier block carries.
_NEW = 255


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


# The eight possible reports, shared by every call.
_REPORTS = {flags: WreathConditions(*flags) for flags in product((False, True), repeat=3)}


class _Factor:
    """What the wreath criterion reads of one factor group: its pi codes and
    memos of answers that depend on the factor alone, never on the
    partition being decided.

    `first_match` maps the canonical code of a pair of block slices to the
    first translation aligning them (or None); `in_pi` maps a raw block
    slice to whether its partition is in pi(G); `realizing` maps a code to
    the first element realizing it.  `prefix` is one slot: the `_Prefix`
    state of the last code decided with this factor as G, replaced when a
    code with another outer factor or another prefix comes.
    """

    def __init__(self, group: PermGroup):
        self.codes: Set[bytes] = pi_set(group, cap=group.order).codes
        self.first_match: dict[bytes, Permutation | None] = {}
        self.in_pi: dict[bytes, bool] = {}
        self.realizing: dict[bytes, Permutation] = {}
        self.prefix: _Prefix | None = None


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


def _in_pi(factor: _Factor, piece: bytes) -> bool:
    """Whether the partition a block slice induces is in pi(G) (condition c2
    for that block), kept by the raw slice."""
    ok = factor.in_pi.get(piece)
    if ok is None:
        ok = factor.in_pi[piece] = _relabel(piece, bytearray(256)) in factor.codes
    return ok


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


def _join_block(parts: bytes, touched: bytes, z: int) -> tuple[bytes, bytearray, list[int]]:
    """Add block z to the induced partition of the blocks before it.

    `parts` names each earlier block's part by the least block in it, and
    `touched` gives, for each point of block z, the part of its label
    (`_NEW` for a label no earlier block carries).  Block z joins every part
    it touches into one, named by the least of them (or by z).  Returns the
    parts with z added, the table that renames the joined parts, and the
    joined parts in order."""
    joined = sorted(set(touched).difference((_NEW,)))
    root = joined[0] if joined else z
    rename = bytearray(_IDENTITY)
    for part in joined:
        rename[part] = root
    return parts.translate(rename) + bytes((root,)), rename, joined


class _Prefix:
    """The wreath criterion after the first dy - 1 blocks of a code, for one
    pair (G, H).

    The induced partition of the blocks is built block by block: a block
    joins the parts of the earlier blocks that carry one of its labels, so
    the parts are the classes of "some label meets both", closed
    transitively.  c4 is kept along the way.  Alignment by a translation
    from G is an equivalence relation, and each part is aligned so far, so
    a block keeps c4 when it is aligned with the last block of every part it
    joins.  The state holds c2 and c4 of the prefix, `table` (a label's
    part, or `_NEW`), `parts` (each block's part, named by its least block),
    `ends` (each part's last block) and `closed`, which maps the parts a last
    block touches, read through `table`, to c1, the induced code and the
    last blocks it must be aligned with.
    """

    def __init__(self, prefix: bytes, g_group: PermGroup, h_group: PermGroup):
        self.h_group = h_group
        self.prefix = prefix
        dx = g_group.degree
        g_factor = _factor(g_group)
        self.c2 = self.c4 = True
        table = bytearray(b"\xff" * 256)
        parts = b""
        ends = [0] * h_group.degree
        for z in range(len(prefix) // dx):
            block = prefix[z * dx : (z + 1) * dx]
            self.c2 = self.c2 and _in_pi(g_factor, block)
            parts, rename, joined = _join_block(parts, block.translate(table), z)
            for y in joined:
                if self.c4 and _translation(g_group, prefix, dx, ends[y], z) is None:
                    self.c4 = False
            ends[parts[z]] = z
            table = table.translate(rename)
            for label in block:
                table[label] = parts[z]
        self.table = bytes(table)
        self.parts = parts
        self.ends = ends
        self.closed: dict[bytes, tuple[bool, bytes, tuple[int, ...]]] = {}

    def close(self, touched: bytes) -> tuple[bool, bytes, tuple[int, ...]]:
        """c1, the induced code and the last blocks of the joined parts, for
        a last block whose labels lie in these parts."""
        found = self.closed.get(touched)
        if found is None:
            parts, _, joined = _join_block(self.parts, touched, len(self.parts))
            tilde = _relabel(parts, bytearray(256))
            c1 = tilde in _factor(self.h_group).codes
            found = self.closed[touched] = (c1, tilde, tuple(self.ends[y] for y in joined))
        return found


def _wreath_verdict(
    code: bytes, g_group: PermGroup, h_group: PermGroup
) -> tuple[bool, bool, bool, bytes]:
    """Conditions c1, c2 and c4 of the wreath criterion for a code, and the
    code of its induced block partition.

    The state of the first dy - 1 blocks is G's `_Factor.prefix` slot,
    rebuilt when H or the prefix differs from the last call's; the last
    block then costs one `translate`, one lookup in the state's `closed`
    memo and one `_translation` per part it joins."""
    dx, dy = g_group.degree, h_group.degree
    if len(code) != dx * dy:
        raise ValueError("partition degree %d does not match %d x %d" % (len(code), dx, dy))
    g_factor = _factor(g_group)
    cut = len(code) - dx
    state = g_factor.prefix
    if state is None or state.h_group is not h_group or not code.startswith(state.prefix):
        state = g_factor.prefix = _Prefix(code[:cut], g_group, h_group)
    last = code[cut:]
    c1, tilde, ends = state.close(last.translate(state.table))
    c2 = state.c2 and _in_pi(g_factor, last)
    c4 = state.c4
    for y in ends:
        if c4 and _translation(g_group, code, dx, y, dy - 1) is None:
            c4 = False
    return c1, c2, c4, tilde


def wreath_partition_conditions(
    partition: SetPartition, g_group: PermGroup, h_group: PermGroup
) -> WreathConditions:
    """Decide whether the partition is realizable as an orbit partition in
    the imprimitive wreath product of G by H, condition by condition."""
    c1, c2, c4, _ = _wreath_verdict(partition.code(), g_group, h_group)
    return _REPORTS[c1, c2, c4]


def build_wreath_element(
    partition: SetPartition, g_group: PermGroup, h_group: PermGroup
) -> Permutation:
    """Produce an element of the imprimitive wreath product of G by H whose
    orbit partition is the given one.

    Follows the constructive proof: pick h realizing the induced block
    partition, translations c along each h-orbit, then correct the first
    translation of each orbit so the round-trip product realizes the
    within-block restriction at the orbit representative.  An infeasible
    partition raises ValueError naming its first false condition, read as
    in `wreath_partition_conditions`.  The h-orbits are the induced parts,
    so under c4 every translation along one exists.
    """
    code = partition.code()
    c1, c2, c4, tilde = _wreath_verdict(code, g_group, h_group)
    for name, holds in (("c1", c1), ("c2", c2), ("c4", c4)):
        if not holds:
            raise ValueError("wreath criterion fails at condition %s" % name)
    dx, dy = g_group.degree, h_group.degree
    h = _realizing(h_group, tilde).images

    # Each block y is sent to block h(y) by its translation, so k's images
    # on it are those of the translation shifted by h(y) * dx.  Products
    # compose images as Permutation does: p * q is p.translate(_table(q)).
    images = bytearray(dx * dy)
    for orbit in _cycles(h):
        m = len(orbit)
        trans = []
        for t in range(m):
            c = _translation(g_group, code, dx, orbit[t], orbit[(t + 1) % m])
            if c is None:
                raise PostconditionError("no translation along h-orbit %s under c4" % (orbit,))
            trans.append(c.images)
        b = _IDENTITY[:dx]
        for c in trans:
            b = b.translate(_table(c))
        g_rep = _realizing(g_group, _restricted_code(code, orbit[0], dx)).images
        trans[0] = g_rep.translate(_table(_invert_images(b))).translate(_table(trans[0]))
        for y, c in zip(orbit, trans):
            target = h[y] * dx
            images[y * dx : (y + 1) * dx] = c.translate(_IDENTITY[target:] + _IDENTITY[:target])
    k = Permutation(bytes(images))

    for y in range(dy):
        landing = k.images[y * dx : (y + 1) * dx]
        if min(landing) // dx != max(landing) // dx:
            raise PostconditionError("constructed element breaks block %d" % y)
    if k.orbit_partition() != partition:
        raise PostconditionError("constructed element does not realize %s" % partition)
    return k


def _centralizer_conditions(
    partition: SetPartition, g: Permutation
) -> tuple[bytes, bytes, bytes, bool]:
    """The partition's code, the code of g's cycles, each cycle's length,
    and the centralizer criterion read on the code: each label meets one
    cycle length, and relabelling the code read through g gives the code
    back.  The cycle code labels cycles by their least point, as
    `Permutation.cycles` orders them."""
    if partition.degree != g.degree:
        raise ValueError("degree mismatch")
    code = partition.code()
    cycles = _orbit_rgs(g.images)
    lengths = bytes(map(cycles.count, range(max(cycles) + 1)))
    feasible = len(set(zip(code, cycles.translate(_table(lengths))))) == max(code) + 1 and (
        _relabel(g.images.translate(_table(code)), bytearray(256)) == code
    )
    return code, cycles, lengths, feasible


def centralizer_partition_conditions(partition: SetPartition, g: Permutation) -> bool:
    """Whether the partition is the orbit partition of an element commuting
    with g: no part may mix points from g-cycles of different lengths, and
    applying g must fix the partition."""
    return _centralizer_conditions(partition, g)[3]


def build_centralizer_element(partition: SetPartition, g: Permutation) -> Permutation:
    """Produce an element commuting with g whose orbit partition is the
    given one.

    Follows the constructive proof: work inside each part of the join of the
    partition with g's orbit partition, pick the part of the partition at
    its least point, choose one representative per g-cycle inside it (the
    least point of each), and route each representative to the next,
    closing the loop with a shift by the least t that maps the chosen part
    back to itself under g^t.

    Everything is read on the codes.  A feasible partition is fixed by g,
    so g maps each part onto a part: the one carrying the label of g(p) for
    any point p of it.  So g^t maps the chosen part to itself exactly when
    the label map l -> code[g(p)], p in l, does so to its label, and the
    least t is the length of that label's cycle under the map, found
    without building a set of points.  The routing walks each g-cycle from
    its representative with g, in the order `Permutation.cycles` lists it.
    """
    code, cycles, lengths, feasible = _centralizer_conditions(partition, g)
    if not feasible:
        raise ValueError("partition is not realized in the centralizer")
    step = g.images
    merged = join_codes(code, cycles)
    # g maps each part onto a part, so every point of a label gives the
    # label map the same image.
    label_map = dict(zip(code, step.translate(_table(code))))
    # One pass: the least point of each merged part, the least point of
    # each (label, g-cycle) pair by label in point order, and the number of
    # g-cycles in each merged part.
    starts: list[int] = []
    reps: list[list[int]] = [[] for _ in range(max(code) + 1)]
    cycle_count = [0] * (max(merged) + 1)
    cycles_met = 0
    met: set[tuple[int, int]] = set()
    for pt, (label, cycle, part) in enumerate(zip(code, cycles, merged)):
        if part == len(starts):
            starts.append(pt)
        if cycle == cycles_met:
            cycles_met += 1
            cycle_count[part] += 1
        if (label, cycle) not in met:
            met.add((label, cycle))
            reps[label].append(pt)

    images = bytearray(_IDENTITY[: g.degree])
    for start in starts:
        label = code[start]
        m = lengths[cycles[start]]
        t, image = 1, label_map[label]
        while image != label and t <= m:
            t, image = t + 1, label_map[image]
        if not (t <= m and m % t == 0):
            raise PostconditionError("shift %d does not divide cycle length %d" % (t, m))
        chosen = reps[label]
        if len(chosen) != cycle_count[merged[start]]:
            raise PostconditionError("chosen part misses a g-cycle of its join part")
        last = chosen[0]
        for _ in range(t):
            last = step[last]
        for src, dst in zip(chosen, chosen[1:] + [last]):
            for _ in range(m):
                images[src] = dst
                src, dst = step[src], step[dst]

    h = Permutation(bytes(images))
    if h * g != g * h:
        raise PostconditionError("constructed element does not commute with %s" % g)
    if h.orbit_partition() != partition:
        raise PostconditionError("constructed element does not realize %s" % partition)
    return h
