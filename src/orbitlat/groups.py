"""Finite permutation groups backed by a deterministic stabilizer chain.

The chain is the classic Schreier-Sims structure: a list of base points,
strong generators, and orbit transversals.  All choices (base points, orbit
breadth-first order, generator order) are deterministic, so group order,
element streaming order, and every derived result are reproducible across
runs and machines.

A permutation is its images as `bytes`, so a group's degree is below 256,
and p followed by q is one call, ``p.translate(_table(q))``.  The chain
and its one walk, `_Chain.element_images`, work on these raw images: the
walk is the element stream, pruned by allowed base images when it is
given them, and the first-match search is its first match.  The
`Permutation` wrapper, which holds the same bytes, appears only at the
public surface.  Each strong generator is kept with its inverse and each
coset representative beside its inverse, so sifting and orbit extension
invert nothing.
"""

from __future__ import annotations

from collections.abc import Mapping, Set
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator

from .arith import is_prime, is_prime_power
from .errors import CapExceeded
from .partitions import _IDENTITY, SetPartition, _relabel, _table
from .perms import Permutation, _image_order, _invert_images, _orbit_rgs

DEFAULT_PI_CAP = 20_000_000
DEFAULT_SUBGROUP_CAP = 10_000

# Largest tail of the stabilizer chain that element_images multiplies out
# per call: big enough to amortize the head product, small enough to build
# in about a millisecond.
_TAIL_MAX = 1024


def _transversal(steps, pt: int, one: bytes) -> tuple[dict[int, bytes], dict[int, bytes]]:
    """The orbit of `pt` under the permutations `steps`, each a (table,
    inverse table) pair, with a representative for each orbit point x:
    `reps[x]` is u as images (`one` is the identity as images) and `inv[x]`
    is u^-1 as a table, where pt^u = x.

    The orbit is searched breadth first, each layer in sorted point order
    and each point by the steps in their order, so the representatives are
    the same on every run.  (u s)^-1 = s^-1 u^-1, so each inverse is built
    beside its representative and nothing is inverted.
    """
    reps = {pt: one}
    inv = {pt: _IDENTITY}
    frontier = [pt]
    while frontier:
        nxt = []
        for x in sorted(frontier):
            u, v = reps[x], inv[x]
            for s, s_inv in steps:
                y = s[x]
                if y not in inv:
                    reps[y] = u.translate(s)
                    inv[y] = s_inv.translate(v)
                    nxt.append(y)
        frontier = nxt
    return reps, inv


def _close_codes(codes: set[bytes], frontier: list[bytes], gens) -> None:
    """Add to `codes` every image of the codes in `frontier` (all members of
    `codes`) under the group generated by the permutations `gens` (images),
    stopping at codes already present."""
    table = bytearray(256)
    while frontier:
        code = frontier.pop()
        code_table = _table(code)
        for g in gens:
            image = _relabel(g.translate(code_table), table)
            if image not in codes:
                codes.add(image)
                frontier.append(image)


class _Chain:
    """Stabilizer chain with incremental deterministic Schreier-Sims.

    Level i stores base[i], the strong generators that fix base[:i] and move
    base[i], the transversal {point: u} over the coset representatives u
    with base[i]^u == point, and the inverse transversal {point: u^-1}.
    Both transversals are rebuilt by `_transversal` from the level's
    generators (levels i and deeper) at the start of each Schreier pass.

    Inside the chain every permutation is `bytes`: an element or a forward
    representative as its `degree` images, a strong generator or an inverse
    representative as a 256-byte table padded with the identity.  g followed
    by t is then `g.translate(t)`, one C call.  Each strong generator is
    inverted once, when it is inserted; each representative is built beside
    its inverse from the generator tables, so nothing else is inverted.
    New base points are the smallest point moved by the offending element.

    A Schreier pass at level i sifts h = u_x s u_{s[x]}^-1 for each point x
    of the orbit (sorted) and each strong generator s of levels i and
    deeper (in `_level_gens` order), except where h is known to be a member
    of the next level, under two rules:

    1. An h that is the identity, or a strong generator or its inverse, is
       not sifted.  h fixes base[:i+1], and a strong generator of level j
       moves base[j], so that generator lies at a level j > i, and h is a
       member of level i+1 by construction.  `strong` holds their images.
    2. A pair (x, s) that the last complete pass of the level proved is
       not visited: same generator s (by id; generators are never removed)
       and the same inverse representatives at x and s[x].  Its h is then
       the same element, a member of the next level then and still,
       because deeper levels only grow.  `_unproved` lists the others
       from the points whose representative changed.

    Every pair that can fail is still sifted in the same order, so the
    chain is the same by value as one whose passes sift every Schreier
    generator.

    `element_images` is the one walk of the chain: the whole element stream,
    or the part of it that maps named base points into allowed sets.
    `pi_set` streams the cosets of each level with it, and
    `PermGroup.first_element` is its first match.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.one = _IDENTITY[:degree]
        self.base: list[int] = []
        # Per level: (table, inverse table) of each strong generator.
        self.gens: list[list[tuple[bytes, bytes]]] = []
        self.reps: list[dict[int, bytes]] = []
        self.inverse: list[dict[int, bytes]] = []
        # Per level: ids of the generators and the inverse transversal of
        # the last complete Schreier pass.
        self.proved: list[tuple[set[int], dict[int, bytes]]] = []
        # The images of the identity and of every strong generator and its
        # inverse (rule 1 above).
        self.strong = {self.one}
        # Per level: (point, representative as a table) in sorted point
        # order, built by the first walk after the chain last changed.
        self.walk: list[list[tuple[int, bytes]]] | None = None

    def _new_level(self, pt: int):
        self.base.append(pt)
        self.gens.append([])
        self.reps.append({pt: self.one})
        self.inverse.append({pt: _IDENTITY})
        self.proved.append((set(), {}))

    def _level_gens(self, i: int) -> list[tuple[bytes, bytes]]:
        out = []
        for lvl in range(i, len(self.base)):
            out.extend(self.gens[lvl])
        return out

    def sift(self, g: bytes, start: int = 0) -> bytes:
        """Reduce g by transversal representatives; `one` iff g is a member."""
        base, inverse = self.base, self.inverse
        for i in range(start, len(base)):
            pt = base[i]
            img = g[pt]
            if img == pt:
                continue
            v = inverse[i].get(img)
            if v is None:
                return g
            # v is u^-1 as a table, so this is g followed by u^-1.
            g = g.translate(v)
        return g

    def __contains__(self, images: bytes) -> bool:
        return self.sift(images) == self.one

    def add(self, images: bytes):
        """Insert an element, extending the chain if it is not yet a member."""
        r = self.sift(images)
        if r == self.one:
            return
        self.walk = None
        j = self._insert(r)
        for i in range(j, -1, -1):
            self._validate(i)

    def _insert(self, g: bytes) -> int:
        g_inv = _invert_images(g)
        self.strong.update((g, g_inv))
        gen = (_table(g), _table(g_inv))
        for i, pt in enumerate(self.base):
            if g[pt] != pt:
                self.gens[i].append(gen)
                return i
        moved = min(i for i in range(self.degree) if g[i] != i)
        self._new_level(moved)
        self.gens[-1].append(gen)
        return len(self.base) - 1

    def _validate(self, i: int):
        """Restore the chain condition at level i, assuming deeper levels hold:
        the orbit of base[i] is closed and every Schreier generator sifts to
        the identity through the rest of the chain.  Passes are repeated
        until one completes; each sifts only the Schreier generators that
        neither rule of the class docstring skips."""
        while not self._schreier_pass(i):
            pass

    def _schreier_pass(self, i: int) -> bool:
        gens_i = self._level_gens(i)
        reps, inv = _transversal(gens_i, self.base[i], self.one)
        self.reps[i], self.inverse[i] = reps, inv
        default, special = self._unproved(i, gens_i)
        strong, one = self.strong, self.one
        for x in sorted(inv):
            u = reps[x]
            for s, _ in special.get(x, default):
                h = u.translate(s).translate(inv[s[x]])
                if h in strong:
                    continue
                r = self.sift(h, start=i + 1)
                if r != one:
                    j = self._insert(r)
                    for k in range(j, i, -1):
                        self._validate(k)
                    return False
        self.proved[i] = ({id(s) for s, _ in gens_i}, inv)
        return True

    def _unproved(self, i: int, gens_i: list[tuple[bytes, bytes]]):
        """The generators s of `gens_i` (in their order) whose Schreier
        generator at a point x of the level-i orbit the last complete pass
        did not prove: `special[x]` if x is a key, else `default`.

        s is proved at x when the last complete pass had s and the same
        inverse representatives at x and s[x].  So s is listed at x when it
        is new, when x is `changed` (its representative changed, or it is
        new to the orbit), or when s[x] is, that is x = s^-1[y] for a
        changed y.  Before the first complete pass every s is listed."""
        proved, old = self.proved[i]
        if not proved:
            return gens_i, {}
        changed = [x for x, v in self.inverse[i].items() if old.get(x) != v]
        special = dict.fromkeys(changed, gens_i)
        fresh = []
        image_changed: dict[int, list[int]] = {}
        for k, (s, s_inv) in enumerate(gens_i):
            if id(s) not in proved:
                fresh.append(k)
                continue
            for y in changed:
                x = s_inv[y]
                if x not in special:
                    image_changed.setdefault(x, []).append(k)
        for x, ks in image_changed.items():
            special[x] = [gens_i[k] for k in sorted(fresh + ks)]
        return [gens_i[k] for k in fresh], special

    @property
    def order(self) -> int:
        n = 1
        for inv in self.inverse:
            n *= len(inv)
        return n

    def element_images(self, allowed: Mapping | None = None) -> Iterator[bytes]:
        """Stream every element exactly once as a product over the transversals.

        The levels are walked depth first, each in sorted transversal point
        order, so the order is lexicographic in those points of levels 0, 1,
        ..., deepest level innermost.  Each head level is one `_descend`
        generator drawing lazily on the level above, so each prefix product
        of levels 0..i is made once and shared by every element below it.

        `allowed` maps points to the images an element may give them.  A
        prefix that maps a named base point outside its set is dropped with
        every element below it (the base-image backtrack; Seress,
        *Permutation Group Algorithms*, 9.1; Butler, LNCS 559): the prefix
        product p of levels 0..i-1 times the level-i representative for pt
        maps base[i] to p[pt], and deeper levels fix base[i].  The elements
        left are those of the whole stream, in the same order, that map
        every named base point into its set.

        The deepest levels that `allowed` does not name and whose product
        has at most _TAIL_MAX elements (never level 0) form a tail that is
        multiplied out once per call; each prefix of the remaining head
        levels is then applied to each tail element by one
        `bytes.translate` call.  The representatives are padded to tables
        by the first walk and kept in `walk` until the chain next changes.
        """
        allowed = allowed or {}
        if self.walk is None:
            self.walk = [[(pt, _table(reps[pt])) for pt in sorted(reps)] for reps in self.reps]
        levels = self.walk
        # An element is u_last followed by ... by u_1 by u_0; with head prefix
        # p and tail t it is t followed by p.  Levels `head` and deeper form
        # the tail.
        tail = [self.one]
        head = len(levels)
        while head > 1 and self.base[head - 1] not in allowed:
            if len(tail) * len(levels[head - 1]) > _TAIL_MAX:
                break
            head -= 1
            tail = [t.translate(u) for _, u in levels[head] for t in tail]
        heads = [_IDENTITY]
        for pt, reps in zip(self.base[:head], levels):
            heads = _descend(heads, reps, allowed.get(pt))
        for p in heads:
            for t in tail:
                yield t.translate(p)


def _descend(heads, reps, images) -> Iterator[bytes]:
    """Each head prefix p (a table), in order, extended by each level
    representative (pt, u) in order as u followed by p, keeping only those
    that map the level's base point into `images` unless it is None."""
    return (u.translate(p) for p in heads for pt, u in reps if images is None or p[pt] in images)


class PermGroup:
    """A permutation group of fixed degree, generated by explicit permutations."""

    def __init__(self, generators: Iterable[Permutation], degree: int | None = None):
        gens = tuple(generators)
        if degree is None:
            if not gens:
                raise ValueError("degree required for a generator-free group")
            degree = gens[0].degree
        if degree < 1:
            raise ValueError("degree must be at least 1")
        if degree >= 256:
            raise ValueError("permutation groups need degree below 256, got %d" % degree)
        for g in gens:
            if g.degree != degree:
                raise ValueError("generator degree %d != %d" % (g.degree, degree))
        self.degree = degree
        self.generators = gens
        self._chain = _Chain(degree)
        for g in gens:
            if not g.is_identity():
                self._chain.add(g.images)

    @property
    def order(self) -> int:
        return self._chain.order

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(self._chain.base)

    def __contains__(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            return False
        return p.images in self._chain

    def element_images(self) -> Iterator[bytes]:
        return self._chain.element_images()

    def first_element(self, test, allowed) -> Permutation | None:
        """The first element in stream order whose images (bytes) pass
        `test`, or None.  `allowed` maps points to the images that an
        element passing `test` may give them, so the first match of the
        pruned walk `_Chain.element_images(allowed)` is the first match of
        the whole stream."""
        found = next(filter(test, self._chain.element_images(allowed)), None)
        return None if found is None else Permutation(found)

    def orbits(self) -> list[list[int]]:
        """Orbits on points, each sorted, by least point.  Each is the
        transversal orbit under the strong generators, which generate the
        group."""
        chain = self._chain
        steps = chain._level_gens(0)
        out = []
        reached: set[int] = set()
        for pt in range(self.degree):
            if pt not in reached:
                orbit = sorted(_transversal(steps, pt, chain.one)[1])
                reached.update(orbit)
                out.append(orbit)
        return out

    def orbit_partition(self) -> SetPartition:
        return SetPartition.from_blocks(self.orbits(), self.degree)

    def is_transitive(self) -> bool:
        return len(self.orbits()) == 1

    def __repr__(self) -> str:
        return "PermGroup(degree=%d, order=%d)" % (self.degree, self.order)


@dataclass(frozen=True)
class PiSet:
    """The set of orbit partitions of a group's elements, as canonical codes.

    `codes` is the set that `pi_set` built, not a frozen copy: read it, do
    not change it.  A PiSet is not hashable."""

    degree: int
    codes: Set[bytes]
    source_order: int

    def __len__(self) -> int:
        return len(self.codes)

    def partitions(self) -> Iterator[SetPartition]:
        """All member partitions, sorted by canonical code."""
        for code in sorted(self.codes):
            yield SetPartition._trusted(code)


def pi_set(group: PermGroup, cap: int = DEFAULT_PI_CAP, workers: int = 1) -> PiSet:
    """Collect the orbit partition of every group element.

    The order must not exceed `cap`; the raised error reports the cap that
    would be required.  `workers` is accepted for existing callers and
    ignored: the work is serial.

    Level i of the chain holds G^(i), generated by the strong generators of
    levels i and deeper, with β = base[i] and Δ its G^(i)-orbit; G^(i+1) is
    the stabilizer of β in G^(i), and G^(k) = 1 for k = len(base).
    With C_x = {g in G^(i) : β^g = x}, G^(i) is the disjoint union of
    G^(i+1) = C_β and the C_x for x in Δ - {β}, so pi(G^(i)) = pi(G^(i+1))
    ∪ the pi(C_x).  The levels are taken deepest first, from pi(1) = {the
    identity's code}, and each adds its cosets C_x, x ≠ β; C_β is never
    streamed, since the levels below have made its codes.

    Conjugation permutes orbit partitions: pi(t^-1 g t) = pi(g)^t.  The
    `_transversal` of G^(i+1) from the least point r of each G^(i+1)-orbit
    O_r ≠ {β} on Δ, the one the chain builds for its own levels, gives for
    each b in O_r a t_b in G^(i+1) with r^t_b = b; then t_b^-1 C_r t_b =
    C_b, so pi(C_b) = pi(C_r)^t_b.  Only the cosets C_r are streamed
    (Seress, *Permutation Group Algorithms*, ch. 4), as the elements that
    fix base[:i] and map β to r, and each other b is reached by
    relabelling codes of C_r with t_b.  Nothing below depends on which t_b
    is chosen.

    Most of those relabels would repeat a code, so each is made only where
    it can be new.  Let R(Q) = {β^g : g in G^(i), pi(g) = Q}; for t in
    G^(i+1), R(Q^t) = R(Q)^t.  Lemma: if g in G^(i) realizes Q and β lies
    in a cycle B of g of length l, then g^j, also in G^(i), has the cycles
    of g for every j coprime to ord(g), so β^(g^-1) is in R(Q), and R(Q) =
    B - {β} when l is prime (the powers g^j then move β to every other
    point of B, and nothing realizing Q can move β out of B).  Emission
    rule: while C_r is streamed, each code P collects the points p =
    β^(g^-1) of its elements g; U is B - {β} if |B| is prime and {r} with
    every collected p otherwise, a subset of R(P) - {β} holding r (an
    element of C_r moves β).  P is relabelled to b only when min U^t_b =
    b, tested as an AND of per-point bitmasks over O_r (bit b set in
    mask[x] iff x^t_b > b; mask[r] and mask[β] are full).  Every Q of a
    coset C_x, x ≠ β, is still made: with m = min (R(Q) - {β}), in some
    O_r, P = Q^(t_m^-1) comes from C_r and U^t_m is a subset of R(Q) - {β}
    holding m.  Each code is thus relabelled about once, where closing the
    codes under the group's generators relabelled each once per generator.

    Deepest level first, the last and largest batch of codes is added to
    the set from a dict, which sizes the set's table once.
    """
    order = group.order
    if order > cap:
        raise CapExceeded(
            "group order %d exceeds enumeration cap %d" % (order, cap), required=order
        )
    chain = group._chain
    degree = group.degree
    primes = {n for n in range(2, degree + 1) if is_prime(n)}
    codes = {_orbit_rgs(chain.one)}
    table = bytearray(256)
    for i in range(len(chain.base) - 1, -1, -1):
        beta = chain.base[i]
        fixed = {pt: {pt} for pt in chain.base[:i]}
        # The strong generators of G^(i+1) as (table, inverse table), inverted by the chain.
        steps = chain._level_gens(i + 1)
        reached = {beta}
        for r in sorted(chain.inverse[i]):
            if r in reached:
                continue
            # A transversal of G^(i+1) on O_r, kept as inv[b] = t_b^-1.
            inv = _transversal(steps, r, chain.one)[1]
            reached.update(inv)
            stream = chain.element_images({**fixed, beta: {r}})
            if len(inv) == 1:
                codes.update(map(_orbit_rgs, stream))
                continue

            targets = list(inv)[1:]
            full = (1 << len(targets)) - 1
            mask = [0] * degree
            for k, b in enumerate(targets):
                bit = 1 << k
                # x^t_b > b exactly for the points x = y^(t_b^-1) with y > b.
                for x in inv[b][b + 1 : degree]:
                    mask[x] |= bit
            mask[r] = mask[beta] = full
            relabels = [inv[b][:degree] for b in targets]

            allowed: dict[bytes, int] = {}
            get = allowed.get
            for im in stream:
                code = _orbit_rgs(im)
                allowed[code] = get(code, full) & mask[im.index(beta)]
            codes.update(allowed)
            for code, bits in allowed.items():
                label = code[beta]
                size = code.count(label)
                if size in primes:
                    x = -1
                    for _ in range(size):
                        x = code.index(label, x + 1)
                        bits &= mask[x]
                code_table = _table(code)
                while bits:
                    low = bits & -bits
                    codes.add(_relabel(relabels[low.bit_length() - 1].translate(code_table), table))
                    bits ^= low
    return PiSet(degree, codes, order)


def _coset_closure(h_set, coset, gen_cols, cols):
    """Element set of the group K generated by the columns `gen_cols`, whose
    elements include generators of the subgroup H with element set `h_set`,
    grown as a union of right cosets H·x (see `subgroups`); `coset(cols[x])`
    lists H·x."""
    els = set(h_set)
    reps = [0]
    for r in reps:
        for col in gen_cols:
            x = col[r]
            if x not in els:
                reps.append(x)
                els.update(coset(cols[x]))
    return frozenset(els)


class _Columns(dict):
    """Right-multiplication columns of a group, built on first use: entry h
    of column x is the index of h·x, elements numbered in `elems` order."""

    def __init__(self, elems: list[bytes], index: dict[bytes, int]):
        super().__init__()
        self.elems = elems
        self.index = index

    def __missing__(self, x: int) -> list[int]:
        x_table = _table(self.elems[x])
        col = [self.index[h.translate(x_table)] for h in self.elems]
        self[x] = col
        return col


def subgroups(group: PermGroup) -> list[PermGroup]:
    """Every subgroup (each distinct element set once), smallest orders first.

    Subgroups are grown from the trivial group by adjoining one cyclic group
    of prime-power order at a time.  Every finite group is generated by its
    elements of prime-power order, so each subgroup is reached along a path
    of such extensions; insoluble subgroups are found too.

    The elements are numbered in sorted image order, so the identity is 0
    and index order is image order, and a subgroup is a frozenset of
    indices.  K = <H, g> is closed from H's known element set as a union of
    right cosets H·x (Dimino's algorithm; Butler, LNCS 559, ch. 6): for each
    coset representative r and each generator s of K, a product r·s outside
    the set adds the whole coset H·r·s and becomes a representative.  The
    set is always a union of whole right cosets, so when r·s is already in
    it, all of H·r·s is too, and the set is closed once every
    representative has been multiplied by every generator.  Products are
    read from right-multiplication columns (entry h of column x is the index
    of h·x), so r·s is one lookup and a coset H·x one `itemgetter` call.  A
    column is built the first time its element is a generator, a coset
    representative or conjugated, and then kept: at most |G| columns of |G|
    ints, 518,400 entries (about 4 MB of pointers) for sym:6.

    For a fixed H, a cyclic group conjugate under H to one already adjoined
    gives the same K, since <H, h⁻¹ c h> = <H, c> for h in H, so it is
    skipped; the first (H, g) that reaches each K is unchanged.
    """
    if group.order > DEFAULT_SUBGROUP_CAP:
        raise CapExceeded(
            "group order %d exceeds enumeration cap %d" % (group.order, DEFAULT_SUBGROUP_CAP),
            required=group.order,
        )
    elems = sorted(group.element_images())
    index = {im: i for i, im in enumerate(elems)}
    identity = elems[0]

    # Each cyclic group of prime-power order, by its least generator, and
    # for each of its generators the position of that least one.
    cyclics: dict[frozenset[int], int] = {}
    generates: dict[int, frozenset[int]] = {}
    for i, im in enumerate(elems[1:], 1):
        if is_prime_power(_image_order(im)):
            powers = [im]
            step = _table(im)
            while powers[-1] != identity:
                powers.append(powers[-1].translate(step))
            c_set = generates[i] = frozenset(map(index.__getitem__, powers))
            cyclics.setdefault(c_set, i)
    cyclic_gens = sorted(cyclics.values())
    position = {g: pos for pos, g in enumerate(cyclic_gens)}
    cyclic_of = {i: position[cyclics[c_set]] for i, c_set in generates.items()}
    inverse = [index[_invert_images(im)] for im in elems]

    cols = _Columns(elems, index)
    trivial = frozenset({0})
    found: dict[frozenset[int], tuple[int, ...]] = {trivial: ()}
    queue = [trivial]
    while queue:
        nxt = []
        for h_set in queue:
            h_gens = found[h_set]
            # H holds the identity 0, so the extra 0 only repeats x in H·x; it
            # keeps the getter returning a tuple when H is trivial.
            coset = itemgetter(0, *h_set)
            h_cols = [cols[s] for s in h_gens]
            conjugators = [(cols[s], inverse[s]) for s in h_gens]
            done = bytearray(len(cyclic_gens))
            for pos, g in enumerate(cyclic_gens):
                if done[pos] or g in h_set:
                    continue
                k_set = _coset_closure(h_set, coset, h_cols + [cols[g]], cols)
                if k_set not in found:
                    found[k_set] = h_gens + (g,)
                    nxt.append(k_set)
                # Mark the H-conjugates of <g>: y -> s⁻¹·y·s for each generator s of H.
                done[pos] = 1
                orbit = [g]
                for y in orbit:
                    col_y = cols[y]
                    for col_s, s_inv in conjugators:
                        z = col_s[col_y[s_inv]]
                        if not done[cyclic_of[z]]:
                            done[cyclic_of[z]] = 1
                            orbit.append(z)
        queue = nxt

    items = sorted(found.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    return [
        PermGroup([Permutation(elems[g]) for g in gens], group.degree) for _, gens in items
    ]
