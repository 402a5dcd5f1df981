"""Finite permutation groups backed by a deterministic stabilizer chain.

The chain is the classic Schreier-Sims structure: a list of base points,
strong generators, and orbit transversals.  All choices (base points, orbit
breadth-first order, generator order) are deterministic, so group order,
element streaming order, and every derived result are reproducible across
runs and machines.  Each level stores the inverses of its coset
representatives, so sifting and orbit extension are single `itemgetter`
compositions; the chain is the same by value as one built from forward
representatives.

Elements are handled internally as raw image tuples; the `Permutation`
wrapper appears only at the public surface.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from typing import Iterable, Iterator

from .arith import is_prime_power
from .errors import CapExceeded
from .partitions import SetPartition
from .perms import Permutation, _compose_images, _image_order, _invert_images, _orbit_rgs

DEFAULT_PI_CAP = 20_000_000
DEFAULT_SUBGROUP_CAP = 10_000

# 'fork' keeps worker start cheap and lets shards share the chain read-only.
_PARALLEL_MIN_ORDER = 200_000

# Largest tail of the stabilizer chain that element_images multiplies out
# per call: big enough to amortize the head product, small enough to build
# in about a millisecond.
_TAIL_MAX = 1024


def _usable_workers(workers: int) -> int:
    """The requested worker count, at most the CPUs this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not provided on macOS and Windows
        cpus = os.cpu_count() or 1
    return min(workers, cpus)


class _Chain:
    """Stabilizer chain with incremental deterministic Schreier-Sims.

    Level i stores base[i], the strong generators that fix base[:i] and move
    base[i], and the inverse transversal {point: u^-1} over the coset
    representatives u with base[i]^u == point.  Keeping the inverses makes
    every sifting step and every orbit extension a single `itemgetter`
    composition.  New base points are the smallest point moved by the
    offending element, after any caller-supplied hint prefix.

    A Schreier pass skips a pair (x, s) that the last complete pass of its
    level already proved: same generator s (by id; generators are never
    removed) and the same representatives at x and s[x].  That Schreier
    generator is then the same element, a member of the next level then
    and still, because deeper levels only grow.  Every pair that can fail
    is still sifted in the same order, so the chain is the same by value
    as one whose passes sift every pair.
    """

    def __init__(self, degree: int, base_hint: Iterable[int] = ()):
        self.degree = degree
        self.identity = tuple(range(degree))
        self.base: list[int] = []
        self.gens: list[list[tuple[int, ...]]] = []
        self.inverse: list[dict[int, tuple[int, ...]]] = []
        # Per level: ids of the generators and the inverse transversal of
        # the last complete Schreier pass.
        self.proved: list[tuple[set[int], dict[int, tuple[int, ...]]]] = []
        for pt in base_hint:
            self._new_level(pt)

    def _new_level(self, pt: int):
        self.base.append(pt)
        self.gens.append([])
        self.inverse.append({pt: self.identity})
        self.proved.append((set(), {}))

    def _level_gens(self, i: int) -> list[tuple[int, ...]]:
        out = []
        for lvl in range(i, len(self.base)):
            out.extend(self.gens[lvl])
        return out

    def sift(self, g, start: int = 0):
        """Reduce g by transversal representatives; identity iff g is a member."""
        for i in range(start, len(self.base)):
            img = g[self.base[i]]
            if img == self.base[i]:
                continue
            v = self.inverse[i].get(img)
            if v is None:
                return g
            # g moves a point, so the degree is at least 2 and this is a tuple.
            g = itemgetter(*g)(v)
        return g

    def add(self, g):
        """Insert an element, extending the chain if it is not yet a member."""
        r = self.sift(g)
        if r == self.identity:
            return
        j = self._insert(r)
        for i in range(j, -1, -1):
            self._validate(i)

    def _insert(self, g) -> int:
        for i, pt in enumerate(self.base):
            if g[pt] != pt:
                self.gens[i].append(g)
                return i
        moved = min(i for i in range(self.degree) if g[i] != i)
        self._new_level(moved)
        self.gens[-1].append(g)
        return len(self.base) - 1

    def _validate(self, i: int):
        """Restore the chain condition at level i, assuming deeper levels hold:
        the orbit of base[i] is closed and every Schreier generator sifts to
        the identity through the rest of the chain.  Passes are repeated
        until one completes; each sifts only the Schreier generators that the
        last complete pass of this level did not prove."""
        while not self._schreier_pass(i):
            pass

    def _rebuild_orbit(self, i: int):
        # (u s)^-1 = s^-1 u^-1: prepend each generator's inverse.
        steps = [(s, itemgetter(*_invert_images(s))) for s in self._level_gens(i)]
        inv = {self.base[i]: self.identity}
        frontier = [self.base[i]]
        while frontier:
            nxt = []
            for x in sorted(frontier):
                v = inv[x]
                for s, s_inv in steps:
                    y = s[x]
                    if y not in inv:
                        inv[y] = s_inv(v)
                        nxt.append(y)
            frontier = nxt
        self.inverse[i] = inv

    def _schreier_pass(self, i: int) -> bool:
        self._rebuild_orbit(i)
        inv = self.inverse[i]
        gens_i = self._level_gens(i)
        proved, old = self.proved[i]
        identity = self.identity
        for x in sorted(inv):
            u = itemgetter(*_invert_images(inv[x]))
            kept = old.get(x) == inv[x]
            for s in gens_i:
                if kept and id(s) in proved and old.get(s[x]) == inv[s[x]]:
                    continue
                ux = u(s)
                h = itemgetter(*ux)(inv[s[x]])
                if h == identity:
                    continue
                r = self.sift(h, start=i + 1)
                if r != identity:
                    j = self._insert(r)
                    for k in range(j, i, -1):
                        self._validate(k)
                    return False
        self.proved[i] = ({id(s) for s in gens_i}, inv)
        return True

    @property
    def order(self) -> int:
        n = 1
        for inv in self.inverse:
            n *= len(inv)
        return n

    def element_images(self, shard: tuple[int, int] | None = None) -> Iterator[tuple[int, ...]]:
        """Stream every element exactly once as a product over the transversals.

        The order is deterministic: lexicographic in the sorted transversal
        points of levels 0, 1, ..., deepest level innermost.  The stored
        inverse representatives are inverted back once per call.  The deepest
        levels whose product has at most _TAIL_MAX elements (never level 0)
        form a tail that is multiplied out once per call; every product of
        the remaining head levels is then composed with each tail element by
        one `itemgetter` call.

        With shard=(k, m), only the cosets of the level-0 transversal whose
        sorted position is congruent to k mod m are produced, so the shards
        over k = 0..m-1 partition the group.
        """
        if not self.base:
            if shard is None or shard[0] == 0:
                yield self.identity
            return

        levels = [[_invert_images(inv[pt]) for pt in sorted(inv)] for inv in self.inverse]
        split = len(levels)
        size = 1
        while split > 1 and size * len(levels[split - 1]) <= _TAIL_MAX:
            split -= 1
            size *= len(levels[split])
        # element[i] = u_0[u_1[...u_last[i]]]; with head p and tail t this is p[t[i]].
        tail = [self.identity]
        for reps in reversed(levels[split:]):
            getters = [itemgetter(*t) for t in tail]
            tail = [get(u) for u in reps for get in getters]
        getters = [itemgetter(*t) for t in tail]

        if shard is not None:
            levels[0] = levels[0][shard[0] :: shard[1]]
        for head in product(*levels[:split]):
            p = head[0]
            for u in head[1:]:
                p = itemgetter(*u)(p)
            for get in getters:
                yield get(p)


class PermGroup:
    """A permutation group of fixed degree, generated by explicit permutations."""

    def __init__(
        self,
        generators: Iterable[Permutation],
        degree: int | None = None,
        base_hint: Iterable[int] = (),
    ):
        gens = tuple(generators)
        if degree is None:
            if not gens:
                raise ValueError("degree required for a generator-free group")
            degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise ValueError("generator degree %d != %d" % (g.degree, degree))
        self.degree = degree
        self.generators = gens
        self._chain = _Chain(degree, base_hint)
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
        return self._chain.sift(p.images) == self._chain.identity

    def element_images(self, shard=None) -> Iterator[tuple[int, ...]]:
        return self._chain.element_images(shard)

    def first_element(self, test) -> Permutation | None:
        """The first element in stream order whose image tuple passes `test`."""
        for im in self._chain.element_images():
            if test(im):
                return Permutation(im)
        return None

    def elements(self) -> Iterator[Permutation]:
        """All elements in deterministic stream order, each exactly once."""
        for im in self._chain.element_images():
            yield Permutation(im)

    def orbits(self) -> list[list[int]]:
        """Orbits on points, by breadth-first closure under the generators."""
        gens = [g.images for g in self.generators]
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if not seen[start]:
                orbit = [start]
                seen[start] = True
                queue = [start]
                while queue:
                    nxt = []
                    for x in queue:
                        for g in gens:
                            y = g[x]
                            if not seen[y]:
                                seen[y] = True
                                orbit.append(y)
                                nxt.append(y)
                    queue = nxt
                out.append(sorted(orbit))
        return out

    def orbit_partition(self) -> SetPartition:
        return SetPartition.from_blocks(self.orbits(), self.degree)

    def is_transitive(self) -> bool:
        return len(self.orbits()) == 1

    def __repr__(self) -> str:
        return "PermGroup(degree=%d, order=%d)" % (self.degree, self.order)


@dataclass(frozen=True)
class PiSet:
    """The set of orbit partitions of a group's elements, as canonical codes."""

    degree: int
    codes: frozenset[bytes]
    source_order: int

    def __len__(self) -> int:
        return len(self.codes)

    def partitions(self) -> Iterator[SetPartition]:
        """All member partitions, sorted by canonical code."""
        for code in sorted(self.codes):
            yield SetPartition(tuple(code))


_WORKER_GROUP: PermGroup | None = None


def _pi_init(group):
    global _WORKER_GROUP
    _WORKER_GROUP = group


def _pi_shard(args) -> set[bytes]:
    k, m = args
    return {_orbit_rgs(im) for im in _WORKER_GROUP.element_images(shard=(k, m))}


def pi_set(group: PermGroup, cap: int = DEFAULT_PI_CAP, workers: int = 1) -> PiSet:
    """Collect the orbit partition of every group element.

    Streams the whole group, so the order must not exceed `cap`; the raised
    error reports the cap that would be required.  With workers > 1 the
    element stream is sharded by level-0 coset and merged, which cannot
    change the resulting set.  The worker count is clamped to the usable CPUs.
    """
    workers = _usable_workers(workers)
    order = group.order
    if order > cap:
        raise CapExceeded(
            "group order %d exceeds enumeration cap %d" % (order, cap), required=order
        )
    if workers > 1 and order >= _PARALLEL_MIN_ORDER and len(group.base) > 0:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_pi_init, initargs=(group,)
        ) as pool:
            shards = pool.map(_pi_shard, [(k, workers) for k in range(workers)])
            codes: set[bytes] = set()
            for shard in shards:
                codes |= shard
    else:
        codes = {_orbit_rgs(im) for im in group.element_images()}
    return PiSet(group.degree, frozenset(codes), order)


def _coset_closure(h_set, gens, identity, limit: int | None):
    """Element set of the group K generated by `gens`, which include
    generators of the subgroup H with element set `h_set`, grown as a union
    of right cosets H·x (see `subgroups`); None as soon as K would have more
    than `limit` elements."""
    els = set(h_set)
    reps = [identity]
    for r in reps:
        for s in gens:
            x = _compose_images(r, s)
            if x not in els:
                if limit is not None and len(els) + len(h_set) > limit:
                    return None
                reps.append(x)
                els.update(_compose_images(h, x) for h in h_set)
    return frozenset(els)


def subgroups(
    group: PermGroup,
    order_cap: int | None = None,
    enumeration_cap: int = DEFAULT_SUBGROUP_CAP,
) -> list[PermGroup]:
    """Every subgroup (each distinct element set once), smallest orders first.

    Subgroups are grown from the trivial group by adjoining one cyclic group
    of prime-power order at a time.  Every finite group is generated by its
    elements of prime-power order, so each subgroup is reached along a path
    of such extensions; insoluble subgroups are found too.

    K = <H, g> is closed from H's known element set as a union of right
    cosets H·x (Dimino's algorithm; Butler, LNCS 559, ch. 6): for each
    coset representative r and each generator s of K, a product r·s outside
    the set adds the whole coset H·r·s and becomes a representative.  The
    set is always a union of whole right cosets, so when r·s is already in
    it, all of H·r·s is too, and the set is closed once every
    representative has been multiplied by every generator.
    """
    if group.order > enumeration_cap:
        raise CapExceeded(
            "group order %d exceeds enumeration cap %d" % (group.order, enumeration_cap),
            required=group.order,
        )
    degree = group.degree
    identity = tuple(range(degree))

    cyclics: dict[frozenset, tuple[int, ...]] = {}
    for im in sorted(group.element_images()):
        if im != identity and is_prime_power(_image_order(im)):
            powers = [im]
            while powers[-1] != identity:
                powers.append(_compose_images(powers[-1], im))
            cyclics.setdefault(frozenset(powers), im)
    cyclic_items = sorted(cyclics.items(), key=lambda kv: kv[1])

    trivial = frozenset({identity})
    found: dict[frozenset, tuple] = {trivial: ()}
    queue = [trivial]
    while queue:
        nxt = []
        for h_set in queue:
            h_gens = found[h_set]
            for c_set, g in cyclic_items:
                if c_set <= h_set:
                    continue
                k_set = _coset_closure(h_set, h_gens + (g,), identity, order_cap)
                if k_set is not None and k_set not in found:
                    found[k_set] = h_gens + (g,)
                    nxt.append(k_set)
        queue = nxt

    items = sorted(found.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    return [
        PermGroup([Permutation(g) for g in gens], degree)
        for els, gens in items
        if order_cap is None or len(els) <= order_cap
    ]
