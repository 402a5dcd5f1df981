"""Decision procedures for closure properties of a group's orbit partitions.

A group is join-coherent when the set of its elements' orbit partitions is
closed under the lattice join, and meet-coherent for the meet.  Both are
decided by one serial scan of the pairs of distinct partitions in
lexicographic order of their canonical codes.  The scan skips a row (one
partition against every later one) or a column already settled by the
group's symmetry or by the single-block partition, and passes a row with no
pairwise work when every partition above it (join) or below it (meet) is in
the set.  Only pairs that cannot fail are skipped, so the first failing pair
found is the lexicographically least one, which makes failure reports
reproducible.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import filterfalse, islice
from math import gcd

from .arith import factorize, is_prime_power
from .constructions import _affine, symmetric_group
from .groups import DEFAULT_PI_CAP, PermGroup, PiSet, _close_codes, pi_set, subgroups
from .partitions import (
    SetPartition,
    _coarsenings,
    _refinements,
    is_chain,
    join_codes,
    meet_codes,
)
from .perms import Permutation, _image_order, _orbit_rgs

_REPORT_FIELDS = (
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
)


@dataclass
class CoherenceReport:
    """Verdicts for one group; unevaluated checks stay None."""

    group: str
    degree: int
    order: int
    pi_size: int
    join_coherent: bool | None = None
    meet_coherent: bool | None = None
    is_chain: bool | None = None
    join_witness: tuple[SetPartition, SetPartition] | None = None
    meet_witness: tuple[SetPartition, SetPartition] | None = None
    ms_elapsed: int = 0

    def to_json(self) -> str:
        def render(value):
            if isinstance(value, tuple):
                return [str(p) for p in value]
            return value

        return json.dumps(
            {name: render(getattr(self, name)) for name in _REPORT_FIELDS}
        )


def _bell_numbers(count: int) -> tuple[int, ...]:
    """B(0)..B(count - 1), by the Bell triangle."""
    bell, row = [1], [1]
    while len(bell) < count:
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
        bell.append(row[0])
    return tuple(bell)


# Partitions of k points, read at min(k, 25).  B(25) > 4 * 10**18 exceeds the
# length of any list of codes, so a clamped count compares with one the same.
_BELL = _bell_numbers(26)


def _interval_size(code: bytes, join: bool, limit: int) -> int:
    """How many codes lie above (join) or below (meet) `code`, or some number
    above `limit` once the count passes it."""
    k = max(code) + 1
    if join:
        return _BELL[min(k, 25)]
    size = 1
    for label in range(k):
        size *= _BELL[min(code.count(label), 25)]
        if size > limit:
            break
    return size


def _closure_witness(pi: PiSet, generators: tuple[Permutation, ...], op_name: str):
    """First pair (by code order) whose join/meet escapes the set, or None.

    Rows are scanned in code order, each against later codes, and the scan
    stops at the first failure, so the witness is the lex-least failing pair.
    `cleared` holds codes whose pairs are all known to be closed: the
    single-block code (a | 1 = 1, a & 1 = a), and the orbit under the
    generators (by `groups._close_codes`) of each row that passed, because
    pi(G) is G-invariant and join and meet commute with the action.  A row in
    `cleared` is skipped, and so is a column in it.

    A row passes with no kernel call when its interval lies in pi(G): every
    a | b is a coarsening of a and every a & b a refinement of a.  The
    interval is listed only when it holds at most half as many codes as the
    row has columns, the later codes not in `cleared`, and the listing stops
    at its first code outside pi(G).  A row or pair skipped either way has no
    failing pair, so the witness is the one the full ordered scan finds.
    The kernels take and return bytes codes, so a pair is one kernel call
    and one lookup.
    """
    join = op_name == "join"
    op = join_codes if join else meet_codes
    interval = _coarsenings if join else _refinements
    codes = sorted(pi.codes)
    codeset = pi.codes
    gens = [g.images for g in generators]
    top = bytes(pi.degree)
    cleared = {top}
    # Every code lies below the single block, so when pi(G) lacks it no
    # row's coarsenings all lie in pi(G).
    by_interval = not join or top in codeset
    # A row's orbit adds only later codes: an earlier one would have been
    # a row that passed, and so would have cleared this one.
    columns = len(codes) - (top in codeset)
    for i, a in enumerate(codes):
        if a in cleared:
            continue
        columns -= 1
        # Listing a code costs about as much as a kernel call, and a listing
        # can fail at its last code, so a row lists at most half its columns.
        if not (
            by_interval
            and _interval_size(a, join, columns // 2) <= columns // 2
            and all(map(codeset.__contains__, interval(a)))
        ):
            for b in filterfalse(cleared.__contains__, islice(codes, i + 1, None)):
                if op(a, b) not in codeset:
                    return SetPartition._trusted(a), SetPartition._trusted(b)
        cleared.add(a)
        before = len(cleared)
        _close_codes(cleared, [a], gens)
        columns -= len(cleared) - before
    return None


def _has_element_of_full_order(group: PermGroup) -> bool:
    order = group.order
    return any(_image_order(im) == order for im in group.element_images())


def _pi_is_chain(pi: PiSet) -> bool:
    """Whether pi(G) is a chain.  Block counts strictly decrease along a chain
    of partitions of n points, so a chain has at most n members."""
    return len(pi) <= pi.degree and is_chain(pi.partitions())


def analyze(
    group: PermGroup,
    description: str = "",
    join: bool = True,
    meet: bool = True,
    chain: bool = True,
    cap: int = DEFAULT_PI_CAP,
) -> CoherenceReport:
    """Run the requested coherence checks and assemble one report."""
    t0 = time.monotonic()
    pi = pi_set(group, cap=cap)
    report = CoherenceReport(
        group=description, degree=group.degree, order=pi.source_order, pi_size=len(pi)
    )
    if join:
        witness = _closure_witness(pi, group.generators, "join")
        report.join_coherent = witness is None
        report.join_witness = witness
    if meet:
        witness = _closure_witness(pi, group.generators, "meet")
        report.meet_coherent = witness is None
        report.meet_witness = witness
    if chain:
        report.is_chain = _pi_is_chain(pi)
    report.ms_elapsed = int((time.monotonic() - t0) * 1000)
    return report


@dataclass(frozen=True)
class ChainClassification:
    is_chain: bool
    group_is_cyclic_prime_power: bool


def classify_chain(group: PermGroup) -> ChainClassification:
    """Whether the orbit partitions form a chain, and the structural test that
    must agree with it for finite groups: prime-power order plus an element
    whose order is the full group order."""
    chain = _pi_is_chain(pi_set(group))
    order = group.order
    structural = order == 1 or (is_prime_power(order) and _has_element_of_full_order(group))
    return ChainClassification(chain, structural)


def find_witness_element(group: PermGroup, partition: SetPartition) -> Permutation | None:
    """First element in stream order whose orbit partition equals P, if any.
    Such an element maps each point into its block of P, so the search
    skips every element that does not."""
    if partition.degree != group.degree:
        raise ValueError("degree mismatch")
    want = partition.code()
    blocks = [set(block) for block in partition.blocks()]
    allowed = {x: blocks[label] for x, label in enumerate(partition.rgs)}
    return group.first_element(lambda im: _orbit_rgs(im) == want, allowed)


# --- classification of groups with a regular normal cyclic subgroup --------


def _predict_normal_cyclic(n: int, h: tuple[int, ...]) -> bool:
    """Classification prediction for Z_n extended by multiplier subgroup h.

    Recomputed from first principles: split n into prime-power factors m_i;
    the kernel H_i of h acting away from factor i must multiply up to |h|
    (product decomposition), each factor group must be cyclic or the
    p^(a-1)+1 extension when a > 1 (any multiplier group is allowed on a
    prime factor, where the extension lies inside the full Frobenius group),
    and the factor group orders must be mutually coprime.
    """
    if n == 1:
        return True
    factors = sorted((p, a, p**a) for p, a in factorize(n).items())
    kernel_sizes = []
    factor_orders = []
    for p, a, m in factors:
        other = n // m
        kernel = sorted({u % m for u in h if u % other == 1 % other})
        kernel_sizes.append(len(kernel))
        factor_orders.append(m * len(kernel))
        if a > 1:
            r = p ** (a - 1) + 1
            allowed = {1 % m}
            x = r % m
            while x not in allowed:
                allowed.add(x)
                x = x * r % m
            if set(kernel) not in ({1 % m}, allowed):
                return False
    prod = 1
    for s in kernel_sizes:
        prod *= s
    if prod != len(h):
        return False
    for i in range(len(factor_orders)):
        for j in range(i + 1, len(factor_orders)):
            if gcd(factor_orders[i], factor_orders[j]) != 1:
                return False
    return True


@dataclass(frozen=True)
class NormalCyclicEntry:
    multipliers: tuple[int, ...]
    order: int
    verdict: bool
    prediction: bool


@dataclass(frozen=True)
class NormalCyclicReport:
    n: int
    entries: tuple[NormalCyclicEntry, ...]


def verify_normal_cyclic_classification(n: int) -> NormalCyclicReport:
    """Compare computed join-coherence against the structural prediction for
    every extension of the regular cyclic group Z_n by unit multipliers.

    The multiplier groups H <= (Z/n)^x are the subgroups of the multiplier
    action x -> ux on Z_n, each read off the images of 1.  `subgroups` lists
    them by order, then by sorted images, and the images of x -> ux are
    ordered by their entry at 1, which is u; so the entries come by size,
    then by sorted multiplier tuple.
    """
    if not 1 <= n <= 64:
        raise ValueError("n must be between 1 and 64")
    if n == 1:
        multiplier_groups = [(0,)]
    else:
        units = [u for u in range(2, n) if gcd(u, n) == 1]
        action = PermGroup([Permutation(tuple(x * u % n for x in range(n))) for u in units], n)
        multiplier_groups = [
            tuple(sorted(im[1] for im in sub.element_images())) for sub in subgroups(action)
        ]
    entries = []
    for h in multiplier_groups:
        group = _affine(n, h, n * len(h))
        report = analyze(group, meet=False, chain=False)
        entries.append(
            NormalCyclicEntry(
                multipliers=h,
                order=group.order,
                verdict=bool(report.join_coherent),
                prediction=_predict_normal_cyclic(n, h),
            )
        )
    return NormalCyclicReport(n, tuple(entries))


_CENSUS_DEGREE_MAX = 6


def census(degree: int, cap: int = DEFAULT_PI_CAP) -> Iterator[dict]:
    """Analyze every subgroup of the symmetric group of the given degree.

    Yields one record per subgroup, smallest orders first and otherwise in a
    fixed deterministic order, followed by a closing record under the single
    key "summary".  Degrees above 6 are refused; the subgroup count grows too
    quickly for an exhaustive sweep.
    """
    if not 1 <= degree <= _CENSUS_DEGREE_MAX:
        raise ValueError("census degree must be between 1 and %d" % _CENSUS_DEGREE_MAX)
    subs = subgroups(symmetric_group(degree))
    counts = {
        "transitive": 0,
        "join_coherent": 0,
        "meet_coherent": 0,
        "join_coherent_transitive": 0,
        "meet_coherent_transitive": 0,
    }
    for index, sub in enumerate(subs):
        report = analyze(sub, join=True, meet=True, chain=True, cap=cap)
        transitive = sub.is_transitive()
        counts["transitive"] += transitive
        counts["join_coherent"] += report.join_coherent
        counts["meet_coherent"] += report.meet_coherent
        counts["join_coherent_transitive"] += report.join_coherent and transitive
        counts["meet_coherent_transitive"] += report.meet_coherent and transitive
        yield {
            "index": index,
            "degree": degree,
            "order": report.order,
            "transitive": transitive,
            "pi_size": report.pi_size,
            "join_coherent": report.join_coherent,
            "meet_coherent": report.meet_coherent,
            "is_chain": report.is_chain,
            "generators": [p.cycle_string() for p in sub.generators],
        }
    yield {"summary": {"degree": degree, "groups": len(subs), **counts}}
