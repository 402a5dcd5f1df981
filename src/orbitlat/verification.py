"""Registry of the computational claims the library is expected to reproduce.

Each claim is a named, self-contained check returning a verdict and a short
detail string.  The fast suite covers the small-degree results; the slow
suite adds the large sporadic and semilinear groups.  Claims are evaluated
with fixed random seeds so their output is identical across runs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from importlib import resources
from math import gcd

from .coherence import (
    analyze,
    census,
    classify_chain,
    verify_normal_cyclic_classification,
)
from .constructions import (
    build_group,
    centralizer_in_sym,
    load_generators,
    symmetric_group,
    wreath_imprimitive,
)
from .groups import PermGroup, pi_set, subgroups
from .partitions import SetPartition, _relabel, all_partitions
from .perms import Permutation
from .witnesses import (
    build_centralizer_element,
    build_wreath_element,
    centralizer_partition_conditions,
    wreath_partition_conditions,
)

_SEED = 987654321


@dataclass(frozen=True)
class ClaimResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _random_partition(rng: random.Random, degree: int) -> SetPartition:
    labels = bytes([rng.randrange(degree) for _ in range(degree)])
    return SetPartition(_relabel(labels, bytearray(256)))


def _join_oracle(a: SetPartition, b: SetPartition) -> SetPartition:
    """Join by explicit transitive closure of the union relation, using
    bitmask rows; an implementation independent of the disjoint-set path."""
    n = a.degree
    reach = [0] * n
    for p in (a, b):
        for block in p.blocks():
            mask = 0
            for x in block:
                mask |= 1 << x
            for x in block:
                reach[x] |= mask
    for k in range(n):
        bit = 1 << k
        row = reach[k]
        for i in range(n):
            if reach[i] & bit:
                reach[i] |= row
    seen = 0
    blocks = []
    for x in range(n):
        if not seen & (1 << x):
            block = [y for y in range(n) if reach[x] & (1 << y)]
            seen |= reach[x]
            blocks.append(block)
    return SetPartition.from_blocks(blocks, n)


def _meet_oracle(a: SetPartition, b: SetPartition) -> SetPartition:
    """Meet by explicit pairwise block intersection."""
    blocks = []
    for block_a in a.blocks():
        sa = set(block_a)
        for block_b in b.blocks():
            inter = sorted(sa.intersection(block_b))
            if inter:
                blocks.append(inter)
    return SetPartition.from_blocks(blocks, a.degree)


def _claim_lattice_oracles() -> tuple[bool, str]:
    rng = random.Random(_SEED)
    trials = 10_000
    for _ in range(trials):
        n = rng.randint(1, 12)
        a = _random_partition(rng, n)
        b = _random_partition(rng, n)
        if a | b != _join_oracle(a, b):
            return False, "join mismatch on %s and %s" % (a, b)
        if a & b != _meet_oracle(a, b):
            return False, "meet mismatch on %s and %s" % (a, b)
    return True, "join and meet agree with independent oracles on %d random pairs" % trials


_LAWS = (
    ("commutativity of join", lambda p, q, r: p | q == q | p),
    ("commutativity of meet", lambda p, q, r: p & q == q & p),
    ("associativity of join", lambda p, q, r: (p | q) | r == p | (q | r)),
    ("associativity of meet", lambda p, q, r: (p & q) & r == p & (q & r)),
    ("idempotence of join", lambda p, q, r: p | p == p),
    ("idempotence of meet", lambda p, q, r: p & p == p),
    ("absorption join-meet", lambda p, q, r: p | (p & q) == p),
    ("absorption meet-join", lambda p, q, r: p & (p | q) == p),
    ("distributivity of meet over join", lambda p, q, r: p & (q | r) == (p & q) | (p & r)),
    ("distributivity of join over meet", lambda p, q, r: p | (q & r) == (p | q) & (p | r)),
)


def _claim_lattice_axioms() -> tuple[bool, str]:
    rng = random.Random(_SEED + 1)
    for _ in range(2_000):
        n = rng.randint(1, 8)
        p, q, r = (_random_partition(rng, n) for _ in range(3))
        for law, holds in _LAWS:
            if not holds(p, q, r):
                return False, "%s fails at p=%s q=%s r=%s (degree %d)" % (law, p, q, r, n)
    return True, "all lattice laws hold on 2000 random triples"


def _spec_report(text: str, join: bool = True, meet: bool = True):
    return analyze(build_group(text), description=text, join=join, meet=meet, chain=False)


def _expect(failures: list[str], label: str, got, want) -> None:
    if got != want:
        failures.append("%s: expected %s, got %s" % (label, want, got))


def _finish(failures: list[str], passed_detail: str) -> tuple[bool, str]:
    if failures:
        return False, "; ".join(failures)
    return True, passed_detail


def _claim_verdict_table_small() -> tuple[bool, str]:
    failures: list[str] = []
    for n in range(1, 7):
        report = _spec_report("sym:%d" % n)
        _expect(failures, "sym:%d join" % n, report.join_coherent, True)
        _expect(failures, "sym:%d meet" % n, report.meet_coherent, True)
    for n in range(4, 7):
        report = _spec_report("alt:%d" % n)
        _expect(failures, "alt:%d join" % n, report.join_coherent, False)
        _expect(failures, "alt:%d meet" % n, report.meet_coherent, False)
    regular = _spec_report("dprod:(cyclic:2,cyclic:2)")
    _expect(failures, "regular 2x2 meet", regular.meet_coherent, True)
    _expect(failures, "regular 2x2 join", regular.join_coherent, False)
    frob = _spec_report("frob:7,3")
    _expect(failures, "frob:7,3 join", frob.join_coherent, True)
    _expect(failures, "frob:7,3 meet", frob.meet_coherent, False)
    twelve = PermGroup(
        [
            Permutation.from_cycles("(1 7)(4 10)", 12),
            Permutation.from_cycles("(1 2 3 4 5 6 7 8 9 10 11 12)", 12),
        ]
    )
    _expect(failures, "degree-12 pair order", twelve.order, 48)
    _expect(failures, "degree-12 pair join", analyze(twelve, meet=False, chain=False).join_coherent, True)
    return _finish(failures, "19 small-degree verdicts reproduced")


_PRODUCT_PAIRS = (
    ("cyclic:2", "cyclic:2"),
    ("cyclic:2", "cyclic:3"),
    ("sym:3", "cyclic:2"),
    ("sym:3", "cyclic:4"),
)


def _claim_direct_products() -> tuple[bool, str]:
    failures: list[str] = []
    for left, right in _PRODUCT_PAIRS:
        g = analyze(build_group(left), chain=False)
        h = analyze(build_group(right), chain=False)
        coprime = gcd(g.order, h.order) == 1
        pair = "(%s,%s)" % (left, right)
        dprod = _spec_report("dprod:%s" % pair, meet=False)
        _expect(
            failures,
            "dprod:%s join" % pair,
            dprod.join_coherent,
            g.join_coherent and h.join_coherent and coprime,
        )
        dsum = _spec_report("dsum:%s" % pair)
        _expect(
            failures,
            "dsum:%s join" % pair,
            dsum.join_coherent,
            g.join_coherent and h.join_coherent,
        )
        _expect(
            failures,
            "dsum:%s meet" % pair,
            dsum.meet_coherent,
            g.meet_coherent and h.meet_coherent,
        )
    return _finish(
        failures,
        "product join-coherence tracks coprimality and sum coherence tracks factors on %d pairs"
        % len(_PRODUCT_PAIRS),
    )


def _claim_wreath_examples() -> tuple[bool, str]:
    failures: list[str] = []
    for text in ("wr:(cyclic:2,cyclic:3)", "wr:(cyclic:3,cyclic:2)"):
        _expect(failures, text + " join", _spec_report(text, meet=False).join_coherent, True)
    s3wr = _spec_report("wr:(sym:3,cyclic:2)")
    _expect(failures, "wr:(sym:3,cyclic:2) join", s3wr.join_coherent, True)
    _expect(failures, "wr:(sym:3,cyclic:2) meet", s3wr.meet_coherent, False)
    a4wr = _spec_report("wr:(alt:4,cyclic:2)", meet=False)
    _expect(failures, "wr:(alt:4,cyclic:2) join", a4wr.join_coherent, False)
    return _finish(failures, "5 wreath-product verdicts reproduced")


_FROBENIUS_CASES = ((7, 3), (11, 5), (9, 2), (15, 2))


def _claim_dihedral_and_affine() -> tuple[bool, str]:
    failures: list[str] = []
    for n in (3, 5, 7, 11):
        report = _spec_report("dihedral:%d" % n, join=False)
        _expect(failures, "dihedral:%d meet" % n, report.meet_coherent, True)
    _expect(failures, "dihedral:9 meet", _spec_report("dihedral:9", join=False).meet_coherent, False)
    for n, r in _FROBENIUS_CASES:
        text = "frob:%d,%d" % (n, r)
        report = _spec_report(text, meet=False)
        prime = all(n % d for d in range(2, n)) and n > 1
        _expect(failures, text + " join", report.join_coherent, prime)
    return _finish(failures, "dihedral meet verdicts and affine join verdicts reproduced")


_LINEAR_CASES = (
    ("lin:2,2,GL,points", True),
    ("lin:2,3,GL,points", False),
    ("lin:2,3,GL,lines", True),
    ("lin:3,2,GL,lines", False),
    ("lin:3,3,SL,lines", False),
    ("lin:3,3,GL,lines", False),
    ("lin:2,4,GL·Frob,lines", True),
)


def _claim_linear_groups() -> tuple[bool, str]:
    failures: list[str] = []
    for text, want in _LINEAR_CASES:
        report = _spec_report(text, meet=False)
        _expect(failures, text + " join", report.join_coherent, want)
    return _finish(failures, "%d linear-group join verdicts reproduced" % len(_LINEAR_CASES))


_NORMAL_CYCLIC_MODULI = (4, 6, 8, 9, 10, 12, 15, 16, 25, 27)


def _claim_normal_cyclic() -> tuple[bool, str]:
    failures: list[str] = []
    checked = 0
    for n in _NORMAL_CYCLIC_MODULI:
        report = verify_normal_cyclic_classification(n)
        checked += len(report.entries)
        for entry in report.entries:
            if entry.verdict != entry.prediction:
                failures.append(
                    "n=%d multipliers=%s verdict=%s prediction=%s"
                    % (n, list(entry.multipliers), entry.verdict, entry.prediction)
                )
    return _finish(failures, "verdict matches prediction for %d multiplier groups" % checked)


def _claim_chain_characterization() -> tuple[bool, str]:
    failures: list[str] = []
    checked = 0
    for n in range(1, 6):
        for sub in subgroups(symmetric_group(n)):
            checked += 1
            result = classify_chain(sub)
            if result.is_chain != result.group_is_cyclic_prime_power:
                failures.append(
                    "degree %d order %d: chain=%s cyclic-prime-power=%s"
                    % (n, sub.order, result.is_chain, result.group_is_cyclic_prime_power)
                )
    return _finish(failures, "chain property matches structure on %d subgroups" % checked)


def _centralizer_cases(rng: random.Random, n: int, count: int):
    for _ in range(count):
        images = list(range(n))
        rng.shuffle(images)
        g = Permutation(images)
        cent_codes = pi_set(centralizer_in_sym(g)).codes
        if rng.random() < 0.5:
            code = rng.choice(sorted(cent_codes))
            partition = SetPartition(code)
        else:
            partition = _random_partition(rng, n)
        yield g, partition, cent_codes


def _claim_witness_round_trips() -> tuple[bool, str]:
    rng = random.Random(_SEED + 2)
    cent_checked = 0
    for n in range(1, 9):
        for g, partition, cent_codes in _centralizer_cases(rng, n, 500):
            cent_checked += 1
            feasible = centralizer_partition_conditions(partition, g)
            if feasible != (partition.code() in cent_codes):
                return False, "centralizer criterion wrong for g=%s P=%s" % (
                    g.cycle_string(),
                    partition,
                )
            if feasible:
                built = build_centralizer_element(partition, g)
                if built * g != g * built or built.orbit_partition() != partition:
                    return False, "centralizer postcondition failed for g=%s P=%s" % (
                        g.cycle_string(),
                        partition,
                    )

    wreath_checked = 0
    small = [sub for n in range(1, 4) for sub in subgroups(symmetric_group(n))]

    for g_group in small:
        for h_group in small:
            if g_group.order ** h_group.degree * h_group.order > 10_000:
                continue
            wreath = wreath_imprimitive(g_group, h_group)
            wreath_codes = pi_set(wreath).codes
            for partition in all_partitions(wreath.degree):
                wreath_checked += 1
                feasible = wreath_partition_conditions(partition, g_group, h_group).overall
                if feasible != (partition.code() in wreath_codes):
                    return False, "wreath criterion wrong for |G|=%d |H|=%d P=%s" % (
                        g_group.order,
                        h_group.order,
                        partition,
                    )
                if feasible:
                    built = build_wreath_element(partition, g_group, h_group)
                    if built.orbit_partition() != partition:
                        return False, "wreath postcondition failed for P=%s" % partition
    return True, "%d centralizer cases and %d wreath cases round-trip" % (
        cent_checked,
        wreath_checked,
    )


_CENSUS_EXPECTED = {4: (4, 4, 4, 8, 8, 8, 24), 5: (5, 5, 5, 5, 5, 5, 10, 10, 10, 10, 10, 10, 20, 20, 20, 20, 20, 20, 120)}


def _claim_census() -> tuple[bool, str]:
    failures: list[str] = []
    for degree, expected in sorted(_CENSUS_EXPECTED.items()):
        records = [r for r in census(degree) if "summary" not in r]
        hits = [r for r in records if r["transitive"] and r["join_coherent"]]
        _expect(
            failures,
            "degree %d join-coherent transitive orders" % degree,
            tuple(sorted(r["order"] for r in hits)),
            expected,
        )
        for r in hits:
            if r["order"] == degree and not r["is_chain"]:
                failures.append("degree %d: regular non-cyclic group listed" % degree)
    return _finish(failures, "census matches the predicted transitive lists at degrees 4 and 5")


def _packaged_group(name: str) -> PermGroup:
    source = resources.files("orbitlat.data").joinpath(name)
    with resources.as_file(source) as path:
        return load_generators(path)


def _claim_big_join(group: PermGroup, label: str, expected_order: int) -> tuple[bool, str]:
    if group.order != expected_order:
        return False, "%s order %d, expected %d" % (label, group.order, expected_order)
    report = analyze(group, description=label, meet=False, chain=False)
    if report.join_coherent:
        return False, "%s unexpectedly join-coherent" % label
    a, b = report.join_witness
    return True, "%s (order %d, %d orbit partitions) join fails at %s v %s" % (
        label,
        expected_order,
        report.pi_size,
        a,
        b,
    )


def _claim_m11() -> tuple[bool, str]:
    return _claim_big_join(_packaged_group("m11.gens"), "mathieu-11", 7920)


def _claim_psl_2_11() -> tuple[bool, str]:
    return _claim_big_join(_packaged_group("psl2_11.gens"), "psl-2-11", 660)


def _claim_psl_3_4_frob() -> tuple[bool, str]:
    return _claim_big_join(
        build_group("lin:3,4,SL·Frob,lines"), "psl-3-4-with-frobenius", 40_320
    )


def _claim_pgl_3_4_frob() -> tuple[bool, str]:
    return _claim_big_join(
        build_group("lin:3,4,GL·Frob,lines"), "pgl-3-4-with-frobenius", 120_960
    )


def _claim_m23() -> tuple[bool, str]:
    return _claim_big_join(_packaged_group("m23.gens"), "mathieu-23", 10_200_960)


def _claim_centralizer_closure() -> tuple[bool, str]:
    failures: list[str] = []
    checked = 0
    for n in range(1, 7):
        for images in symmetric_group(n).element_images():
            checked += 1
            g = Permutation(images)
            report = analyze(centralizer_in_sym(g), chain=False)
            if not report.join_coherent:
                failures.append("centralizer of %s not join-closed" % g.cycle_string())
            if not report.meet_coherent:
                failures.append("centralizer of %s not meet-closed" % g.cycle_string())
    return _finish(failures, "all %d centralizers join- and meet-closed" % checked)


FAST_CLAIMS = (
    ("join-meet-match-independent-oracles", _claim_lattice_oracles),
    ("partition-lattice-axioms", _claim_lattice_axioms),
    ("centralizers-join-and-meet-closed", _claim_centralizer_closure),
    ("small-degree-verdict-table", _claim_verdict_table_small),
    ("direct-product-coherence", _claim_direct_products),
    ("wreath-product-examples", _claim_wreath_examples),
    ("dihedral-and-one-dim-affine", _claim_dihedral_and_affine),
    ("two-and-three-dim-linear-groups", _claim_linear_groups),
    ("normal-cyclic-classification", _claim_normal_cyclic),
    ("chain-iff-cyclic-prime-power", _claim_chain_characterization),
    ("witness-builder-round-trips", _claim_witness_round_trips),
    ("small-degree-census", _claim_census),
)

SLOW_CLAIMS = (
    ("mathieu-11-not-join-coherent", _claim_m11),
    ("psl-2-11-not-join-coherent", _claim_psl_2_11),
    ("psl-3-4-frobenius-not-join-coherent", _claim_psl_3_4_frob),
    ("pgl-3-4-frobenius-not-join-coherent", _claim_pgl_3_4_frob),
    ("mathieu-23-not-join-coherent", _claim_m23),
)


def run_verify_paper(slow: bool = False) -> list[ClaimResult]:
    """Evaluate every fast claim, plus the slow ones when requested."""
    results = []
    registry = FAST_CLAIMS + (SLOW_CLAIMS if slow else ())
    for name, fn in registry:
        t0 = time.monotonic()
        ok, detail = fn()
        results.append(ClaimResult(name, ok, detail, time.monotonic() - t0))
    return results


def format_report(results: list[ClaimResult]) -> str:
    """Render one PASS/FAIL line per claim plus a closing count line."""
    lines = []
    for result in results:
        if result.ok:
            lines.append("PASS %s: %s" % (result.name, result.detail))
        else:
            lines.append("FAIL %s: %s" % (result.name, result.detail))
    passed = sum(r.ok for r in results)
    lines.append("%d passed, %d failed" % (passed, len(results) - passed))
    return "\n".join(lines)
