"""Acceptance suite: one test per release criterion.

Each test evaluates one claim from the verification registry and asserts
both the verdict and the runtime budget, so `pytest -v` prints one
pass/fail line per criterion.  Criterion 1 is split: the oracle-agreement
half passes, while the lattice-axiom half is expected to fail because the
partition lattice is genuinely not distributive; that failure is kept red
on purpose rather than weakening the claimed axiom list.
"""

import resource
import time

import pytest

import orbitlat.verification as verification


def run_claim(name, budget_seconds):
    registry = dict(verification.FAST_CLAIMS + verification.SLOW_CLAIMS)
    t0 = time.monotonic()
    ok, detail = registry[name]()
    elapsed = time.monotonic() - t0
    assert ok, "%s: %s" % (name, detail)
    assert elapsed < budget_seconds, "%s took %.1fs (budget %ds)" % (
        name,
        elapsed,
        budget_seconds,
    )
    return detail


def test_criterion_01a_join_meet_match_independent_oracles():
    run_claim("join-meet-match-independent-oracles", 10)


def test_criterion_01b_all_lattice_axioms_hold():
    run_claim("partition-lattice-axioms", 10)


def test_criterion_02_centralizers_join_and_meet_closed():
    run_claim("centralizers-join-and-meet-closed", 60)


def test_criterion_03_small_degree_verdict_table():
    run_claim("small-degree-verdict-table", 10)


def test_criterion_04_direct_product_coherence():
    run_claim("direct-product-coherence", 10)


def test_criterion_05_wreath_product_examples():
    run_claim("wreath-product-examples", 30)


def test_criterion_06_dihedral_and_one_dim_affine():
    run_claim("dihedral-and-one-dim-affine", 30)


def test_criterion_07_two_and_three_dim_linear_groups():
    run_claim("two-and-three-dim-linear-groups", 60)


def test_criterion_08_normal_cyclic_classification():
    run_claim("normal-cyclic-classification", 120)


def test_criterion_09_chain_iff_cyclic_prime_power():
    run_claim("chain-iff-cyclic-prime-power", 60)


def test_criterion_10_witness_builder_round_trips():
    run_claim("witness-builder-round-trips", 120)


def test_criterion_11_small_degree_census():
    run_claim("small-degree-census", 120)


@pytest.mark.slow
def test_criterion_12_large_group_non_coherence():
    t0 = time.monotonic()
    for name, _ in verification.SLOW_CLAIMS:
        run_claim(name, 1800)
    assert time.monotonic() - t0 < 1800, "combined large-group budget exceeded"
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert peak_kb < 2 * 1024 * 1024, "peak memory %d kB exceeds 2 GB" % peak_kb
