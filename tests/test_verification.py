import pytest

import orbitlat.verification as verification
from orbitlat.partitions import SetPartition
from orbitlat.verification import (
    ClaimResult,
    FAST_CLAIMS,
    SLOW_CLAIMS,
    format_report,
    run_verify_paper,
)


class TestReportFormat:
    def test_lines_and_counts(self):
        text = format_report(
            [
                ClaimResult("alpha", True, "fine", 0.2),
                ClaimResult("beta", False, "off by one", 1.5),
            ]
        )
        assert text.splitlines() == [
            "PASS alpha: fine",
            "FAIL beta: off by one",
            "1 passed, 1 failed",
        ]

    def test_no_timings_in_output(self):
        # byte-identical output across runs requires timing stays internal
        text = format_report([ClaimResult("alpha", True, "fine", 0.123456)])
        assert "0.12" not in text

    def test_empty(self):
        assert format_report([]) == "0 passed, 0 failed"


class TestRegistry:
    def test_names_are_unique_and_stable(self):
        names = [name for name, _ in FAST_CLAIMS + SLOW_CLAIMS]
        assert len(names) == len(set(names)) == 17
        assert names[0] == "join-meet-match-independent-oracles"
        assert names[-1] == "mathieu-23-not-join-coherent"

    def test_run_uses_registry(self, monkeypatch):
        calls = []

        def make(name, ok):
            def fn():
                calls.append(name)
                return ok, "d"

            return fn

        monkeypatch.setattr(
            verification, "FAST_CLAIMS", (("a", make("a", True)), ("b", make("b", False)))
        )
        monkeypatch.setattr(verification, "SLOW_CLAIMS", (("c", make("c", True)),))
        results = run_verify_paper()
        assert [r.name for r in results] == ["a", "b"]
        assert [r.ok for r in results] == [True, False]
        assert calls == ["a", "b"]
        assert all(r.seconds >= 0 for r in results)

        calls.clear()
        results = run_verify_paper(slow=True)
        assert [r.name for r in results] == ["a", "b", "c"]
        assert calls[-1] == "c"


class TestOracleClaims:
    def test_join_meet_oracle_claim_passes(self):
        ok, detail = verification._claim_lattice_oracles()
        assert ok, detail
        assert "10000" in detail or "pairs" in detail

    def test_axiom_claim_reports_distributivity_failure(self):
        # the partition lattice is not distributive, and the claim must
        # find a concrete three-partition counterexample rather than pass
        ok, detail = verification._claim_lattice_axioms()
        assert not ok
        assert "distributivity" in detail

    def test_tampered_join_breaks_oracle_agreement(self, monkeypatch):
        monkeypatch.setattr(SetPartition, "__or__", lambda a, b: a)
        ok, detail = verification._claim_lattice_oracles()
        assert not ok
        assert "join" in detail

    def test_tampered_join_breaks_commutativity(self, monkeypatch):
        monkeypatch.setattr(SetPartition, "__or__", lambda a, b: a)
        ok, detail = verification._claim_lattice_axioms()
        assert not ok
        assert "commutativity" in detail

    def test_tampered_meet_is_detected(self, monkeypatch):
        monkeypatch.setattr(SetPartition, "__and__", lambda a, b: b)
        ok, detail = verification._claim_lattice_oracles()
        assert not ok
        assert "meet" in detail


class TestFastClaimSpotChecks:
    # cheap members of the registry, run directly so a regression names
    # the failing table row instead of a whole acceptance criterion
    @pytest.mark.parametrize(
        "name",
        [
            "small-degree-verdict-table",
            "direct-product-coherence",
            "dihedral-and-one-dim-affine",
        ],
    )
    def test_claim_passes(self, name):
        fn = dict(FAST_CLAIMS)[name]
        ok, detail = fn()
        assert ok, detail
