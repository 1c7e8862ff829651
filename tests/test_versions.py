from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from ricaudit.catalogs import load_catalogs
from ricaudit.errors import MalformedVersion
from ricaudit.severity import SeverityClass, classify_severity
from ricaudit.versions import (
    VersionPredicate,
    audit_components,
    parse_version,
)


class TestParseVersion:
    @pytest.mark.parametrize(
        "text,triple",
        [
            ("1.16.0", (1, 16, 0)),
            ("v3.5.4", (3, 5, 4)),
            ("20.10.21", (20, 10, 21)),
            ("0.7.5", (0, 7, 5)),
            ("1.2", (1, 2, 0)),
            (" 1.2.3 ", (1, 2, 3)),
            ("1.2.3+build5", (1, 2, 3)),
            ("v3.5.4+g1b5edb6", (3, 5, 4)),
            ("v1.16.0+k3s1", (1, 16, 0)),
            ("1.2.3+a.b-c.01", (1, 2, 3)),
        ],
    )
    def test_accepted(self, text, triple):
        version = parse_version(text)
        assert tuple(version) == triple

    @pytest.mark.parametrize(
        "text",
        ["latest", "1", "1.2.3.4", "1.2.3-beta", "1.2.3-beta+build5", "1.2.3+", "1.2.3+a..b",
         "1.2+build5", "latest+build5", "v", "", "one.two"],
    )
    def test_rejected(self, text):
        with pytest.raises(MalformedVersion):
            parse_version(text)

    def test_part_too_long_for_int_is_malformed(self):
        # More digits than int() converts from text (4,300 by default).
        with pytest.raises(MalformedVersion, match=r"not a numeric version: '9+\.\.\.9+\.1\.1' "
                                                   r"\(a part has too many digits\)$"):
            parse_version("9" * 5000 + ".1.1")

    def test_v_prefix_equality(self):
        assert parse_version("v3.5.4") == parse_version("3.5.4")


triples = st.tuples(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40))


def version_of(triple):
    return parse_version(".".join(str(n) for n in triple))


class TestOrdering:
    @given(triples, triples)
    def test_totality_and_antisymmetry(self, a, b):
        va, vb = version_of(a), version_of(b)
        assert (va < vb) or (vb < va) or (va == vb)
        if va < vb:
            assert not vb < va
        if va == vb:
            assert not va < vb and not vb < va

    @given(triples, triples, triples)
    def test_transitivity(self, a, b, c):
        va, vb, vc = version_of(a), version_of(b), version_of(c)
        if va <= vb and vb <= vc:
            assert va <= vc

    @given(triples, triples)
    def test_matches_tuple_order(self, a, b):
        assert (version_of(a) < version_of(b)) == (a < b)

    def test_render_parse_identity(self):
        version = parse_version("v1.16.0")
        assert tuple(parse_version(str(version))) == tuple(version)


class TestPredicates:
    def test_exact(self):
        pred = VersionPredicate.parse("== 1.16.0")
        assert pred.matches(parse_version("1.16.0"))
        assert not pred.matches(parse_version("1.16.1"))

    def test_inclusive_upper_bound(self):
        pred = VersionPredicate.parse("<= 3.5.4")
        assert pred.matches(parse_version("3.5.4"))
        assert pred.matches(parse_version("3.5.3"))
        assert not pred.matches(parse_version("3.6.0"))

    def test_bare_version_means_exact(self):
        assert VersionPredicate.parse("1.2.3").op == "=="


class TestBundledAdvisories:
    def test_entry_count(self):
        assert len(load_catalogs().advisories) == 4

    def test_components_and_counts(self):
        by_component = {a.component: a for a in load_catalogs().advisories}
        assert by_component["kubernetes"].cve_count == 23
        assert (by_component["kubernetes"].cvss_min,
                by_component["kubernetes"].cvss_max) == (3.0, 8.8)
        assert by_component["cni"].cve_count == 9
        assert (by_component["cni"].cvss_min, by_component["cni"].cvss_max) == (7.5, 8.2)
        assert by_component["docker"].cve_count == 31
        assert by_component["docker"].cvss_max == 9.8
        assert by_component["helm"].cve_count == 7
        assert (by_component["helm"].cvss_min, by_component["helm"].cvss_max) == (4.3, 8.6)

    def test_vulnerability_classes(self):
        by_component = {a.component: a for a in load_catalogs().advisories}
        assert "directory traversal" in by_component["kubernetes"].vulnerability_classes
        assert "server-side request forgery" in by_component["cni"].vulnerability_classes
        assert "improper certificate validation" in by_component["docker"].vulnerability_classes
        assert "memory corruption" in by_component["helm"].vulnerability_classes


class TestAuditComponents:
    def test_kubernetes_entry(self):
        audit = audit_components([("kubernetes", "1.16.0")], load_catalogs().advisories)
        assert len(audit.findings) == 1
        finding = audit.findings[0]
        assert finding.matched_entry.cve_count == 23
        assert (finding.matched_entry.cvss_min, finding.matched_entry.cvss_max) == (3.0, 8.8)

    def test_helm_entry(self):
        audit = audit_components([("helm", "3.5.4")], load_catalogs().advisories)
        assert audit.findings[0].matched_entry.cve_count == 7
        assert (audit.findings[0].matched_entry.cvss_min,
                audit.findings[0].matched_entry.cvss_max) == (4.3, 8.6)

    def test_component_without_advisory(self):
        audit = audit_components([("nginx", "1.25.0")], load_catalogs().advisories)
        assert audit.findings == []
        assert audit.errors == []

    def test_patched_version_no_finding(self):
        audit = audit_components([("kubernetes", "1.27.3")], load_catalogs().advisories)
        assert audit.findings == []

    def test_malformed_version_does_not_abort(self):
        audit = audit_components(
            [("kubernetes", "latest"), ("helm", "3.5.4")], load_catalogs().advisories
        )
        assert [f.component for f in audit.findings] == ["helm"]
        assert audit.errors == [
            "inventory entry 'kubernetes': not a numeric version: 'latest'"]

    def test_component_name_case_insensitive(self):
        audit = audit_components([("Kubernetes", "1.16.0")], load_catalogs().advisories)
        assert len(audit.findings) == 1

    def test_order_independent(self):
        inventory = [("docker", "20.10.21"), ("helm", "3.5.4"), ("cni", "0.7.5")]
        forward = audit_components(inventory, load_catalogs().advisories)
        backward = audit_components(list(reversed(inventory)), load_catalogs().advisories)
        assert forward.findings == backward.findings

    def test_sorted_by_severity_then_component(self):
        inventory = [
            ("kubernetes", "1.16.0"),
            ("cni", "0.7.5"),
            ("docker", "20.10.21"),
            ("helm", "3.5.4"),
        ]
        audit = audit_components(inventory, load_catalogs().advisories)
        keys = [(-f.severity, f.component) for f in audit.findings]
        assert keys == sorted(keys)
        assert audit.findings[0].component == "docker"  # 9.8 is the only Critical

    def test_severity_derived_from_cvss_max(self):
        audit = audit_components(
            [("docker", "20.10.21"), ("kubernetes", "1.16.0")], load_catalogs().advisories
        )
        for finding in audit.findings:
            assert finding.severity is classify_severity(finding.matched_entry.cvss_max)
        assert {f.component: f.severity for f in audit.findings} == {
            "docker": SeverityClass.CRITICAL,
            "kubernetes": SeverityClass.HIGH,
        }
