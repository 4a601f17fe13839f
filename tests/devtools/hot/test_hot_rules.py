"""Rule-level assertions against the seeded hotpkg fixture package.

The rule (P007) has true positives *and* near-misses in the package;
the suite pins both directions so analyzer changes cannot silently
widen or narrow it.
"""

from __future__ import annotations


def _by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


def _lines(findings, rule, filename):
    return sorted(
        f.line for f in _by_rule(findings, rule) if f.path.endswith(filename)
    )


def _sites(findings):
    return {(f.path.rsplit("/", 1)[-1], f.line) for f in findings}


class TestTruePositives:
    def test_p007_densification_sites(self, hotpkg_findings):
        assert _lines(hotpkg_findings, "P007", "pipeline.py") == [9, 12, 17]
        messages = " ".join(f.message for f in _by_rule(hotpkg_findings, "P007"))
        assert ".toarray()" in messages
        assert ".todense()" in messages

    def test_exact_finding_count(self, hotpkg_findings):
        assert len(hotpkg_findings) == 3

    def test_every_message_carries_a_cost_tag(self, hotpkg_findings):
        assert all("[cost " in f.message for f in hotpkg_findings)


class TestNearMisses:
    def test_cold_densify_not_flagged(self, hotpkg_findings):
        # P007 is hot-gated: utils.cold_densify is unreachable from any
        # registered entry, so its todense() stays legal.
        assert not any(
            f.path.endswith("utils.py") for f in _by_rule(hotpkg_findings, "P007")
        )

    def test_toarray_outside_loop_not_flagged(self, hotpkg_findings):
        assert ("pipeline.py", 11) not in _sites(hotpkg_findings)


class TestSuppression:
    def test_inline_marker_silences_p007(self, hotpkg_findings):
        # _quiet_total's todense() is hot (one call below densify_grid)
        # and carries `# repro-hot: disable=P007`.
        assert ("pipeline.py", 21) not in _sites(hotpkg_findings)
