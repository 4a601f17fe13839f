"""Rule-level assertions against the seeded concpkg fixture package.

Every rule C001 and C003–C006 has at least one true positive *and* one
near-miss in the package; the suite pins both directions so analyzer
changes cannot silently widen or narrow a rule.
"""

from __future__ import annotations


def _by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


def _lines(findings, rule, filename):
    return sorted(
        f.line for f in _by_rule(findings, rule) if f.path.endswith(filename)
    )


class TestTruePositives:
    def test_c001_shared_state_mutations(self, concpkg_findings):
        found = _by_rule(concpkg_findings, "C001")
        assert _lines(concpkg_findings, "C001", "workers.py") == [32, 36]
        assert all("_RESULT_CACHE" in f.message for f in found)

    def test_c003_unseeded_rng_in_worker(self, concpkg_findings):
        (finding,) = _by_rule(concpkg_findings, "C003")
        assert finding.path.endswith("workers.py")
        assert finding.line == 50
        assert "[D001]" in finding.message

    def test_c004_raw_write_in_worker(self, concpkg_findings):
        (finding,) = _by_rule(concpkg_findings, "C004")
        assert finding.path.endswith("workers.py")
        assert finding.line == 58

    def test_c005_incomplete_cache_keys(self, concpkg_findings):
        found = _by_rule(concpkg_findings, "C005")
        assert _lines(concpkg_findings, "C005", "caching.py") == [46, 56, 88]
        messages = " ".join(f.message for f in found)
        assert "limit" in messages and "parameter" in messages
        assert "_SUFFIX" in messages and "module global" in messages

    def test_c005_temporal_field_omitted(self, concpkg_findings):
        # EpochSummaries.stale reads self._epoch but never keys it.
        (finding,) = [
            f
            for f in _by_rule(concpkg_findings, "C005")
            if "temporal field" in f.message
        ]
        assert finding.line == 88
        assert "'epoch'" in finding.message
        assert "EpochSummaries.stale" in finding.message

    def test_c006_fork_unsafe_submissions(self, concpkg_findings):
        assert _lines(concpkg_findings, "C006", "driver.py") == [30, 37, 41]
        messages = " ".join(f.message for f in _by_rule(concpkg_findings, "C006"))
        assert "lambda" in messages
        assert "helper" in messages
        assert "lock" in messages

    def test_exact_finding_count(self, concpkg_findings):
        assert len(concpkg_findings) == 10


class TestNearMisses:
    def test_unreached_mutator_not_flagged(self, concpkg_findings):
        # untouched_mutator (TALLY.append) never runs in a worker, and
        # export_report's raw write is unreachable too.
        lines = {
            (f.path.rsplit("/", 1)[-1], f.line) for f in concpkg_findings
        }
        for miss in (("workers.py", 41), ("workers.py", 74)):
            assert miss not in lines

    def test_reads_of_forked_state_not_flagged(self, concpkg_findings):
        assert not any(
            "_CONFIG" in f.message for f in concpkg_findings
        ), "read-only access to module state must stay legal"

    def test_seeded_rng_not_flagged(self, concpkg_findings):
        assert not any(
            f.rule == "C003" and f.line == 54 for f in concpkg_findings
        )

    def test_read_mode_open_not_flagged(self, concpkg_findings):
        assert not any(
            f.rule == "C004" and f.line != 58 for f in concpkg_findings
        )

    def test_partial_of_module_function_not_flagged(self, concpkg_findings):
        # run_all / run_scaled / submit_all ship picklable callables.
        assert not any(
            f.rule == "C006" and f.line not in (30, 37, 41)
            for f in concpkg_findings
        )

    def test_fully_keyed_cache_site_not_flagged(self, concpkg_findings):
        # summarize_keyed covers every compute input (jobs is a knob),
        # and EpochSummaries.keyed carries the epoch in its params.
        assert not any(
            f.rule == "C005" and f.line not in (46, 56, 88)
            for f in concpkg_findings
        )


class TestSuppression:
    def test_suppression_comment_is_honored(self, concpkg_findings):
        # dump_suppressed carries `# repro-conc: disable=C004` on its
        # open() line and is worker-reachable via work().
        assert not any(f.line == 63 for f in concpkg_findings)
