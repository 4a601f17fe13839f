"""Interprocedural taint findings on the seeded fixture package."""

from __future__ import annotations

from repro.devtools.flow.interp import run_analysis
from repro.devtools.flow.project import load_project


def _by_rule(flow_result, rule):
    return [f for f in flow_result.taint_findings if f.rule == rule]


class TestCrossFunctionFlows:
    def test_fetch_to_open_across_modules(self, flow_result):
        (finding,) = _by_rule(flow_result, "T001")
        assert finding.path.endswith("flowpkg/storage.py")
        assert finding.symbol == "store"
        assert "fetch()" in finding.message
        assert "flowpkg.cli.main -> flowpkg.storage.store" in finding.message

    def test_fetch_back_into_fetch_is_ssrf(self, flow_result):
        (finding,) = _by_rule(flow_result, "T004")
        assert finding.path.endswith("flowpkg/web.py")
        assert finding.symbol == "refetch"


class TestRegexCalls:
    def test_links_extracted_by_regex_reach_a_fetch(self, tmp_path):
        # ``re.*`` results carry their arguments' taint.
        package = tmp_path / "regexpkg"
        package.mkdir()
        (package / "__init__.py").write_text("")
        (package / "crawl.py").write_text(
            "import re\n"
            "\n"
            "\n"
            "def follow_links(host, url):\n"
            "    page = host.fetch(url)\n"
            "    for link in re.findall(r\"href=(\\S+)\", page):\n"
            "        host.fetch(link)\n"
        )
        result = run_analysis(load_project([str(package)]))
        (finding,) = _by_rule(result, "T004")
        assert finding.path.endswith("regexpkg/crawl.py")
        assert finding.symbol == "follow_links"
        assert finding.line == 7


class TestSanitizers:
    def test_full_sanitizer_breaks_the_flow(self, flow_result):
        # clean.store_tokens opens a path derived from tokenize() output.
        assert not any(
            f.path.endswith("flowpkg/clean.py") for f in flow_result.taint_findings
        )

    def test_suppression_comment_honored(self, flow_result):
        assert not any(
            f.symbol == "store_quiet" for f in flow_result.taint_findings
        )


class TestSummaries:
    def test_source_function_summary_returns_taint(self, flow_result):
        summary = flow_result.summaries["flowpkg.web.fetch_page"]
        assert summary.ret_taint is not None

    def test_sanitizer_does_not_propagate_taint(self, flow_result):
        summary = flow_result.summaries["flowpkg.clean.tokenize"]
        assert summary.ret_taint is None

    def test_param_to_sink_summary_recorded(self, flow_result):
        summary = flow_result.summaries["flowpkg.storage.store"]
        hits = summary.sink_pdeps.get(0, ())
        assert any(h.category == "path" for h in hits)
