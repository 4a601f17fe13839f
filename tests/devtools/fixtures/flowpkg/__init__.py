"""Fixture package for the repro-flow analyzer tests.

Never imported at test time — only *parsed* by
``tools.flow.project.load_project``.  Each module seeds
specific taint/determinism violations (or deliberately clean flows)
that the test-suite and the CI self-check assert on.
"""
