"""Seeded hot-path anti-patterns for repro-hot rule tests.

Every rule (P002, P007) has at least one true positive and one
near-miss in this package.  ``sweep.run_tfidf_sweep`` matches the
registered hot-entry suffix, so the ``pipeline`` call tree is hot while
``utils`` stays cold — pinning both the rules and the cost model's
hot/cold ranking.
"""
