"""Seeded hot-path anti-patterns for repro-hot rule tests.

The rule (P007) has true positives and near-misses in this package.
``sweep.run_tfidf_sweep`` matches the registered hot-entry suffix, so
the ``pipeline`` call tree is hot while ``utils`` stays cold — pinning
both the rule's hot gate and the cost model's ranking.
"""
