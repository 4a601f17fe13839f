"""Sweep driver: the hot entry point rooting the reachability pass."""

from hotpkg import pipeline


def run_tfidf_sweep(matrix, docs):
    """Matches the registered 'sweep.run_tfidf_sweep' entry suffix."""
    return pipeline.densify_grid(matrix, docs)
