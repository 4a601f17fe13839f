"""Cold utility helpers: the hot-gated P007 must stay quiet here."""


def cold_densify(matrix):
    return matrix.todense()  # near-miss: unreachable from hot entries
