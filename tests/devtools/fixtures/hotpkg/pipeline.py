"""Hot-reachable pipeline helpers: the densifications live on exactly
the paths the sweep driver exercises."""


def densify_grid(matrix, docs):
    out = []
    for doc in docs:
        for gram in doc:
            cell = matrix.toarray()  # P007: densify two loops deep
            out.append(len(gram) + cell[0][0])
    header = matrix.toarray()  # near-miss: toarray outside any loop
    total = matrix.todense()  # P007: hot todense at top level
    return out, header, total, _cell_total(matrix), _quiet_total(matrix)


def _cell_total(matrix):
    return matrix.todense().sum()  # P007: one call further from the entry


def _quiet_total(matrix):
    return matrix.todense().sum()  # repro-hot: disable=P007
