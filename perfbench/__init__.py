"""The repository's benchmark: batch ranking, serving and streaming.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see
:mod:`perfbench.run`.
"""

#: Environment every benchmark process runs under: no hash
#: randomization, and single-threaded BLAS/OpenMP pools, the same on
#: every commit.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
