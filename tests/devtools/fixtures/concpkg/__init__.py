"""Fixture package for the repro-conc analyzer tests.

Parsed by ``tools.flow.project.load_project`` for the static
tests, and *imported and executed* by the C003 behavior test, which
proves the fork-RNG rule flags code that really does misbehave: the
unseeded worker path returns different values run to run, the seeded
near-miss is bit-stable.

Every rule C001–C006 has at least one seeded true positive and one
near-miss negative; ``tests/devtools/conc/test_conc_rules.py`` pins
the exact split.
"""
