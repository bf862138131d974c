"""Pinned answers do not depend on the BLAS kernel the host CPU selects.

OpenBLAS built with DYNAMIC_ARCH picks its kernels by CPU when it loads,
and `OPENBLAS_CORETYPE` overrides that pick for one process.  The tests
below pin float bits: the hyperboloid projection, the solver goldens, the
explore golden and the README examples.  They run again in a child
process forced onto the Haswell kernels, which this suite's own process
may not use, so a pinned float that reads a BLAS reduction fails on any
host."""

from pathlib import Path

from helpers import run_python

TESTS = Path(__file__).parent
PINNED = [
    "test_orbit_explorer.py::test_projection_fixes_unit_vectors",
    "test_orbit_explorer.py::test_projection_removes_u_pairing",
    "test_orbit_explorer.py::test_projection_without_u_only_rescales",
    "test_orbit_explorer.py::test_explore_golden_walk",
    "test_torus_forms.py::test_solver_golden_outputs",
    "test_torus_forms.py::test_solver_golden_n4_and_incumbents",
    "test_cli.py::test_readme_examples_print_what_the_readme_shows",
]


def test_pinned_answers_hold_under_the_haswell_kernels():
    done = run_python(
        "-m", "pytest", "-q", "-p", "no:cacheprovider", "--rootdir", str(TESTS.parent),
        *(str(TESTS / node) for node in PINNED),
        OPENBLAS_CORETYPE="Haswell",
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
