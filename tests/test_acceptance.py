"""Acceptance suite: one test per criterion, at the stated tolerance.

The property checks live in one registry, ``siegelkit.selftest.SUITES``,
which runs at two sizes: ``siegel-kit selftest`` runs it small, and each
test here runs the matching check at the criterion's full size with the
criterion's own seed, then applies the criterion's wall-clock gate.
Each test prints a single pass line (visible with ``pytest -s``); any
failed check marks the criterion failed, with the check's detail.
"""

import random
import time

from siegelkit.selftest import SUITES

CHECKS = {name: check for name, check, _ in SUITES}


def _check(name, seed, size):
    ok, detail = CHECKS[name](random.Random(seed), size)
    assert ok, detail
    return detail


def _report(number, label, detail, elapsed, limit=None):
    budget = "" if limit is None else f" (< {limit:g}s)"
    print(f"[criterion {number:02d}] PASS {label}: {detail} in {elapsed:.2f}s{budget}")


def test_criterion_01_type_invariance():
    start = time.perf_counter()
    _check("symplectic_lattices.type_invariance", 1001, 1000)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(1, "type invariance", "1000 unimodular changes of basis, exact", elapsed, 10)


def test_criterion_02_frobenius_certificate():
    # Criterion 2 certifies the Frobenius bases of the criterion-1 instances.
    start = time.perf_counter()
    _check("symplectic_lattices.type_invariance", 1001, 1000)
    elapsed = time.perf_counter() - start
    _report(2, "Frobenius certificate", "exact on every criterion-1 instance", elapsed)


def test_criterion_03_affine_group_laws():
    start = time.perf_counter()
    _check("siegel_group.group_laws", 1003, 1000)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(3, "affine group laws", "1000 random triples, exact", elapsed, 5)


def test_criterion_04_polarized_star_involution_and_split():
    start = time.perf_counter()
    _check("field_calculus.polarized_star", 1004, 100)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(4, "polarized star", "involution to 1e-10, split 6n/6n, 100 pairs", elapsed, 5)


def test_criterion_05_tracelessness():
    start = time.perf_counter()
    _check("field_calculus.tracelessness", 1005, 100)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    _report(5, "tracelessness", "100 random polarized self-dual samples", elapsed, 2)


def test_criterion_06_duality_equivariance():
    start = time.perf_counter()
    _check("field_calculus.equivariance", 1006, 100)
    elapsed = time.perf_counter() - start
    _report(6, "duality equivariance", "100 random symplectic rotations to 1e-9", elapsed)


def test_criterion_07_twisted_cohomology_oracles():
    start = time.perf_counter()
    _check("local_systems.circle_oracle", 1007, 50)
    _check("local_systems.untwisted_models", 1007, 3)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(
        7,
        "twisted cohomology oracles",
        "50 circle monodromies and 3 untwisted models",
        elapsed,
        30,
    )


def test_criterion_08_dsz_verdicts():
    start = time.perf_counter()
    _check("local_systems.dsz", 1008, 20)
    elapsed = time.perf_counter() - start
    _report(8, "DSZ verdicts", "20 instances, 20 coboundary shifts each", elapsed)


def test_criterion_09_centralizer_example():
    start = time.perf_counter()
    _check("uduality.centralizer", 1009, 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(9, "centralizer example", "order-4 rotation, bound 3, brute-force checked", elapsed, 5)


def test_criterion_10_fiber_product_and_adjoint():
    start = time.perf_counter()
    detail = _check("uduality.fiber_product", 1010, 1)
    elapsed = time.perf_counter() - start
    _report(10, "fiber product", detail, elapsed)


def test_criterion_11_unitary_degeneration():
    start = time.perf_counter()
    _check("field_calculus.unitary_scalar", 1011, 100)
    elapsed = time.perf_counter() - start
    _report(11, "unitary degeneration", "100 random samples, exact zeros", elapsed)
