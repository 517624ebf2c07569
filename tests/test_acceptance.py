"""Acceptance suite: one test per criterion, at the stated tolerance.

Each test prints a single pass line (visible with ``pytest -s``); any
assertion failure marks the criterion failed. Random suites are seeded,
so the run is reproducible.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

from siegelkit.exact_linalg import IntegerMatrix, smith_normal_form
from siegelkit.field_calculus import (
    PolarizedStar,
    duality_transform_sample,
    inner_contraction,
    maxwell_residual,
    scalar_rhs,
    trace_g,
)
from siegelkit.local_systems import (
    ChargeClass,
    charge_lattice_basis,
    circle_complex,
    dsz_check,
    four_torus_complex,
    twisted_cohomology,
    twisted_differential,
    two_sphere_complex,
    two_torus_complex,
)
from siegelkit.polarization import (
    FundamentalFormSample,
    Taming,
    push_forward_taming,
    q_metric,
    standard_taming_matrix,
)
from siegelkit.sampling import (
    random_field_sample,
    random_lattice_type,
    random_lorentz_frame,
    random_selfdual_sample,
    random_sl2z,
    random_sp_t_element,
    random_taming,
    random_unimodular,
)
from siegelkit.siegel_group import (
    AffineSymplectomorphism,
    aff_compose,
    aff_inverse,
)
from siegelkit.symplectic_lattices import (
    IntegralSymplecticSpace,
    LatticeType,
    frobenius_basis,
    sp_type_membership,
    standard_gram,
)
from siegelkit.uduality import (
    FiniteScalarModel,
    HolonomySubgroup,
    UDualityElement,
    adjoint_map,
    centralizer_enumerate,
    is_pure_translation,
    uduality_compose,
    uduality_fiber_product,
)

T1 = LatticeType((1,))
I2 = IntegerMatrix.identity(2)


def _report(number, label, detail, elapsed, limit=None):
    budget = "" if limit is None else f" (< {limit:g}s)"
    print(f"[criterion {number:02d}] PASS {label}: {detail} in {elapsed:.2f}s{budget}")


def _criterion_1_2_instances():
    rng = random.Random(1001)
    out = []
    for _ in range(1000):
        n = rng.choice([1, 2, 3])
        t = random_lattice_type(rng, n)
        U1 = random_unimodular(rng, 2 * n, steps=10, entry_bound=5)
        U2 = random_unimodular(rng, 2 * n, steps=10, entry_bound=5)
        G = U1.transpose() * standard_gram(t) * U1
        out.append((t, G, U2.transpose() * G * U2))
    return out


def test_criterion_01_type_invariance():
    start = time.perf_counter()
    for t, G, G2 in _criterion_1_2_instances():
        fa = frobenius_basis(IntegralSymplecticSpace(G))
        fb = frobenius_basis(IntegralSymplecticSpace(G2))
        assert fa.type == t
        assert fb.type == fa.type
        expected = tuple(sorted(x for ti in t.entries for x in (ti, ti)))
        assert tuple(sorted(smith_normal_form(G).invariant_factors())) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(1, "type invariance", "1000 unimodular changes of basis, exact", elapsed, 10)


def test_criterion_02_frobenius_certificate():
    start = time.perf_counter()
    for t, G, G2 in _criterion_1_2_instances():
        for gram in (G, G2):
            fb = frobenius_basis(IntegralSymplecticSpace(gram))
            P = fb.change_of_basis
            assert P.transpose() * gram * P == standard_gram(fb.type)
    elapsed = time.perf_counter() - start
    _report(2, "Frobenius certificate", "exact on every criterion-1 instance", elapsed)


def test_criterion_03_affine_group_laws():
    rng = random.Random(1003)
    start = time.perf_counter()
    for _ in range(1000):
        n = rng.randint(1, 2)
        t = random_lattice_type(rng, n)
        triple = []
        for _ in range(3):
            rot = random_sp_t_element(rng, t, steps=4)
            tr = [
                Fraction(rng.randint(-12, 12), rng.randint(1, 12))
                for _ in range(2 * n)
            ]
            triple.append(AffineSymplectomorphism(tr, rot, t))
        x, y, z = triple
        assert aff_compose(aff_compose(x, y), z) == aff_compose(x, aff_compose(y, z))
        e = AffineSymplectomorphism.identity(t)
        assert aff_compose(x, e) == x and aff_compose(e, x) == x
        assert aff_compose(x, aff_inverse(x)) == e
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(3, "affine group laws", "1000 random triples, exact", elapsed, 5)


def test_criterion_04_polarized_star_involution_and_split():
    rng = random.Random(1004)
    start = time.perf_counter()
    for _ in range(100):
        n = rng.randint(1, 3)
        t = random_lattice_type(rng, n)
        frame = random_lorentz_frame(rng)
        tm = random_taming(rng, t, eps=0.5)
        op = PolarizedStar(frame, tm)
        K = op.as_matrix()
        assert np.max(np.abs(K @ K - np.eye(12 * n))) <= 1e-10
        assert op.eigenspace_dimensions() == (6 * n, 6 * n)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(4, "polarized star", "involution to 1e-10, split 6n/6n, 100 pairs", elapsed, 5)


def test_criterion_05_tracelessness():
    rng = random.Random(1005)
    start = time.perf_counter()
    for _ in range(100):
        n = rng.randint(1, 3)
        t = random_lattice_type(rng, n)
        frame = random_lorentz_frame(rng)
        tm = random_taming(rng, t, eps=0.5)
        F = random_selfdual_sample(rng, frame, tm)
        stress = inner_contraction(F, F, frame, q_metric(tm))
        assert abs(trace_g(frame, stress)) <= 1e-9 * max(1.0, F.norm() ** 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    _report(5, "tracelessness", "100 random polarized self-dual samples", elapsed, 2)


def test_criterion_06_duality_equivariance():
    rng = random.Random(1006)
    start = time.perf_counter()
    for _ in range(100):
        n = rng.randint(1, 2)
        t = random_lattice_type(rng, n)
        frame = random_lorentz_frame(rng)
        tm = random_taming(rng, t, eps=0.5)
        gamma = random_sp_t_element(rng, t, steps=4, entry_bound=8)
        F = random_field_sample(rng, n)
        F2, tm2 = duality_transform_sample(gamma, F, tm)
        assert (
            abs(maxwell_residual(F, frame, tm) - maxwell_residual(F2, frame, tm2))
            <= 1e-9
        )
        s1 = inner_contraction(F, F, frame, q_metric(tm))
        s2 = inner_contraction(F2, F2, frame, q_metric(tm2))
        assert np.max(np.abs(s1 - s2)) <= 1e-9
    elapsed = time.perf_counter() - start
    _report(6, "duality equivariance", "100 random symplectic rotations to 1e-9", elapsed)


def _untwisted_oracle(c, k):
    dim = c.dimension

    def d(k_):
        if k_ < 0 or k_ >= dim:
            return None
        return c.boundaries[k_].transpose()

    size_k = c.cells[k]
    dk = d(k)
    rank_k = 0 if dk is None else smith_normal_form(dk).rank()
    ker_rank = size_k - rank_k
    dprev = d(k - 1)
    if dprev is None:
        return ker_rank * c.coeff_rank, ()
    snf = smith_normal_form(dprev)
    torsion = tuple(x for x in snf.invariant_factors() if x > 1)
    return (ker_rank - snf.rank()) * c.coeff_rank, tuple(
        sorted(torsion * c.coeff_rank)
    )


def test_criterion_07_twisted_cohomology_oracles():
    start = time.perf_counter()
    rng = random.Random(1007)
    monodromies = [-I2] + [random_sl2z(rng, 6) for _ in range(49)]
    for gamma in monodromies:
        c = circle_complex(gamma, T1)
        snf = smith_normal_form(gamma - I2)
        ker_rank = 2 - snf.rank()
        torsion = tuple(d for d in snf.invariant_factors() if d > 1)
        h0 = twisted_cohomology(c, 0)
        h1 = twisted_cohomology(c, 1)
        assert (h0.free_rank, h0.torsion) == (ker_rank, ())
        assert (h1.free_rank, h1.torsion) == (ker_rank, torsion)
    minus = twisted_cohomology(circle_complex(-I2, T1), 1)
    assert minus.torsion == (2, 2)
    for c in (
        two_sphere_complex(T1),
        two_torus_complex(None, None, T1),
        four_torus_complex(T1),
    ):
        for k in range(c.dimension + 1):
            res = twisted_cohomology(c, k)
            assert (res.free_rank, tuple(sorted(res.torsion))) == _untwisted_oracle(c, k)
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
    rng = random.Random(1008)
    start = time.perf_counter()
    for c in (two_sphere_complex(T1), two_torus_complex(None, None, T1)):
        basis = charge_lattice_basis(c)
        d1 = twisted_differential(c, 1)
        for _ in range(10):
            coeffs = [rng.randint(-5, 5) for _ in basis]
            vec = [Fraction(0)] * len(basis[0])
            for m, b in zip(coeffs, basis):
                vec = [x + m * Fraction(y) for x, y in zip(vec, b)]
            verdict = dsz_check(ChargeClass(vec), c)
            assert verdict.integral and list(verdict.coordinates) == coeffs
            # fractional coordinate rejected
            frac = [x + Fraction(basis[0][i], 2) for i, x in enumerate(vec)]
            assert not dsz_check(ChargeClass(frac), c).integral
            # verdicts stable under 20 random rational coboundaries
            for _ in range(20):
                w = [
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                    for _ in range(d1.cols)
                ]
                cob = d1.apply(w)
                shifted = ChargeClass([a + b for a, b in zip(vec, cob)])
                v2 = dsz_check(shifted, c)
                assert v2.integral and list(v2.coordinates) == coeffs
                frac_shifted = ChargeClass([a + b for a, b in zip(frac, cob)])
                assert not dsz_check(frac_shifted, c).integral
    elapsed = time.perf_counter() - start
    _report(8, "DSZ verdicts", "20 instances, 20 coboundary shifts each", elapsed)


def test_criterion_09_centralizer_example():
    start = time.perf_counter()
    S = IntegerMatrix([[0, -1], [1, 0]])
    found = centralizer_enumerate(HolonomySubgroup([S], T1), bound=3)
    assert set(found) == {I2, -I2, S, -S}
    # independent brute-force filter over the full entry box
    oracle = []
    for flat in itertools.product(range(-3, 4), repeat=4):
        cand = IntegerMatrix([list(flat[:2]), list(flat[2:])])
        if cand * S == S * cand and sp_type_membership(cand, T1):
            oracle.append(cand)
    assert set(found) == set(oracle)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(9, "centralizer example", "order-4 rotation, bound 3, brute-force checked", elapsed, 5)


def test_criterion_10_fiber_product_and_adjoint():
    start = time.perf_counter()
    shear = IntegerMatrix([[1, 1], [0, 1]])
    tm0 = Taming(standard_taming_matrix(1), standard_gram(T1), 0.0)
    tm1 = push_forward_taming(shear, tm0)
    model = FiniteScalarModel(2, [(0, 1), (1, 0)], [tm0, tm1])
    elements = uduality_fiber_product(model, bound=2, t=T1)
    # brute-force filter over the entry box
    oracle = set()
    for flat in itertools.product(range(-2, 3), repeat=4):
        cand = IntegerMatrix([list(flat[:2]), list(flat[2:])])
        if not sp_type_membership(cand, T1):
            continue
        U = np.array(cand.to_lists(), dtype=float)
        Uinv = np.linalg.inv(U)
        for f_idx, perm in enumerate(model.isometries):
            if all(
                np.max(
                    np.abs(U @ model.tamings[p].J @ Uinv - model.tamings[perm[p]].J)
                )
                <= 1e-9
                for p in range(2)
            ):
                oracle.add((f_idx, cand))
    assert {(e.isometry, e.rotation) for e in elements} == oracle
    # adjoint map is a homomorphism; kernel is the pure translations
    rng = random.Random(1010)
    gauge = [
        UDualityElement(
            e.isometry,
            e.rotation,
            tuple(Fraction(rng.randint(0, 5), rng.randint(1, 6)) for _ in range(2)),
        )
        for e in elements
    ]
    for x in gauge:
        for y in gauge:
            z = uduality_compose(x, y, model)
            assert adjoint_map(z) == (
                model.compose_isometries(x.isometry, y.isometry),
                x.rotation * y.rotation,
            )
    idx = model.identity_index
    for x in gauge:
        kernel_member = adjoint_map(x) == (idx, I2)
        assert kernel_member == is_pure_translation(x, model)
    translation = UDualityElement(idx, I2, (Fraction(1, 3), Fraction(2, 5)))
    assert is_pure_translation(translation, model)
    assert adjoint_map(translation) == (idx, I2)
    elapsed = time.perf_counter() - start
    _report(10, "fiber product", f"{len(elements)} elements match brute force; adjoint kernel exact", elapsed)


def test_criterion_11_unitary_degeneration():
    rng = random.Random(1011)
    start = time.perf_counter()
    for _ in range(100):
        n = rng.randint(1, 3)
        t = random_lattice_type(rng, n)
        frame = random_lorentz_frame(rng)
        tm = random_taming(rng, t, eps=0.5)
        F = random_field_sample(rng, n)
        psi = FundamentalFormSample([np.zeros((2 * n, 2 * n))] * rng.randint(1, 3))
        values, _ = scalar_rhs(F, frame, q_metric(tm), psi)
        assert all(v == 0.0 for v in values)
    elapsed = time.perf_counter() - start
    _report(11, "unitary degeneration", "100 random samples, exact zeros", elapsed)
