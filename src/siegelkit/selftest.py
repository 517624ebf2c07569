"""The one registry of seeded property checks.

``SUITES`` lists every property check as ``(name, check, size)``.
``check(rng, size)`` draws ``size`` instances from the seeded generator
``rng`` and returns ``(ok, detail)``. One registry runs at two sizes:
``siegel-kit selftest`` runs each check at its small ``size`` with a
per-check seed, so a fixed seed produces a byte-identical transcript,
and ``tests/test_acceptance.py`` runs the same checks at the full size
of each acceptance criterion, with the criterion's own seed and
wall-clock gate. A check whose first instance is a fixed model
reproduces its criterion at ``size=1``.
"""

import itertools
import random
from fractions import Fraction

import numpy as np

from . import sampling
from .exact_linalg import (
    IntegerMatrix,
    determinant,
    kernel_lattice,
    smith_normal_form,
)
from .field_calculus import (
    PolarizedStar,
    inner_contraction,
    maxwell_residual,
    duality_transform_sample,
    scalar_rhs,
    trace_g,
)
from .local_systems import (
    ChargeClass,
    circle_complex,
    dsz_check,
    charge_lattice_basis,
    four_torus_complex,
    twisted_cohomology,
    twisted_differential,
    two_sphere_complex,
    two_torus_complex,
)
from .polarization import (
    FundamentalFormSample,
    Taming,
    push_forward_taming,
    standard_taming_matrix,
    validate_taming,
)
from .siegel_group import AffineSymplectomorphism, aff_compose, aff_inverse
from .symplectic_lattices import (
    IntegralSymplecticSpace,
    LatticeType,
    frobenius_basis,
    sp_type_membership,
    standard_gram,
)
from .uduality import (
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


def _entry_box(bound):
    """Every 2x2 integer matrix with entries in [-bound, bound]."""
    for flat in itertools.product(range(-bound, bound + 1), repeat=4):
        yield IntegerMatrix([list(flat[:2]), list(flat[2:])])


def _check_snf(rng, size):
    for _ in range(size):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        A = IntegerMatrix(
            [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        )
        snf = smith_normal_form(A)
        if snf.U * A * snf.V != snf.S:
            return False, "U A V != S"
        if abs(determinant(snf.U)) != 1 or abs(determinant(snf.V)) != 1:
            return False, "transforms not unimodular"
        diag = snf.diagonal()
        for a, b in zip(diag, diag[1:]):
            if b != 0 and (a == 0 or b % a != 0):
                return False, "divisibility chain broken"
        ker = kernel_lattice(A)
        for v in ker:
            if any(x != 0 for x in A.apply(v)):
                return False, "kernel vector not annihilated"
        if len(ker) != cols - snf.rank():
            return False, "kernel rank mismatch"
    return True, f"{size} random matrices"


def _check_type_invariance(rng, size):
    """Type, Frobenius certificate and SNF oracle of G and U^T G U."""
    for _ in range(size):
        n = rng.choice([1, 2, 3])
        t = sampling.random_lattice_type(rng, n)
        U1 = sampling.random_unimodular(rng, 2 * n, steps=10, entry_bound=5)
        U2 = sampling.random_unimodular(rng, 2 * n, steps=10, entry_bound=5)
        G = U1.transpose() * standard_gram(t) * U1
        expected = tuple(sorted(x for ti in t.entries for x in (ti, ti)))
        for gram in (G, U2.transpose() * G * U2):
            fb = frobenius_basis(IntegralSymplecticSpace(gram))
            if fb.type != t:
                return False, f"type changed under change of basis (t={t.entries})"
            P = fb.change_of_basis
            if P.transpose() * gram * P != standard_gram(t):
                return False, "Frobenius certificate failed"
            if tuple(sorted(smith_normal_form(gram).invariant_factors())) != expected:
                return False, "SNF oracle disagrees with type"
    return True, f"{size} random lattices, two unimodular changes of basis each"


def _check_group_laws(rng, size):
    for _ in range(size):
        n = rng.randint(1, 2)
        t = sampling.random_lattice_type(rng, n)
        xs = []
        for _ in range(3):
            rot = sampling.random_sp_t_element(rng, t, steps=4)
            tr = [
                Fraction(rng.randint(-12, 12), rng.randint(1, 12))
                for _ in range(2 * n)
            ]
            xs.append(AffineSymplectomorphism(tr, rot, t))
        x, y, z = xs
        if aff_compose(aff_compose(x, y), z) != aff_compose(x, aff_compose(y, z)):
            return False, "associativity failed"
        e = AffineSymplectomorphism.identity(t)
        if aff_compose(x, e) != x or aff_compose(e, x) != x:
            return False, "identity failed"
        if aff_compose(x, aff_inverse(x)) != e:
            return False, "inverse failed"
    return True, f"{size} random triples"


def _check_tamings(rng, size):
    for _ in range(size):
        n = rng.randint(1, 3)
        t = sampling.random_lattice_type(rng, n)
        tm = sampling.random_taming(rng, t)
        report = validate_taming(tm.J, tm.omega, tm.tol)
        if not report.passed:
            return False, "taming from Siegel point failed validation"
        Q = tm.Q
        scale = max(1.0, float(np.max(np.abs(Q)))) * max(
            1.0, float(np.max(np.abs(tm.J))) ** 2
        )
        if np.max(np.abs(tm.J.T @ Q @ tm.J - Q)) > 1e-10 * scale:
            return False, "Q not J-invariant"
    return True, f"{size} random Siegel points"


def _check_polarized_star(rng, size):
    for _ in range(size):
        n = rng.randint(1, 3)
        t = sampling.random_lattice_type(rng, n)
        frame = sampling.random_lorentz_frame(rng)
        tm = sampling.random_taming(rng, t, eps=0.5)
        op = PolarizedStar(frame, tm)
        K = op.as_matrix()
        if np.max(np.abs(K @ K - np.eye(12 * n))) > 1e-10:
            return False, "polarized star does not square to identity"
        plus, minus = op.eigenspace_dimensions()
        if plus != 6 * n or minus != 6 * n:
            return False, f"eigenspace split {plus}/{minus} != {6 * n}/{6 * n}"
    return True, f"{size} random frame and taming pairs"


def _check_tracelessness(rng, size):
    for _ in range(size):
        n = rng.randint(1, 3)
        t = sampling.random_lattice_type(rng, n)
        frame = sampling.random_lorentz_frame(rng)
        tm = sampling.random_taming(rng, t, eps=0.5)
        F = sampling.random_selfdual_sample(rng, frame, tm)
        stress = inner_contraction(F, F, frame, tm)
        scale = max(1.0, F.norm() ** 2)
        if np.max(np.abs(stress - stress.T)) > 1e-12 * scale:
            return False, "stress tensor not symmetric"
        if abs(trace_g(frame, stress)) > 1e-9 * scale:
            return False, "self-dual stress tensor has nonzero trace"
    return True, f"{size} random self-dual samples"


def _check_equivariance(rng, size):
    for _ in range(size):
        n = rng.randint(1, 2)
        t = sampling.random_lattice_type(rng, n)
        frame = sampling.random_lorentz_frame(rng)
        tm = sampling.random_taming(rng, t, eps=0.5)
        gamma = sampling.random_sp_t_element(rng, t, steps=4, entry_bound=8)
        F = sampling.random_field_sample(rng, n)
        F2, tm2 = duality_transform_sample(gamma, F, tm)
        r1 = maxwell_residual(F, frame, tm)
        if abs(r1 - maxwell_residual(F2, frame, tm2)) > 1e-9:
            return False, "Maxwell residual not duality invariant"
        s1 = inner_contraction(F, F, frame, tm)
        s2 = inner_contraction(F2, F2, frame, tm2)
        if np.max(np.abs(s1 - s2)) > 1e-9:
            return False, "stress tensor not duality invariant"
    return True, f"{size} random symplectic rotations"


def _check_unitary_scalar(rng, size):
    for _ in range(size):
        n = rng.randint(1, 3)
        t = sampling.random_lattice_type(rng, n)
        frame = sampling.random_lorentz_frame(rng)
        tm = sampling.random_taming(rng, t, eps=0.5)
        F = sampling.random_field_sample(rng, n)
        psi = FundamentalFormSample([np.zeros((2 * n, 2 * n))] * rng.randint(1, 3))
        values, _ = scalar_rhs(F, frame, tm, psi)
        if any(v != 0.0 for v in values):
            return False, "unitary scalar right side is not exactly zero"
    return True, f"{size} random samples with vanishing fundamental form"


def _check_circle_oracle(rng, size):
    """H^0 and H^1 of circles against ker and coker of gamma - 1.

    Instance 0 is the monodromy -1, whose H^1 is also checked to be
    (Z/2)^2; later instances are random words in SL(2, Z).
    """
    for i in range(size):
        gamma = -I2 if i == 0 else sampling.random_sl2z(rng, 6)
        c = circle_complex(gamma, T1)
        snf = smith_normal_form(gamma - I2)
        ker_rank = 2 - snf.rank()
        torsion = tuple(d for d in snf.invariant_factors() if d > 1)
        h0 = twisted_cohomology(c, 0)
        h1 = twisted_cohomology(c, 1)
        if (h0.free_rank, h0.torsion) != (ker_rank, ()):
            return False, "H0 differs from ker(gamma - 1)"
        if (h1.free_rank, h1.torsion) != (ker_rank, torsion):
            return False, "H1 differs from coker(gamma - 1)"
        if i == 0 and h1.torsion != (2, 2):
            return False, f"H1 of the -1 circle is {h1.group_description()}"
    return True, f"{size} circle monodromies, -1 included"


def _untwisted_oracle(c, k):
    """(free rank, sorted torsion) of H^k for trivial transports, from SNFs."""
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


def _check_untwisted_models(rng, size):
    """Cohomology of the first ``size`` of three fixed models with
    trivial transports, against hard-coded Betti numbers (coefficient
    rank 2) and against the SNF oracle. ``rng`` is unused.
    """
    models = (
        ("sphere", two_sphere_complex(T1), (2, 0, 2)),
        ("torus", two_torus_complex(None, None, T1), (2, 4, 2)),
        ("4-torus", four_torus_complex(T1), (2, 8, 12, 8, 2)),
    )[:size]
    for name, c, betti in models:
        for k, b in enumerate(betti):
            res = twisted_cohomology(c, k)
            got = (res.free_rank, tuple(sorted(res.torsion)))
            if got != (b, ()):
                return False, f"{name} H^{k} is {res.group_description()}"
            if got != _untwisted_oracle(c, k):
                return False, f"{name} H^{k} disagrees with the SNF oracle"
    names = ", ".join(name for name, _, _ in models)
    return True, f"{names} with trivial transports"


def _check_dsz(rng, size):
    """DSZ verdicts on integer and half-shifted charge combinations.

    The first half of the instances (rounded up) uses the 2-sphere, the
    rest the 2-torus. Each verdict is rechecked after 20 random rational
    coboundary shifts.
    """
    models = (two_sphere_complex(T1), two_torus_complex(None, None, T1))
    for c, count in zip(models, (size - size // 2, size // 2)):
        basis = charge_lattice_basis(c)
        d1 = twisted_differential(c, 1)
        for _ in range(count):
            coeffs = [rng.randint(-5, 5) for _ in basis]
            vec = [Fraction(0)] * len(basis[0])
            for m, b in zip(coeffs, basis):
                vec = [x + m * Fraction(y) for x, y in zip(vec, b)]
            frac = [x + Fraction(basis[0][i], 2) for i, x in enumerate(vec)]
            shifts = [[0] * len(vec)]
            for _ in range(20):
                w = [
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                    for _ in range(d1.cols)
                ]
                shifts.append(d1.apply(w))
            for cob in shifts:
                v = dsz_check(ChargeClass([a + b for a, b in zip(vec, cob)]), c)
                if not v.integral or list(v.coordinates) != coeffs:
                    return False, "integer combination rejected"
                v = dsz_check(ChargeClass([a + b for a, b in zip(frac, cob)]), c)
                if v.integral:
                    return False, "half-integral class accepted"
    return True, (
        f"{size} charge combinations on the sphere and torus, "
        "20 coboundary shifts each"
    )


def _check_centralizer(rng, size):
    """The centralizer of the order-four rotation S at bound 3 is
    {+-1, +-S}, and a brute-force filter of the entry box agrees.

    One fixed instance: ``rng`` and ``size`` are unused.
    """
    S = IntegerMatrix([[0, -1], [1, 0]])
    found = set(centralizer_enumerate(HolonomySubgroup([S], T1), bound=3))
    if found != {I2, -I2, S, -S}:
        return False, f"centralizer of S has {len(found)} box elements"
    oracle = {
        cand
        for cand in _entry_box(3)
        if cand * S == S * cand and sp_type_membership(cand, T1)
    }
    if found != oracle:
        return False, "centralizer differs from the brute-force filter"
    return True, "order-four rotation centralizer is {+-1, +-S}, brute-force checked"


def _check_fiber_product(rng, size):
    """Two-point models (J, shear . J) swapped by an isometry, at bound 2.

    Instance 0 uses the standard taming, later instances random ones.
    The fiber product must equal a brute-force filter of the entry box,
    the adjoint map must be a homomorphism on it (with random torus
    parts), and its kernel must be the pure translations.
    """
    shear = IntegerMatrix([[1, 1], [0, 1]])
    counts = []
    for i in range(size):
        if i == 0:
            tm0 = Taming(standard_taming_matrix(1), standard_gram(T1), 0.0)
        else:
            tm0 = sampling.random_taming(rng, T1)
        tm1 = push_forward_taming(shear, tm0)
        model = FiniteScalarModel(2, [(0, 1), (1, 0)], [tm0, tm1])
        elements = uduality_fiber_product(model, bound=2, t=T1)
        if not elements:
            return False, "fiber product came back empty"
        Js = [tm.J for tm in model.tamings]
        oracle = set()
        for cand in _entry_box(2):
            if not sp_type_membership(cand, T1):
                continue
            U = np.array(cand.to_lists(), dtype=float)
            Uinv = np.linalg.inv(U)
            for f_idx, perm in enumerate(model.isometries):
                if all(
                    np.max(np.abs(U @ Js[p] @ Uinv - Js[perm[p]])) <= 1e-9
                    for p in range(2)
                ):
                    oracle.add((f_idx, cand))
        if {(e.isometry, e.rotation) for e in elements} != oracle:
            return False, "fiber product differs from the brute-force filter"
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
                if adjoint_map(z) != (
                    model.compose_isometries(x.isometry, y.isometry),
                    x.rotation * y.rotation,
                ):
                    return False, "adjoint map is not a homomorphism"
        idx = model.identity_index
        for x in gauge:
            if (adjoint_map(x) == (idx, I2)) != is_pure_translation(x, model):
                return False, "adjoint kernel differs from the pure translations"
        pure = UDualityElement(idx, I2, (Fraction(1, 3), Fraction(2, 5)))
        if not is_pure_translation(pure, model) or adjoint_map(pure) != (idx, I2):
            return False, "pure translation outside the adjoint kernel"
        counts.append(len(elements))
    return True, (
        f"{', '.join(map(str, counts))} elements match brute force; "
        "adjoint kernel exact"
    )


# (name, check, selftest size). The acceptance criteria run the same
# checks at their own sizes.
SUITES = (
    ("exact_linalg.snf", _check_snf, 120),
    ("symplectic_lattices.type_invariance", _check_type_invariance, 60),
    ("siegel_group.group_laws", _check_group_laws, 100),
    ("polarization.tamings", _check_tamings, 50),
    ("field_calculus.polarized_star", _check_polarized_star, 20),
    ("field_calculus.tracelessness", _check_tracelessness, 30),
    ("field_calculus.equivariance", _check_equivariance, 30),
    ("field_calculus.unitary_scalar", _check_unitary_scalar, 30),
    ("local_systems.circle_oracle", _check_circle_oracle, 20),
    ("local_systems.untwisted_models", _check_untwisted_models, 3),
    ("local_systems.dsz", _check_dsz, 10),
    ("uduality.centralizer", _check_centralizer, 1),
    ("uduality.fiber_product", _check_fiber_product, 2),
)


def run_selftest(seed: int, write=print):
    """Run every check at its selftest size, each with its own seeded
    generator; returns overall pass."""
    all_ok = True
    for name, check, size in SUITES:
        # String seeding is stable across processes, unlike hash().
        rng = random.Random(f"{seed}:{name}")
        ok, detail = check(rng, size)
        all_ok = all_ok and ok
        write(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    write(f"selftest {'passed' if all_ok else 'FAILED'} (seed {seed})")
    return all_ok
