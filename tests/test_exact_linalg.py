import importlib
import inspect
import pkgutil
import random
from fractions import Fraction

import numpy as np
import pytest

import siegelkit
from siegelkit.errors import DimensionMismatch, NotUnimodular
from siegelkit.exact_linalg import (
    Frozen,
    IntegerMatrix,
    determinant,
    inverse_unimodular,
    kernel_lattice,
    left_inverse,
    rational_rref,
    rational_solve_many,
    smith_normal_form,
)
from siegelkit.field_calculus import (
    FieldStrengthSample,
    PointFrame,
    PolarizedStar,
)
from siegelkit.local_systems import (
    ChargeClass,
    charge_lattice_basis,
    dsz_check,
    twisted_cohomology,
    two_sphere_complex,
)
from siegelkit.polarization import (
    FundamentalFormSample,
    SiegelPoint,
    Taming,
    standard_taming_matrix,
)
from siegelkit.sampling import random_unimodular
from siegelkit.siegel_group import AffineSymplectomorphism, TorusPoint
from siegelkit.symplectic_lattices import (
    IntegralSymplecticSpace,
    LatticeType,
    frobenius_basis,
    standard_gram,
)
from siegelkit.uduality import FiniteScalarModel, HolonomySubgroup, UDualityElement


def test_snf_zero_matrix():
    snf = smith_normal_form(IntegerMatrix([[0]]))
    assert snf.S == IntegerMatrix([[0]])
    assert snf.U == IntegerMatrix([[1]])
    assert snf.V == IntegerMatrix([[1]])


def test_snf_hand_elimination():
    # gcd of entries is 2, |det| = 8, so the chain is (2, 4)
    A = IntegerMatrix([[2, 4], [6, 8]])
    snf = smith_normal_form(A)
    assert snf.diagonal() == (2, 4)
    assert snf.U * A * snf.V == snf.S
    assert determinant(A) == -8


def test_snf_antisymmetric_type_pairs():
    # elementary divisors of an antisymmetric Gram repeat the type pairwise
    omega = IntegerMatrix(
        [[0, 0, 1, 0], [0, 0, 0, 2], [-1, 0, 0, 0], [0, -2, 0, 0]]
    )
    assert smith_normal_form(omega).diagonal() == (1, 1, 2, 2)


def test_snf_nonsquare():
    A = IntegerMatrix([[2, 0, 4], [0, 6, 0]])
    snf = smith_normal_form(A)
    assert snf.U * A * snf.V == snf.S
    diag = snf.diagonal()
    assert all(d >= 0 for d in diag)


def test_kernel_examples():
    assert kernel_lattice(IntegerMatrix.identity(3)) == []
    assert kernel_lattice(IntegerMatrix([[1, -1]])) == [(1, 1)]
    assert kernel_lattice(IntegerMatrix([[0, 1], [0, 0]])) == [(1, 0)]


def test_snf_random_properties():
    """U A V = S exactly, chain holds, transforms unimodular, 1000 draws."""
    rng = random.Random(20240)
    for _ in range(1000):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        A = IntegerMatrix(
            [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        )
        snf = smith_normal_form(A)
        assert snf.U * A * snf.V == snf.S
        assert abs(determinant(snf.U)) == 1
        assert abs(determinant(snf.V)) == 1
        diag = snf.diagonal()
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if b != 0:
                assert a != 0 and b % a == 0
        ker = kernel_lattice(A)
        for v in ker:
            assert all(x == 0 for x in A.apply(v))
        assert len(ker) == cols - snf.rank()


def _snf_sweep(rng):
    """Seeded SNF inputs: dense, zero, rank-deficient and with zero rows."""
    for kind in ("dense", "zero", "low-rank", "zero-rows") * 40:
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        if kind == "zero":
            yield IntegerMatrix.zeros(rows, cols)
            continue
        if kind == "low-rank":
            # A product through an inner dimension below min(rows, cols).
            inner = rng.randint(1, max(1, min(rows, cols) - 1))
            left = IntegerMatrix([[rng.randint(-4, 4) for _ in range(inner)] for _ in range(rows)])
            right = IntegerMatrix([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(inner)])
            yield left * right
            continue
        entries = [[rng.randint(-12, 12) for _ in range(cols)] for _ in range(rows)]
        if kind == "zero-rows":
            for row in entries:
                if rng.random() < 0.5:
                    row[:] = [0] * cols
        yield IntegerMatrix(entries)


def test_snf_elimination_against_oracles():
    """Full SNF and kernel-only eliminations agree with each other and sympy."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(2024)
    for A in _snf_sweep(rng):
        snf = smith_normal_form(A)
        assert snf.U * A * snf.V == snf.S
        r = snf.rank()
        assert kernel_lattice(A) == [snf.V.column_vector(j) for j in range(r, A.cols)]
        expected = sympy_snf(sympy.Matrix(A.to_lists()), domain=sympy.ZZ)
        diag = (abs(int(expected[i, i])) for i in range(min(A.rows, A.cols)))
        assert snf.invariant_factors() == tuple(d for d in diag if d != 0)


def reference_smith(a):
    """Smith elimination with a full pivot scan and a full divisibility scan.

    The reference for ``_smith``'s unit shortcuts: every pivot scans the
    whole working submatrix for the first entry of smallest nonzero
    absolute value, and every pivot, a unit too, scans the rest for an
    entry it does not divide. Returns (rank, U, S, V) as row lists.
    """
    m, n = a.rows, a.cols
    A = a.to_lists()
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for M in (A, V):
            for row in M:
                row[i], row[j] = row[j], row[i]

    d = 0
    while d < min(m, n):
        entries = [(abs(A[i][j]), i, j) for i in range(d, m) for j in range(d, n) if A[i][j]]
        if not entries:
            break
        _, pi, pj = min(entries, key=lambda e: e[0])
        swap_rows(d, pi)
        swap_cols(d, pj)
        while True:
            dirty = False
            for i in range(d + 1, m):
                if A[i][d]:
                    q = A[i][d] // A[d][d]
                    A[i] = [x - q * y for x, y in zip(A[i], A[d])]
                    U[i] = [x - q * y for x, y in zip(U[i], U[d])]
                    if A[i][d]:
                        swap_rows(d, i)
                        dirty = True
            if dirty:
                continue
            for j in range(d + 1, n):
                if A[d][j]:
                    q = A[d][j] // A[d][d]
                    for M in (A, V):
                        for row in M:
                            row[j] -= q * row[d]
                    if A[d][j]:
                        swap_cols(d, j)
                        dirty = True
            if dirty:
                continue
            offenders = [i for i in range(d + 1, m) for j in range(d + 1, n) if A[i][j] % A[d][d]]
            if not offenders:
                break
            A[d] = [x + y for x, y in zip(A[d], A[offenders[0]])]
            U[d] = [x + y for x, y in zip(U[d], U[offenders[0]])]
        d += 1
    for i in range(min(m, n)):
        if A[i][i] < 0:
            A[i] = [-x for x in A[i]]
            U[i] = [-x for x in U[i]]
    return d, U, A, V


def _pivot_sweep(rng):
    """Seeded inputs for the pivot rule: units early, late, negative or absent."""
    for kind in ("dense", "zero-rows", "low-rank", "no-unit", "minus-one", "unit-late") * 50:
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        if kind == "low-rank":
            inner = rng.randint(1, max(1, min(rows, cols) - 1))
            left = IntegerMatrix([[rng.randint(-3, 3) for _ in range(inner)] for _ in range(rows)])
            right = IntegerMatrix([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(inner)])
            yield left * right
            continue
        if kind == "minus-one":
            # -1 is the only unit, so every unit pivot is negative.
            entries = [[rng.choice([0, -1, 2, -3, 4]) for _ in range(cols)] for _ in range(rows)]
        else:
            entries = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        if kind == "zero-rows":
            for row in entries:
                if rng.random() < 0.5:
                    row[:] = [0] * cols
        elif kind == "no-unit":
            entries = [[2 * x for x in row] for row in entries]
        elif kind == "unit-late":
            # A larger nonzero comes first in scan order, then the unit.
            entries = [[3 * x for x in row] for row in entries]
            entries[0][0] = rng.choice([3, -6])
            i = rng.randrange(rows)
            j = rng.randrange(1 if i == 0 and cols > 1 else 0, cols)
            entries[i][j] = rng.choice([1, -1])
        yield IntegerMatrix(entries)


def test_unit_pivots_match_the_full_scan():
    """U, S, V and kernel equal the full-scan elimination, 300 inputs."""
    rng = random.Random(2610)
    for A in _pivot_sweep(rng):
        r, U, S, V = reference_smith(A)
        snf = smith_normal_form(A)
        assert (snf.U.to_lists(), snf.S.to_lists(), snf.V.to_lists()) == (U, S, V), A
        assert kernel_lattice(A) == [tuple(row[j] for row in V) for j in range(r, A.cols)]


def test_inverse_unimodular():
    U = IntegerMatrix([[2, 1], [1, 1]])
    assert abs(determinant(U)) == 1
    assert inverse_unimodular(U) * U == IntegerMatrix.identity(2)
    with pytest.raises(NotUnimodular):
        inverse_unimodular(IntegerMatrix([[2, 0], [0, 1]]))
    rng = random.Random(8)
    for size in range(1, 7):
        A = random_unimodular(rng, size)
        inv = inverse_unimodular(A)
        assert inv * A == A * inv == IntegerMatrix.identity(size)


def test_matrix_shape_errors():
    with pytest.raises(DimensionMismatch):
        IntegerMatrix([[1, 2]]) * IntegerMatrix([[1, 2]])
    with pytest.raises(ValueError):
        IntegerMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntegerMatrix([[1.5]])


def rational_inverse(entries):
    """Exact inverse of a square matrix over Q; raises on singular input."""
    n = len(entries)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(entries)]
    R, piv = rational_rref(aug)
    if piv[:n] != list(range(n)):
        raise ValueError("matrix is singular over Q")
    return [row[n:] for row in R[:n]]


def test_rational_solve_and_inverse():
    from fractions import Fraction

    A = [[2, 1], [1, 1]]
    x = rational_solve_many(A, [[1, 0]])[0]
    assert x == (Fraction(1), Fraction(-1))
    assert rational_solve_many([[1, 0], [1, 0]], [[1, 2]])[0] is None
    inv = rational_inverse(A)
    assert inv == [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(2)]]


def fraction_pseudo_inverse(vecs):
    """(B^T B)^-1 B^T over Q, B the matrix with columns vecs."""
    gram = [[sum(a * b for a, b in zip(u, v)) for v in vecs] for u in vecs]
    ginv = rational_inverse(gram)
    return [
        [sum(g * v[e] for g, v in zip(row, vecs)) for e in range(len(vecs[0]))]
        for row in ginv
    ]


@pytest.mark.parametrize("m,r", [(1, 1), (2, 2), (4, 4), (6, 6), (3, 1), (5, 2), (8, 3), (9, 5)])
def test_left_inverse_matches_fraction_pseudo_inverse(m, r):
    rng = random.Random(1000 * m + r)
    for _ in range(10):
        while True:
            vecs = [tuple(rng.randint(-9, 9) for _ in range(m)) for _ in range(r)]
            if len(rational_rref(vecs)[1]) == r:
                break
        D, N = left_inverse(vecs)
        gram = IntegerMatrix(vecs) * IntegerMatrix(vecs).transpose()
        assert D == determinant(gram) > 0
        assert [[Fraction(x, D) for x in row] for row in N] == fraction_pseudo_inverse(vecs)


def test_left_inverse_none_on_dependent_columns():
    rng = random.Random(77)
    assert left_inverse([(0, 0, 0)]) is None
    assert left_inverse([(1, 2), (2, 4)]) is None
    for _ in range(30):
        m = rng.randint(2, 6)
        vecs = [tuple(rng.randint(-9, 9) for _ in range(m)) for _ in range(rng.randint(1, m - 1))]
        coeffs = [rng.randint(-3, 3) for _ in vecs]
        combo = tuple(sum(c * v[e] for c, v in zip(coeffs, vecs)) for e in range(m))
        vecs.insert(rng.randint(0, len(vecs)), combo)
        assert left_inverse(vecs) is None


@pytest.mark.parametrize(
    "entries",
    [[[1, 2], [2, 4]], [[2, 0], [0, 1]], [[1, 0], [0, 1], [0, 0]]],
    ids=["singular", "determinant-2", "tall-gram-determinant-1"],
)
def test_inverse_unimodular_refuses(entries):
    with pytest.raises(NotUnimodular):
        inverse_unimodular(IntegerMatrix(entries))


def test_immutability():
    A = IntegerMatrix([[1]])
    with pytest.raises(AttributeError):
        A.rows = 2


VALUE_TYPES = (
    "IntegerMatrix",
    "SnfDecomposition",
    "LatticeType",
    "IntegralSymplecticSpace",
    "FrobeniusBasis",
    "TorusPoint",
    "AffineSymplectomorphism",
    "Taming",
    "SiegelPoint",
    "FundamentalFormSample",
    "PointFrame",
    "FieldStrengthSample",
    "PolarizedStar",
    "TwistedComplex",
    "CohomologyResult",
    "ChargeClass",
    "DszVerdict",
    "HolonomySubgroup",
    "FiniteScalarModel",
    "UDualityElement",
)


def _value_types():
    """One instance of every value type of the package, keyed by class name."""
    t = LatticeType((1,))
    gram = standard_gram(t)
    taming = Taming(standard_taming_matrix(1), gram, 0.0)
    frame = PointFrame(np.diag([-1.0, 1.0, 1.0, 1.0]))
    sphere = two_sphere_complex(t)
    charge = ChargeClass(charge_lattice_basis(sphere)[0])
    model = FiniteScalarModel(1, [[0]], [taming])
    space = IntegralSymplecticSpace(gram)
    values = [
        IntegerMatrix([[1]]),
        smith_normal_form(IntegerMatrix([[2]])),
        t,
        space,
        frobenius_basis(space),
        TorusPoint(["1/2", "0"], t),
        AffineSymplectomorphism(["1/2", "0"], IntegerMatrix.identity(2), t),
        taming,
        SiegelPoint(np.zeros((1, 1)), np.eye(1)),
        FundamentalFormSample([np.zeros((2, 2))]),
        frame,
        FieldStrengthSample(np.zeros((6, 2))),
        PolarizedStar(frame, taming),
        sphere,
        twisted_cohomology(sphere, 2),
        charge,
        dsz_check(charge, sphere),
        HolonomySubgroup([IntegerMatrix.identity(2)], t),
        model,
        UDualityElement(0, IntegerMatrix.identity(2)),
    ]
    return {type(v).__name__: v for v in values}


def _package_classes():
    for info in pkgutil.iter_modules(siegelkit.__path__):
        module = importlib.import_module(f"siegelkit.{info.name}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                yield cls


def test_value_types_are_every_frozen_class():
    frozen = {c.__name__ for c in _package_classes() if issubclass(c, Frozen)}
    assert frozen == {"Frozen", *VALUE_TYPES}
    assert list(_value_types()) == list(VALUE_TYPES)


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_types_refuse_assignment_and_deletion(name):
    value = _value_types()[name]
    slot = type(value).__slots__[0]
    before = getattr(value, slot)
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        setattr(value, slot, None)
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        delattr(value, slot)
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        value.extra = 1
    assert getattr(value, slot) is before


def test_only_the_base_guards_attributes():
    """No class of the package but Frozen defines __setattr__ or __delattr__."""
    guards = {
        cls.__name__
        for cls in _package_classes()
        if "__setattr__" in vars(cls) or "__delattr__" in vars(cls)
    }
    assert guards == {"Frozen"}


def test_generator_input_is_validated():
    """Generators are consumed once; a float entry is refused, not truncated."""
    with pytest.raises(ValueError):
        IntegerMatrix(row for row in [[1.7, 1], [0, 1]])
    with pytest.raises(ValueError):
        IntegerMatrix((x for x in row) for row in [[1, 1], [0, 1.5]])
    with pytest.raises(ValueError):
        IntegerMatrix([[1.5], [2]])
    m = IntegerMatrix((x for x in row) for row in [[2, 1], [0, 1]])
    assert m == IntegerMatrix([[2, 1], [0, 1]])
    assert IntegerMatrix(iter([[np.int64(3)]]))[0, 0] == 3
    assert type(IntegerMatrix([[np.int64(3), True]])[0, 1]) is int


def test_closed_operations_match_validated_construction():
    """Trusted results equal the same entries passed through the constructor."""
    rng = random.Random(41)
    for _ in range(200):
        r, k, c = (rng.randint(1, 4) for _ in range(3))
        A = IntegerMatrix([[rng.randint(-9, 9) for _ in range(k)] for _ in range(r)])
        A2 = IntegerMatrix([[rng.randint(-9, 9) for _ in range(k)] for _ in range(r)])
        B = IntegerMatrix([[rng.randint(-9, 9) for _ in range(c)] for _ in range(k)])
        la, la2, lb = A.to_lists(), A2.to_lists(), B.to_lists()
        assert A * B == IntegerMatrix(
            [[sum(la[i][q] * lb[q][j] for q in range(k)) for j in range(c)]
             for i in range(r)]
        )
        assert A + A2 == IntegerMatrix(
            [[la[i][j] + la2[i][j] for j in range(k)] for i in range(r)]
        )
        assert A - A2 == IntegerMatrix(
            [[la[i][j] - la2[i][j] for j in range(k)] for i in range(r)]
        )
        assert -A == IntegerMatrix([[-x for x in row] for row in la])
        assert A.transpose() == IntegerMatrix([list(col) for col in zip(*la)])
        vec = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(k)]
        image = A.apply(vec)
        assert image == tuple(sum(la[i][q] * vec[q] for q in range(k)) for i in range(r))
        assert all(type(x) is Fraction for x in image)
        scaled = A * np.int64(3)
        assert scaled == IntegerMatrix([[3 * x for x in row] for row in la])
        assert all(type(x) is int for i in range(r) for x in scaled.row(i))
        ints = [rng.randint(-9, 9) for _ in range(k)]
        assert A.apply(ints) == tuple(sum(la[i][q] * ints[q] for q in range(k)) for i in range(r))
        mixed = [ints[q] if q % 2 else vec[q] for q in range(k)]
        assert A.apply(mixed) == tuple(sum(la[i][q] * mixed[q] for q in range(k)) for i in range(r))
        snf = smith_normal_form(A)
        for X in (snf.U, snf.S, snf.V):
            assert X == IntegerMatrix(X.to_lists())


def test_identity_and_zeros_need_positive_size():
    with pytest.raises(ValueError):
        IntegerMatrix.identity(0)
    with pytest.raises(ValueError):
        IntegerMatrix.zeros(2, 0)
    assert IntegerMatrix.zeros(2, 3) == IntegerMatrix([[0, 0, 0], [0, 0, 0]])
