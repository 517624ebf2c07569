import random
from fractions import Fraction

import numpy as np
import pytest

from siegelkit.errors import DimensionMismatch, NotUnimodular
from siegelkit.exact_linalg import (
    IntegerMatrix,
    RationalMatrix,
    determinant,
    inverse_unimodular,
    is_unimodular,
    kernel_lattice,
    rank,
    rational_inverse,
    rational_solve,
    smith_normal_form,
)


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


def test_rank_matches_rational_rank():
    rng = random.Random(7)
    for _ in range(50):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        A = IntegerMatrix(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        # Independent rank oracle: rational row reduction.
        from siegelkit.exact_linalg import rational_rref

        _, piv = rational_rref(A.to_lists())
        assert rank(A) == len(piv)


def test_inverse_unimodular():
    U = IntegerMatrix([[2, 1], [1, 1]])
    assert is_unimodular(U)
    assert inverse_unimodular(U) * U == IntegerMatrix.identity(2)
    with pytest.raises(NotUnimodular):
        inverse_unimodular(IntegerMatrix([[2, 0], [0, 1]]))


def test_matrix_shape_errors():
    with pytest.raises(DimensionMismatch):
        IntegerMatrix([[1, 2]]) * IntegerMatrix([[1, 2]])
    with pytest.raises(ValueError):
        IntegerMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntegerMatrix([[1.5]])


def test_rational_solve_and_inverse():
    from fractions import Fraction

    A = [[2, 1], [1, 1]]
    x = rational_solve(A, [1, 0])
    assert x == (Fraction(1), Fraction(-1))
    assert rational_solve([[1, 0], [1, 0]], [1, 2]) is None
    inv = rational_inverse(A)
    assert inv == [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(2)]]


def test_rational_matrix_basics():
    from fractions import Fraction

    M = RationalMatrix([[Fraction(1, 2), 1], [0, Fraction(3)]])
    assert M[0, 0] == Fraction(1, 2)
    assert (M * M.transpose()).rows == 2


def test_immutability():
    A = IntegerMatrix([[1]])
    with pytest.raises(AttributeError):
        A.rows = 2


def test_generator_input_is_validated():
    """Generators are consumed once; a float entry is refused, not truncated."""
    with pytest.raises(ValueError):
        IntegerMatrix(row for row in [[1.7, 1], [0, 1]])
    with pytest.raises(ValueError):
        IntegerMatrix((x for x in row) for row in [[1, 1], [0, 1.5]])
    with pytest.raises(ValueError):
        IntegerMatrix.column([1.5, 2])
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
        assert A.kronecker(B) == IntegerMatrix(
            [[la[i][j] * lb[p][q] for j in range(k) for q in range(c)]
             for i in range(r) for p in range(k)]
        )
        vec = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(k)]
        image = A.apply(vec)
        assert image == tuple(sum(la[i][q] * vec[q] for q in range(k)) for i in range(r))
        assert all(type(x) is Fraction for x in image)
        scaled = A * np.int64(3)
        assert scaled == IntegerMatrix([[3 * x for x in row] for row in la])
        assert all(type(x) is int for i in range(r) for x in scaled.row(i))
        snf = smith_normal_form(A)
        for X in (snf.U, snf.S, snf.V):
            assert X == IntegerMatrix(X.to_lists())


def test_identity_and_zeros_need_positive_size():
    with pytest.raises(ValueError):
        IntegerMatrix.identity(0)
    with pytest.raises(ValueError):
        IntegerMatrix.zeros(2, 0)
    assert IntegerMatrix.zeros(2, 3) == IntegerMatrix([[0, 0, 0], [0, 0, 0]])
