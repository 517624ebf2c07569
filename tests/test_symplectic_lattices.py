import random

import pytest

from siegelkit.errors import DegenerateForm, DimensionMismatch, NotAntisymmetric
from siegelkit.exact_linalg import (
    IntegerMatrix,
    inverse_unimodular,
    is_unimodular,
    smith_normal_form,
)
from siegelkit.sampling import (
    random_lattice_type,
    random_sp_t_element,
    random_unimodular,
)
from siegelkit.symplectic_lattices import (
    IntegralSymplecticSpace,
    LatticeType,
    frobenius_basis,
    lattice_isomorphism,
    sp_type_membership,
    standard_gram,
    standard_space,
    symplectic_inverse,
    type_of,
)

# Principal and non-principal types for n = 1, 2, 3.
SWEEP_TYPES = [
    LatticeType(e)
    for e in ((1,), (3,), (1, 1), (1, 2), (2, 6), (1, 1, 1), (1, 2, 4), (1, 3, 6))
]


def test_lattice_type_validation():
    assert LatticeType((1, 2, 6)).entries == (1, 2, 6)
    with pytest.raises(ValueError):
        LatticeType(())
    with pytest.raises(ValueError):
        LatticeType((2, 3))
    with pytest.raises(ValueError):
        LatticeType((0, 1))


def test_standard_space_examples():
    assert standard_space(LatticeType((1,))).gram == IntegerMatrix([[0, 1], [-1, 0]])
    assert standard_space(LatticeType((2,))).gram == IntegerMatrix([[0, 2], [-2, 0]])
    assert standard_space(LatticeType((1, 2))).gram == IntegerMatrix(
        [[0, 0, 1, 0], [0, 0, 0, 2], [-1, 0, 0, 0], [0, -2, 0, 0]]
    )
    assert type_of(standard_space(LatticeType((1, 2)))) == LatticeType((1, 2))


def test_frobenius_standard_is_identity_effect():
    space = standard_space(LatticeType((1,)))
    fb = frobenius_basis(space)
    assert fb.type == LatticeType((1,))
    P = fb.change_of_basis
    assert P.transpose() * space.gram * P == space.gram


def test_frobenius_conjugated_example():
    """Oracle: SNF of the Gram must be diag(1,1,2,2)."""
    U = IntegerMatrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]])
    gram = U.transpose() * standard_gram(LatticeType((1, 2))) * U
    assert smith_normal_form(gram).diagonal() == (1, 1, 2, 2)
    fb = frobenius_basis(IntegralSymplecticSpace(gram))
    assert fb.type == LatticeType((1, 2))
    assert (
        fb.change_of_basis.transpose() * gram * fb.change_of_basis
        == standard_gram(LatticeType((1, 2)))
    )


def test_frobenius_scalar_type():
    gram = IntegerMatrix([[0, 6], [-6, 0]])
    assert smith_normal_form(gram).diagonal() == (6, 6)
    assert type_of(IntegralSymplecticSpace(gram)) == LatticeType((6,))


def test_space_validation_errors():
    with pytest.raises(NotAntisymmetric):
        IntegralSymplecticSpace(IntegerMatrix([[0, 1], [1, 0]]))
    with pytest.raises(DegenerateForm):
        IntegralSymplecticSpace(IntegerMatrix([[0, 0], [0, 0]]))
    with pytest.raises(DimensionMismatch):
        IntegralSymplecticSpace(IntegerMatrix([[0]]))


def test_membership_examples():
    t = LatticeType((1,))
    assert sp_type_membership(IntegerMatrix.identity(2), t)
    assert sp_type_membership(IntegerMatrix([[1, 1], [0, 1]]), t)
    assert not sp_type_membership(IntegerMatrix([[2, 0], [0, 1]]), t)
    with pytest.raises(DimensionMismatch):
        sp_type_membership(IntegerMatrix.identity(3), t)


def test_sp2nz_generators_in_principal_group():
    """Standard Sp(2n,Z) generators pass membership for the principal type."""
    for n in (1, 2):
        t = LatticeType.principal(n)
        ident = IntegerMatrix.identity(n)
        zero = IntegerMatrix.zeros(n, n)

        def blocks(a, b, c, d):
            rows = []
            for i in range(n):
                rows.append(list(a.row(i)) + list(b.row(i)))
            for i in range(n):
                rows.append(list(c.row(i)) + list(d.row(i)))
            return IntegerMatrix(rows)

        J = blocks(zero, -ident, ident, zero)
        assert sp_type_membership(J, t)
        # Symmetric shears generate with J.
        for k in range(n):
            B = [[1 if (i == j == k) else 0 for j in range(n)] for i in range(n)]
            assert sp_type_membership(blocks(ident, IntegerMatrix(B), zero, ident), t)


def test_type_invariance_random():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(1, 3)
        t = random_lattice_type(rng, n)
        U = random_unimodular(rng, 2 * n, steps=10, entry_bound=5)
        G = U.transpose() * standard_gram(t) * U
        assert type_of(IntegralSymplecticSpace(G)) == t
        # SNF oracle: diagonal is the type entries, each twice.
        expected = tuple(sorted(x for ti in t.entries for x in (ti, ti)))
        got = tuple(sorted(smith_normal_form(G).invariant_factors()))
        assert got == expected


def test_isomorphism_same_type():
    rng = random.Random(5)
    t = LatticeType((1, 2))
    a = standard_space(t)
    assert lattice_isomorphism(a, a) is not None
    U = random_unimodular(rng, 2, steps=8, entry_bound=9)
    g = U.transpose() * standard_gram(LatticeType((1,))) * U
    b = IntegralSymplecticSpace(g)
    P = lattice_isomorphism(b, standard_space(LatticeType((1,))))
    assert P is not None
    assert P.transpose() * g * P == standard_gram(LatticeType((1,)))


def test_isomorphism_type_mismatch_absent():
    a = standard_space(LatticeType((1,)))
    b = standard_space(LatticeType((2,)))
    assert lattice_isomorphism(a, b) is None
    with pytest.raises(DimensionMismatch):
        lattice_isomorphism(a, standard_space(LatticeType((1, 1))))


def _membership_by_definition(gamma, t):
    """Unimodular and gamma^T Omega_t gamma == Omega_t, by full products."""
    omega = standard_gram(t)
    return is_unimodular(gamma) and gamma.transpose() * omega * gamma == omega


def _near_misses(rng, gamma, t):
    n = t.n
    yield gamma * 2
    rows = gamma.to_lists()
    rows[rng.randrange(2 * n)][rng.randrange(2 * n)] += rng.choice([-1, 1])
    yield IntegerMatrix(rows)
    # A member of another type of the same rank.
    other = LatticeType(t.entries[:-1] + (2 * t.entries[-1],))
    yield random_sp_t_element(rng, other, steps=6)
    yield random_sp_t_element(rng, LatticeType.principal(n), steps=6)
    # diag(I, -I) sends Omega_t to -Omega_t: unimodular but antisymplectic.
    flip = IntegerMatrix.diagonal([1] * n + [-1] * n)
    yield flip * gamma
    yield gamma * flip
    yield random_unimodular(rng, 2 * n, steps=10, entry_bound=9)


def test_membership_matches_definition_sweep():
    """Closed-form membership agrees with the product-and-determinant definition."""
    rng = random.Random(2024)
    verdicts = {True: 0, False: 0}
    for t in SWEEP_TYPES:
        for _ in range(40):
            gamma = random_sp_t_element(rng, t, steps=6)
            assert sp_type_membership(gamma, t)
            assert _membership_by_definition(gamma, t)
            for cand in _near_misses(rng, gamma, t):
                got = sp_type_membership(cand, t)
                assert got == _membership_by_definition(cand, t)
                verdicts[got] += 1
    assert verdicts[True] > 0 and verdicts[False] > 1000


def test_symplectic_inverse_matches_snf_inverse_sweep():
    rng = random.Random(2025)
    for t in SWEEP_TYPES:
        ident = IntegerMatrix.identity(2 * t.n)
        for _ in range(40):
            gamma = random_sp_t_element(rng, t, steps=6)
            inv = symplectic_inverse(gamma, t)
            assert inv == inverse_unimodular(gamma)
            assert inv * gamma == ident
            assert sp_type_membership(inv, t)
    with pytest.raises(DimensionMismatch):
        symplectic_inverse(IntegerMatrix.identity(3), LatticeType((1,)))
