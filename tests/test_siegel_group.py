import random
from fractions import Fraction

import pytest

from siegelkit.errors import TypeMismatch
from siegelkit.exact_linalg import IntegerMatrix
from siegelkit.sampling import random_lattice_type, random_sp_t_element
from siegelkit.siegel_group import (
    AffineSymplectomorphism,
    TorusPoint,
    aff_act,
    aff_compose,
    aff_inverse,
    lattice_rep,
)
from siegelkit.symplectic_lattices import (
    LatticeType,
    sp_type_membership,
    standard_gram,
)

T1 = LatticeType((1,))
I2 = IntegerMatrix.identity(2)


def test_identity_composition():
    x = AffineSymplectomorphism(
        [Fraction(1, 3), Fraction(2, 5)], IntegerMatrix([[1, 1], [0, 1]]), T1
    )
    e = AffineSymplectomorphism.identity(T1)
    assert aff_compose(e, x) == x
    assert aff_compose(x, e) == x


def test_half_translations_cancel():
    x = AffineSymplectomorphism([Fraction(1, 2), 0], I2, T1)
    assert aff_compose(x, x) == AffineSymplectomorphism.identity(T1)


def test_rotation_moves_translation():
    g = IntegerMatrix([[1, 1], [0, 1]])
    x = AffineSymplectomorphism([0, 0], g, T1)
    y = AffineSymplectomorphism([Fraction(1, 3), 0], I2, T1)
    z = aff_compose(x, y)
    assert z.translation == (Fraction(1, 3), Fraction(0))
    assert z.rotation == g


def test_inverse_examples():
    e = AffineSymplectomorphism.identity(T1)
    assert aff_inverse(e) == e
    q = AffineSymplectomorphism([Fraction(1, 4), 0], I2, T1)
    assert aff_inverse(q).translation == (Fraction(3, 4), Fraction(0))
    S = IntegerMatrix([[0, -1], [1, 0]])
    w = AffineSymplectomorphism([0, 0], S, T1)
    assert aff_inverse(w).rotation == IntegerMatrix([[0, 1], [-1, 0]])


def test_action_examples():
    p0 = TorusPoint([0, 0], T1)
    e = AffineSymplectomorphism.identity(T1)
    assert aff_act(e, p0) == p0
    tr = AffineSymplectomorphism([Fraction(1, 2), Fraction(1, 2)], I2, T1)
    assert aff_act(tr, p0).coords == (Fraction(1, 2), Fraction(1, 2))
    shear = AffineSymplectomorphism([0, 0], IntegerMatrix([[1, 1], [0, 1]]), T1)
    p = TorusPoint([Fraction(1, 2), Fraction(1, 2)], T1)
    assert aff_act(shear, p).coords == (Fraction(0), Fraction(1, 2))


def test_action_property():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 2)
        t = random_lattice_type(rng, n)
        x = _random_aff(rng, t)
        y = _random_aff(rng, t)
        p = TorusPoint(
            [Fraction(rng.randint(0, 20), rng.randint(1, 9)) for _ in range(2 * n)], t
        )
        assert aff_act(aff_compose(x, y), p) == aff_act(x, aff_act(y, p))


def _random_aff(rng, t):
    rot = random_sp_t_element(rng, t, steps=4)
    tr = [Fraction(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(2 * t.n)]
    return AffineSymplectomorphism(tr, rot, t)


def test_group_axioms_random():
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randint(1, 2)
        t = random_lattice_type(rng, n)
        x, y, z = (_random_aff(rng, t) for _ in range(3))
        assert aff_compose(aff_compose(x, y), z) == aff_compose(x, aff_compose(y, z))
        e = AffineSymplectomorphism.identity(t)
        assert aff_compose(x, aff_inverse(x)) == e
        assert aff_compose(aff_inverse(x), x) == e


def test_translations_form_subgroup():
    rng = random.Random(13)
    t = LatticeType((1, 2))
    for _ in range(50):
        a = _random_aff(rng, t)
        b = _random_aff(rng, t)
        ta = AffineSymplectomorphism(a.translation, IntegerMatrix.identity(4), t)
        tb = AffineSymplectomorphism(b.translation, IntegerMatrix.identity(4), t)
        prod = aff_compose(ta, tb)
        assert prod.rotation == IntegerMatrix.identity(4)
        # the quotient map to the rotation part is a homomorphism
        assert aff_compose(a, b).rotation == a.rotation * b.rotation


def test_lattice_rep_examples_and_homomorphism():
    rng = random.Random(4)
    a = AffineSymplectomorphism([Fraction(1, 3), 0], I2, T1)
    assert lattice_rep(a) == I2
    g = IntegerMatrix([[1, 1], [0, 1]])
    b = AffineSymplectomorphism([Fraction(1, 3), 0], g, T1)
    assert lattice_rep(b) == g
    for _ in range(500):
        n = rng.randint(1, 2)
        t = random_lattice_type(rng, n)
        x = _random_aff(rng, t)
        y = _random_aff(rng, t)
        assert lattice_rep(aff_compose(x, y)) == lattice_rep(x) * lattice_rep(y)


def _apply_to_lift(x, coords):
    """Action gamma v + a on an unreduced rational lift of a torus point."""
    moved = x.rotation.apply(tuple(Fraction(c) for c in coords))
    return tuple(a + b for a, b in zip(moved, x.translation))


def test_pairing_of_lift_differences_preserved():
    """The symplectic pairing of difference vectors is exactly invariant.

    Differences are taken on rational lifts; the affine action moves
    lifts by gamma and a shared translation, so differences transform by
    gamma alone and gamma^T Omega gamma = Omega gives the identity.
    """
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randint(1, 2)
        t = random_lattice_type(rng, n)
        omega = standard_gram(t)
        x = _random_aff(rng, t)
        lifts = [
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(2 * n))
            for _ in range(4)
        ]
        p, q, r, s = lifts
        d1 = tuple(a - b for a, b in zip(p, q))
        d2 = tuple(a - b for a, b in zip(r, s))
        moved = [_apply_to_lift(x, v) for v in lifts]
        m1 = tuple(a - b for a, b in zip(moved[0], moved[1]))
        m2 = tuple(a - b for a, b in zip(moved[2], moved[3]))

        def pair(u, v):
            return sum(
                u[i] * omega[i, j] * v[j]
                for i in range(2 * n)
                for j in range(2 * n)
            )

        assert pair(d1, d2) == pair(m1, m2)


def test_reduction_canonical_box():
    p = TorusPoint([Fraction(-1, 4), Fraction(7, 3)], T1)
    assert p.coords == (Fraction(3, 4), Fraction(1, 3))


def test_type_mismatch_errors():
    x = AffineSymplectomorphism.identity(T1)
    y = AffineSymplectomorphism.identity(LatticeType((2,)))
    with pytest.raises(TypeMismatch):
        aff_compose(x, y)
    with pytest.raises(TypeMismatch):
        aff_act(x, TorusPoint([0, 0], LatticeType((2,))))


def test_group_law_results_pass_public_membership_sweep():
    """aff_compose and aff_inverse skip the retest; their results still pass it."""
    rng = random.Random(2026)
    for entries in ((1,), (3,), (1, 1), (1, 2), (2, 6), (1, 1, 1), (1, 2, 4)):
        t = LatticeType(entries)
        for _ in range(25):
            x, y = _random_aff(rng, t), _random_aff(rng, t)
            for z in (aff_compose(x, y), aff_inverse(x), aff_inverse(aff_compose(y, x))):
                assert sp_type_membership(z.rotation, t)
                assert AffineSymplectomorphism(z.translation, z.rotation, t) == z
                assert all(0 <= c < 1 for c in z.translation)


def test_integer_group_law_matches_fraction_formulas():
    """The numerator-over-denominator law against the Fraction formulas.

    a_x + gamma_x a_y mod 1 for products, -gamma^{-1} a mod 1 for
    inverses and gamma p + a mod 1 for the action, with gamma^{-1}
    checked as a two-sided inverse first.
    """
    rng = random.Random(1313)

    def rational():
        den = rng.choice([1, 2, 6, 12, rng.randint(1, 10**6)])
        return Fraction(rng.randint(-3 * den, 3 * den), den)

    def mat_vec(g, v):
        return tuple(sum(a * b for a, b in zip(row, v)) for row in g.to_lists())

    for n in (1, 2, 3):
        e = AffineSymplectomorphism.identity(LatticeType((1,) * n))
        assert e.translation == (Fraction(0),) * (2 * n) and e._den == 1
        for _ in range(40):
            t = random_lattice_type(rng, n)
            x, y = (
                AffineSymplectomorphism(
                    [rational() for _ in range(2 * n)],
                    random_sp_t_element(rng, t, steps=4),
                    t,
                )
                for _ in range(2)
            )
            a_x, a_y = x.translation, y.translation
            want = tuple(
                (a + b) % 1 for a, b in zip(a_x, mat_vec(x.rotation, a_y))
            )
            z = aff_compose(x, y)
            assert z.translation == want
            assert z == AffineSymplectomorphism(want, x.rotation * y.rotation, t)

            inv = aff_inverse(x)
            identity = IntegerMatrix.identity(2 * n)
            assert x.rotation * inv.rotation == identity == inv.rotation * x.rotation
            assert inv.translation == tuple(
                -c % 1 for c in mat_vec(inv.rotation, a_x)
            )

            e = AffineSymplectomorphism.identity(t)
            assert aff_compose(x, e) == x == aff_compose(e, x)
            assert hash(aff_compose(x, inv)) == hash(e)

            p = TorusPoint([rational() for _ in range(2 * n)], t)
            assert aff_act(x, p).coords == tuple(
                (c + a) % 1 for c, a in zip(mat_vec(x.rotation, p.coords), a_x)
            )


def test_translation_canonical_form():
    """0 <= num < den, gcd(den, *num) = 1: equal elements, equal fields."""
    forms = [
        AffineSymplectomorphism([Fraction(c), 0], I2, T1)
        for c in ("1/2", "-1/2", "3/2")
    ]
    assert forms[0] == forms[1] == forms[2]
    assert len({hash(x) for x in forms}) == 1
    assert all((x._num, x._den) == ((1, 0), 2) for x in forms)

    sixth = AffineSymplectomorphism([Fraction(1, 6), 0], I2, T1)
    third = AffineSymplectomorphism([Fraction(1, 3), 0], I2, T1)
    half = aff_compose(sixth, third)
    assert (half._num, half._den) == ((1, 0), 2)
    assert half == forms[0]
    assert half._num == third._num and half != third

    whole = AffineSymplectomorphism([3, -2], I2, T1)
    assert (whole._num, whole._den) == ((0, 0), 1)
    assert whole == AffineSymplectomorphism.identity(T1)
    assert aff_compose(half, half)._den == 1

    p, q = 2**61 - 1, 10**30 + 1
    x = AffineSymplectomorphism([Fraction(1, p), 0], I2, T1)
    y = AffineSymplectomorphism([Fraction(-1, q), Fraction(1, q)], I2, T1)
    z = aff_compose(x, y)
    assert z._den == p * q
    assert z.translation == (Fraction(1, p) - Fraction(1, q), Fraction(1, q))
    assert aff_compose(z, aff_inverse(z)) == AffineSymplectomorphism.identity(T1)

    for w in (half, z, aff_inverse(z)):
        assert all(type(c) is Fraction and 0 <= c < 1 for c in w.translation)
        assert [c * w._den for c in w.translation] == list(w._num)

    shear = IntegerMatrix([[1, 1], [0, 1]])
    trusted = {
        AffineSymplectomorphism._trusted((3, 7), 6, shear, T1),
        AffineSymplectomorphism._trusted((-8, 16), 12, shear, T1),
    }
    public = {
        AffineSymplectomorphism([Fraction(1, 2), Fraction(1, 6)], shear, T1),
        AffineSymplectomorphism([Fraction(1, 3), Fraction(1, 3)], shear, T1),
    }
    assert trusted == public and len(trusted | public) == 2
