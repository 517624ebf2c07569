import random
from fractions import Fraction

import pytest

from siegelkit.errors import InvalidComplex, NotACocycle
from siegelkit.exact_linalg import IntegerMatrix, inverse_unimodular, smith_normal_form
from siegelkit.local_systems import (
    ChargeClass,
    TwistedComplex,
    charge_lattice_basis,
    circle_complex,
    dsz_check,
    four_torus_complex,
    twisted_cohomology,
    twisted_differential,
    two_sphere_complex,
    two_torus_complex,
    validate_local_system,
)
from siegelkit.sampling import random_sl2z
from siegelkit.symplectic_lattices import LatticeType

T1 = LatticeType((1,))
I2 = IntegerMatrix.identity(2)
SHEAR = IntegerMatrix([[1, 1], [0, 1]])
S_ROT = IntegerMatrix([[0, -1], [1, 0]])


def untwisted_cohomology_oracle(boundaries, cells, k, coeff_rank):
    """Independent oracle: cellular cohomology with Z coefficients, scaled.

    Computes H^k of the plain integer cochain complex by Smith reduction
    of the transposed boundary maps, then tensors with Z^{2n}: ranks
    multiply and torsion entries repeat.
    """
    dim = len(cells) - 1

    def d(k_):
        if k_ < 0 or k_ >= dim:
            return None
        return boundaries[k_].transpose()

    dk = d(k)
    dk_prev = d(k - 1)
    size_k = cells[k]
    if dk is None:
        rank_k = 0
    else:
        rank_k = smith_normal_form(dk).rank()
    ker_rank = size_k - rank_k
    if dk_prev is None:
        free, torsion = ker_rank, ()
    else:
        snf = smith_normal_form(dk_prev)
        rank_prev = snf.rank()
        free = ker_rank - rank_prev
        torsion = tuple(x for x in snf.invariant_factors() if x > 1)
    return free * coeff_rank, tuple(sorted(torsion * coeff_rank))


def test_validate_circle_trivial():
    report = validate_local_system(circle_complex(I2, T1))
    assert report.valid


def test_validate_torus_commuting():
    g1 = SHEAR
    g2 = IntegerMatrix([[1, 2], [0, 1]])
    report = validate_local_system(two_torus_complex(g1, g2, T1))
    assert report.valid


def test_validate_torus_noncommuting_flags_face():
    report = validate_local_system(two_torus_complex(SHEAR, S_ROT, T1))
    assert not report.valid
    assert report.flatness_failures == [{"face": 0}]


def test_validate_bad_transport():
    bad = IntegerMatrix([[2, 0], [0, 1]])
    report = validate_local_system(circle_complex(bad, T1))
    assert report.transport_failures == [{"edge": 0}]


def test_word_holonomy_matches_snf_inverses():
    """Closed-form inverses for Sp_t transports, SNF inverses for the rest."""
    rng = random.Random(12)
    flip = IntegerMatrix([[1, 0], [0, -1]])  # unimodular, reverses the pairing
    for _ in range(20):
        a, b = random_sl2z(rng), random_sl2z(rng)
        for g1, g2 in ((a, b), (flip * a, b)):
            c = two_torus_complex(g1, g2, T1)
            expected = inverse_unimodular(g2) * inverse_unimodular(g1) * g2 * g1
            assert c.word_holonomy(0) == expected
            # Letters e0, e1, e0^-1, e1^-1 give edge 1 the d1 block
            # (g2 g1)^-1 - (g1^-1 g2 g1)^-1.
            block = inverse_unimodular(g2 * g1) - inverse_unimodular(
                inverse_unimodular(g1) * g2 * g1
            )
            d1 = twisted_differential(c, 1)
            assert [list(d1.row(i)[2:4]) for i in range(2)] == block.to_lists()


def test_circle_trivial_coefficients():
    c = circle_complex(I2, T1)
    h0 = twisted_cohomology(c, 0)
    h1 = twisted_cohomology(c, 1)
    assert (h0.free_rank, h0.torsion) == (2, ())
    assert (h1.free_rank, h1.torsion) == (2, ())


def test_circle_shear():
    c = circle_complex(SHEAR, T1)
    assert twisted_cohomology(c, 0).free_rank == 1
    h1 = twisted_cohomology(c, 1)
    assert (h1.free_rank, h1.torsion) == (1, ())


def test_circle_minus_identity_torsion():
    c = circle_complex(-I2, T1)
    h0 = twisted_cohomology(c, 0)
    h1 = twisted_cohomology(c, 1)
    assert (h0.free_rank, h0.torsion) == (0, ())
    assert (h1.free_rank, h1.torsion) == (0, (2, 2))


def test_circle_oracle_random_monodromy():
    """H^0 = ker(g - 1), H^1 = coker(g - 1), by direct Smith reduction."""
    rng = random.Random(50)
    for _ in range(50):
        gamma = random_sl2z(rng, length=6)
        c = circle_complex(gamma, T1)
        snf = smith_normal_form(gamma - I2)
        ker_rank = 2 - snf.rank()
        torsion = tuple(d for d in snf.invariant_factors() if d > 1)
        h0 = twisted_cohomology(c, 0)
        h1 = twisted_cohomology(c, 1)
        assert (h0.free_rank, h0.torsion) == (ker_rank, ())
        assert (h1.free_rank, h1.torsion) == (ker_rank, torsion)


def test_cohomology_representatives_are_cocycles():
    c = circle_complex(SHEAR, T1)
    d0 = twisted_differential(c, 0)
    for v in twisted_cohomology(c, 0).free_basis:
        assert all(x == 0 for x in d0.apply(v))


@pytest.mark.parametrize(
    "builder,betti",
    [
        (two_sphere_complex, (1, 0, 1)),
        (lambda t: two_torus_complex(None, None, t), (1, 2, 1)),
    ],
)
def test_untwisted_models_match_oracle(builder, betti):
    for t in (T1, LatticeType((1, 2))):
        c = builder(t)
        for k, b in enumerate(betti):
            res = twisted_cohomology(c, k)
            oracle = untwisted_cohomology_oracle(
                c.boundaries, c.cells, k, c.coeff_rank
            )
            assert (res.free_rank, tuple(sorted(res.torsion))) == oracle
            assert res.free_rank == b * c.coeff_rank


def test_four_torus_untwisted():
    c = four_torus_complex(T1)
    for k, binom in enumerate((1, 4, 6, 4, 1)):
        res = twisted_cohomology(c, k)
        assert res.free_rank == 2 * binom
        assert res.torsion == ()


def test_euler_characteristic_consistency():
    for c, chi in (
        (two_sphere_complex(T1), 2),
        (two_torus_complex(None, None, T1), 0),
        (four_torus_complex(LatticeType((1, 2))), 0),
    ):
        total = sum(
            (-1) ** k * twisted_cohomology(c, k).free_rank
            for k in range(c.dimension + 1)
        )
        assert total == chi * c.coeff_rank


def test_conjugation_invariance():
    """Conjugate transports give an isomorphic local system."""
    rng = random.Random(51)
    from siegelkit.exact_linalg import inverse_unimodular

    for _ in range(10):
        gamma = random_sl2z(rng, 5)
        P = random_sl2z(rng, 5)
        conj = P * gamma * inverse_unimodular(P)
        for k in (0, 1):
            a = twisted_cohomology(circle_complex(gamma, T1), k)
            b = twisted_cohomology(circle_complex(conj, T1), k)
            assert (a.free_rank, a.torsion) == (b.free_rank, b.torsion)
    # twisted torus: conjugating a commuting pair stays flat and isomorphic
    for _ in range(5):
        P = random_sl2z(rng, 5)
        Pinv = inverse_unimodular(P)
        g1, g2 = SHEAR, IntegerMatrix([[1, -3], [0, 1]])
        orig = two_torus_complex(g1, g2, T1)
        conj = two_torus_complex(P * g1 * Pinv, P * g2 * Pinv, T1)
        for k in (0, 1, 2):
            a = twisted_cohomology(orig, k)
            b = twisted_cohomology(conj, k)
            assert (a.free_rank, a.torsion) == (b.free_rank, b.torsion)


def test_twisted_torus_cohomology_shear_pair():
    # commuting pair (g, g) with g unipotent: a genuinely twisted surface
    c = two_torus_complex(SHEAR, SHEAR, T1)
    res = [twisted_cohomology(c, k) for k in range(3)]
    # d0 has rank 1, so H^0 = Z; Euler characteristic forces the rest
    assert res[0].free_rank == 1
    total = sum((-1) ** k * res[k].free_rank for k in range(3))
    assert total == 0


def test_word_reconstruction_matches_explicit_words():
    """The sphere's attaching walks are reconstructible from incidence."""
    t = T1
    withwords = two_sphere_complex(t)
    without = TwistedComplex(
        cells=withwords.cells,
        boundaries=withwords.boundaries,
        transports=withwords.transports,
        type=t,
        words=None,
    )
    for k in range(3):
        a = twisted_cohomology(withwords, k)
        b = twisted_cohomology(without, k)
        assert (a.free_rank, a.torsion) == (b.free_rank, b.torsion)


def test_word_incidence_mismatch_flagged():
    t = T1
    good = two_sphere_complex(t)
    bad = TwistedComplex(
        cells=good.cells,
        boundaries=good.boundaries,
        transports=good.transports,
        type=t,
        words=(((0, 1), (1, 1)), ((1, 1), (0, -1))),  # first word has wrong signs
    )
    report = validate_local_system(bad)
    assert report.word_failures


def test_twisted_sphere_gauge_trivial():
    """Equal transports on both meridians: flat on a simply connected base,
    so cohomology must match the untwisted ranks."""
    gamma = SHEAR
    c = two_sphere_complex(T1, transports=(gamma, gamma))
    assert validate_local_system(c).valid
    for k, b in enumerate((1, 0, 1)):
        res = twisted_cohomology(c, k)
        assert (res.free_rank, res.torsion) == (2 * b, ())


def test_charge_lattice_examples():
    assert len(charge_lattice_basis(two_sphere_complex(T1))) == 2
    assert len(charge_lattice_basis(two_torus_complex(None, None, T1))) == 2
    with pytest.raises(InvalidComplex):
        charge_lattice_basis(circle_complex(I2, T1))


def test_dsz_integer_combinations():
    c = two_sphere_complex(T1)
    basis = charge_lattice_basis(c)
    vec = [3 * Fraction(x) - 2 * Fraction(y) for x, y in zip(basis[0], basis[1])]
    verdict = dsz_check(ChargeClass(vec), c)
    assert verdict.integral and verdict.coordinates == (3, -2)


def test_dsz_half_integral_rejected():
    c = two_sphere_complex(T1)
    basis = charge_lattice_basis(c)
    vec = [Fraction(x, 2) for x in basis[0]]
    verdict = dsz_check(ChargeClass(vec), c)
    assert not verdict.integral and verdict.coordinates is None


def test_dsz_coboundary_invariance():
    rng = random.Random(52)
    c = two_sphere_complex(T1)
    basis = charge_lattice_basis(c)
    d1 = twisted_differential(c, 1)
    vec = [Fraction(x) for x in basis[0]]
    for _ in range(20):
        w = [Fraction(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(d1.cols)]
        cob = d1.apply(w)
        shifted = [a + b for a, b in zip(vec, cob)]
        verdict = dsz_check(ChargeClass(shifted), c)
        assert verdict.integral and verdict.coordinates == (1, 0)


def test_dsz_additivity():
    c = two_sphere_complex(T1)
    b = charge_lattice_basis(c)
    c1 = ChargeClass([Fraction(x) for x in b[0]])
    c2 = ChargeClass([Fraction(x) for x in b[1]])
    verdict = dsz_check(c1 + c2, c)
    assert verdict.integral and verdict.coordinates == (1, 1)


def test_dsz_rejects_non_cocycle():
    # A 3-dimensional complex with a nonzero d2: a 3-cell attached with
    # degree two onto the torus face.
    b1 = IntegerMatrix([[0, 0]])
    b2 = IntegerMatrix([[0], [0]])
    b3 = IntegerMatrix([[2]])
    cx = TwistedComplex(
        cells=(1, 2, 1, 1),
        boundaries=(b1, b2, b3),
        transports=(None, None),
        type=T1,
        words=(((0, 1), (1, 1), (0, -1), (1, -1)),),
    )
    bad = ChargeClass([Fraction(1), Fraction(0)])
    with pytest.raises(NotACocycle):
        dsz_check(bad, cx)


def test_twisted_high_dimension_rejected():
    c = four_torus_complex(T1, transports=(SHEAR, SHEAR, SHEAR, SHEAR))
    with pytest.raises(InvalidComplex):
        twisted_cohomology(c, 2)


def test_invalid_complex_raises_on_cohomology():
    bad = two_torus_complex(SHEAR, S_ROT, T1)
    with pytest.raises(InvalidComplex):
        twisted_cohomology(bad, 1)
