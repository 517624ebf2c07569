import json
import random
from fractions import Fraction
from operator import mul

import pytest

from siegelkit import cli, local_systems
from siegelkit.errors import InvalidComplex, NotACocycle
from siegelkit.exact_linalg import (
    IntegerMatrix,
    inverse_unimodular,
    kernel_lattice,
    left_inverse,
    rational_solve_many,
    smith_normal_form,
)
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
from siegelkit.sampling import random_lattice_type, random_sl2z, random_sp_t_element
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


def adjugate_inverse(g):
    """Inverse of a 2x2 integer matrix of determinant +-1: det [[d, -b], [-c, a]]."""
    (a, b), (c, d) = g.to_lists()
    det = a * d - b * c
    return IntegerMatrix([[det * d, -det * b], [-det * c, det * a]])


def test_word_holonomy_matches_adjugate_inverses():
    """d1 blocks are inverse holonomies, for Sp_t and other unimodular transports."""
    rng = random.Random(12)
    flip = IntegerMatrix([[1, 0], [0, -1]])  # unimodular, reverses the pairing
    for _ in range(20):
        a, b = random_sl2z(rng), random_sl2z(rng)
        for g1, g2 in ((a, b), (flip * a, b)):
            c = two_torus_complex(g1, g2, T1)
            # Letters e0, e1, e0^-1, e1^-1 give edge 1 the d1 block
            # (g2 g1)^-1 - (g1^-1 g2 g1)^-1.
            block = adjugate_inverse(g2 * g1) - adjugate_inverse(
                adjugate_inverse(g1) * g2 * g1
            )
            d1 = twisted_differential(c, 1)
            assert [list(d1.row(i)[2:4]) for i in range(2)] == block.to_lists()


@pytest.mark.parametrize(
    "transports",
    [{-1: SHEAR}, {5: SHEAR}, {0: SHEAR, 1: None}, [SHEAR, [[1, 0], [0, 1]]]],
    ids=["negative-key", "key-past-edges", "full-mapping", "list-entry"],
)
def test_complex_takes_one_matrix_per_edge(transports):
    """Transports are a sequence of IntegerMatrix or None, one per 1-cell."""
    torus = two_torus_complex(None, None, T1)
    with pytest.raises(InvalidComplex):
        TwistedComplex(torus.cells, torus.boundaries, transports, T1, torus.words)


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


def _twisted_sweep(rng):
    """Twisted circles, tori and spheres over random types and transports."""
    for _ in range(8):
        t = random_lattice_type(rng, rng.choice((1, 2)))
        g = random_sp_t_element(rng, t, steps=4)
        yield circle_complex(g, t)
        yield circle_complex(-g, t)
        yield two_sphere_complex(t, transports=(g, g))
        g1 = random_sl2z(rng, 4)
        g2 = g1 * g1 if rng.random() < 0.5 else -g1
        yield two_torus_complex(g1, g2, T1)


def test_free_basis_equals_kernel_times_inverted_snf_transform():
    """free_basis is K U^-1 past rank R, rebuilt here from the public pieces."""
    rng = random.Random(61)
    for c in _twisted_sweep(rng):
        diffs = [twisted_differential(c, k) for k in range(c.dimension)]
        for k in range(c.dimension + 1):
            dim_k = c.coeff_rank * c.cells[k]
            if k < c.dimension:
                kernel = kernel_lattice(diffs[k])
            else:
                kernel = [tuple(int(i == j) for i in range(dim_k)) for j in range(dim_k)]
            if not kernel or k == 0 or diffs[k - 1].is_zero():
                expected = kernel
            else:
                D, N = left_inverse(kernel)
                scaled = (IntegerMatrix(N) * diffs[k - 1]).to_lists()
                R = IntegerMatrix([[x // D for x in row] for row in scaled])
                snf = smith_normal_form(R)
                gens = IntegerMatrix([list(v) for v in zip(*kernel)]) * inverse_unimodular(snf.U)
                expected = [gens.column_vector(j) for j in range(snf.rank(), len(kernel))]
            assert list(twisted_cohomology(c, k).free_basis) == expected


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
    c = four_torus_complex(T1, transports=(SHEAR, I2, SHEAR, SHEAR))
    report = validate_local_system(c)
    assert [f["edge"] for f in report.transport_failures] == [0, 2, 3]
    assert all("detail" in f for f in report.transport_failures)
    with pytest.raises(InvalidComplex):
        twisted_cohomology(c, 2)


def test_invalid_complex_raises_on_cohomology():
    bad = two_torus_complex(SHEAR, S_ROT, T1)
    with pytest.raises(InvalidComplex) as err:
        twisted_cohomology(bad, 1)
    assert err.value.report == validate_local_system(bad).as_dict()
    assert err.value.report["flatness_failures"] == [{"face": 0}]
    # The report kept on the complex is not the one handed out.
    err.value.report["flatness_failures"][0]["face"] = 7
    with pytest.raises(InvalidComplex) as again:
        twisted_cohomology(bad, 2)
    assert again.value.report["flatness_failures"] == [{"face": 0}]


# The validator is the only judge of a complex: every refusal of the
# computations is an entry of its report.

# Two vertices, two edges; the word e0 e0 e1^-1 e1^-1 matches the
# incidence column but is not a closed walk, and d1 d0 != 0 on its face.
NON_WALK = {
    "cells": [2, 2, 1],
    "boundaries": [{"entries": [[-1, -1], [1, 1]]}, {"entries": [[2], [-2]]}],
    "transports": [{"cell": 0, "gamma": {"entries": [[-1, 0], [0, -1]]}}],
    "t": [1],
    "words": [{"cell": 0, "word": [[0, 1], [0, 1], [1, -1], [1, -1]]}],
}
# A 1-cell whose incidence column names no (source, target) pair.
AMBIGUOUS_EDGE = {"cells": [2, 1], "boundaries": [{"entries": [[2], [0]]}], "t": [1]}


def _cli_validate(capsys, payload):
    code = cli.main(["cohomology", "validate", "--json", json.dumps(payload)])
    return code, json.loads(capsys.readouterr().out)


def test_non_walk_word_is_not_flat(capsys):
    from siegelkit import jsonio

    c = jsonio.decode_complex(NON_WALK)
    assert validate_local_system(c).flatness_failures == [{"face": 0}]
    with pytest.raises(InvalidComplex):
        twisted_cohomology(c, 0)
    code, out = _cli_validate(capsys, NON_WALK)
    assert code == 2 and out["flatness_failures"] == [{"face": 0}]


def test_ambiguous_edge_is_a_boundary_failure(capsys):
    from siegelkit import jsonio

    c = jsonio.decode_complex(AMBIGUOUS_EDGE)
    assert [f["edge"] for f in validate_local_system(c).boundary_failures] == [0]
    with pytest.raises(InvalidComplex):
        twisted_cohomology(c, 1)
    code, out = _cli_validate(capsys, AMBIGUOUS_EDGE)
    assert code == 2 and out["boundary_failures"][0]["edge"] == 0
    assert "ambiguous" in out["boundary_failures"][0]["detail"]


def test_word_letter_outside_the_complex_is_a_word_failure(capsys):
    # The letters on edges 0 and 1 match the incidence column; edge 5 does not exist.
    word = [[0, 1], [0, 1], [1, -1], [1, -1], [5, 1]]
    code, out = _cli_validate(capsys, dict(NON_WALK, words=[{"cell": 0, "word": word}]))
    assert code == 2 and [f["face"] for f in out["word_failures"]] == [0]
    assert "letter [5, 1]" in out["word_failures"][0]["detail"]


def _random_complex(rng):
    """2-3 vertices, 2-3 edges (a few of them loops) and 1-2 faces.

    Faces get commutator, back-and-forth, two-letter or random words,
    most of them explicit; the incidence column is the signed letter
    count, so words match it but are often not closed walks.
    """
    n_v, n_e, n_f = rng.randint(2, 3), rng.randint(2, 3), rng.randint(1, 2)
    b0 = [[0] * n_e for _ in range(n_v)]
    for e in range(n_e):
        src = rng.randrange(n_v)
        tgt = src if rng.random() < 0.1 else (src + rng.randrange(1, n_v)) % n_v
        b0[src][e] -= 1
        b0[tgt][e] += 1
    words, b1 = [], [[0] * n_f for _ in range(n_e)]
    for f in range(n_f):
        i, j, s = rng.randrange(n_e), rng.randrange(n_e), rng.choice((1, -1))
        word = rng.choice([
            [(i, 1), (j, 1), (i, -1), (j, -1)],
            [(i, s), (i, -s)],
            [(i, s), (j, -s)],
            [(rng.randrange(n_e), rng.choice((1, -1))) for _ in range(rng.randint(2, 4))],
        ])
        for e, s in word:
            b1[e][f] += s
        words.append(word if rng.random() < 0.8 else None)
    transports = [rng.choice((I2, I2, -I2, random_sl2z(rng, 3))) for _ in range(n_e)]
    return TwistedComplex(
        (n_v, n_e, n_f), (IntegerMatrix(b0), IntegerMatrix(b1)), transports, T1, words
    )


def test_validator_agrees_with_computations_on_random_complexes():
    rng = random.Random(53)
    seen = {True: 0, False: 0}
    for _ in range(300):
        c = _random_complex(rng)
        valid = validate_local_system(c).valid
        try:
            for k in range(c.dimension + 1):
                twisted_cohomology(c, k)
            computed = True
        except InvalidComplex:
            computed = False
        assert computed == valid
        seen[valid] += 1
    assert min(seen.values()) >= 30


def test_each_differential_built_once(monkeypatch):
    built = []
    validations = []
    real_d, real_v = local_systems.twisted_differential, local_systems.validate_local_system

    def counting_d(c, k):
        built.append(k)
        return real_d(c, k)

    def counting_v(c):
        validations.append(c)
        return real_v(c)

    monkeypatch.setattr(local_systems, "twisted_differential", counting_d)
    monkeypatch.setattr(local_systems, "validate_local_system", counting_v)
    c = four_torus_complex(LatticeType((1, 2)))
    for k in range(c.dimension + 1):
        twisted_cohomology(c, k)
    basis = charge_lattice_basis(c)
    for m in range(3):
        vec = [m * Fraction(x) for x in basis[0]]
        assert dsz_check(ChargeClass(vec), c).coordinates[0] == m
    assert sorted(built) == [0, 1, 2, 3]
    assert len(validations) == 1


def _solve_dsz(c, vec):
    """Oracle: solve [basis | d1] (m; w) = vec over Q afresh for one class.

    Returns the coordinates m when they are integers, else None; asserts
    that the system is consistent, as it is for every cocycle.
    """
    basis = charge_lattice_basis(c)
    d1 = twisted_differential(c, 1)
    rows = [[b[i] for b in basis] + list(d1.row(i)) for i in range(d1.rows)]
    sol = rational_solve_many(rows, [vec])[0]
    assert sol is not None
    m = sol[: len(basis)]
    if any(x.denominator != 1 for x in m):
        return None
    return tuple(int(x) for x in m)


def _oracle_complexes(rng):
    yield two_sphere_complex(T1)
    for _ in range(3):
        t = random_lattice_type(rng, rng.choice((1, 2)))
        g = random_sp_t_element(rng, t, steps=4)
        yield two_sphere_complex(t, transports=(g, g))
    yield two_torus_complex(None, None, T1)
    yield two_torus_complex(SHEAR, SHEAR, T1)
    for _ in range(4):
        g1 = random_sl2z(rng, 4)
        g2 = I2
        for _ in range(rng.randint(0, 2)):
            g2 = g2 * g1
        yield two_torus_complex(g1, g2 if rng.random() < 0.5 else -g2, T1)
    for n in (1, 2):
        yield four_torus_complex(random_lattice_type(rng, n))
    # d2 x = -3 x_0 - 3 x_1 - 2 x_2 per coefficient: not every cochain is
    # a cocycle, and the projector has the common denominator 3.
    zeros = IntegerMatrix.zeros
    b3 = IntegerMatrix([[-3], [-3], [-2]])
    yield TwistedComplex((1, 2, 3, 1), (zeros(1, 2), zeros(2, 3), b3), (None, None), T1)


def test_dsz_agrees_with_per_class_solve():
    """Verdicts and coordinates equal the per-class rational solve."""
    rng = random.Random(61)
    seen = {True: 0, False: 0}
    for c in _oracle_complexes(rng):
        basis = charge_lattice_basis(c)
        d1 = twisted_differential(c, 1)
        d2 = twisted_differential(c, 2)
        dim2 = d1.rows

        def combo(coeffs):
            vec = [Fraction(0)] * dim2
            for m, b in zip(coeffs, basis):
                vec = [x + m * y for x, y in zip(vec, b)]
            return vec

        def coboundary():
            w = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d1.cols)]
            return d1.apply(w)

        classes = []
        for _ in range(4):
            vec = combo([rng.randint(-5, 5) for _ in basis])
            classes.append(vec)
            classes.append([a + b for a, b in zip(vec, coboundary())])
            if basis:
                classes.append([x + Fraction(y, 2) for x, y in zip(vec, basis[0])])
            rational = combo([Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in basis])
            classes.append([a + b for a, b in zip(rational, coboundary())])
            classes.append([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(dim2)])
        for vec in classes:
            if d2 is not None and any(d2.apply(vec)):
                with pytest.raises(NotACocycle):
                    dsz_check(ChargeClass(vec), c)
                continue
            expected = _solve_dsz(c, vec)
            verdict = dsz_check(ChargeClass(vec), c)
            assert verdict.integral == (expected is not None)
            assert verdict.coordinates == expected
            seen[verdict.integral] += 1
    assert min(seen.values()) >= 50


def test_dsz_system_factored_once_per_complex(monkeypatch):
    """One factorization per complex, however many classes."""
    calls = {"kernel_lattice": 0, "smith_normal_form": 0}

    def count(name):
        fn = getattr(local_systems, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(local_systems, name, wrapper)

    count("kernel_lattice")
    count("smith_normal_form")
    # The untwisted 4-torus: d1 = 0, so H^2 is the kernel of d2, and no
    # image has to be factored.
    c = four_torus_complex(LatticeType((1, 2)))
    basis = charge_lattice_basis(c)
    for m in range(3):
        vec = [m * Fraction(x) for x in basis[0]]
        assert dsz_check(ChargeClass(vec), c).coordinates[0] == m
    assert calls == {"kernel_lattice": 1, "smith_normal_form": 0}

    # A twisted torus: every 2-cochain is a cocycle, and the one SNF of
    # the image of d1 gives both the basis and the projector; later
    # classes add nothing.
    c = two_torus_complex(SHEAR, SHEAR, T1)
    basis = charge_lattice_basis(c)
    before = dict(calls)
    assert before == {"kernel_lattice": 1, "smith_normal_form": 1}
    for m in range(10):
        vec = [m * Fraction(x) for x in basis[0]]
        assert dsz_check(ChargeClass(vec), c).coordinates[0] == m
    assert calls == before


def test_charge_projector_reads_the_basis_and_kills_coboundaries():
    """P basis = D I and P d1 = 0 on every oracle complex."""
    for seed in range(20):
        for c in _oracle_complexes(random.Random(seed)):
            basis, P, D = local_systems._charge_system(c)
            d1 = twisted_differential(c, 1)
            images = [d1.column_vector(j) for j in range(d1.cols)]
            r = len(basis)
            assert [[sum(map(mul, row, b)) for b in basis] for row in P] == [
                [D * (i == j) for j in range(r)] for i in range(r)
            ]
            assert not any(sum(map(mul, row, v)) for row in P for v in images)


def test_charge_basis_copy_does_not_reach_verdicts():
    c = two_sphere_complex(T1)
    basis = charge_lattice_basis(c)
    saved = list(basis)
    vec = [Fraction(x) for x in basis[0]]
    basis.reverse()
    basis[0] = (0,) * len(vec)
    basis.append(tuple(vec))
    assert charge_lattice_basis(c) == saved
    verdict = dsz_check(ChargeClass(vec), c)
    assert verdict.integral and verdict.coordinates == (1, 0)
