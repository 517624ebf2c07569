import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from siegelkit.errors import BoundTooLargeForBudget, InvalidModel
from siegelkit.exact_linalg import IntegerMatrix, rational_solve_many
from siegelkit.polarization import Taming, push_forward_taming, standard_taming_matrix
from siegelkit.sampling import random_taming
from siegelkit.symplectic_lattices import LatticeType, sp_type_membership, standard_gram
from siegelkit.uduality import (
    FiniteScalarModel,
    HolonomySubgroup,
    UDualityElement,
    adjoint_map,
    centralizer_enumerate,
    closure_within_box,
    commutant_lattice,
    is_pure_translation,
    uduality_compose,
    uduality_fiber_product,
)

T1 = LatticeType((1,))
I2 = IntegerMatrix.identity(2)
S_ROT = IntegerMatrix([[0, -1], [1, 0]])
SHEAR = IntegerMatrix([[1, 1], [0, 1]])


def brute_force_centralizer(generators, t, bound):
    """Direct filter over the full entry box, the independent oracle."""
    m = 2 * t.n
    out = []
    for flat in itertools.product(range(-bound, bound + 1), repeat=m * m):
        cand = IntegerMatrix([list(flat[i * m : (i + 1) * m]) for i in range(m)])
        if not all(cand * g == g * cand for g in generators):
            continue
        if sp_type_membership(cand, t):
            out.append(cand)
    return out


def spans_same_lattice(basis_a, basis_b):
    """Two matrix lists span the same integer lattice (mutual integral solves)."""

    def vecs(ms):
        return [[x for row in m.to_lists() for x in row] for m in ms]

    va, vb = vecs(basis_a), vecs(basis_b)
    if len(va) != len(vb):
        return False
    cols_a = [[v[i] for v in va] for i in range(len(va[0]))]
    cols_b = [[v[i] for v in vb] for i in range(len(vb[0]))]
    for cols, targets in ((cols_a, vb), (cols_b, va)):
        for sol in rational_solve_many(cols, targets):
            if sol is None or any(x.denominator != 1 for x in sol):
                return False
    return True


def test_commutant_of_identity_is_everything():
    h = HolonomySubgroup([I2], T1)
    basis = commutant_lattice(h)
    assert len(basis) == 4
    h_center = HolonomySubgroup([-I2], T1)
    assert len(commutant_lattice(h_center)) == 4


def test_commutant_of_rotation_is_rank_two():
    h = HolonomySubgroup([S_ROT], T1)
    basis = commutant_lattice(h)
    assert len(basis) == 2
    assert spans_same_lattice(basis, [I2, S_ROT])
    for b in basis:
        assert b * S_ROT == S_ROT * b


def test_commutant_rank_matches_sylvester_corank():
    rng = random.Random(21)
    from siegelkit.exact_linalg import smith_normal_form

    for _ in range(10):
        from siegelkit.sampling import random_sp_t_element

        g = random_sp_t_element(rng, T1, steps=4, entry_bound=9)
        h = HolonomySubgroup([g], T1)
        basis = commutant_lattice(h)
        ident = IntegerMatrix.identity(2)
        sylv = g.transpose().kronecker(ident) - ident.kronecker(g)
        assert len(basis) == 4 - smith_normal_form(sylv).rank()


def test_centralizer_trivial_holonomy_matches_brute_force():
    h = HolonomySubgroup([I2], T1)
    found = centralizer_enumerate(h, bound=1)
    oracle = brute_force_centralizer([I2], T1, 1)
    assert set(found) == set(oracle)
    assert len(oracle) == 20  # entries in {-1,0,1} with det 1


def test_centralizer_of_order_four_rotation():
    h = HolonomySubgroup([S_ROT], T1)
    for bound in (1, 3):
        found = centralizer_enumerate(h, bound=bound)
        assert set(found) == {I2, -I2, S_ROT, -S_ROT}
    oracle = brute_force_centralizer([S_ROT], T1, 3)
    assert set(centralizer_enumerate(h, bound=3)) == set(oracle)


def test_centralizer_of_shear_matches_brute_force():
    h = HolonomySubgroup([SHEAR], T1)
    found = centralizer_enumerate(h, bound=2)
    oracle = brute_force_centralizer([SHEAR], T1, 2)
    assert set(found) == set(oracle)
    expected = {IntegerMatrix([[1, k], [0, 1]]) for k in (-2, -1, 0, 1, 2)}
    expected |= {-m for m in expected}
    assert set(found) == expected
    assert len(found) == 10


def test_centralizer_closure_properties():
    h = HolonomySubgroup([S_ROT], T1)
    found = centralizer_enumerate(h, bound=3)
    from siegelkit.exact_linalg import inverse_unimodular

    found_set = set(found)
    for a in found:
        assert inverse_unimodular(a) in found_set
        for b in found:
            prod = a * b
            if prod.max_abs() <= 3:
                assert prod in found_set


def test_centralizer_budget_guard():
    h = HolonomySubgroup([I2], T1)
    with pytest.raises(BoundTooLargeForBudget):
        centralizer_enumerate(h, bound=50, budget=100)


def test_model_validation():
    tm = Taming(standard_taming_matrix(1), standard_gram(T1), 0.0)
    with pytest.raises(InvalidModel):
        FiniteScalarModel(2, [(0, 1), (1, 1)], [tm, tm])
    with pytest.raises(InvalidModel):
        FiniteScalarModel(2, [(1, 0)], [tm, tm])  # identity missing
    with pytest.raises(InvalidModel):
        FiniteScalarModel(2, [(0, 1)], [tm])


def test_single_point_stabilizer():
    """One point: the fiber product is the taming stabilizer in the box."""
    tm = Taming(standard_taming_matrix(1), standard_gram(T1), 0.0)
    model = FiniteScalarModel(1, [(0,)], [tm])
    elements = uduality_fiber_product(model, bound=1, t=T1)
    rotations = {e.rotation for e in elements}
    assert rotations == {I2, -I2, S_ROT, -S_ROT}


def test_two_equal_points_swap_covered():
    tm = Taming(standard_taming_matrix(1), standard_gram(T1), 0.0)
    model = FiniteScalarModel(2, [(0, 1), (1, 0)], [tm, tm])
    elements = uduality_fiber_product(model, bound=1, t=T1)
    swap_rotations = {e.rotation for e in elements if e.isometry == 1}
    id_rotations = {e.rotation for e in elements if e.isometry == 0}
    assert swap_rotations == id_rotations == {I2, -I2, S_ROT, -S_ROT}


def _two_point_conjugated_model(rng=None):
    if rng is None:
        tm0 = Taming(standard_taming_matrix(1), standard_gram(T1), 0.0)
    else:
        tm0 = random_taming(rng, T1, eps=0.5)
    tm1 = push_forward_taming(SHEAR, tm0)
    return FiniteScalarModel(2, [(0, 1), (1, 0)], [tm0, tm1])


def brute_force_fiber_product(model, bound, tol=1e-8):
    out = []
    for flat in itertools.product(range(-bound, bound + 1), repeat=4):
        cand = IntegerMatrix([list(flat[:2]), list(flat[2:])])
        if not sp_type_membership(cand, T1):
            continue
        U = np.array(cand.to_lists(), dtype=float)
        Uinv = np.linalg.inv(U)
        for f_idx, perm in enumerate(model.isometries):
            if all(
                np.max(np.abs(U @ model.tamings[p].J @ Uinv - model.tamings[perm[p]].J))
                <= tol
                for p in range(model.points)
            ):
                out.append((f_idx, cand))
    return out


def test_two_point_conjugated_model_matches_brute_force():
    model = _two_point_conjugated_model()
    elements = uduality_fiber_product(model, bound=2, t=T1)
    got = {(e.isometry, e.rotation) for e in elements}
    oracle = set(brute_force_fiber_product(model, 2))
    assert got == oracle
    assert closure_within_box(elements, model, 2).closed


def test_adjoint_homomorphism_and_kernel():
    rng = random.Random(33)
    model = _two_point_conjugated_model(rng)
    elements = uduality_fiber_product(model, bound=2, t=T1)
    # attach torus parts to form gauge-level elements
    gauge = []
    for e in elements:
        torus = tuple(
            Fraction(rng.randint(0, 11), rng.randint(1, 12)) for _ in range(2)
        )
        gauge.append(UDualityElement(e.isometry, e.rotation, torus))
    for x in gauge:
        for y in gauge:
            z = uduality_compose(x, y, model)
            assert adjoint_map(z) == (
                model.compose_isometries(x.isometry, y.isometry),
                x.rotation * y.rotation,
            )
    # kernel of the adjoint map = pure torus translations
    idx = model.identity_index
    trans = UDualityElement(idx, I2, (Fraction(1, 3), Fraction(1, 5)))
    assert adjoint_map(trans) == (idx, I2)
    assert is_pure_translation(trans, model)
    nontrivial = next(e for e in elements if e.rotation != I2 or e.isometry != idx)
    assert not is_pure_translation(
        UDualityElement(nontrivial.isometry, nontrivial.rotation, (0, 0)), model
    )


def test_pure_translations_compose_in_kernel():
    model = _two_point_conjugated_model()
    idx = model.identity_index
    a = UDualityElement(idx, I2, (Fraction(1, 2), Fraction(0)))
    b = UDualityElement(idx, I2, (Fraction(2, 3), Fraction(1, 2)))
    z = uduality_compose(a, b, model)
    assert is_pure_translation(z, model)
    assert z.torus == (Fraction(1, 6), Fraction(1, 2))
