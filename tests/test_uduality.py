import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from siegelkit import uduality
from siegelkit.errors import (
    BoundTooLargeForBudget,
    DimensionMismatch,
    InvalidModel,
    NotSymplectic,
    TypeMismatch,
)
from siegelkit.exact_linalg import IntegerMatrix, kernel_lattice, rational_solve_many
from siegelkit.polarization import Taming, push_forward_taming, standard_taming_matrix
from siegelkit.sampling import random_sl2z, random_sp_t_element, random_taming
from siegelkit.symplectic_lattices import (
    LatticeType,
    sp_type_membership,
    standard_gram,
    symplectic_inverse,
)
from siegelkit.uduality import (
    FiniteScalarModel,
    HolonomySubgroup,
    UDualityElement,
    _coefficient_box,
    _integer_roots,
    _last_coefficients,
    _symplectic_box,
    adjoint_map,
    centralizer_enumerate,
    closure_within_box,
    commutant_lattice,
    is_pure_translation,
    uduality_compose,
    uduality_fiber_product,
)

T1 = LatticeType((1,))
T2 = LatticeType((1, 1))
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


def kronecker(a, b):
    """The Kronecker product a kron b, entry by entry."""
    return IntegerMatrix(
        [[x * y for x in ra for y in rb] for ra in a.to_lists() for rb in b.to_lists()]
    )


def kronecker_sylvester(generators):
    """The stack of g^T kron I - I kron g, one block per generator."""
    ident = IntegerMatrix.identity(generators[0].rows)
    rows = []
    for g in generators:
        rows.extend((kronecker(g.transpose(), ident) - kronecker(ident, g)).to_lists())
    return IntegerMatrix(rows)


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
        assert len(basis) == 4 - smith_normal_form(kronecker_sylvester([g])).rank()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("count", [1, 2])
def test_commutant_is_the_kernel_of_the_kronecker_stack(n, count):
    """Same basis, in order, as the kernel of the Kronecker-built stack."""
    rng = random.Random(f"sylvester/{n}/{count}")
    t = LatticeType((1,) * n)
    m = 2 * n
    for _ in range(4):
        gens = [random_sp_t_element(rng, t, steps=2, entry_bound=2) for _ in range(count)]
        expected = [
            IntegerMatrix([[v[j * m + i] for j in range(m)] for i in range(m)])
            for v in kernel_lattice(kronecker_sylvester(gens))
        ]
        assert commutant_lattice(HolonomySubgroup(gens, t)) == expected


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


def test_budget_below_one_refuses_every_search():
    """Every count is at least 1, so budget 0 is a refusal, not a parse error."""
    with pytest.raises(BoundTooLargeForBudget) as exc:
        centralizer_enumerate(HolonomySubgroup([S_ROT], T1), bound=1, budget=0)
    assert exc.value.details["budget"] == 0
    with pytest.raises(BoundTooLargeForBudget) as exc:
        uduality_fiber_product(_two_point_conjugated_model(), bound=1, budget=0)
    assert exc.value.details == {"budget": 0, "tested": 0}


@pytest.mark.parametrize("bound", [0, -1])
def test_every_enumeration_refuses_a_bound_below_one(bound, monkeypatch):
    """One rule, checked before any work: no commutant, omega or box is read."""

    def no_work(*args):
        raise AssertionError("work before the bound check")

    for name in ("commutant_lattice", "omega_type", "_box_columns"):
        monkeypatch.setattr(uduality, name, no_work)
    calls = [
        lambda: centralizer_enumerate(HolonomySubgroup([S_ROT], T1), bound),
        lambda: uduality_fiber_product(_two_point_conjugated_model(), bound),
        lambda: _symplectic_box(T1, bound),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^bound must be at least 1$"):
            call()


def test_model_validation():
    tm = Taming(standard_taming_matrix(1), standard_gram(T1), 0.0)
    with pytest.raises(InvalidModel):
        FiniteScalarModel(2, [(0, 1), (1, 1)], [tm, tm])
    with pytest.raises(InvalidModel):
        FiniteScalarModel(2, [(1, 0)], [tm, tm])  # identity missing
    with pytest.raises(InvalidModel):
        FiniteScalarModel(2, [(0, 1)], [tm])


@pytest.mark.parametrize(
    "isometries,message",
    [
        ([], "isometry list must contain the identity"),
        ([(1, 2, 0)], "isometry list must contain the identity"),
        ([(0, 1, 2), (1, 2, 0)], "isometry list is not closed under inverse"),
        ([(0, 1, 2), (1, 0, 2), (0, 2, 1)], "isometry list is not closed under composition"),
    ],
)
def test_model_closure_errors_in_order(isometries, message):
    tm = Taming(standard_taming_matrix(1), standard_gram(T1), 0.0)
    with pytest.raises(InvalidModel) as err:
        FiniteScalarModel(3, isometries, [tm])  # one taming short, checked last
    assert str(err.value) == message


def test_model_keeps_its_product_table():
    """S_3 listed twice: a composite is named by its first index, and is looked up."""
    perms = list(itertools.permutations(range(3)))
    tm = Taming(standard_taming_matrix(1), standard_gram(T1), 0.0)
    model = FiniteScalarModel(3, perms[1:] + perms, [tm] * 3)
    assert model.identity_index == 5
    table = {}
    for i, p in enumerate(model.isometries):
        for j, q in enumerate(model.isometries):
            composed = tuple(p[q[k]] for k in range(3))
            table[i, j] = model.isometries.index(composed)
    object.__setattr__(model, "isometries", ())
    assert all(model.compose_isometries(i, j) == k for (i, j), k in table.items())


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


def compatible(rotations, model, perm, tol=1e-8):
    """The brute-force condition U J_p U^-1 = J_perm(p), with numpy inverses."""
    U = np.array([r.to_lists() for r in rotations], dtype=float)
    Uinv = np.linalg.inv(U)
    ok = np.ones(len(rotations), dtype=bool)
    for p in range(model.points):
        diff = U @ model.tamings[p].J @ Uinv - model.tamings[perm[p]].J
        ok &= np.max(np.abs(diff), axis=(1, 2)) <= tol
    return ok


def brute_force_fiber_product(model, bound, tol=1e-8):
    box = []
    for flat in itertools.product(range(-bound, bound + 1), repeat=4):
        cand = IntegerMatrix([list(flat[:2]), list(flat[2:])])
        if sp_type_membership(cand, T1):
            box.append(cand)
    return [
        (f_idx, U)
        for f_idx, perm in enumerate(model.isometries)
        for U, ok in zip(box, compatible(box, model, perm, tol))
        if ok
    ]


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


def naive_missing(elements, model, bound):
    """Every in-box composite of an ordered pair that is not an element."""
    present = {(e.isometry, e.rotation) for e in elements}
    missing = []
    for x in elements:
        for y in elements:
            z = uduality_compose(x, y, model)
            if z.rotation.max_abs() <= bound and (z.isometry, z.rotation) not in present:
                missing.append(z)
    return missing


def test_closure_missing_matches_all_pairs_compose():
    """One element dropped from each fiber product: same missing list, in order.

    tol = 1 admits near misses, whose products leave the found set in
    every direction. Three equal points make every permutation an
    isometry, a non-abelian group.
    """
    rng = random.Random(4711)
    models = _pushed_forward_models(rng, T1, 6) + [_two_point_conjugated_model()]
    cases = [(model, tol) for model in models for tol in (None, 1.0)]
    standard = Taming(standard_taming_matrix(1), standard_gram(T1), 0.0)
    cases.append((FiniteScalarModel(3, itertools.permutations(range(3)), [standard] * 3), None))
    lengths = []
    for bound, (model, tol) in itertools.product((1, 2, 3, 4), cases):
        found = uduality_fiber_product(model, bound, t=T1, tol=tol)
        for k in sorted({0, len(found) // 2, len(found) - 1}):
            elements = found[:k] + found[k + 1 :]
            if k % 2:
                elements = [
                    UDualityElement(e.isometry, e.rotation, (Fraction(1, 3), Fraction(k, 7)))
                    for e in elements
                ]
            expected = naive_missing(elements, model, bound)
            report = closure_within_box(elements, model, bound)
            assert report.missing == expected, (bound, tol, k)
            assert report.closed == (not expected)
            lengths.append(len(expected))
    assert min(lengths) == 0 and max(lengths) > 1


def test_closure_refuses_rotations_of_different_sizes():
    model = FiniteScalarModel(1, [(0,)], [Taming(standard_taming_matrix(1), standard_gram(T1), 0.0)])
    mixed = [UDualityElement(0, I2), UDualityElement(0, IntegerMatrix.identity(4))]
    with pytest.raises(DimensionMismatch):
        closure_within_box(mixed, model, 1)
    with pytest.raises(DimensionMismatch):
        closure_within_box([UDualityElement(0, IntegerMatrix([[1, 0, 0], [0, 1, 0]]))], model, 1)


def test_pure_translations_compose_in_kernel():
    model = _two_point_conjugated_model()
    idx = model.identity_index
    a = UDualityElement(idx, I2, (Fraction(1, 2), Fraction(0)))
    b = UDualityElement(idx, I2, (Fraction(2, 3), Fraction(1, 2)))
    z = uduality_compose(a, b, model)
    assert is_pure_translation(z, model)
    assert z.torus == (Fraction(1, 6), Fraction(1, 2))


# oracles for the pruned enumerations


def naive_centralizer(h, bound):
    """Every point of the coefficient box, in lexicographic order, then filtered."""
    basis = commutant_lattice(h)
    limits = _coefficient_box(basis, bound)
    out = []
    for coeffs in itertools.product(*(range(-lim, lim + 1) for lim in limits)):
        if not any(coeffs):
            continue
        X = sum((b * c for b, c in zip(basis, coeffs) if c), IntegerMatrix.zeros(h.size, h.size))
        if X.max_abs() <= bound and sp_type_membership(X, h.type):
            out.append(X)
    return out


def fraction_coefficient_box(basis, bound):
    """The limits from the pseudo-inverse G^-1 B^T, G = B^T B, in Fractions."""
    vecs = [[x for col in zip(*b.to_lists()) for x in col] for b in basis]
    gram = [[sum(a * b for a, b in zip(u, v)) for v in vecs] for u in vecs]
    columns = rational_solve_many(gram, list(zip(*vecs)))
    return [int(sum(abs(c[i]) for c in columns) * bound) for i in range(len(vecs))]


def test_coefficient_box_matches_fraction_pseudo_inverse():
    rng = random.Random(55)
    holonomies = [HolonomySubgroup([random_sl2z(rng, 6)], T1) for _ in range(12)]
    holonomies += [
        HolonomySubgroup([random_sp_t_element(rng, T2, steps=4, entry_bound=2)], T2)
        for _ in range(12)
    ]
    holonomies += [HolonomySubgroup([I2], T1), HolonomySubgroup([IntegerMatrix.identity(4)], T2)]
    for h in holonomies:
        basis = commutant_lattice(h)
        for bound in (1, 3, 8, 10**50):
            assert _coefficient_box(basis, bound) == fraction_coefficient_box(basis, bound)


def numpy_symplectic_box(t, bound):
    """Sp_t(2n, Z) in the entry box from U^T Omega_t U = Omega_t, in numpy.

    Every matrix of the box is a choice of 2n columns. The pairings of
    all box columns come from one product C Omega_t C^T; the box is then
    scanned one first column at a time, testing the pairing of every
    column pair of every matrix.
    """
    m = 2 * t.n
    cells = np.arange(-bound, bound + 1)
    C = np.array(list(itertools.product(cells, repeat=m)), dtype=np.int64)
    omega = np.array(standard_gram(t).to_lists(), dtype=np.int64)
    P = C @ omega @ C.T
    k = len(C)
    found = []
    for a in range(k):
        ok = np.ones((k,) * (m - 1), dtype=bool)
        for i, j in itertools.combinations(range(m), 2):
            target = omega[i, j]
            if i == 0:
                row = P[a] == target
                ok &= row.reshape((1,) * (j - 1) + (k,) + (1,) * (m - 1 - j))
            else:
                pair = P == target
                shape = [1] * (m - 1)
                shape[i - 1] = shape[j - 1] = k
                ok &= pair.reshape(shape)
        for rest in np.argwhere(ok):
            cols = C[[a, *rest]]
            found.append(tuple(tuple(int(x) for x in r) for r in cols.T))
    return sorted(found)


@pytest.mark.parametrize("entries", [(1,), (2,), (3,)])
def test_symplectic_box_matches_entry_box_filter(entries):
    t = LatticeType(entries)
    for bound in (1, 2, 3, 4):
        oracle = []
        for flat in itertools.product(range(-bound, bound + 1), repeat=4):
            cand = IntegerMatrix([list(flat[:2]), list(flat[2:])])
            if sp_type_membership(cand, t):
                oracle.append(cand)
        assert _symplectic_box(t, bound) == oracle


@pytest.mark.parametrize("entries,count", [((1, 1), 17312), ((1, 2), 400)])
def test_symplectic_box_n2_matches_numpy_oracle(entries, count):
    t = LatticeType(entries)
    got = [tuple(map(tuple, m.to_lists())) for m in _symplectic_box(t, 1)]
    assert got == numpy_symplectic_box(t, 1)
    assert len(got) == count


def test_centralizer_matches_naive_coefficient_loop():
    """Types (1,) and (1, 1), then (3,) and (1, 2), whose non-unit t_k weight the quadratic."""
    rng = random.Random(44)
    ident = IntegerMatrix.identity(2)
    for t1, t2, top in ((T1, T2, 6), (LatticeType((3,)), LatticeType((1, 2)), 4)):
        for bound in range(1, top + 1):
            for _ in range(4):
                g = random_sl2z(rng, 6)
                if g in (ident, -ident):
                    continue
                h = HolonomySubgroup([g], t1)
                assert centralizer_enumerate(h, bound) == naive_centralizer(h, bound)
        checked = 0
        while checked < 4:
            g = random_sp_t_element(rng, t2, steps=4, entry_bound=2)
            h = HolonomySubgroup([g], t2)
            if len(commutant_lattice(h)) > 6:
                continue
            assert centralizer_enumerate(h, 1) == naive_centralizer(h, 1)
            checked += 1


def test_centralizer_builds_no_validated_matrix(monkeypatch):
    """The commutant and the walk are closed operations on validated ints."""
    J = IntegerMatrix([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]])
    holonomies = [
        HolonomySubgroup([SHEAR], T1),
        HolonomySubgroup([J], T2),
        HolonomySubgroup([], T1),
    ]
    validated = []
    init = IntegerMatrix.__init__

    def counting_init(self, entries):
        validated.append(entries)
        init(self, entries)

    monkeypatch.setattr(IntegerMatrix, "__init__", counting_init)
    for h in holonomies:
        basis = commutant_lattice(h)
        assert basis
        assert centralizer_enumerate(h, 1)
    assert validated == []


def full_box(t, bound):
    """_symplectic_box with its default full column lists, with numpy copies."""
    box = _symplectic_box(t, bound)
    U = np.array([c.to_lists() for c in box], dtype=float)
    Uinv = np.array([symplectic_inverse(c, t).to_lists() for c in box], dtype=float)
    return box, U, Uinv


def box_fiber_product(model, tol, full):
    """The fiber product filtered from the whole box, the unfiltered algorithm.

    Every isometry tests every matrix of ``full`` (see full_box) with the
    residual test, max |U J_p U^-1 - J_f(p)| <= tol, U^-1 the exact
    symplectic inverse.
    """
    if tol is None:
        tol = max(max(tm.tol for tm in model.tamings), 1e-9)
    box, U, Uinv = full
    Js = [tm.J for tm in model.tamings]
    moved = [U @ J @ Uinv for J in Js]
    out = []
    for f, perm in enumerate(model.isometries):
        ok = np.ones(len(box), dtype=bool)
        for p, q in enumerate(perm):
            ok &= np.max(np.abs(moved[p] - Js[q]), axis=(1, 2)) <= tol
        out.extend(UDualityElement(f, U_) for U_, keep in zip(box, ok) if keep)
    return out


TOLS = (None, 1e-6, 1e-3, 0.3, 1.0)


def _pushed_forward_models(rng, t, count):
    """One-, two- and three-point models of seeded pushed-forward tamings."""
    models = []
    for k in range(count):
        tm0 = random_taming(rng, t, eps=0.5)
        tms = [
            push_forward_taming(random_sp_t_element(rng, t, steps=3, entry_bound=2), tm0)
            for _ in range(1 + k % 3)
        ]
        perms = [tuple(range(len(tms)))]
        if len(tms) > 1:
            perms = [tuple((i + s) % len(tms) for i in range(len(tms))) for s in range(len(tms))]
        models.append(FiniteScalarModel(len(tms), perms, tms))
    return models


def test_filtered_fiber_product_matches_box_oracle_n1():
    rng = random.Random(808)
    models = _pushed_forward_models(rng, T1, 9)
    models.append(_two_point_conjugated_model())
    for bound in (1, 2, 3, 4):
        full = full_box(T1, bound)
        for model in models:
            for tol in TOLS:
                got = uduality_fiber_product(model, bound, t=T1, tol=tol)
                assert got == box_fiber_product(model, tol, full), (bound, tol)


def test_filtered_fiber_product_matches_box_oracle_n2():
    rng = random.Random(909)
    full = full_box(T2, 1)
    models = [_n2_model()]
    for _ in range(3):
        tm0 = random_taming(rng, T2, eps=0.5)
        g = random_sp_t_element(rng, T2, steps=4, entry_bound=2)
        models.append(FiniteScalarModel(2, [(0, 1), (1, 0)], [tm0, push_forward_taming(g, tm0)]))
    for model in models:
        for tol in (None, 1e-3, 0.3):
            got = uduality_fiber_product(model, 1, tol=tol)
            assert got == box_fiber_product(model, tol, full), tol


def test_norm_filter_keeps_the_tolerance_margin():
    """tol = 1 admits 16 matrices that miss the norm; a zero margin gives 4."""
    tm = Taming(standard_taming_matrix(1), standard_gram(T1), 0.0)
    model = FiniteScalarModel(1, [(0,)], [tm])
    got = uduality_fiber_product(model, bound=1, t=T1, tol=1.0)
    assert got == box_fiber_product(model, 1.0, full_box(T1, 1))
    assert len(got) == 20


def test_fiber_product_searches_the_type_of_omega():
    """Omega_(1,2) gives 16 elements, all in Sp_(1,2); a disagreeing t is refused."""
    t = LatticeType((1, 2))
    model = FiniteScalarModel(1, [(0,)], [Taming(standard_taming_matrix(2), standard_gram(t), 0.0)])
    elements = uduality_fiber_product(model, bound=1)
    assert elements == uduality_fiber_product(model, bound=1, t=t)
    assert elements == box_fiber_product(model, None, full_box(t, 1))
    assert len(elements) == 16
    assert all(sp_type_membership(e.rotation, t) for e in elements)
    assert closure_within_box(elements, model, 1).closed
    with pytest.raises(TypeMismatch):
        uduality_fiber_product(model, bound=1, t=T2)


@pytest.mark.parametrize(
    "gram,J",
    [
        ([[0, -1], [1, 0]], -standard_taming_matrix(1)),
        ([[0, 0, 2, 0], [0, 0, 0, 1], [-2, 0, 0, 0], [0, -1, 0, 0]], standard_taming_matrix(2)),
        (
            [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
            np.kron(np.eye(2), standard_taming_matrix(1)),
        ),
    ],
    ids=["negative", "not-a-chain", "not-frobenius-order"],
)
def test_fiber_product_refuses_omega_of_no_type(gram, J):
    model = FiniteScalarModel(1, [(0,)], [Taming(J, IntegerMatrix(gram), 0.0)])
    with pytest.raises(NotSymplectic):
        uduality_fiber_product(model, bound=1)


def test_fiber_product_n1_does_not_depend_on_the_type():
    """n = 1: Omega_(k) = k Omega_(1) has the same tamings, and Sp_(k) = SL(2, Z)."""
    rng = random.Random(4242)
    for k in (2, 3, 12):
        for model in _pushed_forward_models(rng, LatticeType((k,)), 6):
            tamings = [Taming(tm.J, standard_gram(T1), tm.tol) for tm in model.tamings]
            principal = FiniteScalarModel(model.points, model.isometries, tamings)
            for bound in (1, 2, 3):
                for tol in TOLS:
                    got = uduality_fiber_product(model, bound, tol=tol)
                    assert got == uduality_fiber_product(principal, bound, tol=tol), (k, bound, tol)


def test_isometry_entries_must_be_integers():
    tm = Taming(standard_taming_matrix(1), standard_gram(T1), 0.0)
    for entry in (0.9, 0.0, "0", Fraction(0)):
        with pytest.raises(InvalidModel):
            FiniteScalarModel(1, [(entry,)], [tm])
    assert FiniteScalarModel(1, [(np.int64(0),)], [tm]).isometries == ((0,),)


def test_fiber_product_n2_bound2_gate():
    """n = 2, bound 2 runs under the default budget: the bound-1 group."""
    tm = Taming(standard_taming_matrix(2), standard_gram(T2), 0.0)
    model = FiniteScalarModel(1, [(0,)], [tm])
    start = time.perf_counter()
    elements = uduality_fiber_product(model, bound=2)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{elapsed:.2f}s"
    assert elements == box_fiber_product(model, None, full_box(T2, 1))
    assert len(elements) == 32
    assert closure_within_box(elements, model, 2).closed


def test_fiber_product_budget_counts_column_tests():
    model = _two_point_conjugated_model()
    # n = 1, bound 4: the first level alone takes up to 9^4 tests.
    with pytest.raises(BoundTooLargeForBudget) as exc:
        uduality_fiber_product(model, bound=4, t=T1, budget=9**4 - 1)
    assert exc.value.details == {"budget": 9**4 - 1, "tested": 0}
    assert len(uduality_fiber_product(model, bound=4, t=T1, budget=9**4)) > 0
    # n = 2, bound 1: the first level fits (3^8 * 3 tests), the search does
    # not. tol 10 admits every box column to the search.
    tm = Taming(standard_taming_matrix(2), standard_gram(T2), 0.0)
    model2 = FiniteScalarModel(1, [(0,)], [tm])
    with pytest.raises(BoundTooLargeForBudget) as exc:
        uduality_fiber_product(model2, bound=1, budget=50_000, tol=10)
    assert exc.value.details["budget"] == 50_000
    assert exc.value.details["tested"] > 50_000
    # The whole search takes 136,368 tests; dead ends stop filtering.
    assert len(_symplectic_box(T2, 1, 136_368)) == 17312
    with pytest.raises(BoundTooLargeForBudget) as exc:
        _symplectic_box(T2, 1, 136_367)
    assert exc.value.details == {"budget": 136_367, "tested": 136_368}
    # At the default tol the norm filter leaves a search that fits.
    got = uduality_fiber_product(model2, bound=1, budget=50_000)
    assert got == box_fiber_product(model2, None, full_box(T2, 1))
    assert len(got) == 32


def _n2_model():
    g = random_sp_t_element(random.Random(2024), T2, steps=4, entry_bound=2)
    tm0 = Taming(standard_taming_matrix(2), standard_gram(T2), 0.0)
    return FiniteScalarModel(2, [(0, 1), (1, 0)], [tm0, push_forward_taming(g, tm0)])


def test_fiber_product_n2_bound1_gate():
    """n = 2 fiber products at bound 1 run under the default budget."""
    model = _n2_model()
    start = time.perf_counter()
    elements = uduality_fiber_product(model, bound=1)
    elapsed = time.perf_counter() - start
    closure = closure_within_box(elements, model, 1)
    assert elapsed < 5.0, f"{elapsed:.2f}s"
    assert closure.closed
    box = [IntegerMatrix([list(r) for r in rows]) for rows in numpy_symplectic_box(T2, 1)]
    oracle = [
        (f, U)
        for f, perm in enumerate(model.isometries)
        for U, ok in zip(box, compatible(box, model, perm))
        if ok
    ]
    assert [(e.isometry, e.rotation) for e in elements] == oracle
    assert len(oracle) > 0


@pytest.mark.parametrize("sign", [1, -1])
def test_centralizer_of_center_matches_naive_coefficient_loop(sign):
    """+-I: the rank-4 commutant, every coefficient point in the entry box."""
    h = HolonomySubgroup([I2 * sign], T1)
    assert len(commutant_lattice(h)) == 4
    for bound in (1, 2, 3, 4):
        assert centralizer_enumerate(h, bound) == naive_centralizer(h, bound)


def test_centralizer_of_j_matches_naive_coefficient_loop():
    J = IntegerMatrix([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]])
    h = HolonomySubgroup([J], T2)
    assert len(commutant_lattice(h)) == 8
    found = centralizer_enumerate(h, 1)
    assert found == naive_centralizer(h, 1)
    assert len(found) == 32


def _flat(m):
    return [x for row in m.to_lists() for x in row]


def _unflat(v):
    k = int(len(v) ** 0.5)
    return IntegerMatrix([v[i * k : (i + 1) * k] for i in range(k)])


# The last-level solver, on 2x2 candidates P + c V of type (1): the one
# column pairing minus (Omega_t)_01 is det(P + c V) - 1.


def test_last_coefficients_linear_case():
    # det [[2, c], [1, 1]] - 1 = 1 - c: q = 0, one root.
    assert _last_coefficients([2, 0, 1, 1], [0, 1, 0, 0], -3, 3, T1) == [1]
    # det [[2, c], [2, 1]] - 1 = 1 - 2c: b does not divide a.
    assert _last_coefficients([2, 0, 2, 1], [0, 1, 0, 0], -3, 3, T1) == []
    assert _integer_roots(6, -3, 0, -5, 5) == [2]
    assert _integer_roots(6, 3, 0, -5, 5) == [-2]


def test_last_coefficients_non_square_discriminant():
    # det [[c, 1], [1, c]] - 1 = c^2 - 2: discriminant 8.
    assert _last_coefficients([0, 1, 1, 0], [1, 0, 0, 1], -5, 5, T1) == []
    # A negative discriminant: c^2 + 1.
    assert _integer_roots(1, 0, 1, -5, 5) == []


def test_last_coefficients_roots_ascending_and_clipped():
    # det [[c, 0], [0, c]] - 1 = c^2 - 1: roots -1 and 1.
    P, V = [0, 0, 0, 0], [1, 0, 0, 1]
    assert _last_coefficients(P, V, -5, 5, T1) == [-1, 1]
    assert _last_coefficients(P, V, 0, 5, T1) == [1]
    assert _last_coefficients(P, V, -5, 0, T1) == [-1]
    assert _last_coefficients(P, V, 2, 5, T1) == []
    # q < 0 flips the order of (-b - s) / 2q and (-b + s) / 2q.
    assert _integer_roots(6, 1, -1, -5, 5) == [-2, 3]
    # A double root: (c - 2)^2.
    assert _integer_roots(4, -4, 1, -5, 5) == [2]


def test_last_coefficients_constant_nonzero_pair():
    # det [[1, c], [0, 2]] - 1 = 1 for every c.
    assert _last_coefficients([1, 0, 0, 2], [0, 1, 0, 0], -3, 3, T1) == []
    # A constant mismatch on the first pair of a 4x4 candidate leaves no c,
    # even though a later pair depends on c.
    P, V = _flat(IntegerMatrix.identity(4) * 2), [0] * 15 + [1]
    assert _last_coefficients(P, V, -3, 3, T2) == []


def test_last_coefficients_all_pairs_constant():
    # det [[1, c], [0, 1]] - 1 = 0 for every c.
    assert list(_last_coefficients([1, 0, 0, 1], [0, 1, 0, 0], -3, 3, T1)) == list(
        range(-3, 4)
    )
    # The shear [[I, c B], [0, I]] with T B = diag(0, 2) symmetric is in
    # Sp_(1,2) for every c; its pair (1, 3) pairs to t_2 = 2.
    shear = [0] * 16
    shear[7] = 1
    P = _flat(IntegerMatrix.identity(4))
    assert list(_last_coefficients(P, shear, -3, 3, LatticeType((1, 2)))) == list(
        range(-3, 4)
    )


def test_last_coefficients_keeps_every_member():
    """Against scanning [lo, hi] with sp_type_membership, type (1, 2)."""
    rng = random.Random(7)
    t = LatticeType((1, 2))
    for _ in range(200):
        g = random_sp_t_element(rng, t, steps=3, entry_bound=3)
        v = [rng.randint(-1, 1) for _ in range(16)]
        c0 = rng.randint(-3, 3)
        # P + c0 V = g, so c0 is a member.
        partial = [x - c0 * y for x, y in zip(_flat(g), v)]
        members = [
            c
            for c in range(-4, 5)
            if sp_type_membership(_unflat([p + c * x for p, x in zip(partial, v)]), t)
        ]
        got = list(_last_coefficients(partial, v, -4, 4, t))
        assert c0 in members
        assert got == sorted(got) and set(members) <= set(got)
        assert all(-4 <= c <= 4 for c in got)
