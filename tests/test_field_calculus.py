import random

import numpy as np
import pytest

from siegelkit.errors import BadSignature, DimensionMismatch, NotSymplectic
from siegelkit.exact_linalg import IntegerMatrix
from siegelkit.field_calculus import (
    FieldStrengthSample,
    PointFrame,
    PolarizedStar,
    duality_transform_sample,
    hodge_star_matrix,
    inner_contraction,
    maxwell_residual,
    project_selfdual,
    scalar_rhs,
    trace_g,
    unpack_two_form,
)
from siegelkit.polarization import (
    FundamentalFormSample,
    Taming,
    standard_taming_matrix,
    validate_fundamental_form,
)
from siegelkit.sampling import (
    random_field_sample,
    random_lattice_type,
    random_lorentz_frame,
    random_selfdual_sample,
    random_sp_t_element,
    random_taming,
)
from siegelkit.symplectic_lattices import LatticeType, standard_gram

MINKOWSKI = PointFrame(np.diag([-1.0, 1.0, 1.0, 1.0]))

# Hand-computed mostly-plus star on the ordered pairs (01,02,03,12,13,23),
# orientation +1: *(01)=-(23), *(02)=+(13), *(03)=-(12),
# *(12)=+(03), *(13)=-(02), *(23)=+(01).
MINKOWSKI_STAR = np.array(
    [
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, -1, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, -1, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [-1, 0, 0, 0, 0, 0],
    ],
    dtype=float,
)


def test_minkowski_star_matches_hand_computation():
    assert np.array_equal(hodge_star_matrix(MINKOWSKI), MINKOWSKI_STAR)


def test_star_squares_to_minus_identity():
    rng = random.Random(42)
    for _ in range(50):
        frame = random_lorentz_frame(rng)
        S = hodge_star_matrix(frame)
        assert np.max(np.abs(S @ S + np.eye(6))) <= 1e-12


def test_star_conformal_invariance():
    rng = random.Random(43)
    for _ in range(20):
        frame = random_lorentz_frame(rng)
        c = rng.uniform(0.1, 10.0)
        scaled = PointFrame(c * frame.g, frame.orientation)
        assert np.max(
            np.abs(hodge_star_matrix(frame) - hodge_star_matrix(scaled))
        ) <= 1e-10


def test_star_orientation_flip():
    frame = PointFrame(MINKOWSKI.g, orientation=-1)
    assert np.array_equal(hodge_star_matrix(frame), -MINKOWSKI_STAR)


def test_bad_signature_rejected():
    with pytest.raises(BadSignature):
        PointFrame(np.eye(4))
    with pytest.raises(BadSignature):
        PointFrame(np.diag([-1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(DimensionMismatch):
        PointFrame(np.eye(3))


@pytest.mark.parametrize("size", [6, 12])
def test_flat_field_sample_is_a_dimension_mismatch(size):
    message = rf"^field sample must be 6 x 2n, got \({size},\)$"
    with pytest.raises(DimensionMismatch, match=message):
        FieldStrengthSample(np.ones(size))


def _standard_pair(n=1):
    t = LatticeType.principal(n)
    return Taming(standard_taming_matrix(n), standard_gram(t), 0.0)


def _fundamental_projection(M, taming):
    """A J-antilinear, Q-symmetric component built from any square M.

    (M + J M J)/2 anticommutes with J, and its Q-adjoint symmetrization
    keeps that, because J is Q-antisymmetric.
    """
    J, Q = taming.J, taming.Q
    A = 0.5 * (M + J @ M @ J)
    return 0.5 * (A + np.linalg.inv(Q) @ A.T @ Q)


def test_polarized_star_squares_to_identity():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 3)
        t = random_lattice_type(rng, n)
        frame = random_lorentz_frame(rng)
        tm = random_taming(rng, t, eps=0.5)
        op = PolarizedStar(frame, tm)
        F = random_field_sample(rng, n)
        twice = op(op(F))
        assert np.max(np.abs(twice.F - F.F)) <= 1e-10 * max(1.0, F.norm())


def test_polarized_star_eigensplit():
    rng = random.Random(4)
    tm = _standard_pair(1)
    op = PolarizedStar(MINKOWSKI, tm)
    plus, minus = op.eigenspace_dimensions()
    assert (plus, minus) == (6, 6)


def test_projection_properties():
    rng = random.Random(5)
    tm = _standard_pair(1)
    frame = MINKOWSKI
    op = PolarizedStar(frame, tm)
    F = random_field_sample(rng, 1)
    plus = project_selfdual(F, frame, tm)
    # projector is idempotent and lands on self-dual samples
    again = project_selfdual(plus, frame, tm)
    assert np.max(np.abs(again.F - plus.F)) <= 1e-12
    assert maxwell_residual(plus, frame, tm) <= 1e-9
    # anti-self-dual part projects to zero
    minus = FieldStrengthSample((F.F - op(F).F) / 2.0)
    assert np.max(np.abs(project_selfdual(minus, frame, tm).F)) <= 1e-12


def test_maxwell_residual_values():
    tm = _standard_pair(1)
    frame = MINKOWSKI
    zero = FieldStrengthSample(np.zeros((6, 2)))
    assert maxwell_residual(zero, frame, tm) == 0.0
    rng = random.Random(6)
    F = random_field_sample(rng, 1)
    op = PolarizedStar(frame, tm)
    minus = FieldStrengthSample((F.F - op(F).F) / 2.0)
    Q = tm.Q
    qnorm = float(np.sqrt(np.trace(minus.F @ Q @ minus.F.T)))
    unit = FieldStrengthSample(minus.F / qnorm)
    assert abs(maxwell_residual(unit, frame, tm) - 2.0) <= 1e-9


def test_inner_contraction_electric_field_oracle():
    """Constant electric field dt^dx: classical F_{ma} F_n{}^a values."""
    F = FieldStrengthSample(
        np.array([[1.0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0]])
    )
    T = inner_contraction(F, F, MINKOWSKI, _standard_pair(1))
    assert np.allclose(T, np.diag([1.0, -1.0, 0.0, 0.0]))


def test_inner_contraction_zero_and_symmetry():
    rng = random.Random(7)
    zero = FieldStrengthSample(np.zeros((6, 2)))
    assert np.array_equal(
        inner_contraction(zero, zero, MINKOWSKI, _standard_pair(1)), np.zeros((4, 4))
    )
    for _ in range(100):
        n = rng.randint(1, 2)
        t = random_lattice_type(rng, n)
        frame = random_lorentz_frame(rng)
        tm = random_taming(rng, t, eps=0.5)
        F = random_field_sample(rng, n)
        S = inner_contraction(F, F, frame, tm)
        assert np.max(np.abs(S - S.T)) <= 1e-12 * max(1.0, F.norm() ** 2)


def test_tracelessness_of_selfdual_stress():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randint(1, 3)
        t = random_lattice_type(rng, n)
        frame = random_lorentz_frame(rng)
        tm = random_taming(rng, t, eps=0.5)
        F = random_selfdual_sample(rng, frame, tm)
        S = inner_contraction(F, F, frame, tm)
        assert abs(trace_g(frame, S)) <= 1e-9 * max(1.0, F.norm() ** 2)


def test_scalar_rhs_unitary_and_zero_field():
    rng = random.Random(11)
    tm = _standard_pair(1)
    psi0 = FundamentalFormSample([np.zeros((2, 2)), np.zeros((2, 2))])
    F = random_field_sample(rng, 1)
    values, residuals = scalar_rhs(F, MINKOWSKI, tm, psi0)
    assert values == (0.0, 0.0)
    assert residuals is None
    P = _fundamental_projection(np.array([[0.3, 0.7], [-0.2, 0.5]]), tm)
    psi = FundamentalFormSample([P])
    zeroF = FieldStrengthSample(np.zeros((6, 2)))
    assert scalar_rhs(zeroF, MINKOWSKI, tm, psi)[0] == (0.0,)


def test_scalar_rhs_brute_force_oracle():
    """Independent nested-loop index contraction reproduces the value."""
    rng = random.Random(12)
    for _ in range(10):
        t = LatticeType((1,))
        frame = random_lorentz_frame(rng)
        tm = random_taming(rng, t, eps=0.5)
        Q = tm.Q
        P = _fundamental_projection(
            np.array([[rng.uniform(-1, 1) for _ in range(2)] for _ in range(2)]), tm
        )
        assert validate_fundamental_form(FundamentalFormSample([P]), tm, tol=1e-8).passed
        F = random_selfdual_sample(rng, frame, tm)
        values, _ = scalar_rhs(F, frame, tm, FundamentalFormSample([P]))
        starF = hodge_star_matrix(frame) @ F.F
        PF = F.F @ P.T
        acc = 0.0
        for a in range(2):
            for b in range(2):
                Fa = unpack_two_form(starF[:, a])
                Fb = unpack_two_form(PF[:, b])
                s = 0.0
                for m in range(4):
                    for n_ in range(4):
                        for r in range(4):
                            for s_ in range(4):
                                s += (
                                    Fa[m, n_]
                                    * frame.ginv[m, r]
                                    * frame.ginv[n_, s_]
                                    * Fb[r, s_]
                                )
                acc += Q[a, b] * 0.5 * s
        assert abs(values[0] - 0.5 * acc) <= 1e-10 * max(1.0, abs(acc))
    # residual reporting against a supplied left side
    values, residuals = scalar_rhs(
        F, frame, tm, FundamentalFormSample([P]), lhs=[values[0]]
    )
    assert residuals == (0.0,)


def test_duality_transform_identity_and_errors():
    rng = random.Random(13)
    tm = _standard_pair(1)
    F = random_field_sample(rng, 1)
    F2, tm2 = duality_transform_sample(IntegerMatrix.identity(2), F, tm)
    assert np.array_equal(F2.F, F.F)
    assert np.array_equal(tm2.J, tm.J)
    with pytest.raises(NotSymplectic):
        duality_transform_sample(IntegerMatrix([[2, 0], [0, 1]]), F, tm)


def test_duality_equivariance_of_star():
    """star_{g, gJg^-1}(g.F) = g.(star_{g,J} F), the pointwise content."""
    rng = random.Random(14)
    for _ in range(50):
        n = rng.randint(1, 2)
        t = random_lattice_type(rng, n)
        frame = random_lorentz_frame(rng)
        tm = random_taming(rng, t, eps=0.5)
        gamma = random_sp_t_element(rng, t, steps=4, entry_bound=8)
        F = random_field_sample(rng, n)
        F2, tm2 = duality_transform_sample(gamma, F, tm)
        lhs = PolarizedStar(frame, tm2)(F2)
        G = np.array(gamma.to_lists(), dtype=float)
        rhs = PolarizedStar(frame, tm)(F).F @ G.T
        assert np.max(np.abs(lhs.F - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_duality_invariance_of_residual_and_stress():
    rng = random.Random(15)
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
        s1 = inner_contraction(F, F, frame, tm)
        s2 = inner_contraction(F2, F2, frame, tm2)
        assert np.max(np.abs(s1 - s2)) <= 1e-9


_WIDTH_CHECKED = {
    "inner_contraction": lambda F, tm: inner_contraction(F, F, MINKOWSKI, tm),
    "scalar_rhs": lambda F, tm: scalar_rhs(
        F, MINKOWSKI, tm, FundamentalFormSample([np.zeros((2, 2))])
    ),
}


@pytest.mark.parametrize("name", sorted(_WIDTH_CHECKED))
def test_field_functions_refuse_a_taming_of_another_size(name):
    """The taming's metric Q must match the sample width."""
    F = random_field_sample(random.Random(16), 1)
    with pytest.raises(DimensionMismatch, match=r"^Q has shape \(4, 4\), sample width is 2$"):
        _WIDTH_CHECKED[name](F, _standard_pair(2))
