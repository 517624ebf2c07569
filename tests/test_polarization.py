import random

import numpy as np
import pytest

from siegelkit.errors import DimensionMismatch, InvalidTaming, NonPositiveY, NotSymplectic
from siegelkit.exact_linalg import IntegerMatrix
from siegelkit.polarization import (
    DEFAULT_TOL,
    FundamentalFormSample,
    SiegelPoint,
    Taming,
    TamingReport,
    push_forward_taming,
    standard_taming_matrix,
    taming_from_siegel_point,
    validate_fundamental_form,
    validate_taming,
)
from siegelkit.sampling import (
    random_lattice_type,
    random_siegel_point,
    random_sp_t_element,
    random_taming,
)
from siegelkit.symplectic_lattices import LatticeType, standard_gram

OM1 = standard_gram(LatticeType((1,)))
J0 = standard_taming_matrix(1)


def test_standard_taming_passes():
    for n in (1, 2, 3):
        om = standard_gram(LatticeType.principal(n))
        report = validate_taming(standard_taming_matrix(n), om, 0.0)
        assert report.passed


def test_sign_flip_fails_positivity_only():
    report = validate_taming(-J0, OM1, 0.0)
    failed = {c.name for c in report.failures()}
    assert failed == {"q_positive"}


def test_identity_fails_square():
    report = validate_taming(np.eye(2), OM1, 0.0)
    assert not report.passed
    assert "square_minus_identity" in {c.name for c in report.failures()}


def test_q_metric_examples():
    tm = Taming(J0, OM1, 0.0)
    assert np.array_equal(tm.Q, np.eye(2))
    om2 = standard_gram(LatticeType((2,)))
    tm2 = Taming(J0, om2, 0.0)
    assert np.array_equal(tm2.Q, 2 * np.eye(2))


def test_taming_keeps_its_metric():
    """Q = Omega @ J is stored frozen when the taming is built."""
    rng = random.Random(5)
    for _ in range(20):
        tm = random_taming(rng, random_lattice_type(rng, rng.randint(1, 3)))
        assert not tm.Q.flags.writeable
        assert np.array_equal(tm.Q, np.array(tm.omega.to_lists(), dtype=float) @ tm.J)


def test_q_metric_from_siegel_point():
    Z = SiegelPoint(np.zeros((2, 2)), np.eye(2))
    om = standard_gram(LatticeType.principal(2))
    tm = taming_from_siegel_point(Z, om)
    Q = tm.Q
    assert np.max(np.abs(Q - Q.T)) <= 1e-12
    assert np.min(np.linalg.eigvalsh(Q)) > 0


def test_siegel_point_standard_values():
    Z = SiegelPoint(np.zeros((1, 1)), np.eye(1))
    tm = taming_from_siegel_point(Z, OM1)
    assert np.allclose(tm.J, J0)
    # Y = 2 against the principal form: antidiagonal with reciprocal entries.
    Z2 = SiegelPoint(np.zeros((1, 1)), 2 * np.eye(1))
    tm2 = taming_from_siegel_point(Z2, OM1)
    assert np.allclose(tm2.J, np.array([[0.0, -0.5], [2.0, 0.0]]))
    # Nonzero real part still validates.
    Z3 = SiegelPoint(np.array([[1.0]]), np.eye(1))
    tm3 = taming_from_siegel_point(Z3, OM1)
    assert validate_taming(tm3.J, OM1, 1e-10).passed


def test_siegel_point_eigenspace_invariant():
    """The -i eigenspace of the built taming is the graph of -T^{-1} conj(Z)."""
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 3)
        t = random_lattice_type(rng, n)
        Z = random_siegel_point(rng, n, eps=0.5)
        tm = taming_from_siegel_point(Z, standard_gram(t))
        T = np.diag([float(x) for x in t.entries])
        W = np.vstack([np.eye(n), -np.linalg.inv(T) @ (Z.X - 1j * Z.Y)])
        assert np.max(np.abs(tm.J @ W + 1j * W)) <= 1e-9


def test_siegel_point_validation():
    with pytest.raises(NonPositiveY):
        SiegelPoint(np.zeros((1, 1)), -np.eye(1))
    with pytest.raises(InvalidTaming):
        Taming(np.eye(2), OM1, 0.0)


def test_siegel_point_symmetry_tolerance():
    """X and Y are symmetric up to DEFAULT_TOL, absolute."""
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    SiegelPoint(DEFAULT_TOL / 2 * skew, np.eye(2))
    SiegelPoint(np.zeros((2, 2)), np.eye(2) + DEFAULT_TOL / 2 * skew)
    with pytest.raises(DimensionMismatch, match="symmetric"):
        SiegelPoint(2 * DEFAULT_TOL * skew, np.eye(2))
    with pytest.raises(DimensionMismatch, match="symmetric"):
        SiegelPoint(np.zeros((2, 2)), np.eye(2) + 2 * DEFAULT_TOL * skew)


def test_thousand_siegel_points_never_fail():
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randint(1, 3)
        t = random_lattice_type(rng, n)
        tm = random_taming(rng, t, eps=1e-3)
        assert validate_taming(tm.J, tm.omega, 1e-10).passed


def test_q_invariance_under_j():
    rng = random.Random(6)
    for _ in range(50):
        n = rng.randint(1, 3)
        t = random_lattice_type(rng, n)
        tm = random_taming(rng, t)
        Q = tm.Q
        scale = max(1.0, np.max(np.abs(Q))) * max(1.0, np.max(np.abs(tm.J)) ** 2)
        assert np.max(np.abs(tm.J.T @ Q @ tm.J - Q)) <= 1e-10 * scale


def test_push_forward_identity_and_standard():
    tm = Taming(J0, OM1, 0.0)
    assert np.allclose(push_forward_taming(IntegerMatrix.identity(2), tm).J, J0)
    # J0 is itself an integer symplectic matrix and commutes with itself.
    gJ = IntegerMatrix([[0, -1], [1, 0]])
    assert np.allclose(push_forward_taming(gJ, tm).J, J0)


def test_push_forward_rejects_non_symplectic():
    tm = Taming(J0, OM1, 0.0)
    with pytest.raises(NotSymplectic):
        push_forward_taming(IntegerMatrix([[2, 0], [0, 1]]), tm)


def test_push_forward_random_and_action_property():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(1, 2)
        t = random_lattice_type(rng, n)
        tm = random_taming(rng, t, eps=0.5)
        g1 = random_sp_t_element(rng, t, steps=3, entry_bound=8)
        g2 = random_sp_t_element(rng, t, steps=3, entry_bound=8)
        pushed = push_forward_taming(g1, push_forward_taming(g2, tm))
        combined = push_forward_taming(g1 * g2, tm)
        assert np.max(np.abs(pushed.J - combined.J)) <= 1e-9 * max(
            1.0, np.max(np.abs(combined.J))
        )


def test_fundamental_form_zero_is_unitary():
    tm = Taming(J0, OM1, 0.0)
    psi = FundamentalFormSample([np.zeros((2, 2))])
    report = validate_fundamental_form(psi, tm)
    assert report.passed and report.unitary
    assert isinstance(report, TamingReport)
    checks = [
        {"name": "antilinear[0]", "passed": True, "residual": 0.0},
        {"name": "q_symmetric[0]", "passed": True, "residual": 0.0},
    ]
    assert list(report.as_dict().items()) == [
        ("passed", True), ("unitary", True), ("checks", checks)
    ]


def test_fundamental_form_j_fails_antilinearity():
    tm = Taming(J0, OM1, 0.0)
    report = validate_fundamental_form(FundamentalFormSample([J0]), tm)
    assert not report.passed
    assert any("antilinear" in c.name for c in report.failures())


def _fundamental_projection(M, taming):
    """Project M onto the J-antilinear, Q-symmetric endomorphisms.

    (M + J M J)/2 anticommutes with J, and its Q-adjoint symmetrization
    keeps that, because J is Q-antisymmetric.
    """
    J, Q = taming.J, taming.Q
    A = 0.5 * (M + J @ M @ J)
    return 0.5 * (A + np.linalg.inv(Q) @ A.T @ Q)


def test_fundamental_projection_produces_valid_samples():
    rng = random.Random(12)
    for _ in range(30):
        n = rng.randint(1, 3)
        t = random_lattice_type(rng, n)
        tm = random_taming(rng, t, eps=0.5)
        M = np.array(
            [[rng.uniform(-1, 1) for _ in range(2 * n)] for _ in range(2 * n)]
        )
        P = _fundamental_projection(M, tm)
        report = validate_fundamental_form(
            FundamentalFormSample([P]), tm, tol=1e-8
        )
        assert report.passed
        assert not report.unitary or np.max(np.abs(P)) < 1e-12


def test_constructors_freeze_a_copy_not_the_callers_array():
    """The object's arrays are read-only; the caller's float arrays stay writeable."""
    J = standard_taming_matrix(1)
    X, Y = np.zeros((1, 1)), np.eye(1)
    P = np.zeros((2, 2))
    tm = Taming(J, OM1)
    point = SiegelPoint(X, Y)
    psi = FundamentalFormSample([P])
    for caller, frozen in ((J, tm.J), (X, point.X), (Y, point.Y), (P, psi.components[0])):
        assert caller.flags.writeable and not frozen.flags.writeable
        caller[0, 0] += 1.0
        assert frozen[0, 0] == caller[0, 0] - 1.0
