"""Tamings of symplectic forms and the polarized Hodge data they induce.

Conventions, fixed once and validated by the test suite:

* the Gram matrix of the symplectic pairing enters on the left, so the
  metric of a taming J is Q = Omega @ J;
* positivity means Q symmetric positive definite, i.e. omega(xi, J xi) > 0
  for nonzero xi (see POSITIVITY_CONVENTION);
* the taming built from a Siegel upper half space point Z = X + iY uses
  the period normal form (Z, T): its -i eigenspace on the
  complexification is the graph of -T^{-1} conj(Z).

All checks are tolerance based because tamings built from Siegel points
are irrational in general; pass exact (integer-valued) J matrices with
tol = 0 for exact mode.
"""

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidTaming,
    NonPositiveY,
    NotSymplectic,
)
from .exact_linalg import IntegerMatrix, rational_solve_many

POSITIVITY_CONVENTION = "omega(xi, J xi) > 0, i.e. Q = Omega @ J positive definite"

DEFAULT_TOL = 1e-10


def _as_float(m):
    if isinstance(m, IntegerMatrix):
        return np.array(m.to_lists(), dtype=float)
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch("expected a matrix")
    return a


def standard_taming_matrix(n: int) -> np.ndarray:
    """The block matrix [[0, -I], [I, 0]], a taming of every Omega_t."""
    z = np.zeros((n, n))
    i = np.eye(n)
    return np.block([[z, -i], [i, z]])


class CheckResult:
    """One named validation check with its measured residual."""

    __slots__ = ("name", "passed", "residual")

    def __init__(self, name, passed, residual):
        self.name = name
        self.passed = bool(passed)
        self.residual = float(residual)

    def __repr__(self):
        status = "ok" if self.passed else "FAIL"
        return f"<{self.name}: {status} (residual {self.residual:.3e})>"


class TamingReport:
    """Pass/fail record of the three taming axioms."""

    def __init__(self, checks):
        self.checks = list(checks)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def as_dict(self):
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "residual": c.residual}
                for c in self.checks
            ],
        }


def validate_taming(J, omega, tol: float = DEFAULT_TOL) -> TamingReport:
    """Check J^2 = -I, compatibility J^T Omega J = Omega, and positivity of Q.

    Residuals are reported relative to the natural scale of each check
    (the squared norm of J for the involution and compatibility, the
    norm of Q for its symmetry), since tamings of badly conditioned
    Siegel points have large entries and absolute float residuals grow
    with the square of the norm. Exact integer tamings still give zero.
    """
    Jm = _as_float(J)
    Om = _as_float(omega)
    if Jm.shape != Om.shape or Jm.shape[0] != Jm.shape[1]:
        raise DimensionMismatch(f"shape mismatch J {Jm.shape} vs omega {Om.shape}")
    if Jm.shape[0] % 2 != 0:
        raise DimensionMismatch("taming needs even dimension")
    m = Jm.shape[0]
    jnorm2 = max(1.0, float(np.max(np.abs(Jm))) ** 2)
    onorm = max(1.0, float(np.max(np.abs(Om))))
    square_res = np.max(np.abs(Jm @ Jm + np.eye(m))) / jnorm2
    compat_res = np.max(np.abs(Jm.T @ Om @ Jm - Om)) / (jnorm2 * onorm)
    Q = Om @ Jm
    qnorm = max(1.0, float(np.max(np.abs(Q))))
    sym_res = np.max(np.abs(Q - Q.T)) / qnorm
    eigmin = float(np.min(np.linalg.eigvalsh((Q + Q.T) / 2.0)))
    return TamingReport(
        [
            CheckResult("square_minus_identity", square_res <= tol, square_res),
            CheckResult("compatibility", compat_res <= tol, compat_res),
            CheckResult("q_symmetric", sym_res <= tol, sym_res),
            # Residual reports the smallest eigenvalue; positive means positive.
            CheckResult("q_positive", eigmin > 0.0, eigmin),
        ]
    )


class Taming:
    """A validated compatible positive complex structure on (R^{2n}, omega)."""

    __slots__ = ("J", "omega", "tol")

    def __init__(self, J, omega: IntegerMatrix, tol: float = DEFAULT_TOL):
        Jm = _as_float(J)
        Jm.flags.writeable = False
        report = validate_taming(Jm, omega, tol)
        if not report.passed:
            raise InvalidTaming(
                "taming axioms fail: "
                + ", ".join(
                    f"{c.name} (residual {c.residual:.3e})" for c in report.failures()
                )
            )
        object.__setattr__(self, "J", Jm)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "tol", float(tol))

    def __setattr__(self, name, value):
        raise AttributeError("Taming is immutable")

    @property
    def n(self):
        return self.J.shape[0] // 2

    def omega_float(self):
        return _as_float(self.omega)


def q_metric(taming: Taming) -> np.ndarray:
    """The Euclidean metric Q = Omega @ J of a taming."""
    Q = taming.omega_float() @ taming.J
    sym_res = np.max(np.abs(Q - Q.T))
    if sym_res > max(taming.tol, 1e-15):
        raise InvalidTaming(f"Q not symmetric (residual {sym_res:.3e})")
    eigmin = float(np.min(np.linalg.eigvalsh((Q + Q.T) / 2.0)))
    if eigmin <= 0.0:
        raise InvalidTaming(f"Q not positive definite (min eigenvalue {eigmin:.3e})")
    return Q


class SiegelPoint:
    """A point Z = X + iY of the Siegel upper half space (X, Y symmetric, Y > 0)."""

    __slots__ = ("X", "Y")

    def __init__(self, X, Y, tol: float = DEFAULT_TOL):
        Xm = _as_float(X)
        Ym = _as_float(Y)
        if Xm.shape != Ym.shape or Xm.shape[0] != Xm.shape[1]:
            raise DimensionMismatch("X and Y must be square of equal size")
        if np.max(np.abs(Xm - Xm.T)) > tol or np.max(np.abs(Ym - Ym.T)) > tol:
            raise DimensionMismatch("X and Y must be symmetric")
        if float(np.min(np.linalg.eigvalsh((Ym + Ym.T) / 2.0))) <= 0.0:
            raise NonPositiveY("imaginary part Y must be positive definite")
        Xm.flags.writeable = False
        Ym.flags.writeable = False
        object.__setattr__(self, "X", Xm)
        object.__setattr__(self, "Y", Ym)

    def __setattr__(self, name, value):
        raise AttributeError("SiegelPoint is immutable")

    @property
    def n(self):
        return self.X.shape[0]


def _type_diagonal_of(omega: IntegerMatrix) -> np.ndarray:
    """Extract T from a Gram matrix of the exact shape [[0, T], [-T, 0]]."""
    m = omega.rows
    if m % 2 != 0:
        raise DimensionMismatch("omega must have even size")
    n = m // 2
    L = omega.to_lists()
    T = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            T[i, j] = L[i][n + j]
            ok = (
                L[i][j] == 0
                and L[n + i][n + j] == 0
                and L[n + i][j] == -L[j][n + i]
            )
            if not ok:
                raise NotSymplectic("omega is not in Frobenius form [[0,T],[-T,0]]")
    if np.max(np.abs(T - T.T)) != 0 or np.min(np.diag(T)) <= 0:
        raise NotSymplectic("omega is not in Frobenius form [[0,T],[-T,0]]")
    return T


def taming_from_siegel_point(Z: SiegelPoint, omega: IntegerMatrix) -> Taming:
    """Build the taming of Omega_t determined by a Siegel upper half space point.

    Block formula from the period normal form (Z, T):

        J = [[-Y^{-1} X,            -Y^{-1} T          ],
             [ T^{-1}(Y + X Y^{-1} X),  T^{-1} X Y^{-1} T ]]

    The result is certified by validate_taming rather than trusted; at
    Z = i T it reduces to the standard taming [[0, -I], [I, 0]].
    """
    T = _type_diagonal_of(omega)
    if T.shape[0] != Z.n:
        raise DimensionMismatch("Siegel point size does not match omega")
    X, Y = Z.X, Z.Y
    Yinv = np.linalg.inv(Y)
    Tinv = np.linalg.inv(T)
    J = np.block(
        [
            [-Yinv @ X, -Yinv @ T],
            [Tinv @ (Y + X @ Yinv @ X), Tinv @ X @ Yinv @ T],
        ]
    )
    return Taming(J, omega, tol=DEFAULT_TOL)


def push_forward_taming(gamma: IntegerMatrix, taming: Taming) -> Taming:
    """Push a taming forward along a symplectic transformation: J -> gamma J gamma^{-1}.

    The inverse is exact and in closed form: gamma^T Omega gamma = Omega
    gives gamma^{-1} = Omega^{-1} gamma^T Omega, one exact solve against
    Omega. The validation tolerance is widened by the conditioning of
    gamma, since conjugation amplifies float error quadratically.
    """
    om = taming.omega
    gt_om = gamma.transpose() * om
    if gt_om * gamma != om:
        raise NotSymplectic("gamma does not preserve the symplectic Gram matrix")
    G = _as_float(gamma)
    inverse_columns = rational_solve_many(
        om.to_lists(), [gt_om.column_vector(j) for j in range(gt_om.cols)]
    )
    Ginv = np.array(inverse_columns, dtype=float).T
    J = G @ taming.J @ Ginv
    cond = max(1.0, float(np.max(np.abs(G))) * float(np.max(np.abs(Ginv))))
    return Taming(J, om, tol=max(taming.tol, DEFAULT_TOL) * cond * cond)


class FundamentalFormSample:
    """Sampled fundamental form: one endomorphism per vertical direction."""

    __slots__ = ("components",)

    def __init__(self, components):
        comps = []
        size = None
        for c in components:
            m = _as_float(c)
            if m.shape[0] != m.shape[1]:
                raise DimensionMismatch("fundamental form components must be square")
            if size is None:
                size = m.shape[0]
            elif m.shape[0] != size:
                raise DimensionMismatch("fundamental form components differ in size")
            m.flags.writeable = False
            comps.append(m)
        object.__setattr__(self, "components", tuple(comps))

    def __setattr__(self, name, value):
        raise AttributeError("FundamentalFormSample is immutable")

    @property
    def count(self):
        return len(self.components)

    def is_zero(self, tol=0.0):
        return all(np.max(np.abs(c)) <= tol for c in self.components)


class FundamentalFormReport:
    """Per-direction antilinearity and Q-symmetry checks, plus a unitary flag."""

    def __init__(self, checks, unitary):
        self.checks = list(checks)
        self.unitary = bool(unitary)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def as_dict(self):
        return {
            "passed": self.passed,
            "unitary": self.unitary,
            "checks": [
                {"name": c.name, "passed": c.passed, "residual": c.residual}
                for c in self.checks
            ],
        }


def validate_fundamental_form(
    psi: FundamentalFormSample, taming: Taming, tol: float = None
) -> FundamentalFormReport:
    """Check each component anticommutes with J and is Q-symmetric.

    Anticommutation is forced by differentiating J^2 = -I; the unitary
    case (all components zero) is flagged separately.
    """
    if tol is None:
        tol = max(taming.tol, DEFAULT_TOL)
    J = taming.J
    Q = q_metric(taming)
    checks = []
    for k, P in enumerate(psi.components):
        if P.shape != J.shape:
            raise DimensionMismatch(
                f"component {k} has shape {P.shape}, taming has {J.shape}"
            )
        anti = np.max(np.abs(P @ J + J @ P))
        scale = max(1.0, float(np.max(np.abs(P))))
        qsym = np.max(np.abs(Q @ P - (Q @ P).T))
        checks.append(
            CheckResult(f"antilinear[{k}]", anti <= tol * scale, anti)
        )
        checks.append(
            CheckResult(f"q_symmetric[{k}]", qsym <= tol * scale, qsym)
        )
    return FundamentalFormReport(checks, unitary=psi.is_zero())


def fundamental_projection(M, taming: Taming) -> np.ndarray:
    """Project a matrix onto the J-antilinear, Q-symmetric endomorphisms.

    Useful for building valid fundamental form samples from arbitrary
    seeds: P1(M) = (M + J M J)/2 anticommutes with J, and the Q-adjoint
    symmetrization commutes with P1 because J is Q-antisymmetric.
    """
    Mm = _as_float(M)
    J = taming.J
    Q = q_metric(taming)
    Qinv = np.linalg.inv(Q)
    A = 0.5 * (Mm + J @ Mm @ J)
    return 0.5 * (A + Qinv @ A.T @ Q)
