"""Tamings of symplectic forms and the polarized Hodge data they induce.

Conventions, fixed once and validated by the test suite:

* the Gram matrix of the symplectic pairing enters on the left, so the
  metric of a taming J is Q = Omega @ J, computed once when the Taming
  is built and read from it afterwards (Taming.Q): the field equations,
  the fundamental-form checks and the fiber product's norm filter take
  the validated Taming, never a bare Q;
* positivity means Q symmetric positive definite, i.e. omega(xi, J xi) > 0
  for nonzero xi;
* the taming built from a Siegel upper half space point Z = X + iY uses
  the period normal form (Z, T): its -i eigenspace on the
  complexification is the graph of -T^{-1} conj(Z). There omega must be
  Omega_t for a divisor chain t, read by symplectic_lattices.omega_type
  (the same reader as the U-duality fiber product), and T = diag(t).

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
    ParseError,
)
from .exact_linalg import Frozen, IntegerMatrix, rational_solve_many
from .symplectic_lattices import omega_type

DEFAULT_TOL = 1e-10


def _as_float(m):
    """A matrix as a new float array; an entry past the float range is refused.

    The array is never the caller's own, so a constructor may freeze it
    without freezing the caller's array.
    """
    if isinstance(m, IntegerMatrix):
        m = m.to_lists()
    try:
        a = np.array(m, dtype=float)
    except OverflowError:
        raise ParseError("matrix entry is too large for a float") from None
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
    """Pass/fail record of named checks, such as the taming axioms."""

    def __init__(self, checks):
        self.checks = list(checks)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def describe_failures(self):
        """The failing checks as "name (residual r)", comma separated."""
        return ", ".join(
            f"{c.name} (residual {c.residual:.3e})" for c in self.failures()
        )

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
    # numpy's square of a float64 past the float range is inf; Python's raises.
    jnorm2 = max(1.0, float(np.max(np.abs(Jm)) ** 2))
    onorm = max(1.0, float(np.max(np.abs(Om))))
    square_res = np.max(np.abs(Jm @ Jm + np.eye(m))) / jnorm2
    compat_res = np.max(np.abs(Jm.T @ Om @ Jm - Om)) / (jnorm2 * onorm)
    Q = Om @ Jm
    qnorm = max(1.0, float(np.max(np.abs(Q))))
    sym_res = np.max(np.abs(Q - Q.T)) / qnorm
    S = Q / 2.0 + Q.T / 2.0  # halved first: finite wherever Q is
    eigmin = float(np.min(np.linalg.eigvalsh(S))) if np.isfinite(S).all() else np.nan
    return TamingReport(
        [
            CheckResult("square_minus_identity", square_res <= tol, square_res),
            CheckResult("compatibility", compat_res <= tol, compat_res),
            CheckResult("q_symmetric", sym_res <= tol, sym_res),
            # Residual reports the smallest eigenvalue; positive means positive.
            CheckResult("q_positive", eigmin > 0.0, eigmin),
        ]
    )


class Taming(Frozen):
    """A validated compatible positive complex structure on (R^{2n}, omega).

    The metric Q = Omega @ J is computed once, when the taming is built,
    and kept frozen next to J.
    """

    __slots__ = ("J", "omega", "tol", "Q")

    def __init__(self, J, omega: IntegerMatrix, tol: float = DEFAULT_TOL):
        Jm = _as_float(J)
        Jm.flags.writeable = False
        report = validate_taming(Jm, omega, tol)
        if not report.passed:
            raise InvalidTaming("taming axioms fail: " + report.describe_failures())
        Q = _as_float(omega) @ Jm
        Q.flags.writeable = False
        object.__setattr__(self, "J", Jm)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "tol", float(tol))
        object.__setattr__(self, "Q", Q)

    @property
    def n(self):
        return self.J.shape[0] // 2


class SiegelPoint(Frozen):
    """A point Z = X + iY of the Siegel upper half space (X, Y symmetric, Y > 0)."""

    __slots__ = ("X", "Y")

    def __init__(self, X, Y):
        Xm = _as_float(X)
        Ym = _as_float(Y)
        if Xm.shape != Ym.shape or Xm.shape[0] != Xm.shape[1]:
            raise DimensionMismatch("X and Y must be square of equal size")
        if max(np.max(np.abs(Xm - Xm.T)), np.max(np.abs(Ym - Ym.T))) > DEFAULT_TOL:
            raise DimensionMismatch("X and Y must be symmetric")
        if float(np.min(np.linalg.eigvalsh(Ym / 2.0 + Ym.T / 2.0))) <= 0.0:
            raise NonPositiveY("imaginary part Y must be positive definite")
        Xm.flags.writeable = False
        Ym.flags.writeable = False
        object.__setattr__(self, "X", Xm)
        object.__setattr__(self, "Y", Ym)

    @property
    def n(self):
        return self.X.shape[0]


def taming_from_siegel_point(Z: SiegelPoint, omega: IntegerMatrix) -> Taming:
    """Build the taming of Omega_t determined by a Siegel upper half space point.

    Block formula from the period normal form (Z, T):

        J = [[-Y^{-1} X,            -Y^{-1} T          ],
             [ T^{-1}(Y + X Y^{-1} X),  T^{-1} X Y^{-1} T ]]

    with T = diag(t), where omega must be Omega_t for a divisor chain t
    (omega_type). The result is certified by validate_taming rather than
    trusted; at Z = i T it reduces to the standard taming [[0, -I], [I, 0]].
    """
    t = omega_type(omega)
    if t.n != Z.n:
        raise DimensionMismatch("Siegel point size does not match omega")
    T = _as_float(np.diag(t.entries))
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
    Ginv = _as_float(inverse_columns).T
    J = G @ taming.J @ Ginv
    cond = max(1.0, float(np.max(np.abs(G))) * float(np.max(np.abs(Ginv))))
    return Taming(J, om, tol=max(taming.tol, DEFAULT_TOL) * cond * cond)


class FundamentalFormSample(Frozen):
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

    def is_zero(self):
        return not any(np.any(c) for c in self.components)


class FundamentalFormReport(TamingReport):
    """Per-direction antilinearity and Q-symmetry checks, plus a unitary flag."""

    def __init__(self, checks, unitary):
        super().__init__(checks)
        self.unitary = bool(unitary)

    def as_dict(self):
        checks = super().as_dict()["checks"]
        return {"passed": self.passed, "unitary": self.unitary, "checks": checks}


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
    Q = taming.Q
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

