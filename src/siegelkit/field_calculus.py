"""Pointwise Lorentzian calculus for the duality-covariant field equations.

Two-forms at a point are stored as 6-vectors over the ordered index
pairs (01, 02, 03, 12, 13, 23); a field strength sample is a 6 x 2n
matrix with the duality index on the right. Symplectic transformations
act by right multiplication with gamma^T and tamings by right
multiplication with J^T, so the polarized star is F -> S F J^T with S
the Hodge matrix on two-forms.

Signature is mostly-plus (-,+,+,+) and orientation enters as a sign
flag; both choices only reach observables through the Hodge operator,
which is tested intrinsically (star^2 = -1 on two-forms).
"""

import itertools

import numpy as np

from .errors import BadSignature, DimensionMismatch
from .exact_linalg import Frozen, IntegerMatrix
from .polarization import FundamentalFormSample, Taming, _as_float, push_forward_taming

INDEX_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

EIGEN_TOL = 1e-8  # distance from +-1 at which a polarized star eigenvalue counts

# The Levi-Civita symbol: the sign of each permutation, by its inversions.
_EPSILON = np.zeros((4, 4, 4, 4))
for _p in itertools.permutations(range(4)):
    _EPSILON[_p] = (-1) ** sum(a > b for a, b in itertools.combinations(_p, 2))
_EPSILON.flags.writeable = False


class PointFrame(Frozen):
    """A Lorentzian metric sample at a point, with an orientation sign."""

    __slots__ = ("g", "orientation", "ginv", "sqrt_abs_det")

    def __init__(self, g, orientation: int = 1):
        gm = np.asarray(g, dtype=float)
        if gm.shape != (4, 4):
            raise DimensionMismatch(f"metric must be 4x4, got {gm.shape}")
        if np.max(np.abs(gm - gm.T)) > 1e-9 * max(1.0, np.max(np.abs(gm))):
            raise BadSignature("metric is not symmetric")
        gm = gm / 2.0 + gm.T / 2.0  # halved first, so no finite sum overflows
        if orientation not in (1, -1):
            raise BadSignature("orientation must be +1 or -1")
        det = float(np.linalg.det(gm))
        if det >= 0:
            raise BadSignature("Lorentzian metric needs det g < 0")
        eigs = np.linalg.eigvalsh(gm)
        if not (eigs[0] < 0 and np.all(eigs[1:] > 0)):
            raise BadSignature(f"signature is not (-,+,+,+): eigenvalues {eigs}")
        gm.flags.writeable = False
        object.__setattr__(self, "g", gm)
        object.__setattr__(self, "orientation", int(orientation))
        ginv = np.linalg.inv(gm)
        ginv.flags.writeable = False
        object.__setattr__(self, "ginv", ginv)
        object.__setattr__(self, "sqrt_abs_det", float(np.sqrt(-det)))


class FieldStrengthSample(Frozen):
    """A two-form sample with values in the 2n-dimensional duality space."""

    __slots__ = ("F",)

    def __init__(self, F):
        Fm = np.asarray(F, dtype=float)
        if Fm.ndim != 2 or Fm.shape[0] != 6:
            raise DimensionMismatch(f"field sample must be 6 x 2n, got {Fm.shape}")
        if Fm.shape[1] % 2 != 0:
            raise DimensionMismatch("duality-space dimension must be even")
        Fm = Fm.copy()
        Fm.flags.writeable = False
        object.__setattr__(self, "F", Fm)

    def norm(self):
        return float(np.linalg.norm(self.F))


def unpack_two_form(column) -> np.ndarray:
    """6-vector of ordered-pair components -> antisymmetric 4x4 matrix."""
    col = np.asarray(column, dtype=float).reshape(6)
    A = np.zeros((4, 4))
    for idx, (i, j) in enumerate(INDEX_PAIRS):
        A[i, j] = col[idx]
        A[j, i] = -col[idx]
    return A


def _unpack_stack(F: np.ndarray) -> np.ndarray:
    """Columns of a 6 x w sample -> array of shape (w, 4, 4)."""
    return np.stack([unpack_two_form(F[:, a]) for a in range(F.shape[1])])


def hodge_star_matrix(frame: PointFrame) -> np.ndarray:
    """Matrix of the Hodge star on two-forms in the ordered-pair basis.

    (star F)_{mn} = (o/2) sqrt|g| eps_{mnab} g^{ax} g^{by} F_{xy}; squares
    to minus the identity in Lorentzian signature and is conformally
    invariant in this middle degree.
    """
    w = (
        frame.orientation
        * frame.sqrt_abs_det
        * np.einsum("mnab,ax,by->mnxy", _EPSILON, frame.ginv, frame.ginv)
    )
    S = np.zeros((6, 6))
    for r, (m, n) in enumerate(INDEX_PAIRS):
        for c, (x, y) in enumerate(INDEX_PAIRS):
            S[r, c] = w[m, n, x, y]
    return S


class PolarizedStar(Frozen):
    """The involution star_g tensor J acting on field strength samples."""

    __slots__ = ("star6", "J")

    def __init__(self, frame: PointFrame, taming: Taming):
        object.__setattr__(self, "star6", hodge_star_matrix(frame))
        object.__setattr__(self, "J", taming.J)

    def __call__(self, sample: FieldStrengthSample) -> FieldStrengthSample:
        F = sample.F
        if F.shape[1] != self.J.shape[0]:
            raise DimensionMismatch(
                f"sample width {F.shape[1]} does not match taming size {self.J.shape[0]}"
            )
        return FieldStrengthSample(self.star6 @ F @ self.J.T)

    def as_matrix(self) -> np.ndarray:
        """The operator on vectorized samples (kron of J with the star matrix)."""
        return np.kron(self.J, self.star6)

    def eigenspace_dimensions(self):
        """Dimensions of the +1 and -1 eigenspaces of the involution."""
        eigs = np.linalg.eigvals(self.as_matrix())
        plus = int(np.sum(np.abs(eigs - 1.0) < EIGEN_TOL))
        minus = int(np.sum(np.abs(eigs + 1.0) < EIGEN_TOL))
        return plus, minus


def project_selfdual(
    sample: FieldStrengthSample, frame: PointFrame, taming: Taming
) -> FieldStrengthSample:
    """Projection (F + star F)/2 onto the polarized self-dual subspace."""
    op = PolarizedStar(frame, taming)
    return FieldStrengthSample((sample.F + op(sample).F) / 2.0)


def maxwell_residual(
    sample: FieldStrengthSample, frame: PointFrame, taming: Taming
) -> float:
    """Norm of star F - F; zero exactly on self-dual samples.

    The duality index is weighted by the taming metric Q, which makes
    the residual invariant under symplectic rotations with pushed
    forward tamings; for the standard pair (Q = identity) this is the
    plain Frobenius norm.
    """
    op = PolarizedStar(frame, taming)
    D = op(sample).F - sample.F
    return float(np.sqrt(max(0.0, float(np.trace(D @ taming.Q @ D.T)))))


def _metric(taming: Taming, width):
    """The taming's metric Q, refused unless it matches the sample width."""
    Q = taming.Q
    if Q.shape != (width, width):
        raise DimensionMismatch(f"Q has shape {Q.shape}, sample width is {width}")
    return Q


def inner_contraction(
    F1: FieldStrengthSample, F2: FieldStrengthSample, frame: PointFrame, taming: Taming
) -> np.ndarray:
    """(F1 (.) F2)_{mn} = Q_ab F1^a_{mx} g^{xy} F2^b_{ny}, with Q the taming's metric."""
    if F1.F.shape != F2.F.shape:
        raise DimensionMismatch("samples have different shapes")
    Q = _metric(taming, F1.F.shape[1])
    s1 = _unpack_stack(F1.F)
    s2 = _unpack_stack(F2.F)
    return np.einsum("ab,amx,xy,bny->mn", Q, s1, frame.ginv, s2)


def _pairing(F1, F2, frame: PointFrame, Q) -> float:
    """Q-weighted pairing of two-form samples: sum_ab Q_ab (F1^a, F2^b)_g.

    F1 and F2 are 6 x w arrays whose shapes match each other and Q;
    (a, b)_g = (1/2) a_{mn} g^{mr} g^{ns} b_{rs}.
    """
    s1 = _unpack_stack(F1)
    s2 = _unpack_stack(F2)
    return 0.5 * float(
        np.einsum("ab,amn,mr,ns,brs->", Q, s1, frame.ginv, frame.ginv, s2)
    )


def trace_g(frame: PointFrame, h) -> float:
    """Metric trace g^{mn} h_{mn}."""
    return float(np.einsum("mn,mn->", frame.ginv, np.asarray(h, dtype=float)))


def scalar_rhs(
    sample: FieldStrengthSample,
    frame: PointFrame,
    taming: Taming,
    psi: FundamentalFormSample,
    lhs=None,
):
    """Right hand side of the scalar equation, one value per vertical direction.

    r_k = (1/2) (star F, Psi_k F)_{g,Q}. The star here is the plain
    Hodge star on the two-form leg. psi is a sample that has passed
    validate_fundamental_form against the taming, so each component has
    J's shape. When a contracted left-hand-side sample is supplied, the
    per-direction residuals are returned as well.
    """
    Q = _metric(taming, sample.F.shape[1])
    starF = hodge_star_matrix(frame) @ sample.F
    values = tuple(
        0.5 * _pairing(starF, sample.F @ P.T, frame, Q) for P in psi.components
    )
    if lhs is None:
        return values, None
    lhs = tuple(float(x) for x in lhs)
    if len(lhs) != len(values):
        raise DimensionMismatch("left side length does not match direction count")
    residuals = tuple(abs(a - b) for a, b in zip(lhs, values))
    return values, residuals


def duality_transform_sample(
    gamma: IntegerMatrix, sample: FieldStrengthSample, taming: Taming
):
    """Transform a sample and its taming by a symplectic duality rotation.

    Returns (gamma . F, gamma J gamma^{-1}); push_forward_taming raises
    NotSymplectic when gamma does not preserve the symplectic form.
    """
    new_taming = push_forward_taming(gamma, taming)
    G = _as_float(gamma)
    if sample.F.shape[1] != G.shape[0]:
        raise DimensionMismatch("sample width does not match gamma size")
    return FieldStrengthSample(sample.F @ G.T), new_taming
