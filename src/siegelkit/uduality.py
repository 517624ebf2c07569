"""U-duality computations: commutants, bounded centralizers, fiber products.

Full centralizers in a Siegel modular group are generally infinite, so
the module provides three certified pieces instead: the exact integer
commutant lattice (linear data), an exact membership predicate, and
enumeration of all elements whose entries lie in a finite box. Nothing
beyond the box is claimed.

Finite scalar models replace the scalar manifold by a finite point set
with a finite isometry group and one taming per point; the fiber
product condition U J(p) U^{-1} = J(f(p)) is pointwise, so these models
capture its combinatorics exactly.
"""

import itertools
import os
from fractions import Fraction

import numpy as np

from .errors import BoundTooLargeForBudget, DimensionMismatch, InvalidModel
from .exact_linalg import (
    IntegerMatrix,
    kernel_lattice,
    rational_inverse,
)
from .polarization import Taming
from .siegel_group import reduce_mod_lattice
from .symplectic_lattices import LatticeType, sp_type_membership

DEFAULT_BUDGET = 5_000_000
BUDGET_ENV_VAR = "SIEGELKIT_BUDGET"


def search_budget(budget=None) -> int:
    if budget is not None:
        return int(budget)
    return int(os.environ.get(BUDGET_ENV_VAR, DEFAULT_BUDGET))


class HolonomySubgroup:
    """A finitely generated subgroup of the Siegel modular group of type t."""

    __slots__ = ("generators", "type")

    def __init__(self, generators, type: LatticeType):
        generators = tuple(generators)
        for g in generators:
            if not sp_type_membership(g, type):
                raise InvalidModel(
                    "holonomy generator is not in the Siegel modular group"
                )
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "type", type)

    def __setattr__(self, name, value):
        raise AttributeError("HolonomySubgroup is immutable")

    @property
    def size(self):
        return 2 * self.type.n


def _vec(m: IntegerMatrix):
    """Column-major vectorization, matching vec(AXB) = (B^T kron A) vec(X)."""
    return tuple(m[i, j] for j in range(m.cols) for i in range(m.rows))


def _unvec(v, size):
    return IntegerMatrix(
        [[v[j * size + i] for j in range(size)] for i in range(size)]
    )


def commutant_lattice(h: HolonomySubgroup):
    """Z-basis of {X integer : X g = g X for every generator g}.

    Solved exactly as the kernel of the stacked Sylvester maps
    X -> X g - g X on column-major vectorizations.
    """
    m = h.size
    ident = IntegerMatrix.identity(m)
    blocks = []
    for g in h.generators:
        sylv = g.transpose().kronecker(ident) - ident.kronecker(g)
        blocks.extend(sylv.to_lists())
    if not blocks:
        blocks = IntegerMatrix.zeros(1, m * m).to_lists()
    basis_vecs = kernel_lattice(IntegerMatrix(blocks))
    return [_unvec(v, m) for v in basis_vecs]


def _coefficient_box(basis, bound):
    """Per-coefficient bounds that cover every lattice point in the entry box.

    With B the matrix of vectorized basis elements, c = (B^T B)^{-1} B^T v
    recovers coefficients from entries, so |c_i| is at most the l1 norm
    of row i of that pseudo-inverse times the entry bound.
    """
    vecs = [_vec(b) for b in basis]
    B = [[Fraction(vecs[j][i]) for j in range(len(vecs))] for i in range(len(vecs[0]))]
    Bt = list(map(list, zip(*B)))
    gram = [[sum(a * b for a, b in zip(r1, r2)) for r2 in Bt] for r1 in Bt]
    gram_inv = rational_inverse(gram)
    pseudo = [
        [sum(a * b for a, b in zip(row, col)) for col in zip(*Bt)]
        for row in gram_inv
    ]
    # pseudo = (B^T B)^{-1} B^T, with shape r x (entry count)
    limits = []
    for row in pseudo:
        l1 = sum(abs(x) for x in row)
        limits.append(int(l1 * bound))
    return limits


def centralizer_enumerate(h: HolonomySubgroup, bound: int, budget=None):
    """All Siegel modular matrices within the entry box commuting with h.

    Enumerates coefficients over the commutant lattice (rank r, not the
    full matrix space), then filters by entry bound, unimodularity and
    preservation of the standard pairing. Output order is deterministic.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    basis = commutant_lattice(h)
    if not basis:
        return []
    limits = _coefficient_box(basis, bound)
    volume = 1
    for lim in limits:
        volume *= 2 * lim + 1
    cap = search_budget(budget)
    if volume > cap:
        raise BoundTooLargeForBudget(
            f"coefficient box has {volume} points, budget is {cap}"
        )
    out = []
    ranges = [range(-lim, lim + 1) for lim in limits]
    for coeffs in itertools.product(*ranges):
        if all(x == 0 for x in coeffs):
            continue
        X = None
        for ci, Bi in zip(coeffs, basis):
            if ci == 0:
                continue
            term = Bi * ci
            X = term if X is None else X + term
        if X is None or X.max_abs() > bound:
            continue
        if sp_type_membership(X, h.type):
            out.append(X)
    return out


class FiniteScalarModel:
    """A finite point set with a finite isometry group and a taming per point."""

    __slots__ = ("points", "isometries", "tamings")

    def __init__(self, points: int, isometries, tamings):
        points = int(points)
        if points < 1:
            raise InvalidModel("model needs at least one point")
        perms = []
        for p in isometries:
            p = tuple(int(x) for x in p)
            if sorted(p) != list(range(points)):
                raise InvalidModel(f"not a permutation of {points} points: {p}")
            perms.append(p)
        perms = tuple(perms)
        if tuple(range(points)) not in perms:
            raise InvalidModel("isometry list must contain the identity")
        perm_set = set(perms)
        for p in perms:
            inv = tuple(p.index(i) for i in range(points))
            if inv not in perm_set:
                raise InvalidModel("isometry list is not closed under inverse")
            for q in perms:
                if tuple(p[q[i]] for i in range(points)) not in perm_set:
                    raise InvalidModel("isometry list is not closed under composition")
        tamings = tuple(tamings)
        if len(tamings) != points:
            raise InvalidModel("need exactly one taming per point")
        omega = tamings[0].omega
        for tm in tamings:
            if not isinstance(tm, Taming):
                raise InvalidModel("tamings must be validated Taming values")
            if tm.omega != omega:
                raise InvalidModel("all tamings must share one symplectic form")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "isometries", perms)
        object.__setattr__(self, "tamings", tamings)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteScalarModel is immutable")

    @property
    def identity_index(self):
        return self.isometries.index(tuple(range(self.points)))

    def compose_isometries(self, i: int, j: int) -> int:
        """Index of isometry i composed after isometry j."""
        p, q = self.isometries[i], self.isometries[j]
        composed = tuple(p[q[k]] for k in range(self.points))
        try:
            return self.isometries.index(composed)
        except ValueError:
            raise InvalidModel("isometry list is not closed under composition")


class UDualityElement:
    """A gauge duality element (isometry index, rotation, optional torus part)."""

    __slots__ = ("isometry", "rotation", "torus")

    def __init__(self, isometry: int, rotation: IntegerMatrix, torus=None):
        if torus is not None:
            torus = reduce_mod_lattice(torus)
            if len(torus) != rotation.rows:
                raise DimensionMismatch("torus part length does not match rotation")
        object.__setattr__(self, "isometry", int(isometry))
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "torus", torus)

    def __setattr__(self, name, value):
        raise AttributeError("UDualityElement is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, UDualityElement)
            and self.isometry == other.isometry
            and self.rotation == other.rotation
            and self.torus == other.torus
        )

    def __hash__(self):
        return hash((self.isometry, self.rotation, self.torus))

    def __repr__(self):
        return (
            f"UDualityElement(isometry={self.isometry}, "
            f"rotation={self.rotation.to_lists()!r}, torus={self.torus})"
        )


def _symplectic_box(t: LatticeType, bound: int, budget):
    """All Siegel modular matrices of type t with entries in [-bound, bound]."""
    m = 2 * t.n
    volume = (2 * bound + 1) ** (m * m)
    cap = search_budget(budget)
    if volume > cap:
        raise BoundTooLargeForBudget(
            f"entry box has {volume} points, budget is {cap}"
        )
    out = []
    cells = range(-bound, bound + 1)
    for flat in itertools.product(cells, repeat=m * m):
        cand = IntegerMatrix._trusted(
            tuple(flat[i * m : (i + 1) * m] for i in range(m))
        )
        if sp_type_membership(cand, t):
            out.append(cand)
    return out


def uduality_fiber_product(
    model: FiniteScalarModel,
    bound: int,
    t: LatticeType = None,
    tol: float = None,
    budget=None,
):
    """All pairs (f, U) in the box with U J(p) U^{-1} = J(f(p)) at every point.

    The lattice type defaults to the principal type of the tamings'
    rank. Elements are returned with no torus part: torus translations
    are unconstrained by the compatibility condition and live in the
    kernel of the adjoint map.
    """
    n = model.tamings[0].n
    if t is None:
        t = LatticeType.principal(n)
    if tol is None:
        tol = max(max(tm.tol for tm in model.tamings), 1e-9)
    candidates = _symplectic_box(t, bound, budget)
    Js = [tm.J for tm in model.tamings]
    out = []
    for f_idx, perm in enumerate(model.isometries):
        for U in candidates:
            Um = np.array(U.to_lists(), dtype=float)
            Uinv = np.linalg.inv(Um)
            ok = True
            for p in range(model.points):
                lhs = Um @ Js[p] @ Uinv
                if np.max(np.abs(lhs - Js[perm[p]])) > tol:
                    ok = False
                    break
            if ok:
                out.append(UDualityElement(f_idx, U))
    return out


def uduality_compose(
    x: UDualityElement, y: UDualityElement, model: FiniteScalarModel
) -> UDualityElement:
    """Group law: isometries and rotations compose, torus parts affinely."""
    iso = model.compose_isometries(x.isometry, y.isometry)
    rotation = x.rotation * y.rotation
    if x.torus is None and y.torus is None:
        torus = None
    else:
        m = rotation.rows
        ax = x.torus if x.torus is not None else (Fraction(0),) * m
        ay = y.torus if y.torus is not None else (Fraction(0),) * m
        moved = x.rotation.apply(ay)
        torus = tuple(a + b for a, b in zip(ax, moved))
    return UDualityElement(iso, rotation, torus)


def adjoint_map(e: UDualityElement):
    """Forget the torus part: (f, a, U) -> (f, U)."""
    return (e.isometry, e.rotation)


def is_pure_translation(e: UDualityElement, model: FiniteScalarModel) -> bool:
    """Kernel test for the adjoint map: identity isometry and rotation."""
    return (
        e.isometry == model.identity_index
        and e.rotation == IntegerMatrix.identity(e.rotation.rows)
    )


class ClosureReport:
    """Whether a set of elements is closed under in-box composition."""

    def __init__(self, closed, missing):
        self.closed = bool(closed)
        self.missing = list(missing)

    def as_dict(self):
        return {
            "closed": self.closed,
            "missing": [
                {"isometry": e.isometry, "rotation": e.rotation.to_lists()}
                for e in self.missing
            ],
        }


def closure_within_box(
    elements, model: FiniteScalarModel, bound: int
) -> ClosureReport:
    """Check closure under products whose rotation stays inside the box."""
    present = {(e.isometry, e.rotation) for e in elements}
    missing = []
    for x in elements:
        for y in elements:
            z = uduality_compose(x, y, model)
            if z.rotation.max_abs() <= bound:
                if (z.isometry, z.rotation) not in present:
                    missing.append(z)
    return ClosureReport(not missing, missing)
