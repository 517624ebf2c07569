"""Exact arithmetic in the affine Siegel group U(1)^{2n} x| Sp_t(2n, Z).

Group elements are pairs (a, gamma) with gamma an integer matrix
preserving the standard lattice of type t and a an exact rational torus
translation. Torus coordinates are taken in the lattice basis of the
standard symplectic lattice, so reduction modulo the lattice is
componentwise reduction modulo 1. The multiplication rule is

    (a1, gamma1) (a2, gamma2) = (a1 + gamma1 a2, gamma1 gamma2).

The public constructor tests the rotation for membership in
Sp_t(2n, Z). Products and inverses of members are members, so the group
law builds its results without repeating that test.
"""

from fractions import Fraction

from .errors import DimensionMismatch, NotSymplectic, TypeMismatch
from .exact_linalg import IntegerMatrix
from .symplectic_lattices import LatticeType, sp_type_membership, symplectic_inverse


def reduce_mod_lattice(coords):
    """Reduce rational lattice-basis coordinates into the box [0, 1)^{2n}."""
    return tuple(Fraction(x) % 1 for x in coords)


class TorusPoint:
    """A point of the symplectic torus in reduced lattice-basis coordinates."""

    __slots__ = ("coords", "type")

    def __init__(self, coords, type: LatticeType):
        coords = reduce_mod_lattice(coords)
        if len(coords) != 2 * type.n:
            raise DimensionMismatch(
                f"expected {2 * type.n} coordinates, got {len(coords)}"
            )
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "type", type)

    def __setattr__(self, name, value):
        raise AttributeError("TorusPoint is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, TorusPoint)
            and self.type == other.type
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.coords, self.type))

    def __repr__(self):
        return f"TorusPoint({[str(c) for c in self.coords]}, t={list(self.type.entries)})"


class AffineSymplectomorphism:
    """An element (a, gamma) of the affine Siegel group of type t."""

    __slots__ = ("translation", "rotation", "type")

    def __init__(self, translation, rotation: IntegerMatrix, type: LatticeType):
        translation = reduce_mod_lattice(translation)
        if len(translation) != 2 * type.n:
            raise DimensionMismatch(
                f"expected {2 * type.n} translation coordinates, got {len(translation)}"
            )
        if not sp_type_membership(rotation, type):
            raise NotSymplectic("rotation part is not in the Siegel modular group")
        _init(self, translation, rotation, type)

    def __setattr__(self, name, value):
        raise AttributeError("AffineSymplectomorphism is immutable")

    @classmethod
    def _trusted(cls, translation, rotation: IntegerMatrix, type: LatticeType):
        """Build from a rotation known to lie in Sp_t(2n, Z), without retesting."""
        x = object.__new__(cls)
        _init(x, reduce_mod_lattice(translation), rotation, type)
        return x

    @classmethod
    def identity(cls, type: LatticeType):
        n2 = 2 * type.n
        return cls._trusted((Fraction(0),) * n2, IntegerMatrix.identity(n2), type)

    def is_translation(self):
        return self.rotation == IntegerMatrix.identity(2 * self.type.n)

    def __eq__(self, other):
        return (
            isinstance(other, AffineSymplectomorphism)
            and self.type == other.type
            and self.translation == other.translation
            and self.rotation == other.rotation
        )

    def __hash__(self):
        return hash((self.translation, self.rotation, self.type))

    def __repr__(self):
        return (
            f"AffineSymplectomorphism(a={[str(c) for c in self.translation]}, "
            f"gamma={self.rotation.to_lists()!r}, t={list(self.type.entries)})"
        )


def _init(x, translation, rotation, type):
    object.__setattr__(x, "translation", translation)
    object.__setattr__(x, "rotation", rotation)
    object.__setattr__(x, "type", type)


def _check_types(x, y):
    if x.type != y.type:
        raise TypeMismatch(
            f"type mismatch: {list(x.type.entries)} vs {list(y.type.entries)}"
        )


def aff_compose(
    x: AffineSymplectomorphism, y: AffineSymplectomorphism
) -> AffineSymplectomorphism:
    """Product (a_x + gamma_x a_y, gamma_x gamma_y), reduced mod the lattice."""
    _check_types(x, y)
    moved = x.rotation.apply(y.translation)
    translation = tuple(a + b for a, b in zip(x.translation, moved))
    return AffineSymplectomorphism._trusted(
        translation, x.rotation * y.rotation, x.type
    )


def aff_inverse(x: AffineSymplectomorphism) -> AffineSymplectomorphism:
    """Inverse (-gamma^{-1} a, gamma^{-1}) via the closed-form symplectic inverse."""
    inv = symplectic_inverse(x.rotation, x.type)
    translation = tuple(-c for c in inv.apply(x.translation))
    return AffineSymplectomorphism._trusted(translation, inv, x.type)


def aff_act(x: AffineSymplectomorphism, p: TorusPoint) -> TorusPoint:
    """Affine action p -> gamma p + a on the symplectic torus."""
    if x.type != p.type:
        raise TypeMismatch(
            f"type mismatch: {list(x.type.entries)} vs {list(p.type.entries)}"
        )
    moved = x.rotation.apply(p.coords)
    return TorusPoint(
        tuple(a + b for a, b in zip(moved, x.translation)), x.type
    )


def apply_to_lift(x: AffineSymplectomorphism, coords):
    """Action gamma v + a on an unreduced rational lift of a torus point.

    Difference vectors of lifts transform by gamma alone, which is the
    exact content of the pairing-preservation property of the action.
    """
    moved = x.rotation.apply(tuple(Fraction(c) for c in coords))
    return tuple(a + b for a, b in zip(moved, x.translation))


def lattice_rep(x: AffineSymplectomorphism) -> IntegerMatrix:
    """The representation on Z^{2n}: translations act trivially."""
    return x.rotation
