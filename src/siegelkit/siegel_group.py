"""Exact arithmetic in the affine Siegel group U(1)^{2n} x| Sp_t(2n, Z).

Group elements are pairs (a, gamma) with gamma an integer matrix
preserving the standard lattice of type t and a an exact rational torus
translation. Torus coordinates are taken in the lattice basis of the
standard symplectic lattice, so reduction modulo the lattice is
componentwise reduction modulo 1. The multiplication rule is

    (a1, gamma1) (a2, gamma2) = (a1 + gamma1 a2, gamma1 gamma2).

An element stores its translation as integer numerators over one
positive denominator, a = num / den, in canonical form: 0 <= num_i < den
and gcd(den, num_1, ..., num_2n) = 1. Each point of the torus has
exactly one such form, so equal elements have equal fields, and the
group law is integer arithmetic: over den = lcm(den_1, den_2) a product
is one integer matrix-vector product, a sum and a reduction mod den,
with one gcd to make the result canonical. The ``translation`` property
gives the reduced ``Fraction`` coordinates.

The public constructor tests the rotation for membership in
Sp_t(2n, Z). Products and inverses of members are members, so the group
law builds its results without repeating that test.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatch, NotSymplectic, TypeMismatch
from .exact_linalg import Frozen, IntegerMatrix
from .symplectic_lattices import LatticeType, sp_type_membership, symplectic_inverse


def reduce_mod_lattice(coords):
    """Reduce rational lattice-basis coordinates into the box [0, 1)^{2n}."""
    return tuple(Fraction(x) % 1 for x in coords)


class TorusPoint(Frozen):
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


class AffineSymplectomorphism(Frozen):
    """An element (a, gamma) of the affine Siegel group of type t."""

    __slots__ = ("_num", "_den", "rotation", "type")

    def __init__(self, translation, rotation: IntegerMatrix, type: LatticeType):
        translation = reduce_mod_lattice(translation)
        if len(translation) != 2 * type.n:
            raise DimensionMismatch(
                f"expected {2 * type.n} translation coordinates, got {len(translation)}"
            )
        if not sp_type_membership(rotation, type):
            raise NotSymplectic("rotation part is not in the Siegel modular group")
        # Over the lcm of reduced denominators the form is canonical:
        # a coordinate with the full power of a prime p in its
        # denominator has a numerator prime to p.
        den = lcm(*(c.denominator for c in translation))
        num = tuple(c.numerator * (den // c.denominator) for c in translation)
        _init(self, num, den, rotation, type)

    @classmethod
    def _trusted(cls, num, den, rotation: IntegerMatrix, type: LatticeType):
        """Build the element with translation num / den, den > 0, without retests.

        Only for a rotation known to lie in Sp_t(2n, Z) and 2n integer
        numerators. They are reduced mod den, and numerators and den
        divided by their gcd, which gives the canonical form.
        """
        num = [a % den for a in num]
        g = gcd(den, *num)
        if g != 1:
            num = [a // g for a in num]
            den //= g
        x = object.__new__(cls)
        _init(x, tuple(num), den, rotation, type)
        return x

    @classmethod
    def identity(cls, type: LatticeType):
        n2 = 2 * type.n
        return cls._trusted((0,) * n2, 1, IntegerMatrix.identity(n2), type)

    @property
    def translation(self):
        """The translation as reduced ``Fraction`` coordinates in [0, 1)."""
        den = self._den
        return tuple(Fraction(a, den) for a in self._num)

    def __eq__(self, other):
        return (
            isinstance(other, AffineSymplectomorphism)
            and self.type == other.type
            and self._den == other._den
            and self._num == other._num
            and self.rotation == other.rotation
        )

    def __hash__(self):
        return hash((self._num, self._den, self.rotation, self.type))

    def __repr__(self):
        return (
            f"AffineSymplectomorphism(a={[str(c) for c in self.translation]}, "
            f"gamma={self.rotation.to_lists()!r}, t={list(self.type.entries)})"
        )


def _init(x, num, den, rotation, type):
    object.__setattr__(x, "_num", num)
    object.__setattr__(x, "_den", den)
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
    dx, dy = x._den, y._den
    den = lcm(dx, dy)
    sx, sy = den // dx, den // dy
    moved = x.rotation.apply(y._num)
    num = [a * sx + b * sy for a, b in zip(x._num, moved)]
    return AffineSymplectomorphism._trusted(
        num, den, x.rotation * y.rotation, x.type
    )


def aff_inverse(x: AffineSymplectomorphism) -> AffineSymplectomorphism:
    """Inverse (-gamma^{-1} a, gamma^{-1}) via the closed-form symplectic inverse."""
    inv = symplectic_inverse(x.rotation, x.type)
    num = [-c for c in inv.apply(x._num)]
    return AffineSymplectomorphism._trusted(num, x._den, inv, x.type)


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


def lattice_rep(x: AffineSymplectomorphism) -> IntegerMatrix:
    """The representation on Z^{2n}: translations act trivially."""
    return x.rotation
