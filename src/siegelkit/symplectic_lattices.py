"""Integral symplectic lattices, their type invariant and Frobenius bases.

A full symplectic lattice is presented in a Z-basis of itself, so its
Gram matrix is an integer antisymmetric nondegenerate matrix and
"preserves the lattice" means "integer unimodular matrix". The type
(t_1 | t_2 | ... | t_n) classifies such lattices up to symplectomorphism;
it is computed by an exact symplectic analogue of Smith reduction and
cross-checked against the SNF oracle in the test suite.

Membership in Sp_t(2n, Z) and inverses of its elements are evaluated in
closed form from the diagonal of t, without building Omega_t or taking
determinants.
"""

from .errors import (
    DegenerateForm,
    DimensionMismatch,
    NotAntisymmetric,
    NotSymplectic,
)
from .exact_linalg import Frozen, IntegerMatrix, determinant, inverse_unimodular


class LatticeType(Frozen):
    """A divisor chain (t_1, ..., t_n) with t_i > 0 and t_i | t_{i+1}."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(int(t) for t in entries)
        if not entries:
            raise ValueError("type must have at least one entry")
        if any(t <= 0 for t in entries):
            raise ValueError(f"type entries must be positive: {entries}")
        for a, b in zip(entries, entries[1:]):
            if b % a != 0:
                raise ValueError(f"divisibility chain broken: {a} does not divide {b}")
        object.__setattr__(self, "entries", entries)

    @property
    def n(self):
        return len(self.entries)

    @classmethod
    def principal(cls, n):
        return cls((1,) * n)

    def __eq__(self, other):
        return isinstance(other, LatticeType) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"LatticeType({list(self.entries)})"


def standard_gram(t: LatticeType) -> IntegerMatrix:
    """Gram matrix [[0, T], [-T, 0]] with T = diag(t_1, ..., t_n)."""
    n = t.n
    g = [[0] * (2 * n) for _ in range(2 * n)]
    for i, ti in enumerate(t.entries):
        g[i][n + i] = ti
        g[n + i][i] = -ti
    return IntegerMatrix._trusted(tuple(map(tuple, g)))


def omega_type(omega: IntegerMatrix) -> LatticeType:
    """The divisor chain t with omega = Omega_t.

    Raises DimensionMismatch unless omega is square of even size, and
    NotSymplectic unless it is standard_gram(t) for a divisor chain t.
    """
    if not omega.is_square() or omega.rows % 2 != 0:
        raise DimensionMismatch(
            f"omega must be square of even size, got {omega.shape()}"
        )
    n = omega.rows // 2
    try:
        t = LatticeType(omega[i, n + i] for i in range(n))
    except ValueError:
        t = None
    if t is None or standard_gram(t) != omega:
        raise NotSymplectic("omega is not Omega_t for a divisor chain t")
    return t


class IntegralSymplecticSpace(Frozen):
    """A lattice together with the Gram matrix of its symplectic pairing."""

    __slots__ = ("n", "gram")

    def __init__(self, gram: IntegerMatrix):
        if not gram.is_square() or gram.rows % 2 != 0:
            raise DimensionMismatch("Gram matrix must be square of even size")
        if gram.transpose() != -gram:
            raise NotAntisymmetric("Gram matrix is not antisymmetric")
        if determinant(gram) == 0:
            raise DegenerateForm("symplectic Gram matrix is degenerate")
        object.__setattr__(self, "n", gram.rows // 2)
        object.__setattr__(self, "gram", gram)

    def __eq__(self, other):
        return (
            isinstance(other, IntegralSymplecticSpace) and self.gram == other.gram
        )

    def __repr__(self):
        return f"IntegralSymplecticSpace(gram={self.gram.to_lists()!r})"


class FrobeniusBasis(Frozen):
    """A unimodular change of basis P with P^T G P = [[0, T], [-T, 0]]."""

    __slots__ = ("change_of_basis", "type")

    def __init__(self, change_of_basis: IntegerMatrix, type: LatticeType):
        object.__setattr__(self, "change_of_basis", change_of_basis)
        object.__setattr__(self, "type", type)


def frobenius_basis(space: IntegralSymplecticSpace) -> FrobeniusBasis:
    """Frobenius basis (lambda_1..lambda_n, mu_1..mu_n) of a symplectic lattice.

    Iterative gcd reduction: pick the entry pair of minimal positive
    pairing (lowest indices break ties), Euclid-reduce every pairing it
    meets, split off the hyperbolic pair, recurse on the complement.
    Strict gcd decrease guarantees termination and the divisibility
    chain of the resulting type.
    """
    G = space.gram.to_lists()
    m = 2 * space.n
    P = IntegerMatrix.identity(m).to_lists()

    def col_add(dst, src, c):
        # basis op e_dst += c * e_src, conjugating G and accumulating P
        for r in range(m):
            P[r][dst] += c * P[r][src]
        for r in range(m):
            G[r][dst] += c * G[r][src]
        for r in range(m):
            G[dst][r] += c * G[src][r]

    def col_swap(i, j):
        for r in range(m):
            P[r][i], P[r][j] = P[r][j], P[r][i]
        for r in range(m):
            G[r][i], G[r][j] = G[r][j], G[r][i]
        G[i], G[j] = G[j], G[i]

    def col_negate(i):
        for r in range(m):
            P[r][i] = -P[r][i]
        for r in range(m):
            G[r][i] = -G[r][i]
        G[i] = [-x for x in G[i]]

    pair_values = []
    for stage in range(space.n):
        lo = 2 * stage
        while True:
            # Minimal positive pairing in the active block, lowest (i, j) first.
            best = None
            for i in range(lo, m):
                for j in range(i + 1, m):
                    v = abs(G[i][j])
                    if v != 0 and (best is None or v < best[0]):
                        best = (v, i, j)
            if best is None:
                raise DegenerateForm("active block vanished before reduction finished")
            _, bi, bj = best
            if bi != lo:
                col_swap(lo, bi)  # bj > bi >= lo, so bj is untouched
            if bj != lo + 1:
                col_swap(lo + 1, bj)
            if G[lo][lo + 1] < 0:
                col_negate(lo + 1)
            d = G[lo][lo + 1]
            # Reduce all pairings with the pivot pair into [0, d).
            for k in range(lo, m):
                if k in (lo, lo + 1):
                    continue
                if G[lo][k] != 0:
                    col_add(k, lo + 1, -(G[lo][k] // d))
                if G[lo + 1][k] != 0:
                    col_add(k, lo, G[lo + 1][k] // d)
            if any(
                G[lo][k] != 0 or G[lo + 1][k] != 0
                for k in range(lo + 2, m)
            ):
                continue  # a smaller pairing appeared; re-select the pivot
            # Pivot must divide the orthogonal complement for the chain.
            offender = None
            for i in range(lo + 2, m):
                for j in range(i + 1, m):
                    if G[i][j] % d != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                pair_values.append(d)
                break
            col_add(lo, offender, 1)
        # loop invariant here: columns [0, 2*stage+2) are finished
    # Reorder (l1, m1, l2, m2, ...) into (l1, ..., ln, m1, ..., mn).
    perm = [2 * i for i in range(space.n)] + [2 * i + 1 for i in range(space.n)]
    reordered = IntegerMatrix._trusted(
        tuple(tuple(row[perm[c]] for c in range(m)) for row in P)
    )
    return FrobeniusBasis(reordered, LatticeType(pair_values))


def type_of(space: IntegralSymplecticSpace) -> LatticeType:
    """The type invariant of a symplectic lattice."""
    return frobenius_basis(space).type


def _check_size(gamma: IntegerMatrix, t: LatticeType):
    if not gamma.is_square() or gamma.rows != 2 * t.n:
        raise DimensionMismatch(
            f"expected a {2 * t.n}x{2 * t.n} matrix, got {gamma.shape()}"
        )


def sp_type_membership(gamma: IntegerMatrix, t: LatticeType) -> bool:
    """Whether gamma preserves the standard lattice of type t and its pairing.

    In Frobenius coordinates this is: integer unimodular and
    gamma^T Omega_t gamma = Omega_t. The pairing test alone decides it:
    taking determinants gives det(gamma)^2 det(Omega_t) = det(Omega_t),
    and det(Omega_t) = (t_1 ... t_n)^2 is nonzero, so det(gamma) = +-1
    and an integer gamma is unimodular.

    The pairing omega(c_i, c_j) = sum_k t_k (g_ki g_(n+k)j - g_(n+k)i g_kj)
    of every column pair is read straight from the top and bottom halves
    of the rows of gamma, with no transpose, and compared with Omega_t
    on the upper triangle only (both sides are antisymmetric), stopping
    at the first mismatch.
    """
    _check_size(gamma, t)
    n = t.n
    ts = t.entries
    rows = gamma._entries
    halves = tuple(zip(ts, rows[:n], rows[n:]))
    for i in range(2 * n):
        for j in range(i + 1, 2 * n):
            pairing = 0
            for tk, a, b in halves:
                pairing += tk * (a[i] * b[j] - b[i] * a[j])
            if pairing != (ts[i] if j == i + n else 0):
                return False
    return True


def symplectic_inverse(gamma: IntegerMatrix, t: LatticeType) -> IntegerMatrix:
    """Inverse Omega_t^{-1} gamma^T Omega_t of an element of Sp_t(2n, Z).

    Precondition: ``sp_type_membership(gamma, t)``. It is not retested;
    on other matrices the result is meaningless. From
    gamma^T Omega_t gamma = Omega_t, with gamma = [[A, B], [C, D]] in
    n x n blocks and T = diag(t),

        gamma^{-1} = [[T^-1 D^T T, -T^-1 B^T T], [-T^-1 C^T T, T^-1 A^T T]],

    so entry (i, j) is +-gamma[j', i'] * s_j / s_i, where ' swaps the
    two halves, s = (t, t), and the sign is minus across halves. The
    division is exact because the inverse of a unimodular matrix is
    integral.
    """
    _check_size(gamma, t)
    n = t.n
    m = 2 * n
    s = t.entries * 2
    rows = [gamma.row(i) for i in range(m)]
    swap = [(i + n) % m for i in range(m)]
    return IntegerMatrix._trusted(
        tuple(
            tuple(
                (1 if (i < n) == (j < n) else -1)
                * (rows[swap[j]][swap[i]] * s[j] // s[i])
                for j in range(m)
            )
            for i in range(m)
        )
    )


def lattice_isomorphism(a: IntegralSymplecticSpace, b: IntegralSymplecticSpace):
    """Unimodular P with P^T gram_a P = gram_b, or None if the types differ.

    Built as the composition of the two Frobenius changes of basis.
    """
    if a.n != b.n:
        raise DimensionMismatch("spaces have different rank")
    fa = frobenius_basis(a)
    fb = frobenius_basis(b)
    if fa.type != fb.type:
        return None
    return fa.change_of_basis * inverse_unimodular(fb.change_of_basis)
