"""Arbitrary-precision integer and rational linear algebra.

Everything in this module is exact: integer matrices hold Python ints
(no overflow by construction), rational routines work on ``Fraction``
entries, and the normal-form routines below are the oracles the rest of
the package is validated against.

Smith normal form follows a fixed pivot rule (smallest absolute value,
scanning rows then columns; Cohen, GTM 138, 2.4.4) so its output is
deterministic for a given input. The scan stops at the first unit, the
entry a full scan would pick, and a unit pivot skips the divisibility
check of the rest, since it divides every entry. One private
elimination serves both callers and updates only the transforms the
caller reads: ``kernel_lattice`` tracks V alone, and
``smith_normal_form`` both U and V. An SNF is used only
where invariant factors or a kernel basis are the answer; inverses and
coordinates come from ``left_inverse``, the one fraction-free
Gauss-Jordan elimination.

Validation contract: an ``IntegerMatrix`` is validated once, when it is
built by its public constructor (rectangular, nonempty, every entry an
``Integral``). Closed operations (``+``, ``-``, negation, products with
matrices and ints, transpose) and the Smith normal form outputs compute
int entries from already validated ints, so they build their results
through the private trusted constructor ``IntegerMatrix._trusted`` and
skip the per-entry checks. A value once built never changes: every
value type of the package derives from ``Frozen``, so assigning or
deleting an attribute raises ``AttributeError``.
"""

import contextlib
import sys
from fractions import Fraction
from math import lcm
from numbers import Integral
from operator import mul


@contextlib.contextmanager
def whole_integers():
    """Lift the int/str digit limit while computed integers are written.

    The limit guards reading, where a long decimal string costs
    quadratic time to convert; it is restored on exit. An int the
    program computed is converted once, on output or into an error
    message. Interpreters without the limit need nothing lifted.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class Frozen:
    """Base of the value types: no attribute is set or deleted once built.

    Constructors and trusted builders write their slots with
    ``object.__setattr__``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class IntegerMatrix(Frozen):
    """Immutable dense matrix over Z, entries stored row-major."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, entries):
        # Materialise the rows once: ``entries`` (or a row) may be a
        # generator, which a second pass would find empty.
        rows = [tuple(row) for row in entries]
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        if width == 0:
            raise ValueError("matrix needs at least one column")
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        for row in rows:
            for x in row:
                if type(x) is not int and not isinstance(x, Integral):
                    raise ValueError(f"non-integer entry {x!r}")
        _init(self, tuple(tuple(int(x) for x in r) for r in rows))

    @classmethod
    def _trusted(cls, entries):
        """Wrap a nonempty rectangular tuple of int tuples without checks.

        Only for entries computed from validated matrices and ints.
        """
        m = object.__new__(cls)
        _init(m, entries)
        return m

    @classmethod
    def identity(cls, n):
        if n < 1:
            raise ValueError("matrix needs at least one row")
        return cls._trusted(tuple(_identity_rows(n)))

    @classmethod
    def zeros(cls, rows, cols):
        if rows < 1 or cols < 1:
            raise ValueError("matrix needs at least one row and column")
        return cls._trusted(((0,) * cols,) * rows)

    def __getitem__(self, ij):
        i, j = ij
        return self._entries[i][j]

    def row(self, i):
        return self._entries[i]

    def column_vector(self, j):
        return tuple(r[j] for r in self._entries)

    def to_lists(self):
        return [list(r) for r in self._entries]

    def __eq__(self, other):
        return (
            isinstance(other, IntegerMatrix)
            and self._entries == other._entries
        )

    def __hash__(self):
        return hash(self._entries)

    def __repr__(self):
        return f"IntegerMatrix({self.to_lists()!r})"

    def __add__(self, other):
        self._check_same_shape(other)
        return IntegerMatrix._trusted(
            tuple(
                tuple([a + b for a, b in zip(ra, rb)])
                for ra, rb in zip(self._entries, other._entries)
            )
        )

    def __sub__(self, other):
        self._check_same_shape(other)
        return IntegerMatrix._trusted(
            tuple(
                tuple([a - b for a, b in zip(ra, rb)])
                for ra, rb in zip(self._entries, other._entries)
            )
        )

    def __neg__(self):
        return IntegerMatrix._trusted(
            tuple(tuple([-a for a in r]) for r in self._entries)
        )

    def __mul__(self, other):
        if isinstance(other, Integral):
            other = int(other)
            return IntegerMatrix._trusted(
                tuple(tuple([a * other for a in r]) for r in self._entries)
            )
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise _dim(f"cannot multiply {self.shape()} by {other.shape()}")
        bt = tuple(zip(*other._entries))
        return IntegerMatrix._trusted(
            tuple(tuple([_dot(r, c) for c in bt]) for r in self._entries)
        )

    __rmul__ = __mul__

    def shape(self):
        return (self.rows, self.cols)

    def transpose(self):
        return IntegerMatrix._trusted(tuple(zip(*self._entries)))

    def apply(self, vec):
        """Matrix times column vector of ints or Fractions."""
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise _dim("vector length does not match column count")
        if all(type(x) is Fraction for x in vec):
            # Over a common denominator: integer dot products and one
            # Fraction per output entry instead of one per term.
            den = lcm(*(x.denominator for x in vec))
            nums = [x.numerator * (den // x.denominator) for x in vec]
            return tuple(Fraction(_dot(row, nums), den) for row in self._entries)
        return tuple(_dot(row, vec) for row in self._entries)

    def is_square(self):
        return self.rows == self.cols

    def is_zero(self):
        return not any(map(any, self._entries))

    def max_abs(self):
        return max(abs(a) for r in self._entries for a in r)

    def _check_same_shape(self, other):
        if self.shape() != other.shape():
            raise _dim(f"shape mismatch {self.shape()} vs {other.shape()}")


class SnfDecomposition(Frozen):
    """Smith normal form U*A*V = S, with U and V unimodular and S diagonal.

    The diagonal entries are nonnegative and form a divisibility chain
    d_1 | d_2 | ... (zeros trailing).
    """

    __slots__ = ("U", "S", "V")

    def __init__(self, U, S, V):
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "V", V)

    def diagonal(self):
        return tuple(
            self.S[i, i] for i in range(min(self.S.rows, self.S.cols))
        )

    def rank(self):
        return sum(1 for d in self.diagonal() if d != 0)

    def invariant_factors(self):
        """Nonzero diagonal entries, the invariant factors of coker(A)."""
        return tuple(d for d in self.diagonal() if d != 0)


def _init(m, entries):
    object.__setattr__(m, "rows", len(entries))
    object.__setattr__(m, "cols", len(entries[0]))
    object.__setattr__(m, "_entries", entries)


def _dot(r, c):
    return sum(map(mul, r, c))


def _dim(msg):
    from .errors import DimensionMismatch

    return DimensionMismatch(msg)


def smith_normal_form(a: IntegerMatrix) -> SnfDecomposition:
    """Smith normal form of any integer matrix.

    Pivot selection scans the working submatrix in row-then-column order
    and takes the first entry of smallest nonzero absolute value, which
    bounds entry growth and makes the output deterministic.
    """
    _, S, U, Vc = _smith(a, left=True)
    return SnfDecomposition(
        IntegerMatrix._trusted(tuple(map(tuple, U))),
        IntegerMatrix._trusted(tuple(map(tuple, S))),
        IntegerMatrix._trusted(tuple(zip(*Vc))),
    )


def kernel_lattice(a: IntegerMatrix) -> list:
    """Z-basis of the right kernel {x : A x = 0}, as a list of columns.

    The basis is the set of columns of the SNF transform V that A sends
    to zero, the columns past the rank; since V is unimodular the kernel
    basis is saturated. Only V is tracked. Returns an empty list when
    the kernel is trivial.
    """
    r, _, _, Vc = _smith(a, left=False)
    return [tuple(v) for v in Vc[r:]]


def _identity_rows(n):
    zeros = (0,) * n
    return [zeros[:i] + (1,) + zeros[i + 1:] for i in range(n)]


def _smith(a, *, left):
    """The Smith elimination of ``a``: (rank, S, U, V columns).

    S and U are lists of rows; V is kept as the list of its columns, so
    that every column operation on V replaces a whole row. V is always
    tracked; ``left`` tracks U, which is None otherwise.

    Pivot rule: the first entry of smallest nonzero absolute value,
    scanning the working submatrix rows then columns. No entry is
    smaller than a unit, so the scan ends at the first entry of absolute
    value 1. Once the pivot's row and column are cleared, the rest of
    the submatrix is scanned for an entry the pivot does not divide;
    a unit pivot divides them all and skips that scan. The pivots depend
    on A alone, so S and V are the same whether or not U is tracked.
    """
    m, n = a.rows, a.cols
    A = [list(r) for r in a._entries]
    U = _identity_rows(m) if left else None
    Vc = _identity_rows(n)

    def row_op(i, j, q):
        # row_i -= q * row_j
        A[i] = [x - q * y for x, y in zip(A[i], A[j])]
        if left:
            U[i] = [x - q * y for x, y in zip(U[i], U[j])]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        if left:
            U[i], U[j] = U[j], U[i]

    def col_op(i, j, q):
        # col_i -= q * col_j
        for row in A:
            row[i] -= q * row[j]
        Vc[i] = [x - q * y for x, y in zip(Vc[i], Vc[j])]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        Vc[i], Vc[j] = Vc[j], Vc[i]

    def find_pivot(d):
        best = None
        for i in range(d, m):
            rest = A[i][d:]
            if not any(rest):
                continue
            for j, x in enumerate(rest, d):
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
                    if best[0] == 1:
                        # Nothing is smaller: the first unit is the first
                        # smallest entry, the pivot a full scan would take.
                        return best
        return best

    d = 0
    while d < min(m, n):
        best = find_pivot(d)
        if best is None:
            break
        _, pi, pj = best
        if pi != d:
            swap_rows(d, pi)
        if pj != d:
            swap_cols(d, pj)
        while True:
            # Clear column d below the pivot.
            dirty = False
            for i in range(d + 1, m):
                if A[i][d] != 0:
                    q = A[i][d] // A[d][d]
                    row_op(i, d, q)
                    if A[i][d] != 0:
                        swap_rows(d, i)
                        dirty = True
            if dirty:
                continue
            # Clear row d right of the pivot.
            for j in range(d + 1, n):
                if A[d][j] != 0:
                    q = A[d][j] // A[d][d]
                    col_op(j, d, q)
                    if A[d][j] != 0:
                        swap_cols(d, j)
                        dirty = True
            if dirty:
                continue
            # Enforce divisibility of the remaining submatrix. A unit
            # pivot divides every entry, so it needs no scan.
            p = A[d][d]
            if p in (1, -1):
                break
            offender = None
            for i in range(d + 1, m):
                for j in range(d + 1, n):
                    if A[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # Pull the offending row into row d and reduce again.
            A[d] = [x + y for x, y in zip(A[d], A[offender])]
            if left:
                U[d] = [x + y for x, y in zip(U[d], U[offender])]
        d += 1

    for i in range(min(m, n)):
        if A[i][i] < 0:
            A[i] = [-x for x in A[i]]
            if left:
                U[i] = [-x for x in U[i]]
    return d, A, U, Vc


def determinant(a: IntegerMatrix) -> int:
    """Signed determinant via fraction-free Bareiss elimination."""
    if not a.is_square():
        raise _dim("determinant needs a square matrix")
    n = a.rows
    M = a.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def left_inverse(vecs):
    """(D, N) with N = D (B^T B)^-1 B^T for B with columns ``vecs``, or None.

    N v / D are the coordinates of any v in the column span of B.
    Fraction-free Gauss-Jordan elimination (Bareiss 1968) turns
    [G | B^T], G = B^T B, into [D I | N] with D = det G. Pivot k is the
    leading principal minor of order k + 1 of G: zero exactly at the
    first dependent column (the result is then None), so no row swap is
    needed and every division is exact.
    """
    r = len(vecs)
    rows = [[_dot(u, v) for v in vecs] + list(u) for u in vecs]
    prev = 1
    for k, pivot_row in enumerate(rows):
        pivot = pivot_row[k]
        if pivot == 0:
            return None
        for i in range(r):
            if i != k:
                f = rows[i][k]
                rows[i] = [(pivot * a - f * b) // prev for a, b in zip(rows[i], pivot_row)]
        prev = pivot
    return prev, tuple(tuple(row[r:]) for row in rows)


def inverse_unimodular(a: IntegerMatrix) -> IntegerMatrix:
    """Exact inverse of a unimodular integer matrix (inverse is integral).

    For square A, ``left_inverse`` gives D = det(A)^2 and N = D A^-1.
    """
    from .errors import NotUnimodular

    inv = left_inverse(a.transpose()._entries) if a.is_square() else None
    if inv is None or inv[0] != 1:
        raise NotUnimodular("matrix is not invertible over Z")
    return IntegerMatrix._trusted(inv[1])


def rational_rref(entries):
    """Reduced row echelon form over Q.

    Takes a list of row lists (any Fraction-convertible entries) and
    returns (rref_rows, pivot_columns). It solves the systems of
    ``rational_solve_many``.
    """
    A = [[Fraction(x) for x in row] for row in entries]
    if not A:
        return [], []
    m, n = len(A), len(A[0])
    piv_cols = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pivot = None
        for i in range(r, m):
            if A[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        inv = 1 / A[r][c]
        A[r] = [x * inv for x in A[r]]
        for i in range(m):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        piv_cols.append(c)
        r += 1
    return A, piv_cols


def rational_solve_many(entries, rhs_list):
    """Exact solutions of A x = b for several right hand sides at once.

    One reduced row echelon pass over the block [A | b_1 ... b_k];
    returns a list with None for inconsistent systems and the particular
    solution with free variables zero otherwise.
    """
    A = [[Fraction(x) for x in row] for row in entries]
    m = len(A)
    n = len(A[0]) if A else 0
    bs = [[Fraction(x) for x in rhs] for rhs in rhs_list]
    for b in bs:
        if len(b) != m:
            raise _dim("right hand side length does not match row count")
    aug = [A[i] + [b[i] for b in bs] for i in range(m)]
    R, piv = rational_rref(aug)
    piv = [c for c in piv if c < n]
    solutions = []
    for idx in range(len(bs)):
        col = n + idx
        consistent = True
        for i, row in enumerate(R):
            if all(x == 0 for x in row[:n]) and row[col] != 0:
                consistent = False
                break
        if not consistent:
            solutions.append(None)
            continue
        x = [Fraction(0)] * n
        for row_idx, c in enumerate(piv):
            x[c] = R[row_idx][col]
        solutions.append(tuple(x))
    return solutions
