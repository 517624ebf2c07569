"""Arbitrary-precision integer and rational linear algebra.

Everything in this module is exact: integer matrices hold Python ints
(no overflow by construction), rational matrices hold ``Fraction``
entries, and the normal-form routines below are the oracles the rest of
the package is validated against.

Smith normal form follows a fixed pivot rule (smallest absolute value,
scanning rows then columns) so its output is deterministic for a given
input.

Validation contract: an ``IntegerMatrix`` is validated once, when it is
built by its public constructor (rectangular, nonempty, every entry an
``Integral``). Closed operations (``+``, ``-``, negation, products with
matrices and ints, transpose, Kronecker products) and the Smith normal
form outputs compute int entries from already validated ints, so they
build their results through the private trusted constructor
``IntegerMatrix._trusted`` and skip the per-entry checks.
"""

from fractions import Fraction
from math import lcm
from numbers import Integral
from operator import mul


class IntegerMatrix:
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

    def __setattr__(self, name, value):
        raise AttributeError("IntegerMatrix is immutable")

    @classmethod
    def identity(cls, n):
        if n < 1:
            raise ValueError("matrix needs at least one row")
        return cls._trusted(
            tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        )

    @classmethod
    def zeros(cls, rows, cols):
        if rows < 1 or cols < 1:
            raise ValueError("matrix needs at least one row and column")
        return cls._trusted(((0,) * cols,) * rows)

    @classmethod
    def diagonal(cls, diag):
        diag = list(diag)
        n = len(diag)
        return cls([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def column(cls, vec):
        return cls([[x] for x in vec])

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
        return tuple(sum(a * x for a, x in zip(row, vec)) for row in self._entries)

    def is_square(self):
        return self.rows == self.cols

    def is_zero(self):
        return all(a == 0 for r in self._entries for a in r)

    def max_abs(self):
        return max(abs(a) for r in self._entries for a in r)

    def kronecker(self, other):
        """Kronecker product, used to assemble Sylvester-type systems."""
        return IntegerMatrix._trusted(
            tuple(
                tuple([a * b for a in ra for b in rb])
                for ra in self._entries
                for rb in other._entries
            )
        )

    def _check_same_shape(self, other):
        if self.shape() != other.shape():
            raise _dim(f"shape mismatch {self.shape()} vs {other.shape()}")


class RationalMatrix:
    """Immutable dense matrix over Q; entries are ``Fraction`` (lowest terms)."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, entries):
        rows = [tuple(Fraction(x) for x in row) for row in entries]
        if not rows or len(rows[0]) == 0:
            raise ValueError("matrix must be nonempty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_entries", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def from_integer(cls, m):
        return cls(m.to_lists())

    def __getitem__(self, ij):
        i, j = ij
        return self._entries[i][j]

    def to_lists(self):
        return [list(r) for r in self._entries]

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self._entries == other._entries
        )

    def __hash__(self):
        return hash(self._entries)

    def __repr__(self):
        return f"RationalMatrix({self.to_lists()!r})"

    def __mul__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise _dim(f"cannot multiply {self.shape()} by {other.shape()}")
        bt = list(zip(*other._entries))
        return RationalMatrix([[_dot(r, c) for c in bt] for r in self._entries])

    def shape(self):
        return (self.rows, self.cols)

    def transpose(self):
        return RationalMatrix([list(c) for c in zip(*self._entries)])

    def apply(self, vec):
        vec = tuple(Fraction(x) for x in vec)
        if len(vec) != self.cols:
            raise _dim("vector length does not match column count")
        return tuple(sum(a * x for a, x in zip(row, vec)) for row in self._entries)


class SnfDecomposition:
    """Smith normal form U*A*V = S, with U and V unimodular and S diagonal.

    The diagonal entries are nonnegative and form a divisibility chain
    d_1 | d_2 | ... (zeros trailing).
    """

    __slots__ = ("U", "S", "V")

    def __init__(self, U, S, V):
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "V", V)

    def __setattr__(self, name, value):
        raise AttributeError("SnfDecomposition is immutable")

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
    m, n = a.rows, a.cols
    A = a.to_lists()
    U = IntegerMatrix.identity(m).to_lists()
    V = IntegerMatrix.identity(n).to_lists()

    def row_op(i, j, q):
        # row_i -= q * row_j
        A[i] = [x - q * y for x, y in zip(A[i], A[j])]
        U[i] = [x - q * y for x, y in zip(U[i], U[j])]

    def col_op(i, j, q):
        # col_i -= q * col_j
        for r in range(m):
            A[r][i] -= q * A[r][j]
        for r in range(n):
            V[r][i] -= q * V[r][j]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in range(m):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(n):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    def find_pivot(d):
        best = None
        for i in range(d, m):
            for j in range(d, n):
                v = abs(A[i][j])
                if v != 0 and (best is None or v < best[0]):
                    best = (v, i, j)
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
            # Enforce divisibility of the remaining submatrix.
            offender = None
            p = A[d][d]
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
            U[d] = [x + y for x, y in zip(U[d], U[offender])]
        d += 1

    for i in range(min(m, n)):
        if A[i][i] < 0:
            A[i] = [-x for x in A[i]]
            U[i] = [-x for x in U[i]]

    return SnfDecomposition(
        *(IntegerMatrix._trusted(tuple(map(tuple, X))) for X in (U, A, V))
    )


def kernel_lattice(a: IntegerMatrix) -> list:
    """Z-basis of the right kernel {x : A x = 0}, as a list of columns.

    The basis is the set of columns of the SNF transform V that A sends
    to zero; since V is unimodular the kernel basis is saturated.
    Returns an empty list when the kernel is trivial.
    """
    snf = smith_normal_form(a)
    r = snf.rank()
    return [snf.V.column_vector(j) for j in range(r, a.cols)]


def rank(a: IntegerMatrix) -> int:
    return smith_normal_form(a).rank()


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


def is_unimodular(a: IntegerMatrix) -> bool:
    return a.is_square() and abs(determinant(a)) == 1


def inverse_unimodular(a: IntegerMatrix) -> IntegerMatrix:
    """Exact inverse of a unimodular integer matrix (inverse is integral)."""
    from .errors import NotUnimodular

    snf = smith_normal_form(a)
    if not a.is_square() or snf.diagonal() != (1,) * a.rows:
        raise NotUnimodular("matrix is not invertible over Z")
    # U A V = I  =>  A^{-1} = V U.
    return snf.V * snf.U


def rational_rref(entries):
    """Reduced row echelon form over Q.

    Takes a list of row lists (any Fraction-convertible entries) and
    returns (rref_rows, pivot_columns). Used as the exact solver behind
    cohomology-class membership tests.
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


def rational_inverse(entries):
    """Exact inverse of a square matrix over Q; raises on singular input."""
    A = [[Fraction(x) for x in row] for row in entries]
    n = len(A)
    if any(len(r) != n for r in A):
        raise _dim("inverse needs a square matrix")
    aug = [
        A[i] + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)
    ]
    R, piv = rational_rref(aug)
    if piv[:n] != list(range(n)):
        raise ValueError("matrix is singular over Q")
    return [row[n:] for row in R[:n]]


def rational_solve(entries, rhs):
    """One exact solution of A x = b over Q, or None if inconsistent.

    Free variables are set to zero.
    """
    return rational_solve_many(entries, [rhs])[0]


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
