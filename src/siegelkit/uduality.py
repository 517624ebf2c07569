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

Both enumerations prune instead of walking their whole box, and return
exactly what the box filter would, in the same order:

* centralizer_enumerate runs the coefficient box of the commutant
  lattice depth first on flat integer rows, restricting each coefficient
  to the interval that can still keep every entry within the bound. The
  last coefficient is not scanned: each column pairing is an integer
  quadratic in it, so it is solved for, and only the integer roots in
  its interval are tested for membership.
  Its budget counts the coefficient-box volume, checked up front.
* uduality_fiber_product runs a column search (_symplectic_box) once
  per isometry f. It chooses matrix columns one at a time and keeps,
  for each later column, only the candidates with the right pairing
  against the chosen ones. Its budget counts these column tests. Only
  columns with the right taming norm enter the search: with q = f(p),
  U J_p U^{-1} = J_q makes U an isometry of the taming forms,
  U^T (Omega_t J_q) U = Omega_t J_p, so column j of U has norm
  (Omega_t J_p)_jj under Omega_t J_q at every point p. Within the
  residual tolerance the norm can miss by at most t_max tol |u_j|_1^2,
  and the filter (_taming_norm_lists) admits that margin plus float64
  rounding, so it drops no element the residual test keeps.

The three searches (centralizer_enumerate, uduality_fiber_product and
its column search _symplectic_box) refuse a bound below 1 with
ValueError("bound must be at least 1") before any work: that box holds
no invertible matrix.

Each budget is used as given (default DEFAULT_BUDGET). Every count is
at least 1, so a budget below 1 refuses every search. A refused search
raises BoundTooLargeForBudget with the counts in ``details``.
"""

import itertools
import math
from fractions import Fraction
from numbers import Integral
from operator import mul

import numpy as np

from .errors import (
    BoundTooLargeForBudget,
    DimensionMismatch,
    InvalidModel,
    TypeMismatch,
)
from .exact_linalg import Frozen, IntegerMatrix, kernel_lattice, left_inverse, whole_integers
from .polarization import Taming
from .siegel_group import reduce_mod_lattice
from .symplectic_lattices import (
    LatticeType,
    omega_type,
    sp_type_membership,
    symplectic_inverse,
)

DEFAULT_BUDGET = 5_000_000


class HolonomySubgroup(Frozen):
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

    @property
    def size(self):
        return 2 * self.type.n


def _vec(m: IntegerMatrix):
    """Column-major vectorization, matching vec(AXB) = (B^T kron A) vec(X)."""
    return tuple(m[i, j] for j in range(m.cols) for i in range(m.rows))


def _unvec(v, size):
    """The matrix whose column-major vectorization is the int tuple v."""
    return IntegerMatrix._trusted(
        tuple(zip(*(v[j : j + size] for j in range(0, size * size, size))))
    )


def commutant_lattice(h: HolonomySubgroup):
    """Z-basis of {X integer : X g = g X for every generator g}.

    Solved exactly as the kernel of the stacked Sylvester maps
    X -> X g - g X on column-major vectorizations, whose matrix is
    g^T kron I - I kron g. Its row (i, k), column (j, l) entry is
    g[j][i] delta_kl - delta_ij g[k][l], and the rows of each generator
    are built from that formula, with no Kronecker product. The
    generators were validated when h was built, so the stack and the
    basis matrices are closed operations on their ints and skip the
    per-entry checks.
    """
    m = h.size
    r = range(m)
    blocks = []
    for g in h.generators:
        e = g._entries
        blocks.extend(
            tuple([(e[j][i] if k == l else 0) - (e[k][l] if i == j else 0) for j in r for l in r])
            for i in r
            for k in r
        )
    stack = (
        IntegerMatrix._trusted(tuple(blocks)) if blocks else IntegerMatrix.zeros(1, m * m)
    )
    return [_unvec(v, m) for v in kernel_lattice(stack)]


def _check_bound(bound):
    """The enumerations' one bound rule: refuse a bound below 1."""
    if bound < 1:
        raise ValueError("bound must be at least 1")


def _coefficient_box(basis, bound):
    """Per-coefficient bounds that cover every lattice point in the entry box.

    With B the matrix of vectorized basis elements (independent, so
    ``left_inverse`` exists) and N = D (B^T B)^-1 B^T, the coefficients
    of an entry vector v are c = N v / D, so limit i is
    floor(bound sum_e |N_ie| / D).
    """
    D, N = left_inverse([_vec(b) for b in basis])
    return [bound * sum(map(abs, row)) // D for row in N]


def _integer_roots(a, b, q, lo, hi):
    """The integers c in [lo, hi] with a + b c + q c^2 = 0, ascending.

    Precondition: (b, q) != (0, 0). Exact: a root of the linear case is
    -a / b when b divides a; a quadratic has integer roots only when its
    discriminant is a perfect square s^2, and then (-b +- s) / 2q when
    2q divides the numerator.
    """
    if q == 0:
        c, r = divmod(-a, b)
        return [c] if r == 0 and lo <= c <= hi else []
    disc = b * b - 4 * a * q
    if disc < 0:
        return []
    s = math.isqrt(disc)
    if s * s != disc:
        return []
    roots = []
    for num in {-b - s, -b + s}:
        c, r = divmod(num, 2 * q)
        if r == 0 and lo <= c <= hi:
            roots.append(c)
    return sorted(roots)


def _last_coefficients(partial, v, lo, hi, t: LatticeType):
    """The c in [lo, hi] for which X = P + c V can lie in Sp_t, ascending.

    P (``partial``) and V (``v``) are row-major entry lists of 2n x 2n
    matrices. Every column pairing of X against Omega_t is an integer
    quadratic in c,

        omega(X_i, X_j) - (Omega_t)_ij = a + b c + q c^2,
        a = omega(P_i, P_j) - (Omega_t)_ij,
        b = omega(P_i, V_j) + omega(V_i, P_j),  q = omega(V_i, V_j),

    with omega(x_i, y_j) = sum_k t_k (x_ki y_(n+k)j - x_(n+k)i y_kj) read
    straight from the top and bottom halves of the rows of P and V, as
    in sp_type_membership.

    The pairs are taken in sp_type_membership's order. A constant pair
    (b = q = 0) with a != 0 leaves no c; the first pair that depends on
    c leaves only its integer roots; if every pair is constant and zero,
    every c is left. Only the first such pair is solved, so the result
    can hold non-members: it still has to pass sp_type_membership.
    """
    n = t.n
    m = 2 * n
    ts = t.entries
    # (t_k, rows k and n + k of P, rows k and n + k of V)
    halves = []
    for k, tk in enumerate(ts):
        x, y = k * m, (n + k) * m
        halves.append((tk, partial[x : x + m], partial[y : y + m], v[x : x + m], v[y : y + m]))
    for i in range(m):
        for j in range(i + 1, m):
            a = b = q = 0
            for tk, pa, pb, va, vb in halves:
                a += tk * (pa[i] * pb[j] - pb[i] * pa[j])
                b += tk * (pa[i] * vb[j] - pb[i] * va[j] + va[i] * pb[j] - vb[i] * pa[j])
                q += tk * (va[i] * vb[j] - vb[i] * va[j])
            if j == i + n:
                a -= ts[i]
            if b or q:
                return _integer_roots(a, b, q, lo, hi)
            if a:
                return []
    return range(lo, hi + 1)


def centralizer_enumerate(h: HolonomySubgroup, bound: int, budget: int = DEFAULT_BUDGET):
    """All Siegel modular matrices within the entry box commuting with h.

    Enumerates coefficients over the commutant lattice (rank r, not the
    full matrix space) depth first, in lexicographic coefficient order,
    on flat integer rows: level d adds c_d v_d to a partial sum of the
    row-major basis entries v_d. At each level c_d is restricted to the
    interval that keeps every entry e within bound + R_e, where R_e is
    the most the later levels can still move it (zero at the last
    level), i.e. (+-(bound + R_e) - partial_e) / v_de. At the last
    level the candidates P + c V are not scanned: the column pairings
    are integer quadratics in c, and only the integer roots in the
    interval of the first pair that depends on c (see
    _last_coefficients) become matrices and are tested with
    sp_type_membership. Roots come in ascending order, so the output
    keeps the lexicographic coefficient order.

    The budget counts the coefficient-box volume, prod (2 lim_i + 1),
    and is checked before the search.
    """
    _check_bound(bound)
    basis = commutant_lattice(h)
    limits = _coefficient_box(basis, bound)
    volume = 1
    for lim in limits:
        volume *= 2 * lim + 1
    if volume > budget:
        with whole_integers():
            message = f"coefficient box has {volume} points, budget is {budget}"
        raise BoundTooLargeForBudget(message, budget=budget, volume=volume, limits=limits)
    m = h.size
    t = h.type
    vecs = [[x for i in range(m) for x in b.row(i)] for b in basis]
    # room[d][e]: the largest |entry e| after level d from which the
    # later levels can still bring it back into the box.
    room = []
    reach = [bound] * (m * m)
    for lim, v in zip(reversed(limits), reversed(vecs)):
        room.append(reach)
        reach = [r + lim * abs(x) for r, x in zip(reach, v)]
    room.reverse()
    depth = len(vecs)
    out = []

    def descend(d, partial):
        v, lim = vecs[d], limits[d]
        lo, hi = -lim, lim
        for p, x, r in zip(partial, v, room[d]):
            if x > 0:
                lo = max(lo, -((r + p) // x))
                hi = min(hi, (r - p) // x)
            elif x < 0:
                lo = max(lo, -((r - p) // -x))
                hi = min(hi, (r + p) // -x)
            elif abs(p) > r:
                return
        if d + 1 < depth:
            for c in range(lo, hi + 1):
                descend(d + 1, [p + c * x for p, x in zip(partial, v)])
            return
        for c in _last_coefficients(partial, v, lo, hi, t):
            point = [p + c * x for p, x in zip(partial, v)]
            X = IntegerMatrix._trusted(
                tuple(tuple(point[i * m : (i + 1) * m]) for i in range(m))
            )
            if sp_type_membership(X, t):
                out.append(X)

    descend(0, [0] * (m * m))
    return out


class FiniteScalarModel(Frozen):
    """A finite point set with a finite isometry group and a taming per point.

    The closure check builds the product table of the isometries, and
    the model keeps it: ``identity_index`` and the index of each
    composite are stored, so composing two isometries is a lookup. A
    permutation listed twice is named by its first index.
    """

    __slots__ = ("points", "isometries", "tamings", "identity_index", "_products")

    def __init__(self, points: int, isometries, tamings):
        points = int(points)
        if points < 1:
            raise InvalidModel("model needs at least one point")
        perms = []
        for p in isometries:
            p = tuple(p)
            if not all(isinstance(x, Integral) for x in p):
                raise InvalidModel(f"isometry entries must be integers: {p}")
            p = tuple(map(int, p))
            if len(p) != points or sorted(p) != list(range(points)):
                raise InvalidModel(f"not a permutation of {points} points: {p}")
            perms.append(p)
        perms = tuple(perms)
        index = {}
        for k, p in enumerate(perms):
            index.setdefault(p, k)
        identity = index.get(tuple(range(points)))
        if identity is None:
            raise InvalidModel("isometry list must contain the identity")
        products = []
        for p in perms:
            inv = tuple(p.index(i) for i in range(points))
            if inv not in index:
                raise InvalidModel("isometry list is not closed under inverse")
            row = []
            for q in perms:
                k = index.get(tuple(p[q[i]] for i in range(points)))
                if k is None:
                    raise InvalidModel("isometry list is not closed under composition")
                row.append(k)
            products.append(tuple(row))
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
        object.__setattr__(self, "identity_index", identity)
        object.__setattr__(self, "_products", tuple(products))

    def compose_isometries(self, i: int, j: int) -> int:
        """Index of isometry i composed after isometry j."""
        return self._products[i][j]


class UDualityElement(Frozen):
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


def _box_columns(t: LatticeType, bound: int, budget: int):
    """The nonzero columns with entries in [-bound, bound], in product order.

    Refuses, before any column is built, a search whose first level
    alone takes more than ``budget`` tests (see _symplectic_box).
    """
    m = 2 * t.n
    first = (2 * bound + 1) ** (2 * m) * (m - 1)
    if first > budget:
        with whole_integers():
            message = f"first column level takes up to {first} tests, budget is {budget}"
        raise BoundTooLargeForBudget(message, budget=budget, tested=0)
    cells = range(-bound, bound + 1)
    return [c for c in itertools.product(cells, repeat=m) if any(c)]


def _symplectic_box(t: LatticeType, bound: int, budget: int = DEFAULT_BUDGET, lists=None):
    """The Siegel modular matrices of type t whose column j is in lists[j].

    ``lists`` defaults to the (2b+1)^(2n) - 1 nonzero box columns (b =
    bound) for every column, which gives all of Sp_t(2n, Z) with entries
    in [-bound, bound]; uduality_fiber_product passes shorter lists.
    Columns are chosen one at a time. Once column j is chosen, the
    candidate list of every later column l keeps only the columns c
    whose pairing omega(c_j, c) = sum_k t_k (a_jk b_k - b_jk a_k), with
    a and b the top and bottom halves, equals Omega_t[j][l] (forward
    checking). A matrix whose column pairs all match Omega_t is in
    Sp_t(2n, Z) (see sp_type_membership), so every full choice is a
    member. The result is sorted by row-major entries.

    The budget counts column tests, one per candidate per pairing.
    The first level alone takes up to (2b+1)^(4n) (2n - 1) tests; the
    search is refused before it starts (and before the box columns are
    built, see _box_columns) when that is over budget, and otherwise as
    soon as the running count passes the budget.
    """
    _check_bound(bound)
    n = t.n
    m = 2 * n
    ts = t.entries
    if lists is None:
        lists = [_box_columns(t, bound, budget)] * m
    found = []
    tested = 0

    def extend(chosen, lists):
        nonlocal tested
        if not lists:
            found.append(chosen)
            return
        j = len(chosen)
        for c in lists[0]:
            # omega(c, x) = w . x with w = (-t b, t a)
            w = tuple(-tk * bk for tk, bk in zip(ts, c[n:])) + tuple(
                tk * ak for tk, ak in zip(ts, c[:n])
            )
            rest = []
            for l, cands in enumerate(lists[1:], j + 1):
                target = ts[j] if l == j + n else 0
                tested += len(cands)
                kept = [x for x in cands if sum(map(mul, w, x)) == target]
                if not kept:
                    break
                rest.append(kept)
            if tested > budget:
                raise BoundTooLargeForBudget(
                    f"column search passed {budget} tests",
                    budget=budget,
                    tested=tested,
                )
            if len(rest) == m - 1 - j:
                extend(chosen + (c,), rest)

    extend((), lists)
    rows = sorted(tuple(zip(*cols)) for cols in found)
    return [IntegerMatrix._trusted(r) for r in rows]


def _taming_norm_lists(columns, model: FiniteScalarModel, t: LatticeType, bound, tol):
    """Per isometry f, per column j, the columns that pass the norm test.

    A column x of ``columns`` is kept for column j of U when at every
    point p, with q = f(p), A = Omega_t J_q and Q = Omega_t J_p,

        |x^T A x - Q_jj| <= t_max (tol + delta) |x|_1^2
                            + 1e-12 (|x|^T |A| |x| + |Q_jj|).

    Why no element is lost: for U in Sp_t and E = U J_p U^{-1} - J_q,
    U^T A U = Q - U^T Omega_t E U, and entry jj of the last term is at
    most |u_j|_1^2 t_max max|E| in absolute value. The residual test
    keeps U when max|E| <= tol in float64; delta = 2^-50 (tol + m^3 b^2
    (t_max / t_min) max|J|) bounds how far the exact max|E| can then
    exceed tol (products of m x m matrices with entries up to b, the
    inverse's up to b t_max / t_min). The last term bounds the rounding
    of the computed quadratic forms. A and Q are the metrics the tamings
    keep (Taming.Q), which are Omega_t J since the caller has read t from
    omega; a definite Q is not needed. The kept columns stay in product
    order.
    """
    m = 2 * t.n
    ts = t.entries
    C = np.array(columns, dtype=float)
    absC = np.abs(C)
    A = [tm.Q for tm in model.tamings]
    norms = [np.einsum("ka,ab,kb->k", C, a, C) for a in A]
    scales = [np.einsum("ka,ab,kb->k", absC, np.abs(a), absC) for a in A]
    jmax = max(float(np.max(np.abs(tm.J))) for tm in model.tamings)
    delta = 2.0**-50 * (tol + m**3 * bound**2 * (max(ts) / min(ts)) * jmax)
    margin = max(ts) * (tol + delta) * absC.sum(axis=1) ** 2
    out = []
    for perm in model.isometries:
        keep = np.ones((m, len(columns)), dtype=bool)
        for p, q in enumerate(perm):
            Q = np.diag(A[p])[:, None]
            slop = 1e-12 * (scales[q] + np.abs(Q))
            keep &= np.abs(norms[q] - Q) <= margin + slop
        out.append([[columns[i] for i in np.flatnonzero(row)] for row in keep])
    return out


def uduality_fiber_product(
    model: FiniteScalarModel,
    bound: int,
    t: LatticeType = None,
    tol: float = None,
    budget: int = DEFAULT_BUDGET,
):
    """All pairs (f, U) in the box with U J(p) U^{-1} = J(f(p)) at every point.

    For each isometry f, the candidates U are the column search of
    _symplectic_box over the box columns that pass the taming norm test
    of _taming_norm_lists for f, a test that every kept U passes. The
    budget is checked up front as for the full box, before the columns
    are filtered, and each isometry's search counts its column tests
    against it. Each point p costs one batched numpy step,
    U J(p) U^{-1} for all candidates at once, with U^{-1} the exact
    symplectic inverse; a pair is kept when every point's residual has
    max abs at most tol. Output is ordered by isometry, then by the
    row-major entries of U.

    The lattice type is read from the tamings' omega, which must be
    Omega_t for a divisor chain t (NotSymplectic otherwise); a t that is
    given must be that one (TypeMismatch otherwise). Elements are
    returned with no torus part: torus translations are unconstrained by
    the compatibility condition and live in the kernel of the adjoint
    map.
    """
    _check_bound(bound)
    own = omega_type(model.tamings[0].omega)
    if t is None:
        t = own
    elif t != own:
        raise TypeMismatch(f"type {list(t.entries)} disagrees with omega, of type {list(own.entries)}")
    if tol is None:
        tol = max(max(tm.tol for tm in model.tamings), 1e-9)
    columns = _box_columns(t, bound, budget)
    Js = [tm.J for tm in model.tamings]
    out = []
    for f_idx, (perm, lists) in enumerate(
        zip(model.isometries, _taming_norm_lists(columns, model, t, bound, tol))
    ):
        candidates = _symplectic_box(t, bound, budget, lists)
        if not candidates:
            continue
        U = np.array([c.to_lists() for c in candidates], dtype=float)
        Uinv = np.array(
            [symplectic_inverse(c, t).to_lists() for c in candidates], dtype=float
        )
        ok = np.ones(len(candidates), dtype=bool)
        for p, q in enumerate(perm):
            ok &= np.max(np.abs(U @ Js[p] @ Uinv - Js[q]), axis=(1, 2)) <= tol
        out.extend(
            UDualityElement(f_idx, U_) for U_, keep in zip(candidates, ok) if keep
        )
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
    """Check closure under products whose rotation stays inside the box.

    Every ordered pair (x, y) is composed, in order. The rotation of the
    product is formed as raw rows, x's rows against y's columns (each
    rotation is transposed once), and tested against the box on those
    rows; an in-box product is looked up by (isometry, rows). Only a
    product that is in the box but not among the elements is built, by
    uduality_compose, so ``missing`` holds the composites themselves,
    torus parts included. Rotations must all be m x m for one m, as the
    matrix products require (DimensionMismatch otherwise).
    """
    shapes = {e.rotation.shape() for e in elements}
    if len(shapes) > 1 or any(r != c for r, c in shapes):
        raise DimensionMismatch(f"rotations of shapes {sorted(shapes)} do not compose")
    present = {(e.isometry, e.rotation._entries) for e in elements}
    columns = [tuple(zip(*e.rotation._entries)) for e in elements]
    missing = []
    for x in elements:
        xrows = x.rotation._entries
        for y, ycols in zip(elements, columns):
            rows = tuple(tuple([sum(map(mul, r, c)) for c in ycols]) for r in xrows)
            if max(map(max, rows)) > bound or min(map(min, rows)) < -bound:
                continue
            if (model.compose_isometries(x.isometry, y.isometry), rows) not in present:
                missing.append(uduality_compose(x, y, model))
    return ClosureReport(not missing, missing)
