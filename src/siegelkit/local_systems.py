"""Z^{2n}-local systems on finite complexes, twisted cohomology and charges.

The base is a finite CW complex given by cell counts, signed incidence
matrices, and one integer symplectic transport per oriented 1-cell. The
twisted differential in degree zero is (d0 x)(e) = rho_e x(source) -
x(target); in degree one it transports edge values along the attaching
walk of each 2-cell, so flatness (ordered boundary product = identity)
is exactly d1 d0 = 0. Attaching walks are taken from explicit words
when given, reconstructed by walking the boundary for regular 2-cells,
and unnecessary when every transport is the identity. Differentials in
degree two and higher are untwisted blocks; a final exact d.d = 0 check
rejects any complex whose transports do not assemble to a flat system.

Charge classes are stored in units of 2 pi, which keeps every check
rational and exact.
"""

from fractions import Fraction

from .errors import DimensionMismatch, InvalidComplex, NotACocycle
from .exact_linalg import (
    IntegerMatrix,
    inverse_unimodular,
    kernel_lattice,
    rational_solve,
    rational_solve_many,
    smith_normal_form,
)
from .symplectic_lattices import LatticeType, sp_type_membership, symplectic_inverse


class TwistedComplex:
    """Finite CW data with symplectic transports on 1-cells."""

    __slots__ = ("cells", "boundaries", "transports", "type", "words")

    def __init__(self, cells, boundaries, transports, type: LatticeType, words=None):
        cells = tuple(int(c) for c in cells)
        if not cells or any(c <= 0 for c in cells):
            raise InvalidComplex("cell counts must be positive in every dimension")
        boundaries = tuple(boundaries)
        if len(boundaries) != len(cells) - 1:
            raise InvalidComplex(
                f"need {len(cells) - 1} boundary matrices, got {len(boundaries)}"
            )
        for k, b in enumerate(boundaries):
            if b.shape() != (cells[k], cells[k + 1]):
                raise InvalidComplex(
                    f"boundary {k + 1} has shape {b.shape()}, "
                    f"expected {(cells[k], cells[k + 1])}"
                )
        n_edges = cells[1] if len(cells) > 1 else 0
        if isinstance(transports, dict):
            table = [None] * n_edges
            for e, g in transports.items():
                table[e] = g
            transports = table
        transports = list(transports)
        if len(transports) != n_edges:
            raise InvalidComplex(
                f"need {n_edges} transports (one per 1-cell), got {len(transports)}"
            )
        ident = IntegerMatrix.identity(2 * type.n)
        transports = tuple(ident if g is None else g for g in transports)
        if words is not None:
            n_faces = cells[2] if len(cells) > 2 else 0
            words = list(words)
            if len(words) != n_faces:
                raise InvalidComplex(
                    f"need {n_faces} attaching words (or None entries), got {len(words)}"
                )
            words = tuple(
                None if w is None else tuple((int(e), int(s)) for e, s in w)
                for w in words
            )
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "boundaries", boundaries)
        object.__setattr__(self, "transports", transports)
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "words", words)

    def __setattr__(self, name, value):
        raise AttributeError("TwistedComplex is immutable")

    @property
    def dimension(self):
        return len(self.cells) - 1

    @property
    def coeff_rank(self):
        return 2 * self.type.n

    def is_untwisted(self):
        ident = IntegerMatrix.identity(self.coeff_rank)
        return all(g == ident for g in self.transports)

    def edge_endpoints(self, e):
        """(source, target) of an oriented edge, from the incidence column.

        A loop (zero column) is only unambiguous when the complex has a
        single vertex.
        """
        col = self.boundaries[0].column_vector(e)
        src = [i for i, v in enumerate(col) if v == -1]
        tgt = [i for i, v in enumerate(col) if v == 1]
        if not src and not tgt:
            if self.cells[0] == 1:
                return 0, 0
            raise InvalidComplex(
                f"edge {e} is a loop but the base vertex is ambiguous"
            )
        if len(src) == 1 and len(tgt) == 1 and all(
            v in (-1, 0, 1) for v in col
        ) and sum(abs(v) for v in col) == 2:
            return src[0], tgt[0]
        raise InvalidComplex(f"edge {e} has a non-regular incidence column")

    def attaching_word(self, f):
        """The closed boundary walk of 2-cell f as ((edge, sign), ...)."""
        if self.words is not None and self.words[f] is not None:
            return self.words[f]
        return self._reconstruct_word(f)

    def _reconstruct_word(self, f):
        col = self.boundaries[1].column_vector(f)
        incident = [(e, col[e]) for e in range(self.cells[1]) if col[e] != 0]
        if not incident:
            raise InvalidComplex(
                f"2-cell {f} has empty incidence and no attaching word"
            )
        if any(abs(s) != 1 for _, s in incident):
            raise InvalidComplex(
                f"2-cell {f} is not regular; supply its attaching word explicitly"
            )
        endpoints = {e: self.edge_endpoints(e) for e, _ in incident}
        first_e, first_s = incident[0]
        word = [(first_e, first_s)]
        start = endpoints[first_e][0] if first_s == 1 else endpoints[first_e][1]
        at = endpoints[first_e][1] if first_s == 1 else endpoints[first_e][0]
        remaining = {e: s for e, s in incident[1:]}
        while remaining:
            candidates = []
            for e, s in remaining.items():
                here = endpoints[e][0] if s == 1 else endpoints[e][1]
                if here == at:
                    candidates.append((e, s))
            if len(candidates) != 1:
                raise InvalidComplex(
                    f"2-cell {f}: boundary walk is ambiguous; "
                    "supply its attaching word explicitly"
                )
            e, s = candidates[0]
            word.append((e, s))
            at = endpoints[e][1] if s == 1 else endpoints[e][0]
            del remaining[e]
        if at != start:
            raise InvalidComplex(f"2-cell {f}: boundary walk does not close up")
        return tuple(word)

    def word_holonomy(self, f):
        """Ordered product of boundary transports around 2-cell f."""
        return self._holonomy(f, _inverter(self))

    def _holonomy(self, f, inverse):
        hol = IntegerMatrix.identity(self.coeff_rank)
        for e, s in self.attaching_word(f):
            g = self.transports[e]
            hol = (g if s == 1 else inverse(g)) * hol
        return hol


def _inverter(c: TwistedComplex):
    """Inverse for products of c's transports.

    When every transport lies in Sp_t(2n, Z), so does every product, and
    the closed form applies; otherwise fall back to the SNF inverse.
    """
    t = c.type
    try:
        closed = all(sp_type_membership(g, t) for g in c.transports)
    except DimensionMismatch:
        closed = False
    if closed:
        return lambda g: symplectic_inverse(g, t)
    return inverse_unimodular


class LocalSystemReport:
    """Validation results with offending cell identifiers."""

    def __init__(self, boundary_failures, transport_failures, flatness_failures,
                 word_failures):
        self.boundary_failures = list(boundary_failures)
        self.transport_failures = list(transport_failures)
        self.flatness_failures = list(flatness_failures)
        self.word_failures = list(word_failures)

    @property
    def valid(self):
        return not (
            self.boundary_failures
            or self.transport_failures
            or self.flatness_failures
            or self.word_failures
        )

    def as_dict(self):
        return {
            "valid": self.valid,
            "boundary_failures": self.boundary_failures,
            "transport_failures": self.transport_failures,
            "flatness_failures": self.flatness_failures,
            "word_failures": self.word_failures,
        }


def validate_local_system(c: TwistedComplex) -> LocalSystemReport:
    """Check boundary^2 = 0, transport membership and per-2-cell flatness."""
    boundary_failures = []
    for k in range(len(c.boundaries) - 1):
        prod = c.boundaries[k] * c.boundaries[k + 1]
        if not prod.is_zero():
            boundary_failures.append(
                {"degree": k + 1, "detail": "boundary composition is nonzero"}
            )
    transport_failures = []
    for e, g in enumerate(c.transports):
        try:
            ok = sp_type_membership(g, c.type)
        except DimensionMismatch:
            ok = False
        if not ok:
            transport_failures.append({"edge": e})
    flatness_failures = []
    word_failures = []
    ident = IntegerMatrix.identity(c.coeff_rank)
    if c.dimension >= 2 and not transport_failures:
        # Every transport is in Sp_t(2n, Z): invert in closed form.
        def inverse(g):
            return symplectic_inverse(g, c.type)

        for f in range(c.cells[2]):
            try:
                word = c.attaching_word(f)
            except InvalidComplex as exc:
                if c.is_untwisted():
                    continue  # untwisted differentials never need the walk
                word_failures.append({"face": f, "detail": str(exc)})
                continue
            # The word must match the signed incidence column.
            sums = {}
            for e, s in word:
                sums[e] = sums.get(e, 0) + s
            col = c.boundaries[1].column_vector(f)
            for e in range(c.cells[1]):
                if sums.get(e, 0) != col[e]:
                    word_failures.append(
                        {"face": f, "detail": f"word does not match incidence at edge {e}"}
                    )
                    break
            else:
                if c._holonomy(f, inverse) != ident:
                    flatness_failures.append({"face": f})
    return LocalSystemReport(
        boundary_failures, transport_failures, flatness_failures, word_failures
    )


def _block_insert(rows, block, i0, j0):
    for i, row in enumerate(block):
        tgt = rows[i0 + i]
        for j, v in enumerate(row):
            tgt[j0 + j] += v


def twisted_differential(c: TwistedComplex, k: int) -> IntegerMatrix:
    """Matrix of d^k from k-cochains to (k+1)-cochains, or None at the top."""
    N = c.coeff_rank
    if k < 0 or k >= c.dimension:
        return None
    rows = [[0] * (N * c.cells[k]) for _ in range(N * c.cells[k + 1])]
    if k == 0:
        for e in range(c.cells[1]):
            s, t = c.edge_endpoints(e)
            rho = c.transports[e].to_lists()
            _block_insert(rows, rho, N * e, N * s)
            for i in range(N):
                rows[N * e + i][N * t + i] -= 1
    elif k == 1 and not c.is_untwisted():
        inverse = _inverter(c)
        for f in range(c.cells[2]):
            word = c.attaching_word(f)
            g = IntegerMatrix.identity(N)
            for e, s in word:
                rho = c.transports[e]
                if s == 1:
                    g = rho * g
                    block = inverse(g)
                    _block_insert(rows, block.to_lists(), N * f, N * e)
                else:
                    block = -inverse(g)
                    _block_insert(rows, block.to_lists(), N * f, N * e)
                    g = inverse(rho) * g
    else:
        b = c.boundaries[k].to_lists()
        for j in range(c.cells[k + 1]):
            for i in range(c.cells[k]):
                v = b[i][j]
                if v != 0:
                    for r in range(N):
                        rows[N * j + r][N * i + r] += v
    return IntegerMatrix._trusted(tuple(map(tuple, rows)))


def _checked_differentials(c: TwistedComplex):
    report = validate_local_system(c)
    if not report.valid:
        raise InvalidComplex(f"invalid twisted complex: {report.as_dict()}")
    if c.dimension >= 3 and not c.is_untwisted():
        # Twisted differentials above degree one would need attaching
        # data for 3-cells, which this model does not carry.
        raise InvalidComplex(
            "complexes of dimension >= 3 are supported with trivial transports only"
        )
    diffs = [twisted_differential(c, k) for k in range(c.dimension)]
    for k in range(len(diffs) - 1):
        if not (diffs[k + 1] * diffs[k]).is_zero():
            raise InvalidComplex(
                f"transports do not assemble to a flat system: d{k + 1} d{k} != 0"
            )
    return diffs


class CohomologyResult:
    """Free rank, torsion chain and integral cocycle representatives."""

    __slots__ = ("degree", "free_rank", "torsion", "free_basis")

    def __init__(self, degree, free_rank, torsion, free_basis):
        object.__setattr__(self, "degree", int(degree))
        object.__setattr__(self, "free_rank", int(free_rank))
        object.__setattr__(self, "torsion", tuple(int(t) for t in torsion))
        object.__setattr__(self, "free_basis", tuple(tuple(v) for v in free_basis))

    def __setattr__(self, name, value):
        raise AttributeError("CohomologyResult is immutable")

    def group_description(self):
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return (
            f"CohomologyResult(degree={self.degree}, "
            f"group={self.group_description()!r})"
        )


def twisted_cohomology(c: TwistedComplex, k: int) -> CohomologyResult:
    """Cohomology of the twisted cochain complex in degree k."""
    if k < 0 or k > c.dimension:
        return CohomologyResult(k, 0, (), ())
    diffs = _checked_differentials(c)
    N = c.coeff_rank
    dim_k = N * c.cells[k]
    dk = diffs[k] if k < c.dimension else None
    dk_prev = diffs[k - 1] if k > 0 else None

    if dk is None:
        kernel = [
            tuple(1 if i == j else 0 for i in range(dim_k)) for j in range(dim_k)
        ]
    else:
        kernel = kernel_lattice(dk)
    r = len(kernel)
    if r == 0:
        return CohomologyResult(k, 0, (), ())
    if dk_prev is None or dk_prev.is_zero():
        return CohomologyResult(k, r, (), kernel)

    K = IntegerMatrix([[kernel[j][i] for j in range(r)] for i in range(dim_k)])
    sols = rational_solve_many(
        K.to_lists(), [dk_prev.column_vector(j) for j in range(dk_prev.cols)]
    )
    image_cols = []
    for sol in sols:
        if sol is None or any(x.denominator != 1 for x in sol):
            raise InvalidComplex(
                "image of the twisted differential leaves the cocycle lattice"
            )
        image_cols.append([int(x) for x in sol])
    R = IntegerMatrix([[image_cols[j][i] for j in range(len(image_cols))]
                       for i in range(r)])
    snf = smith_normal_form(R)
    factors = snf.diagonal()
    rank_R = sum(1 for d in factors if d != 0)
    torsion = tuple(d for d in factors if d > 1)
    Uinv = inverse_unimodular(snf.U)
    gens = K * Uinv
    free_basis = [gens.column_vector(j) for j in range(rank_R, r)]
    return CohomologyResult(k, r - rank_R, torsion, free_basis)


class ChargeClass:
    """A rational twisted 2-cochain, stored in units of 2 pi."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        object.__setattr__(
            self, "coefficients", tuple(Fraction(x) for x in coefficients)
        )

    def __setattr__(self, name, value):
        raise AttributeError("ChargeClass is immutable")

    def __add__(self, other):
        if len(self.coefficients) != len(other.coefficients):
            raise DimensionMismatch("charge classes have different lengths")
        return ChargeClass(
            tuple(a + b for a, b in zip(self.coefficients, other.coefficients))
        )


class DszVerdict:
    """Outcome of the integrality test, with coordinates when integral."""

    __slots__ = ("integral", "coordinates")

    def __init__(self, integral, coordinates):
        object.__setattr__(self, "integral", bool(integral))
        object.__setattr__(
            self,
            "coordinates",
            None if coordinates is None else tuple(int(x) for x in coordinates),
        )

    def __setattr__(self, name, value):
        raise AttributeError("DszVerdict is immutable")

    def as_dict(self):
        return {
            "integral": self.integral,
            "coordinates": None
            if self.coordinates is None
            else list(self.coordinates),
        }


def charge_lattice_basis(c: TwistedComplex):
    """Integral cocycles whose classes span the image of integral H^2.

    Torsion classes die in rational cohomology, so the basis has exactly
    free_rank(H^2) elements.
    """
    if c.dimension < 2:
        raise InvalidComplex("charge lattice needs a complex of dimension >= 2")
    return list(twisted_cohomology(c, 2).free_basis)


def dsz_check(cls: ChargeClass, c: TwistedComplex) -> DszVerdict:
    """Test whether a rational 2-cocycle class lies in the charge lattice.

    Membership is cohomological: the class is decomposed over the charge
    basis modulo rational coboundaries, and the verdict is integral when
    all basis coordinates are integers. The coordinates returned on
    success are the framing of the class.
    """
    if c.dimension < 2:
        raise InvalidComplex("DSZ check needs a complex of dimension >= 2")
    diffs = _checked_differentials(c)
    N = c.coeff_rank
    dim2 = N * c.cells[2]
    vec = cls.coefficients
    if len(vec) != dim2:
        raise DimensionMismatch(
            f"class has {len(vec)} coefficients, expected {dim2}"
        )
    if c.dimension > 2:
        d2 = diffs[2]
        image = d2.apply(vec)
        if any(x != 0 for x in image):
            raise NotACocycle("class fails the twisted cocycle condition")
    basis = charge_lattice_basis(c)
    d1 = diffs[1]
    # Solve [ basis | d1 ] (m; w) = class over Q; the m part is unique.
    rows = []
    for i in range(dim2):
        row = [Fraction(b[i]) for b in basis]
        row.extend(Fraction(d1[i, j]) for j in range(d1.cols))
        rows.append(row)
    sol = rational_solve(rows, vec)
    if sol is None:
        return DszVerdict(False, None)
    m = sol[: len(basis)]
    if any(x.denominator != 1 for x in m):
        return DszVerdict(False, None)
    return DszVerdict(True, tuple(int(x) for x in m))


def circle_complex(gamma: IntegerMatrix, t: LatticeType) -> TwistedComplex:
    """The circle with one vertex, one loop edge, and the given monodromy."""
    return TwistedComplex(
        cells=(1, 1),
        boundaries=(IntegerMatrix([[0]]),),
        transports=(gamma,),
        type=t,
    )


def two_sphere_complex(t: LatticeType, transports=None) -> TwistedComplex:
    """A regular sphere: two vertices, two meridian edges, two faces."""
    b1 = IntegerMatrix([[-1, -1], [1, 1]])
    b2 = IntegerMatrix([[1, -1], [-1, 1]])
    return TwistedComplex(
        cells=(2, 2, 2),
        boundaries=(b1, b2),
        transports=transports if transports is not None else (None, None),
        type=t,
        words=(((0, 1), (1, -1)), ((1, 1), (0, -1))),
    )


def two_torus_complex(g1, g2, t: LatticeType) -> TwistedComplex:
    """The one-vertex torus with commutator attaching word a b a^-1 b^-1."""
    return TwistedComplex(
        cells=(1, 2, 1),
        boundaries=(IntegerMatrix([[0, 0]]), IntegerMatrix([[0], [0]])),
        transports=(g1, g2),
        type=t,
        words=(((0, 1), (1, 1), (0, -1), (1, -1)),),
    )


def four_torus_complex(t: LatticeType, transports=None) -> TwistedComplex:
    """Product CW structure of the 4-torus: cells indexed by subsets of {0,1,2,3}.

    All untwisted boundary maps vanish; with transports, commutator
    words twist the 6 product 2-cells.
    """
    subsets = [[], [0], [1], [2], [3], [0, 1], [0, 2], [0, 3], [1, 2], [1, 3],
               [2, 3], [0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3], [0, 1, 2, 3]]
    by_dim = {}
    for s in subsets:
        by_dim.setdefault(len(s), []).append(s)
    cells = tuple(len(by_dim[k]) for k in range(5))
    boundaries = tuple(
        IntegerMatrix.zeros(cells[k], cells[k + 1]) for k in range(4)
    )
    # 2-cell {i, j} is the commutator of the edges i and j.
    words = []
    for s in by_dim[2]:
        i, j = s
        words.append(((i, 1), (j, 1), (i, -1), (j, -1)))
    return TwistedComplex(
        cells=cells,
        boundaries=boundaries,
        transports=transports if transports is not None else (None,) * 4,
        type=t,
        words=tuple(words),
    )
