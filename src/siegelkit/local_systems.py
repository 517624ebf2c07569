"""Z^{2n}-local systems on finite complexes, twisted cohomology and charges.

The base is a finite CW complex given by cell counts, signed incidence
matrices, and one integer symplectic transport per oriented 1-cell. The
twisted differential in degree zero is (d0 x)(e) = rho_e x(source) -
x(target); in degree one it transports edge values along the attaching
word of each 2-cell. Attaching words are taken from explicit words when
given, reconstructed by walking the boundary for regular 2-cells, and
unnecessary when every transport is the identity. Differentials in
degree two and higher are untwisted blocks, so a complex of dimension
three or more must carry identity transports.

Flatness means d1 d0 = 0, reported per 2-cell: 2-cell f is flat when its
block row of d1 d0 vanishes. For a closed attaching walk that block is
(I - hol_f^-1) at the base vertex, the usual holonomy test, and the test
stays right for words that are not walks. Every other condition
d_{k+1} d_k = 0 is the vanishing of a boundary composition.

Validation contract: ``validate_local_system`` alone decides whether a
complex is valid, and each refusal is an entry of its report.
``twisted_cohomology``, ``charge_lattice_basis`` and ``dsz_check``
validate a complex once, on first use, keep the report and the
differentials on the (immutable) complex, and raise ``InvalidComplex``
with the report when it is invalid. So they accept exactly the complexes
the validator calls valid (the charge lattice and the DSZ check also
need dimension >= 2).

Cohomology is computed in integers, without Fractions: inverses and
image coordinates come from ``exact_linalg.left_inverse``, and an SNF
only where a kernel basis or invariant factors are the answer.

Charge classes are stored in units of 2 pi, which keeps every check
rational and exact. The Smith form that gives H^2 and the charge basis
also gives an integer projector onto its coordinates; both are kept on
the complex next to the differentials, so each further class costs two
integer matrix-vector products (the cocycle test and the projection)
and one divisibility test.
"""

from fractions import Fraction
from math import lcm
from operator import mul

from .errors import DimensionMismatch, InvalidComplex, NotACocycle
from .exact_linalg import (
    Frozen,
    IntegerMatrix,
    inverse_unimodular,
    kernel_lattice,
    left_inverse,
    smith_normal_form,
)
from .symplectic_lattices import LatticeType, sp_type_membership


class TwistedComplex(Frozen):
    """Finite CW data with symplectic transports on 1-cells."""

    __slots__ = ("cells", "boundaries", "transports", "type", "words", "_checked")

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
        transports = list(transports)
        if len(transports) != n_edges:
            raise InvalidComplex(
                f"need {n_edges} transports (one per 1-cell), got {len(transports)}"
            )
        if any(g is not None and not isinstance(g, IntegerMatrix) for g in transports):
            raise InvalidComplex("each transport must be an IntegerMatrix or None")
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
        # (report, differentials, charge system), filled on first use by
        # _differentials and _charge_system.
        object.__setattr__(self, "_checked", None)

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


class LocalSystemReport:
    """Validation results with offending cell identifiers.

    ``_differentials`` keeps the differentials built while validating
    (d0, and d1 when flatness was tested) for the computations to reuse.
    """

    def __init__(self, boundary_failures, transport_failures, flatness_failures,
                 word_failures, differentials=()):
        self.boundary_failures = list(boundary_failures)
        self.transport_failures = list(transport_failures)
        self.flatness_failures = list(flatness_failures)
        self.word_failures = list(word_failures)
        self._differentials = tuple(differentials)

    @property
    def valid(self):
        return not (
            self.boundary_failures
            or self.transport_failures
            or self.flatness_failures
            or self.word_failures
        )

    def as_dict(self):
        """A copy: the report kept on a complex is shared by every caller."""
        return {
            "valid": self.valid,
            "boundary_failures": [dict(x) for x in self.boundary_failures],
            "transport_failures": [dict(x) for x in self.transport_failures],
            "flatness_failures": [dict(x) for x in self.flatness_failures],
            "word_failures": [dict(x) for x in self.word_failures],
        }


def _word_mismatch(c: TwistedComplex, f):
    """Why the attaching word of 2-cell f does not fit it, or None.

    Every letter must be a 1-cell with sign 1 or -1, and the signed letter
    counts must equal the incidence column of f. Raises InvalidComplex
    when f has no explicit word and none can be reconstructed.
    """
    word = c.attaching_word(f)
    n_edges = c.cells[1]
    sums = [0] * n_edges
    for e, s in word:
        if not 0 <= e < n_edges or s not in (1, -1):
            return f"letter {[e, s]} is not a 1-cell with sign 1 or -1"
        sums[e] += s
    col = c.boundaries[1].column_vector(f)
    for e in range(n_edges):
        if sums[e] != col[e]:
            return f"word does not match incidence at edge {e}"
    return None


def validate_local_system(c: TwistedComplex) -> LocalSystemReport:
    """Check every condition the cohomology computations rely on.

    - ``boundary_failures``: nonzero boundary compositions, and 1-cells
      whose incidence column gives no (source, target) pair;
    - ``transport_failures``: transports outside Sp_t(2n, Z), and
      transports other than the identity on a complex of dimension >= 3;
    - ``word_failures``: 2-cells whose attaching word is missing or does
      not match their incidence column;
    - ``flatness_failures``: 2-cells whose block row of d1 d0 is nonzero,
      tested when every 1-cell, transport and word passes.
    """
    boundary_failures = []
    for k in range(len(c.boundaries) - 1):
        prod = c.boundaries[k] * c.boundaries[k + 1]
        if not prod.is_zero():
            boundary_failures.append(
                {"degree": k + 1, "detail": "boundary composition is nonzero"}
            )
    edge_failures = []
    for e in range(len(c.transports)):
        try:
            c.edge_endpoints(e)
        except InvalidComplex as exc:
            edge_failures.append({"edge": e, "detail": str(exc)})
    boundary_failures.extend(edge_failures)
    transport_failures = []
    ident = IntegerMatrix.identity(c.coeff_rank)
    for e, g in enumerate(c.transports):
        try:
            ok = sp_type_membership(g, c.type)
        except DimensionMismatch:
            ok = False
        if not ok:
            transport_failures.append({"edge": e})
        elif c.dimension >= 3 and g != ident:
            # Twisting d2 and above would need attaching data for 3-cells,
            # which this model does not carry.
            transport_failures.append(
                {"edge": e, "detail": "complexes of dimension >= 3 need identity transports"}
            )
    word_failures = []
    if c.dimension >= 2 and not transport_failures:
        untwisted = c.is_untwisted()
        for f in range(c.cells[2]):
            try:
                detail = _word_mismatch(c, f)
            except InvalidComplex as exc:
                if untwisted:
                    continue  # untwisted differentials never need the walk
                detail = str(exc)
            if detail is not None:
                word_failures.append({"face": f, "detail": detail})
    flatness_failures = []
    differentials = []
    if c.dimension >= 1 and not (edge_failures or transport_failures or word_failures):
        differentials.append(twisted_differential(c, 0))
        if c.dimension >= 2:
            differentials.append(twisted_differential(c, 1))
            dd = differentials[1] * differentials[0]
            N = c.coeff_rank
            flatness_failures = [
                {"face": f}
                for f in range(c.cells[2])
                if any(any(dd.row(i)) for i in range(N * f, N * (f + 1)))
            ]
    return LocalSystemReport(
        boundary_failures, transport_failures, flatness_failures, word_failures,
        differentials,
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
        # Walking the word multiplies the holonomy g by rho (or rho^-1)
        # on the left, so g^-1 takes rho^-1 (or rho) on the right.
        inverses = [inverse_unimodular(rho) for rho in c.transports]
        for f in range(c.cells[2]):
            g_inv = IntegerMatrix.identity(N)
            for e, s in c.attaching_word(f):
                if s == 1:
                    g_inv = g_inv * inverses[e]
                    _block_insert(rows, g_inv.to_lists(), N * f, N * e)
                else:
                    _block_insert(rows, (-g_inv).to_lists(), N * f, N * e)
                    g_inv = g_inv * c.transports[e]
    else:
        b = c.boundaries[k].to_lists()
        for j in range(c.cells[k + 1]):
            for i in range(c.cells[k]):
                v = b[i][j]
                if v != 0:
                    for r in range(N):
                        rows[N * j + r][N * i + r] += v
    return IntegerMatrix._trusted(tuple(map(tuple, rows)))


def _differentials(c: TwistedComplex):
    """The differentials of c in every degree, validating c on first use.

    The report and the differentials stay on the complex, so each is
    computed once however many computations read them.
    """
    if c._checked is None:
        report = validate_local_system(c)
        diffs = None
        if report.valid:
            built = report._differentials
            diffs = built + tuple(
                twisted_differential(c, k) for k in range(len(built), c.dimension)
            )
        object.__setattr__(c, "_checked", (report, diffs, None))
    report, diffs, _ = c._checked
    if diffs is None:
        raise InvalidComplex("invalid twisted complex", report=report.as_dict())
    return diffs


class CohomologyResult(Frozen):
    """Free rank, torsion chain and integral cocycle representatives."""

    __slots__ = ("degree", "free_rank", "torsion", "free_basis")

    def __init__(self, degree, free_rank, torsion, free_basis):
        object.__setattr__(self, "degree", int(degree))
        object.__setattr__(self, "free_rank", int(free_rank))
        object.__setattr__(self, "torsion", tuple(int(t) for t in torsion))
        object.__setattr__(self, "free_basis", tuple(tuple(v) for v in free_basis))

    def group_description(self):
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return (
            f"CohomologyResult(degree={self.degree}, "
            f"group={self.group_description()!r})"
        )


def _cohomology(c: TwistedComplex, k: int):
    """``twisted_cohomology(c, k)`` and its (D, N, U, rank R), None if unfactored."""
    if k < 0 or k > c.dimension:
        return CohomologyResult(k, 0, (), ()), None
    diffs = _differentials(c)
    dim_k = c.coeff_rank * c.cells[k]
    dk = diffs[k] if k < c.dimension else None
    dk_prev = diffs[k - 1] if k > 0 else None

    if dk is None:
        kernel = [tuple(int(i == j) for i in range(dim_k)) for j in range(dim_k)]
    else:
        kernel = kernel_lattice(dk)
    r = len(kernel)
    if r == 0:
        return CohomologyResult(k, 0, (), ()), None
    if dk_prev is None or dk_prev.is_zero():
        return CohomologyResult(k, r, (), kernel), None

    D, N = left_inverse(kernel)
    scaled = (IntegerMatrix._trusted(N) * dk_prev).to_lists()
    if any(x % D for row in scaled for x in row):
        raise InvalidComplex("image of the twisted differential leaves the cocycle lattice")
    R = IntegerMatrix._trusted(tuple(tuple(x // D for x in row) for row in scaled))
    snf = smith_normal_form(R)
    rank_R = snf.rank()
    torsion = tuple(d for d in snf.invariant_factors() if d > 1)
    gens = IntegerMatrix._trusted(tuple(zip(*kernel))) * inverse_unimodular(snf.U)
    free_basis = [gens.column_vector(j) for j in range(rank_R, r)]
    return CohomologyResult(k, r - rank_R, torsion, free_basis), (D, N, snf.U, rank_R)


def twisted_cohomology(c: TwistedComplex, k: int) -> CohomologyResult:
    """Cohomology of the twisted cochain complex in degree k.

    K, the kernel basis of d_k, is saturated and contains im d_{k-1}
    (validation tests d_k d_{k-1} = 0), so with (D, N) its
    ``left_inverse`` the image has integer coordinates R = N d_{k-1} / D.
    If U R V is the SNF of R, the columns of K U^-1 past rank R are the
    free generators, and the invariant factors above 1 are the torsion.
    """
    return _cohomology(c, k)[0]


class ChargeClass(Frozen):
    """A rational twisted 2-cochain, stored in units of 2 pi."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        object.__setattr__(
            self, "coefficients", tuple(Fraction(x) for x in coefficients)
        )

    def __add__(self, other):
        if len(self.coefficients) != len(other.coefficients):
            raise DimensionMismatch("charge classes have different lengths")
        return ChargeClass(
            tuple(a + b for a, b in zip(self.coefficients, other.coefficients))
        )


class DszVerdict(Frozen):
    """Outcome of the integrality test, with coordinates when integral."""

    __slots__ = ("integral", "coordinates")

    def __init__(self, integral, coordinates):
        object.__setattr__(self, "integral", bool(integral))
        object.__setattr__(
            self,
            "coordinates",
            None if coordinates is None else tuple(int(x) for x in coordinates),
        )

    def as_dict(self):
        return {
            "integral": self.integral,
            "coordinates": None
            if self.coordinates is None
            else list(self.coordinates),
        }


def _charge_system(c: TwistedComplex):
    """(basis, P, D): the DSZ membership system of c, factored once.

    ``basis`` is the free basis of H^2, and P v / D are the coordinates
    over it of a 2-cocycle v modulo im d1. Both come from the one
    factorization of ``_cohomology(c, 2)``: v has coordinates N v / D
    over K, hence U N v / D over the generators K U^-1, and U sends
    im d1 onto the first rank R coordinates (U R = S V^-1 with S
    diagonal). So the rows of U N past rank R are the integer matrix P.
    When d1 is zero or the kernel is empty the basis is K itself (or
    nothing), and P, D are its ``left_inverse``. The result stays on the
    complex next to its report and differentials.
    """
    diffs = _differentials(c)
    report, _, system = c._checked
    if system is None:
        result, factors = _cohomology(c, 2)
        basis = result.free_basis
        if factors is None:
            D, P = left_inverse(basis)
        else:
            D, N, U, rank_R = factors
            UN = U * IntegerMatrix._trusted(N)
            P = tuple(UN.row(i) for i in range(rank_R, UN.rows))
        system = (basis, P, D)
        object.__setattr__(c, "_checked", (report, diffs, system))
    return system


def charge_lattice_basis(c: TwistedComplex):
    """Integral cocycles whose classes span the image of integral H^2.

    Torsion classes die in rational cohomology, so the basis has exactly
    free_rank(H^2) elements. The basis is computed once per complex;
    each call returns a fresh list.
    """
    if c.dimension < 2:
        raise InvalidComplex("charge lattice needs a complex of dimension >= 2")
    return list(_charge_system(c)[0])


def dsz_check(cls: ChargeClass, c: TwistedComplex) -> DszVerdict:
    """Test whether a rational 2-cocycle class lies in the charge lattice.

    Membership is cohomological: the class is decomposed over the charge
    basis modulo rational coboundaries, and the verdict is integral when
    all basis coordinates are integers. The coordinates returned on
    success are the framing of the class.

    The decomposition is the projector of ``_charge_system``, factored
    once per complex. Per class, over the common denominator den of its
    coefficients nums / den: the cocycle test d2 nums = 0, then P nums,
    integral exactly when every entry is divisible by D den.
    """
    if c.dimension < 2:
        raise InvalidComplex("DSZ check needs a complex of dimension >= 2")
    diffs = _differentials(c)
    N = c.coeff_rank
    dim2 = N * c.cells[2]
    vec = cls.coefficients
    if len(vec) != dim2:
        raise DimensionMismatch(
            f"class has {len(vec)} coefficients, expected {dim2}"
        )
    den = lcm(*(x.denominator for x in vec))
    nums = [x.numerator * (den // x.denominator) for x in vec]
    if c.dimension > 2 and any(diffs[2].apply(nums)):
        raise NotACocycle("class fails the twisted cocycle condition")
    _, P, D = _charge_system(c)
    scale = D * den
    m = [sum(map(mul, row, nums)) for row in P]
    if any(x % scale for x in m):
        return DszVerdict(False, None)
    return DszVerdict(True, tuple(x // scale for x in m))


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
