"""Seeded workloads of the benchmark and the checks on their answers.

Every workload is a list of operations made from one seed. An operation
holds a zero-argument call into siegelkit, the expected answer and a
check that compares the two; the check runs outside the timed call.
Expected answers are known by construction or come from oracles that
do not share code with the routine under test (numpy brute force over
entry boxes, sympy's Smith normal form, Betti numbers, rank modulo a
prime).

Operations are laid out in rounds: each round holds a fixed number of
operations of each family, so a run that stops mid-list still sees the
same mix, and the median and 90th-percentile latencies fall inside one
family instead of on the border between two.
"""

import contextlib
import functools
import io
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from siegelkit import cli, jsonio
from siegelkit import local_systems as ls
from siegelkit import sampling
from siegelkit import siegel_group as sg
from siegelkit import symplectic_lattices as sl
from siegelkit import uduality as ud
from siegelkit.exact_linalg import IntegerMatrix
from siegelkit.polarization import Taming, push_forward_taming, standard_taming_matrix

WORKLOADS = ("exact-group", "cohomology-dsz", "uduality-enum", "cli-calls")

T1 = sl.LatticeType((1,))
T2 = sl.LatticeType((1, 1))
CENTRALIZER_BOUND = 8
FIBER_BOUND = 4
CLI_CENTRALIZER_BOUND = 3
LIGHT_REQUESTS = 13
PRIME = (1 << 61) - 1


# Queries left out of the timed operations because one of them would
# take up a large part of a run, or more, at the commit that defined the
# benchmark. Each is added back once it answers in seconds.
EXCLUDED = (
    {
        "query": "uduality centralizer of J in Sp(4,Z) at bound 2",
        "cost": "108 s for a finite group of 32 elements",
    },
    {
        "query": "uduality fiber-product on two-point n=2 models at bound 1",
        "cost": "refused: 43M-point entry box over the 5M budget",
    },
    {
        "query": "uduality centralizer of Sp(4,Z) draws with rank-10 or rank-16 commutants at bound 1",
        "cost": "21 s, or refused",
    },
    {
        "query": "uduality centralizer of an SL(2,Z) word equal to +-I at bound 8",
        "cost": "83,521-point coefficient box, 5.0-6.5 s",
    },
    {
        "query": "uduality commutant of random Sp(6,Z) elements with entries <= 2",
        "cost": "SNF coefficient explosion on a few % of draws: 0.4 s to over 2 min, entries up to 11,010 bits",
    },
)


class Op:
    """One timed call, its expected answer and the check between them."""

    __slots__ = ("family", "call", "expected", "check", "request")

    def __init__(self, family, call, expected, check, request=None):
        self.family = family
        self.call = call
        self.expected = expected
        self.check = check
        # cli-calls only: the argv, replayed in-process by the traced run.
        self.request = request


class Workload:
    """The operation list of one seed.

    ``warmup`` holds the first operation of each family (one process
    call for cli-calls), and the first ``trace_ops`` operations are what
    the traced run replays.
    """

    def __init__(self, name, ops, trace_ops):
        self.ops = ops
        self.trace_ops = trace_ops
        first = {}
        for op in ops:
            first.setdefault(op.family, op)
        self.warmup = ops[:1] if name == "cli-calls" else list(first.values())


# Full-size lists. Rounds per list set how many distinct inputs a seed
# draws; trace rounds bound the span count of the traced replay.
SIZES = {
    "exact-group": {"full": (40, 40), "tiny": (2, 1)},
    "cohomology-dsz": {"full": (8, 2), "tiny": (1, 1)},
    "uduality-enum": {"full": (16, 1), "tiny": (1, 1)},
    "cli-calls": {"full": (2, 1), "tiny": (1, 1)},
}


def build(name, seed, root, size="full"):
    """The workload ``name`` for ``seed``; ``size`` is "full" or "tiny".

    ``root`` is the checkout whose ``src`` the cli-calls processes import.
    """
    rounds, trace_rounds = SIZES[name][size]
    rng = random.Random(f"{name}/{seed}")
    if name == "cli-calls":
        prefix, env = cli_command(root)

        def builder(rng):
            return _cli_round(rng, prefix, env, root)

    elif name == "cohomology-dsz":
        bases = {}

        def builder(rng):
            return _cohomology_round(rng, bases)

    else:
        builder = {
            "exact-group": _exact_group_round,
            "uduality-enum": _uduality_round,
        }[name]
    ops = []
    for _ in range(rounds):
        ops.extend(builder(rng))
    return Workload(name, ops, len(ops) // rounds * trace_rounds)


# ---------------------------------------------------------------- helpers


def _lists(m):
    return [list(m.row(i)) for i in range(m.rows)]


def _mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(r, c)) for c in bt] for r in a]


def _mat_vec(a, v):
    return [sum(x * y for x, y in zip(r, v)) for r in a]


def _rank_mod_p(rows):
    """Rank over Z/p of an integer matrix; a lower bound on the rank over Q."""
    A = [[x % PRIME for x in r] for r in rows]
    rank = 0
    cols = len(A[0]) if A else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(A)) if A[i][c]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        inv = pow(A[rank][c], PRIME - 2, PRIME)
        A[rank] = [x * inv % PRIME for x in A[rank]]
        for i in range(len(A)):
            if i != rank and A[i][c]:
                f = A[i][c]
                A[i] = [(x - f * y) % PRIME for x, y in zip(A[i], A[rank])]
        rank += 1
    return rank


def _sympy_factors(rows):
    """Nonzero invariant factors (absolute values) of an integer matrix."""
    snf = sympy_snf(Matrix(rows))
    diag = [abs(int(snf[i, i])) for i in range(min(snf.shape))]
    return tuple(d for d in diag if d != 0)


def _standard_gram_lists(t):
    n = t.n
    g = [[0] * (2 * n) for _ in range(2 * n)]
    for i, ti in enumerate(t.entries):
        g[i][n + i] = ti
        g[n + i][i] = -ti
    return g


# ------------------------------------------------------------ exact-group


def _exact_group_op(rng, n):
    t = sampling.random_lattice_type(rng, n)
    gram, _ = sampling.random_gram_of_type(rng, t)
    rots, trs = [], []
    for _ in range(3):
        rots.append(sampling.random_sp_t_element(rng, t, steps=4))
        trs.append(
            [Fraction(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(2 * n)]
        )
    x, y, z = (sg.AffineSymplectomorphism(a, r, t) for a, r in zip(trs, rots))

    # Independent product (a_x + R_x a_y + R_x R_y a_z mod 1, R_x R_y R_z).
    rx, ry, rz = (_lists(r) for r in rots)
    rxy = _mat_mul(rx, ry)
    a = [
        (p + q + s) % 1
        for p, q, s in zip(trs[0], _mat_vec(rx, trs[1]), _mat_vec(rxy, trs[2]))
    ]
    expected = {
        "type": t.entries,
        "gram": _lists(gram),
        "omega": _standard_gram_lists(t),
        "product": (tuple(a), _mat_mul(rxy, rz)),
        "x": x,
    }

    def call():
        fb = sl.frobenius_basis(sl.IntegralSymplecticSpace(gram))
        e = sg.AffineSymplectomorphism.identity(t)
        left = sg.aff_compose(sg.aff_compose(x, y), z)
        right = sg.aff_compose(x, sg.aff_compose(y, z))
        return (
            fb,
            left,
            right,
            sg.aff_compose(x, e),
            sg.aff_compose(e, x),
            sg.aff_compose(x, sg.aff_inverse(x)),
        )

    return Op(f"group-n{n}", call, expected, _check_exact_group)


def _check_exact_group(result, exp):
    fb, left, right, xe, ex, xinv = result
    P = _lists(fb.change_of_basis)
    Pt = [list(c) for c in zip(*P)]
    m = len(P)
    return (
        fb.type.entries == exp["type"]
        and _mat_mul(_mat_mul(Pt, exp["gram"]), P) == exp["omega"]
        and (left.translation, _lists(left.rotation)) == exp["product"]
        and right == left
        and xe == exp["x"]
        and ex == exp["x"]
        and xinv.translation == (Fraction(0),) * m
        and _lists(xinv.rotation) == [[int(i == j) for j in range(m)] for i in range(m)]
    )


def _exact_group_round(rng):
    # Equal thirds of n = 1, 2, 3: p50 falls inside n = 2, p90 inside n = 3.
    return [_exact_group_op(rng, n) for n in (1, 2, 3)]


# ---------------------------------------------------------- cohomology-dsz


def _circle_op(rng, n):
    t = sampling.random_lattice_type(rng, n)
    gamma = sampling.random_sp_t_element(rng, t, steps=6)
    c = ls.circle_complex(gamma, t)
    g = _lists(gamma)
    shifted = [[g[i][j] - (i == j) for j in range(2 * n)] for i in range(2 * n)]
    factors = _sympy_factors(shifted)
    ker = 2 * n - len(factors)
    torsion = tuple(sorted(d for d in factors if d > 1))
    # H^0 = ker(gamma - 1), H^1 = coker(gamma - 1).
    expected = {"groups": [(ker, ()), (ker, torsion)]}
    return Op(f"circle-n{n}", _cohomology_call(c, []), expected, _check_cohomology)


def _betti_op(rng, family, c, betti, bases):
    N = c.coeff_rank
    expected = {"groups": [(b * N, ()) for b in betti]}
    # Untwisted complexes of one type share their charge basis.
    key = (family, c.type.entries)
    if key not in bases:
        bases[key] = ls.charge_lattice_basis(c)
    classes = _dsz_classes(rng, c, expected, bases[key])
    return Op(family, _cohomology_call(c, classes), expected, _check_cohomology)


def _torus_op(rng):
    g1 = sampling.random_sl2z(rng, 4)
    k = rng.choice([-1, 0, 1, 2])
    g2 = IntegerMatrix.identity(2)
    for _ in range(abs(k)):
        g2 = g2 * g1
    if k < 0:
        g2 = IntegerMatrix([[g2[1, 1], -g2[0, 1]], [-g2[1, 0], g2[0, 0]]])
    if rng.random() < 0.5:
        g2 = -g2
    c = ls.two_torus_complex(g1, g2, T1)
    # Commuting symplectic transports: rank H^0 = rank ker(g1 - 1, g2 - 1),
    # rank H^2 = rank H^0 by duality, and the Euler characteristic is 0.
    rows = []
    for g in (g1, g2):
        L = _lists(g)
        rows.extend([[L[i][j] - (i == j) for j in range(2)] for i in range(2)])
    h0 = 2 - len(_sympy_factors(rows))
    expected = {"groups": [(h0, ()), (2 * h0, None), (h0, None)]}
    classes = _dsz_classes(rng, c, expected, ls.charge_lattice_basis(c))
    return Op("two-torus", _cohomology_call(c, classes), expected, _check_cohomology)


def _dsz_classes(rng, c, expected, basis):
    """Integral, half-integral and coboundary-shifted classes with verdicts.

    The classes are combinations of the program's own charge basis with
    known coefficients, so the expected coordinates are those
    coefficients; the half-integral class must be refused.
    """
    d1 = ls.twisted_differential(c, 1)
    dim2 = c.coeff_rank * c.cells[2]
    coeffs = [rng.randint(-5, 5) for _ in basis]
    vec = [Fraction(0)] * dim2
    for m, b in zip(coeffs, basis):
        vec = [x + m * y for x, y in zip(vec, b)]
    w = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d1.cols)]
    shifted = [a + b for a, b in zip(vec, d1.apply(w))]
    classes = [(ls.ChargeClass(vec), tuple(coeffs)), (ls.ChargeClass(shifted), tuple(coeffs))]
    if basis:
        half = [x + Fraction(b, 2) for x, b in zip(vec, basis[0])]
        classes.append((ls.ChargeClass(half), None))
    expected["verdicts"] = [v for _, v in classes]
    return [cls for cls, _ in classes]


def _cohomology_call(c, classes):
    def call():
        groups = [ls.twisted_cohomology(c, k) for k in range(c.dimension + 1)]
        basis = ls.charge_lattice_basis(c) if c.dimension >= 2 else []
        verdicts = [ls.dsz_check(cls, c) for cls in classes]
        return groups, basis, verdicts

    return call


def _check_cohomology(result, exp):
    groups, basis, verdicts = result
    if len(groups) != len(exp["groups"]):
        return False
    for g, (rank, torsion) in zip(groups, exp["groups"]):
        if g.free_rank != rank:
            return False
        if torsion is not None and tuple(sorted(g.torsion)) != torsion:
            return False
    if len(groups) > 2 and len(basis) != groups[2].free_rank:
        return False
    got = [v.coordinates if v.integral else None for v in verdicts]
    return got == exp.get("verdicts", [])


TORUS4 = (1, 4, 6, 4, 1)


def _cohomology_round(rng, bases):
    # Latency order: circles < two-tori < sphere < 4-torus n=1 < 4-torus
    # n=2. Of twelve, three circles and four tori put p50 inside the
    # tori; three n=2 four-tori put p90 inside that family.
    def four_torus(n):
        c = ls.four_torus_complex(sampling.random_lattice_type(rng, n))
        return _betti_op(rng, f"four-torus-n{n}", c, TORUS4, bases)

    sphere = ls.two_sphere_complex(sampling.random_lattice_type(rng, 1))
    return [
        _circle_op(rng, 1),
        _torus_op(rng),
        four_torus(2),
        _circle_op(rng, 2),
        _torus_op(rng),
        _betti_op(rng, "two-sphere", sphere, (1, 0, 1), bases),
        four_torus(2),
        _circle_op(rng, 1),
        _torus_op(rng),
        four_torus(1),
        _torus_op(rng),
        four_torus(2),
    ]


# ----------------------------------------------------------- uduality-enum


def _box(bound):
    """Every 2x2 integer matrix with entries in [-bound, bound], shape (k, 2, 2)."""
    cells = np.arange(-bound, bound + 1, dtype=np.int64)
    grid = np.array(np.meshgrid(cells, cells, cells, cells, indexing="ij"))
    return grid.reshape(4, -1).T.reshape(-1, 2, 2)


def _sl2_box(bound):
    box = _box(bound)
    det = box[:, 0, 0] * box[:, 1, 1] - box[:, 0, 1] * box[:, 1, 0]
    return box[det == 1]


def _key(m):
    return tuple(tuple(int(x) for x in r) for r in m)


def _centralizer_op(rng):
    # Words equal to +-I have the full 4-dimensional commutant; they are
    # redrawn (see EXCLUDED).
    ident = IntegerMatrix.identity(2)
    while True:
        g = sampling.random_sl2z(rng, 6)
        if g != ident and g != -ident:
            break
    G = np.array(_lists(g), dtype=np.int64)
    box = _sl2_box(CENTRALIZER_BOUND)
    keep = np.all(box @ G == G @ box, axis=(1, 2))
    expected = {_key(m) for m in box[keep]}

    def call():
        return ud.centralizer_enumerate(
            ud.HolonomySubgroup([g], T1), CENTRALIZER_BOUND
        )

    return Op("centralizer-sl2", call, expected, _check_centralizer)


def _check_centralizer(result, exp):
    keys = [_key(_lists(m)) for m in result]
    return len(keys) == len(set(keys)) and set(keys) == exp


def _fiber_op(rng):
    g = sampling.random_sl2z(rng, 4)
    tm0 = Taming(standard_taming_matrix(1), sl.standard_gram(T1), 0.0)
    tm1 = push_forward_taming(g, tm0)
    perms = [(0, 1), (1, 0)]
    model = ud.FiniteScalarModel(2, perms, [tm0, tm1])
    Js = [tm0.J, tm1.J]
    box = _sl2_box(FIBER_BOUND)
    U = box.astype(float)
    Uinv = np.stack(
        [
            np.stack([U[:, 1, 1], -U[:, 0, 1]], axis=1),
            np.stack([-U[:, 1, 0], U[:, 0, 0]], axis=1),
        ],
        axis=1,
    )
    elements = set()
    for f, perm in enumerate(perms):
        ok = np.ones(len(box), dtype=bool)
        for p in range(2):
            diff = U @ Js[p] @ Uinv - Js[perm[p]]
            ok &= np.max(np.abs(diff), axis=(1, 2)) <= 1e-9
        elements.update((f, _key(m)) for m in box[ok])
    closed = True
    for (f1, a), (f2, b) in itertools.product(elements, repeat=2):
        prod = _mat_mul(a, b)
        if max(abs(x) for r in prod for x in r) <= FIBER_BOUND:
            f = perms.index(tuple(perms[f1][perms[f2][k]] for k in range(2)))
            closed &= (f, _key(prod)) in elements
    expected = {"elements": elements, "closed": closed}

    def call():
        found = ud.uduality_fiber_product(model, FIBER_BOUND, t=T1)
        return found, ud.closure_within_box(found, model, FIBER_BOUND)

    return Op("fiber-product", call, expected, _check_fiber)


def _check_fiber(result, exp):
    found, closure = result
    keys = [(e.isometry, _key(_lists(e.rotation))) for e in found]
    return (
        len(keys) == len(set(keys))
        and set(keys) == exp["elements"]
        and closure.closed == exp["closed"]
    )


def _commutant_op(rng):
    # Sp(4,Z): some Sp(6,Z) draws drive the Smith normal form into
    # coefficient explosion (see EXCLUDED).
    g = sampling.random_sp_t_element(rng, T2, steps=4, entry_bound=2)
    L = _lists(g)
    m = 4
    # Sylvester map X -> X g - g X on row-major vec(X), rank from numpy.
    sylv = np.kron(np.eye(m), np.array(L).T) - np.kron(np.array(L), np.eye(m))
    expected = {"g": L, "rank": m * m - int(np.linalg.matrix_rank(sylv))}

    def call():
        return ud.commutant_lattice(ud.HolonomySubgroup([g], T2))

    return Op("commutant-sp4", call, expected, _check_commutant)


def _check_commutant(result, exp):
    g = exp["g"]
    mats = [_lists(b) for b in result]
    return (
        len(mats) == exp["rank"]
        and all(_mat_mul(X, g) == _mat_mul(g, X) for X in mats)
        and _rank_mod_p([[x for r in X for x in r] for X in mats]) == len(mats)
    )


def _uduality_round(rng):
    # Centralizers take 3-25 ms, commutants about 3 ms, fiber products
    # about 90 ms: three fiber products of sixteen put p90 inside them.
    ops = []
    for slot in "AACABAACABAACABA":
        ops.append(
            {"A": _centralizer_op, "B": _fiber_op, "C": _commutant_op}[slot](rng)
        )
    return ops


# ---------------------------------------------------------------- cli-calls


def replay(argv):
    """Run ``siegel-kit argv`` in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _enc(m):
    return {"entries": [[str(x) for x in r] for r in _lists(m)]}


def _cli_requests(rng):
    """One round of README-sized requests, one or more per subcommand."""
    n = rng.choice([1, 2])
    t = sampling.random_lattice_type(rng, n)
    gram, _ = sampling.random_gram_of_type(rng, t)
    omega = sl.standard_gram(t)
    space = {"gram": _enc(gram)}

    def aff():
        rot = sampling.random_sp_t_element(rng, t, steps=4)
        tr = [f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}" for _ in range(2 * n)]
        return {"translation": tr, "rotation": _enc(rot), "t": list(t.entries)}

    taming = sampling.random_taming(rng, t, eps=0.5)
    taming_json = {"J": taming.J.tolist(), "omega": _enc(omega), "tol": taming.tol}
    frame = sampling.random_lorentz_frame(rng)
    frame_json = {"g": frame.g.tolist(), "orientation": frame.orientation}
    sample = sampling.random_field_sample(rng, n)
    siegel = sampling.random_siegel_point(rng, n, eps=0.5)
    field = {"frame": frame_json, "taming": taming_json, "F_sample": {"F": sample.F.tolist()}}
    circle = ls.circle_complex(sampling.random_sl2z(rng, 6), T1)
    torus = ls.two_torus_complex(None, None, T1)
    coeffs = [rng.randint(-4, 4) for _ in range(2)]
    word = sampling.random_sl2z(rng, 6)
    while word == IntegerMatrix.identity(2) or word == -IntegerMatrix.identity(2):
        word = sampling.random_sl2z(rng, 6)
    holonomy = {"generators": [_enc(word)], "t": [1]}
    t2 = sampling.random_lattice_type(rng, 2)
    four_torus = jsonio.encode_complex(ls.four_torus_complex(t2))
    charge = [str(rng.randint(-4, 4)) for _ in range(24)]

    def two_point_model():
        j0 = standard_taming_matrix(1)
        tm1 = push_forward_taming(
            sampling.random_sl2z(rng, 4), Taming(j0, sl.standard_gram(T1), 0.0)
        )
        return {
            "points": 2,
            "isometries": [[0, 1], [1, 0]],
            "omega": _enc(sl.standard_gram(T1)),
            "tamings": [j0.tolist(), tm1.J.tolist()],
        }

    # LIGHT_REQUESTS light requests (3-10 ms in-process), two 4-torus
    # requests (40-50 ms) and four fiber products (90-150 ms) per round:
    # p50 falls inside the light ones and p90 inside the fiber products.
    return [
        ["lattice", "type", "--json", json.dumps(space)],
        ["lattice", "frobenius", "--json", json.dumps(space)],
        ["aff", "compose", "--json", json.dumps({"x": aff(), "y": aff()})],
        ["aff", "inverse", "--json", json.dumps(aff())],
        ["taming", "validate", "--json", json.dumps(taming_json)],
        [
            "taming",
            "push",
            "--json",
            json.dumps(
                {
                    "taming": taming_json,
                    "gamma": _enc(sampling.random_sp_t_element(rng, t, steps=3, entry_bound=3)),
                }
            ),
        ],
        [
            "taming",
            "from-siegel",
            "--json",
            json.dumps(
                {"Z": {"X": siegel.X.tolist(), "Y": siegel.Y.tolist()}, "omega": _enc(omega)}
            ),
        ],
        ["field", "project", "--json", json.dumps(field)],
        ["field", "residual", "--json", json.dumps(field)],
        ["cohomology", "compute", "--json", json.dumps(jsonio.encode_complex(circle))],
        [
            "cohomology",
            "dsz",
            "--json",
            json.dumps(
                {
                    "complex": jsonio.encode_complex(torus),
                    "class": {"coefficients": [str(coeffs[0]), str(coeffs[1])]},
                }
            ),
        ],
        [
            "uduality",
            "centralizer",
            "--bound",
            str(CLI_CENTRALIZER_BOUND),
            "--json",
            json.dumps(holonomy),
        ],
        ["uduality", "commutant", "--json", json.dumps(holonomy)],
        ["cohomology", "compute", "--json", json.dumps(four_torus)],
        [
            "cohomology",
            "dsz",
            "--json",
            json.dumps({"complex": four_torus, "class": {"coefficients": charge}}),
        ],
    ] + [
        [
            "uduality",
            "fiber-product",
            "--bound",
            str(FIBER_BOUND),
            "--json",
            json.dumps(two_point_model()),
        ]
        for _ in range(4)
    ]


def front_end_ops(seed):
    """The light requests of the first cli-calls round, replayed in-process.

    Every traced run replays them after its own operations, so that the
    front end and the float layer, and every other layer, are measured
    on every workload.
    """
    rng = random.Random(f"cli-calls/{seed}")
    ops = []
    for argv in _cli_requests(rng)[:LIGHT_REQUESTS]:
        code, text = replay(argv)
        call = functools.partial(replay, argv)
        ops.append(Op(f"cli-{argv[0]}", call, (code, json.loads(text)), _check_cli, argv))
    return ops


def _cli_round(rng, prefix, env, root):
    ops = []
    for argv in _cli_requests(rng):
        # The in-process replay is the oracle for the process's answer.
        code, text = replay(argv)
        call = functools.partial(run_cli, prefix, env, root, argv)
        ops.append(
            Op(f"cli-{argv[0]}", call, (code, json.loads(text)), _check_cli, argv)
        )
    return ops


def _check_cli(result, exp):
    code, stdout = result
    lines = stdout.splitlines()
    return (
        code == exp[0] == 0
        and len(lines) == 1
        and json.loads(lines[0]) == exp[1]
    )


def cli_command(root):
    """The argv prefix and environment of one ``siegel-kit`` process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return [sys.executable, "-m", "siegelkit.cli"], env


def run_cli(prefix, env, root, argv):
    proc = subprocess.run(
        prefix + list(argv),
        capture_output=True,
        text=True,
        env=env,
        cwd=root,
        timeout=120,
    )
    return proc.returncode, proc.stdout
