"""Seeded random generators for property suites.

Every function takes an explicit ``random.Random`` so that the CLI
selftest and the test suite are reproducible: one seed fixes the whole
transcript. Which ``rng`` calls each generator makes, in which order,
is part of that contract: the selftest transcript and every benchmark
workload depend on it (tests/test_sampling.py pins it).
"""

from math import lcm
from operator import mul

import numpy as np

from .exact_linalg import IntegerMatrix
from .field_calculus import FieldStrengthSample, PointFrame, project_selfdual
from .polarization import SiegelPoint, Taming, taming_from_siegel_point
from .symplectic_lattices import LatticeType, sp_type_membership, standard_gram


def random_lattice_type(rng, n: int) -> LatticeType:
    """A random divisor chain of length n with small entries."""
    entries = [rng.choice([1, 1, 2])]
    for _ in range(n - 1):
        entries.append(entries[-1] * rng.choice([1, 1, 2, 3]))
    return LatticeType(entries)


def random_unimodular(rng, size: int, steps: int = 8, entry_bound: int = 60):
    """A random product of elementary row operations with bounded entries.

    Every step keeps max|M| <= max(1, entry_bound), so the new row, never
    zero, alone decides whether a row addition stays within the bound.
    """
    M = IntegerMatrix.identity(size).to_lists()
    for _ in range(steps):
        kind = rng.randrange(3)
        if size == 1:
            break
        i, j = rng.sample(range(size), 2)
        if kind == 0:
            c = rng.choice([-2, -1, 1, 2])
            row = [x + c * y for x, y in zip(M[i], M[j])]
            if max(map(abs, row)) <= entry_bound:
                M[i] = row
        elif kind == 1:
            M[i], M[j] = M[j], [-x for x in M[i]]
        else:
            for r in range(size):
                M[r][i], M[r][j] = M[r][j], -M[r][i]
    return IntegerMatrix._trusted(tuple(map(tuple, M)))


def random_sl2z(rng, length: int = 6) -> IntegerMatrix:
    """A random word in S = [[0,-1],[1,0]] and T = [[1,1],[0,1]], powers +-1, +-2."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(length):
        gen = rng.choice("ST")
        power = rng.choice([-2, -1, 1, 2])
        if gen == "T":
            b, d = b + power * a, d + power * c
        elif power in (-2, 2):
            a, b, c, d = -a, -b, -c, -d
        elif power == 1:
            a, b, c, d = b, -a, d, -c
        else:
            a, b, c, d = -b, a, -d, c
    return IntegerMatrix._trusted(((a, b), (c, d)))


def _shear_block(rng, t: LatticeType):
    """Symmetric seed M with t_i | M_{ij}; then T^{-1} M is an integer shear."""
    n = t.n
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            c = rng.choice([-1, 0, 0, 1])
            v = c * lcm(t.entries[i], t.entries[j])
            M[i][j] = v
            M[j][i] = v
    return [[M[i][j] // t.entries[i] for j in range(n)] for i in range(n)]


def _times(x, M):
    """The row vector x M."""
    return [sum(map(mul, x, col)) for col in zip(*M)]


def random_sp_t_element(
    rng, t: LatticeType, steps: int = 5, entry_bound: int = 40
) -> IntegerMatrix:
    """A random element of the Siegel modular group of type t.

    Built from generators that preserve Omega_t for every type: the
    standard rotation [[0,-I],[I,0]], upper and lower shears with T B
    symmetric, and diagonal blocks diag(A, T^{-1} A^{-T} T) for lower
    triangular unimodular A (integrality uses the divisor chain).
    Steps that would push entries past the bound are skipped so the
    float-mode taming tolerances stay meaningful. A step maps each row
    (x, y) of the product to (y, -x), (x, y + x B), (x + y C, y) or
    (x A, y D); A^{-1} comes by forward substitution.
    """
    n = t.n
    rows = IntegerMatrix.identity(2 * n).to_lists()
    for _ in range(steps):
        kind = rng.randrange(4)
        if kind == 0:
            cand = [r[n:] + [-x for x in r[:n]] for r in rows]
        elif kind == 1:
            B = _shear_block(rng, t)
            cand = [r[:n] + [y + z for y, z in zip(r[n:], _times(r[:n], B))] for r in rows]
        elif kind == 2:
            C = _shear_block(rng, t)
            cand = [[x + z for x, z in zip(r[:n], _times(r[n:], C))] + r[n:] for r in rows]
        else:
            A = [[0] * n for _ in range(n)]
            for i in range(n):
                A[i][i] = rng.choice([1, -1])
                for j in range(i):
                    A[i][j] = rng.choice([-1, 0, 0, 1])
            Ainv = [[0] * n for _ in range(n)]
            for j in range(n):
                for i in range(j, n):
                    s = (i == j) - sum(A[i][k] * Ainv[k][j] for k in range(j, i))
                    Ainv[i][j] = A[i][i] * s
            D = [[Ainv[j][i] * t.entries[j] // t.entries[i] for j in range(n)] for i in range(n)]
            cand = [_times(r[:n], A) + _times(r[n:], D) for r in rows]
        if max(abs(x) for r in cand for x in r) <= entry_bound:
            rows = cand
    out = IntegerMatrix._trusted(tuple(map(tuple, rows)))
    assert sp_type_membership(out, t), "generator construction broke symplecticity"
    return out


def random_gram_of_type(rng, t: LatticeType):
    """A Gram matrix U^T Omega_t U for a random unimodular U."""
    U = random_unimodular(rng, 2 * t.n, steps=10, entry_bound=40)
    return U.transpose() * standard_gram(t) * U, U


def random_lorentz_frame(rng) -> PointFrame:
    """A random metric sample of signature (-,+,+,+)."""
    while True:
        R = np.array(
            [[rng.uniform(-0.3, 0.3) for _ in range(4)] for _ in range(4)]
        )
        L = np.eye(4) + R
        g = L.T @ np.diag([-1.0, 1.0, 1.0, 1.0]) @ L
        try:
            return PointFrame(g, orientation=rng.choice([1, -1]))
        except Exception:
            continue


def random_siegel_point(rng, n: int, eps: float = 1e-3) -> SiegelPoint:
    """Siegel point with Y = A^T A + eps I; eps controls the conditioning."""
    X = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)])
    X = (X + X.T) / 2.0
    A = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)])
    Y = A.T @ A + eps * np.eye(n)
    return SiegelPoint(X, Y)


def random_taming(rng, t: LatticeType, eps: float = 1e-3) -> Taming:
    return taming_from_siegel_point(
        random_siegel_point(rng, t.n, eps), standard_gram(t)
    )


def random_field_sample(rng, n: int) -> FieldStrengthSample:
    F = np.array(
        [[rng.uniform(-1, 1) for _ in range(2 * n)] for _ in range(6)]
    )
    return FieldStrengthSample(F)


def random_selfdual_sample(rng, frame: PointFrame, taming: Taming) -> FieldStrengthSample:
    return project_selfdual(random_field_sample(rng, taming.n), frame, taming)
