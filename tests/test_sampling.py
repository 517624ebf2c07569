"""The seeded generators draw exactly what their product-based definitions draw.

The references below build each generator as a matrix and multiply the
running product by it. ``siegelkit.sampling`` applies the same steps to
the rows in place; on every seed it must return the same matrix and
leave the generator in the same state, since the selftest transcript
and the benchmark workloads are fixed by these draw sequences.
"""

import random
from math import gcd

import pytest

from siegelkit.exact_linalg import IntegerMatrix, inverse_unimodular
from siegelkit.sampling import random_sl2z, random_sp_t_element, random_unimodular
from siegelkit.symplectic_lattices import LatticeType


def reference_unimodular(rng, size, steps=8, entry_bound=60):
    M = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.sample(range(size), 2) if size > 1 else (0, 0)
        if size == 1:
            break
        if kind == 0:
            c = rng.choice([-2, -1, 1, 2])
            cand = [row[:] for row in M]
            cand[i] = [x + c * y for x, y in zip(cand[i], cand[j])]
            if max(abs(x) for row in cand for x in row) <= entry_bound:
                M = cand
        elif kind == 1:
            M[i], M[j] = M[j], [-x for x in M[i]]
        else:
            for r in range(size):
                M[r][i], M[r][j] = M[r][j], -M[r][i]
    return IntegerMatrix(M)


SL2_S = IntegerMatrix([[0, -1], [1, 0]])
SL2_T = IntegerMatrix([[1, 1], [0, 1]])


def reference_sl2z(rng, length=6):
    out = IntegerMatrix.identity(2)
    for _ in range(length):
        gen = rng.choice([SL2_S, SL2_T])
        power = rng.choice([-2, -1, 1, 2])
        step = gen if power > 0 else IntegerMatrix([[gen[1, 1], -gen[0, 1]],
                                                    [-gen[1, 0], gen[0, 0]]])
        for _ in range(abs(power)):
            out = out * step
    return out


def reference_shear_block(rng, t):
    n = t.n
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            c = rng.choice([-1, 0, 0, 1])
            a, b = t.entries[i], t.entries[j]
            M[i][j] = M[j][i] = c * (a * b // gcd(a, b))
    return [[M[i][j] // t.entries[i] for j in range(n)] for i in range(n)]


def reference_sp_t_element(rng, t, steps=5, entry_bound=40):
    n = t.n
    ident = IntegerMatrix.identity(n)
    zero = IntegerMatrix.zeros(n, n)

    def blocks(a, b, c, d):
        rows = []
        for i in range(n):
            rows.append(list(a.row(i)) + list(b.row(i)))
        for i in range(n):
            rows.append(list(c.row(i)) + list(d.row(i)))
        return IntegerMatrix(rows)

    out = IntegerMatrix.identity(2 * n)
    for _ in range(steps):
        kind = rng.randrange(4)
        if kind == 0:
            g = blocks(zero, -ident, ident, zero)
        elif kind == 1:
            g = blocks(ident, IntegerMatrix(reference_shear_block(rng, t)), zero, ident)
        elif kind == 2:
            g = blocks(ident, zero, IntegerMatrix(reference_shear_block(rng, t)), ident)
        else:
            A = [[0] * n for _ in range(n)]
            for i in range(n):
                A[i][i] = rng.choice([1, -1])
                for j in range(i):
                    A[i][j] = rng.choice([-1, 0, 0, 1])
            Am = IntegerMatrix(A)
            Ainv_t = inverse_unimodular(Am).transpose()
            D = [
                [Ainv_t[i, j] * t.entries[j] // t.entries[i] for j in range(n)]
                for i in range(n)
            ]
            g = blocks(Am, zero, zero, IntegerMatrix(D))
        cand = out * g
        if cand.max_abs() <= entry_bound:
            out = cand
    return out


def _same_draws(seed, draw, reference, *args):
    """Both generators from one seed: equal matrices and equal generator states."""
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(3):
        got, want = draw(rng, *args), reference(ref, *args)
        assert (got, rng.getstate()) == (want, ref.getstate()), (seed, args)


TYPES = [(1,), (2,), (1, 1), (1, 2), (2, 6), (1, 1, 1), (1, 2, 6)]
BOUNDS = [0, 1, 2, 3, 40]


@pytest.mark.parametrize("entries", TYPES, ids=lambda e: "-".join(map(str, e)))
def test_sp_t_element_draws_match_the_product_reference(entries):
    t = LatticeType(entries)
    for steps in range(9):
        for bound in BOUNDS:
            for seed in range(4):
                _same_draws(seed, random_sp_t_element, reference_sp_t_element, t, steps, bound)


def test_sl2z_draws_match_the_product_reference():
    for length in range(13):
        for seed in range(20):
            _same_draws(seed, random_sl2z, reference_sl2z, length)


def test_unimodular_draws_match_the_product_reference():
    for size in range(1, 7):
        for steps in range(9):
            for bound in BOUNDS:
                for seed in range(4):
                    _same_draws(seed, random_unimodular, reference_unimodular, size, steps, bound)
