import copy
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from gmpi.complexes import MonomialMatrix
from gmpi.linalg import mod_2, rank, rank_mod_2, solve

from conftest import dense_rank, dense_rank_mod_2, low_bit_rank_mod_2, normal_scalar

F = Fraction


def rows(*data):
    return [[F(x) for x in row] for row in data]


def sparse(m):
    """The rows of a dense matrix as sparse vectors {column: nonzero value}."""
    return [{c: v for c, v in enumerate(row) if v} for row in m]


def transpose(m):
    """The columns of a dense matrix as sparse vectors {row: nonzero value}."""
    return sparse([list(col) for col in zip(*m)])


def test_rank_examples():
    assert rank([]) == 0
    assert rank([{}, {}, {}]) == 0
    assert rank(sparse(rows((0, 0), (0, 0)))) == 0
    assert rank(sparse(rows((1, 0), (0, 1)))) == 2
    assert rank(sparse(rows((1, 2), (2, 4)))) == 1
    assert rank(sparse(rows((1, 2, 3), (4, 5, 6)))) == 2
    assert rank(sparse(rows((1,), (2,), (3,)))) == 1
    # the columns of the same matrix, in any index order
    assert rank(transpose(rows((1, 2, 3), (4, 5, 6)))) == 2
    assert rank([{5: F(1, 2), 2: 3}, {2: 6, 5: 1}, {7: -1}]) == 2


@st.composite
def rational_matrices(draw):
    """Dense m x n rows of ints and Fractions, with zero rows and rows that
    combine earlier ones, so that rank deficiency is common."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.one_of(st.just(0), st.integers(-3, 3),
                      st.builds(F, st.integers(-4, 4), st.integers(1, 5)))
    out = []
    for _ in range(m):
        kind = draw(st.sampled_from(["random", "zero", "combination"]))
        if kind == "zero":
            out.append([F(0)] * n)
        elif kind == "combination" and out:
            a, b = draw(entry), draw(entry)
            u, v = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            out.append([a * x + b * y for x, y in zip(u, v)])
        else:
            out.append([draw(entry) for _ in range(n)])
    return out


@settings(max_examples=400, deadline=None)
@given(rational_matrices())
def test_rank_matches_fraction_elimination(m):
    expected = dense_rank(m)
    vectors = sparse(m)
    before = copy.deepcopy(vectors)
    assert rank(vectors) == expected
    assert vectors == before
    assert rank(transpose(m)) == expected


def test_rank_leaves_its_argument_unmodified():
    m = [{0: F(1, 2), 2: F(-3, 4)}, {0: 2, 1: F(2, 3), 2: 1}, {0: F(1, 2), 2: F(-3, 4)}]
    before = copy.deepcopy(m)
    assert rank(m) == 2
    assert m == before and all(list(r) == list(s) for r, s in zip(m, before))
    assert all(type(x) is type(y) for r, s in zip(m, before)
               for x, y in zip(r.values(), s.values()))


# -- the rank over F_2

def test_mod_2_examples():
    assert mod_2({}) == 0
    # bit k for each odd entry k, whatever its sign; an even entry vanishes
    assert mod_2({0: -1, 3: 2, 4: 3, 6: -4}) == 0b10001


def test_mod_2_of_a_vector_holding_a_fraction_is_none():
    # odd denominator or even, and integral or not: only int vectors reduce
    for vector in ({1: F(3, 5)}, {0: 1, 1: F(1, 2)}, {0: 2, 1: F(-2, 3)}, {0: F(4, 2)}):
        assert mod_2(vector) is None


def test_an_inexact_scalar_is_a_value_error_naming_its_key():
    for bad in (0.5, 1.0, "1"):
        vector = {0: 1, 3: 2, 7: bad}
        with pytest.raises(ValueError, match=r"inexact scalar .* at 7"):
            mod_2(vector)
        with pytest.raises(ValueError, match=r"inexact scalar .* at 7"):
            rank([vector])
    # compose names the (row, column) of the entry, in either operand, also
    # beside a Fraction in the other one
    a = MonomialMatrix([(0,)], [(0,), (0,)], {0: {0: 1}, 1: {0: 0.5}})
    b = MonomialMatrix([(0,), (0,)], [(0,)], {0: {0: 1}})
    with pytest.raises(ValueError, match=r"inexact scalar 0\.5 at \(0, 1\)"):
        a.compose(b)
    a = MonomialMatrix([(0,)], [(0,), (0,)], {0: {0: F(1, 3)}})
    b = MonomialMatrix([(0,), (0,)], [(0,)], {0: {1: 0.5}})
    with pytest.raises(ValueError, match=r"inexact scalar 0\.5 at \(1, 0\)"):
        a.compose(b)
    # an all-int vector reduces, and a mixed int/Fraction one ranks
    assert mod_2({0: 1, 1: 3}) == 0b11
    assert rank([{0: 1, 1: F(1, 2)}, {0: 2, 1: 1}]) == 1


def test_rank_mod_2_examples():
    # the empty matrix, 0 x n and m x 0
    assert rank_mod_2([]) == 0
    assert rank_mod_2([0, 0, 0]) == 0
    assert rank_mod_2([mod_2(v) for v in sparse([(1, 2, 3), (4, 5, 7)])]) == 2
    assert rank_mod_2([mod_2(v) for v in sparse([(1, 3), (3, 1)])]) == 1
    # an even entry drops the rank over F_2, not over Q
    m = sparse([(1, 0), (0, 2)])
    assert rank(m) == 2 and rank_mod_2([mod_2(v) for v in m]) == 1
    # an even determinant: (1, 1), (1, 3)
    m = sparse([(1, 1), (1, 3)])
    assert rank(m) == 2 and rank_mod_2([mod_2(v) for v in m]) == 1
    # a limit stops the elimination once it has that many pivots
    m = [mod_2(v) for v in sparse([(1, 0, 0), (0, 1, 0), (0, 0, 1)])]
    assert [rank_mod_2(m, limit) for limit in (1, 2, 3, 4)] == [1, 2, 3, 3]
    # a vector reduced to zero adds no pivot before the limit is reached
    m = [0b011, 0b110, 0b101, 0b100]
    assert rank_mod_2(m) == 3 and rank_mod_2(m, 3) == 3 and rank_mod_2(m[:3], 3) == 2


@st.composite
def integer_matrices(draw):
    """Dense m x n rows of ints, with zero rows, rows that combine earlier
    ones, and even multiples mixed in, so that the rank often drops over
    F_2."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.sampled_from([2, -2, 4, 6]))
    out = []
    for _ in range(m):
        kind = draw(st.sampled_from(["random", "zero", "combination"]))
        if kind == "zero":
            out.append([0] * n)
        elif kind == "combination" and out:
            a, b = draw(entry), draw(entry)
            u, v = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            out.append([a * x + b * y for x, y in zip(u, v)])
        else:
            out.append([draw(entry) for _ in range(n)])
    return out


@settings(max_examples=300, deadline=None)
@given(integer_matrices(), st.integers(1, 7))
def test_rank_mod_2_is_the_dense_rank_and_at_most_the_rank(m, limit):
    vectors = [mod_2(v) for v in sparse(m)]
    r = rank_mod_2(vectors)
    assert r == dense_rank_mod_2(m)
    assert r <= rank(sparse(m))
    assert rank_mod_2([mod_2(v) for v in transpose(m)]) == r
    # stopping at ``limit`` pivots
    assert rank_mod_2(vectors, limit) == min(r, limit)


@st.composite
def packed_vectors(draw):
    """Packed F_2 vectors up to 70 bits wide, wider than a machine word,
    some the XOR of two earlier ones (zero where both are one), so that the
    rank often drops."""
    out = []
    for _ in range(draw(st.integers(0, 12))):
        if out and draw(st.booleans()):
            out.append(draw(st.sampled_from(out)) ^ draw(st.sampled_from(out)))
        else:
            out.append(draw(st.integers(0, (1 << 70) - 1)))
    return out


@settings(max_examples=300, deadline=None)
@given(packed_vectors(), st.one_of(st.none(), st.integers(0, 13)))
def test_top_bit_pivots_give_the_low_bit_rank(vectors, limit):
    # ``limit`` 0 and None alike run to the full rank
    assert rank_mod_2(vectors, limit) == low_bit_rank_mod_2(vectors, limit)


def simplex_boundaries(n):
    """Boundary matrices of the full simplex on n vertices, augmented: the
    map from k-faces (k+1 vertices) to (k-1)-faces, one row per k-face."""
    faces = [list(combinations(range(n), k + 1)) for k in range(-1, n)]
    mats = []
    for k in range(0, n):
        index = {f: i for i, f in enumerate(faces[k])}
        rows = []
        for f in faces[k + 1]:
            row = [0] * len(index)
            for j in range(len(f)):
                row[index[f[:j] + f[j + 1:]]] = (-1) ** j
            rows.append(row)
        mats.append(rows)
    return faces, mats


def test_rank_of_simplex_boundaries():
    # the augmented chain complex of a simplex is exact, so the boundary of
    # the k-faces has rank comb(n - 1, k) and consecutive ranks add up to
    # the number of faces in between
    n = 6
    faces, mats = simplex_boundaries(n)
    ranks = [rank(sparse(d)) for d in mats]
    assert ranks == [comb(n - 1, k) for k in range(n)]
    for k in range(n - 1):
        assert ranks[k] + ranks[k + 1] == len(faces[k + 1])


# -- solving on sparse columns

def test_solve_unique():
    x = solve([{0: 2}, {1: 4}], {0: 6, 1: 8})
    assert x == {0: 3, 1: 2} and all(type(v) is int for v in x.values())
    # a value with a denominator stays a Fraction
    x = solve([{0: 2, 1: F(1, 2)}, {1: 3}], {0: 1, 1: 1})
    assert x == {0: F(1, 2), 1: F(1, 4)} and all(type(v) is F for v in x.values())


def test_solve_inconsistent_returns_none():
    assert solve([{0: 1, 1: 1}, {0: 1, 1: 1}], {0: 1, 1: 2}) is None


def test_solve_underdetermined_zeroes_free_variables():
    # the solution lies on the first independent columns; the others are zero
    assert solve([{0: 1}, {0: 1}], {0: 2}) == {0: 2}
    assert solve([{}, {0: 1}, {0: 1}], {0: 5}) == {1: 5}
    assert solve([{0: 1, 1: 1}, {0: 2, 1: 2}, {1: 1}], {0: 1, 1: 3}) == {0: 1, 2: 2}


def test_solve_degenerate_shapes():
    assert solve([], {}) == {}
    assert solve([{}, {}], {}) == {}
    assert solve([{0: 3}], {}) == {}
    assert solve([], {3: 1}) is None
    assert solve([{}], {0: 1}) is None


def apply(columns, x, nrows):
    """sum_j x_j columns[j] as dense values, one per row."""
    return [sum(x.get(j, 0) * col.get(r, 0) for j, col in enumerate(columns))
            for r in range(nrows)]


@st.composite
def small_systems(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    entry = st.integers(-3, 3).map(F)
    a = [[draw(entry) for _ in range(n)] for _ in range(m)]
    b = [draw(entry) for _ in range(m)]
    return a, b


@settings(max_examples=300, deadline=None)
@given(small_systems())
def test_solve_solves_or_reports_inconsistency(system):
    a, b = system
    columns = transpose(a)
    x = solve(columns, {r: v for r, v in enumerate(b) if v})
    if rank(sparse(a)) < rank(sparse([row + [v] for row, v in zip(a, b)])):
        assert x is None
    else:
        assert x is not None and set(x) <= set(range(len(a[0])))
        assert all(v and normal_scalar(v) for v in x.values())
        assert apply(columns, x, len(a)) == b


@settings(max_examples=300, deadline=None)
@given(rational_matrices(), st.lists(st.integers(-2, 2), max_size=6), st.booleans())
def test_solve_lies_on_the_columns_that_raise_the_rank(m, coefficients, spanned):
    # the pivot rule: x is supported on the columns that raise the rank of
    # the columns before them, and reproduces the target; a target that is
    # a combination of the columns is always solved
    columns = transpose(m)
    nrows = len(m)
    if spanned:
        target = apply(columns, dict(enumerate(coefficients)), nrows)
    else:
        target = [row[0] + 1 if row else 1 for row in m]
    before = copy.deepcopy(columns)
    x = solve(columns, sparse([target])[0])
    assert columns == before
    if x is None:
        assert not spanned and rank(columns + sparse([target])) > rank(columns)
        return
    raising = {j for j in range(len(columns)) if rank(columns[:j + 1]) > rank(columns[:j])}
    assert set(x) <= raising
    assert all(v and normal_scalar(v) for v in x.values())
    assert apply(columns, x, nrows) == target
