from fractions import Fraction

from hypothesis import given, settings, strategies as st

from gmpi.linalg import rank, row_echelon, solve

F = Fraction


def rows(*data):
    return [[F(x) for x in row] for row in data]


def test_rank_examples():
    assert rank([]) == 0
    assert rank(rows((0, 0), (0, 0))) == 0
    assert rank(rows((1, 0), (0, 1))) == 2
    assert rank(rows((1, 2), (2, 4))) == 1
    assert rank(rows((1, 2, 3), (4, 5, 6))) == 2
    assert rank(rows((1,), (2,), (3,))) == 1


def test_row_echelon_pivots():
    m = rows((0, 1, 2), (1, 0, 1))
    assert row_echelon(m) == [0, 1]


def test_solve_unique():
    a = rows((2, 0), (0, 4))
    assert solve(a, [F(6), F(8)]) == [F(3), F(2)]


def test_solve_inconsistent_returns_none():
    a = rows((1, 1), (1, 1))
    assert solve(a, [F(1), F(2)]) is None


def test_solve_underdetermined_zeroes_free_variables():
    # the fixed-pivot rule: free variables are set to zero, deterministically
    a = rows((1, 1),)
    assert solve(a, [F(2)]) == [F(2), F(0)]
    a = rows((0, 1, 1),)
    assert solve(a, [F(5)]) == [F(0), F(5), F(0)]


def test_solve_degenerate_shapes():
    assert solve([], []) == []
    assert solve([[]], [F(0)]) == []
    assert solve([[]], [F(1)]) is None


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
    x = solve(a, b)
    if rank(a) < rank([row + [v] for row, v in zip(a, b)]):
        assert x is None
    else:
        assert x is not None and len(x) == len(a[0])
        assert [sum(r * v for r, v in zip(row, x)) for row in a] == b
