import pytest
from hypothesis import given, strategies as st

from nncp.perm import check, components, compose, inverse, one_line_str, pair, swap


def perms(n):
    return st.permutations(range(n)).map(tuple)


def test_validation():
    with pytest.raises(ValueError):
        check((0, 0, 1))
    with pytest.raises(ValueError):
        check((0, 2))
    with pytest.raises(ValueError):
        pair(3, 3)
    assert check((2, 0, 1)) == (2, 0, 1)
    assert check(()) == ()


@given(perms(6), perms(6), perms(6))
def test_compose_associative(p, q, r):
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


@given(perms(7))
def test_inverse_law(p):
    assert compose(p, inverse(p)) == tuple(range(7))
    assert compose(inverse(p), p) == tuple(range(7))


@given(perms(5), st.integers(0, 4))
def test_compose_pointwise(p, x):
    q = (2, 0, 1, 4, 3)
    assert compose(p, q)[x] == p[q[x]]


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose(tuple(range(3)), tuple(range(4)))


@given(perms(6), st.integers(0, 5), st.integers(0, 5))
def test_swap_is_right_multiplication(p, i, j):
    if i == j:
        return
    t = list(range(6))
    t[i], t[j] = j, i
    assert swap(p, i, j) == compose(p, tuple(t))


def test_swap_returns_a_new_tuple():
    p = (2, 0, 3, 1)
    assert swap(p, 0, 3) == (1, 0, 3, 2)
    assert p == (2, 0, 3, 1)


def test_one_line_round_trip():
    p = (2, 0, 3, 1)
    assert one_line_str(p) == "(3,1,4,2)"


def test_transposition_normalized():
    assert pair(4, 1) == pair(1, 4) == (1, 4)


def test_components():
    assert components(6, [(3, 0), (4, 3), (1, 5)]) == [[0, 3, 4], [1, 5], [2]]
    assert components(0, []) == []
