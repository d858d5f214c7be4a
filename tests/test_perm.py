import pytest
from hypothesis import given, strategies as st

from nncp.perm import (Permutation, all_permutations, compose, identity, inverse,
                       one_line_str, pair)


def perms(n):
    return st.permutations(range(n)).map(lambda t: Permutation(tuple(t)))


def test_validation():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((0, 2))
    with pytest.raises(ValueError):
        pair(3, 3)


def test_immutable():
    p = identity(4)
    with pytest.raises(AttributeError):
        p.images = (1, 0, 2, 3)


@given(perms(6), perms(6), perms(6))
def test_compose_associative(p, q, r):
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


@given(perms(7))
def test_inverse_law(p):
    assert compose(p, inverse(p)) == identity(7)
    assert compose(inverse(p), p) == identity(7)


@given(perms(5), st.integers(0, 4))
def test_compose_pointwise(p, x):
    q = Permutation((2, 0, 1, 4, 3))
    assert compose(p, q)(x) == p(q(x))


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


@given(perms(6), st.integers(0, 5), st.integers(0, 5))
def test_swap_is_right_multiplication(p, i, j):
    if i == j:
        return
    t = list(range(6))
    t[i], t[j] = j, i
    assert p.swap(i, j) == compose(p, Permutation(t))


def test_one_line_round_trip():
    p = Permutation((2, 0, 3, 1))
    assert one_line_str(p) == "(3,1,4,2)"


def test_all_permutations_lexicographic():
    ps = list(all_permutations(3))
    assert len(ps) == 6
    assert ps[0] == identity(3)
    assert all(ps[i] < ps[i + 1] for i in range(5))


def test_transposition_normalized():
    assert pair(4, 1) == pair(1, 4) == (1, 4)
