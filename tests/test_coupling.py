import itertools

import pytest

from nncp.baseline import brute_automorphisms
from nncp.coupling import (GENERAL_N_CAP, CouplingGraph, canonical_right,
                           coupling_from_descriptor, make)
from nncp.errors import CapError, ParseError
from nncp.perm import compose, inverse


@pytest.mark.parametrize("family, n, m_side, order", [
    ("cycle", 4, None, 8),      # dihedral 2n
    ("cycle", 6, None, 12),
    ("star", 5, None, 24),      # leaves permute freely: (n-1)!
    ("star", 6, None, 120),
    ("biclique", 6, 2, 48),     # 2!·4!
    ("biclique", 5, 2, 12),
])
def test_aut_orders(family, n, m_side, order):
    g, _, aut = make(family, n=n, m_side=m_side)
    assert aut.order == order
    if n <= 6:
        assert len(brute_automorphisms(g)) == order


@pytest.mark.parametrize("family, n, m_side", [
    ("cycle", 5, None), ("star", 5, None), ("biclique", 5, 2)])
def test_generators_inside_brute_group(family, n, m_side):
    g, _, aut = make(family, n=n, m_side=m_side)
    brute = set(brute_automorphisms(g))
    if aut.elements is not None:
        assert set(aut.elements) == brute


def test_cycle_elements_closed():
    _, _, aut = make("cycle", n=6)
    elems = set(aut.elements)
    for a in aut.elements:
        assert inverse(a) in elems
        for b in aut.elements:
            assert compose(a, b) in elems


def test_general_family_detects_square():
    g, swaps, aut = make("general", edges=[(0, 1), (1, 2), (2, 3), (0, 3)])
    assert g.n == 4 and aut.order == 8
    assert swaps == ((0, 1), (0, 3), (1, 2), (2, 3)) == tuple(sorted(g.edges))


def test_general_caps():
    with pytest.raises(CapError):
        make("general", edges=[(i, i + 1) for i in range(GENERAL_N_CAP)])
    # K_9 has 9! = 362880 automorphisms, far past the element cap
    with pytest.raises(CapError):
        make("general", edges=list(itertools.combinations(range(9), 2)))


def test_make_validation():
    with pytest.raises(ValueError, match="connected"):
        make("general", edges=[(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="1 <= M < N"):
        make("biclique", n=4, m_side=2)
    with pytest.raises(ValueError):
        make("nonsense", n=4)


def test_transposition_set_matches_edges():
    g, swaps, _ = make("star", n=4)
    assert swaps == ((0, 1), (0, 2), (0, 3)) == tuple(sorted(g.edges))


# --- canonical coset representatives -----------------------------------------

def brute_canonical(tau: tuple, g: CouplingGraph) -> tuple:
    return min(compose(tau, inverse(b)) for b in brute_automorphisms(g))


def listed(family, n, m_side):
    """The coupling, with a star or biclique given as a general edge list:
    canonicalization runs on listed groups only."""
    g, _, _ = make(family, n=n, m_side=m_side)
    if family in ("star", "biclique"):
        g, _, _ = make("general", edges=sorted(g.edges))
    return g


@pytest.mark.parametrize("family, n, m_side", [
    ("cycle", 5, None), ("star", 5, None), ("biclique", 5, 2),
    ("cycle", 6, None), ("biclique", 6, 2)])
def test_canonical_right_matches_brute_minimum(family, n, m_side):
    g = listed(family, n, m_side)
    for tau in itertools.islice(itertools.permutations(range(n)), 0, None, 7):
        rep, b = canonical_right(tau, g)
        assert rep == brute_canonical(tau, g)
        assert rep == compose(tau, inverse(b))


@pytest.mark.parametrize("family, n, m_side", [
    ("cycle", 5, None), ("star", 5, None), ("biclique", 5, 2)])
def test_canonical_right_constant_on_cosets(family, n, m_side):
    g = listed(family, n, m_side)
    tau = (3, 1, 4, 0, 2)
    rep, _ = canonical_right(tau, g)
    for b in brute_automorphisms(g):
        rep2, _ = canonical_right(compose(tau, b), g)
        assert rep2 == rep


def test_canonical_right_witness_in_group():
    g = listed("biclique", 6, 2)
    brute = set(brute_automorphisms(g))
    tau = (5, 3, 1, 0, 4, 2)
    _, b = canonical_right(tau, g)
    assert b in brute


@pytest.mark.parametrize("family, m_side", [("star", None), ("biclique", 2)])
def test_canonical_right_refuses_split_couplings(family, m_side):
    # a star or biclique lists no group elements: its orders are class vectors
    g, _, _ = make(family, n=5, m_side=m_side)
    with pytest.raises(ValueError, match="class vectors"):
        canonical_right((3, 1, 4, 0, 2), g)


# --- CLI descriptors ----------------------------------------------------------

def test_descriptor_named_families():
    g = coupling_from_descriptor("star", 5)
    assert g.family == "star"
    g = coupling_from_descriptor("cycle", 5)
    assert g.family == "cycle"
    g = coupling_from_descriptor("biclique:2", 5)
    assert g.family == "biclique" and g.split == 2


def test_descriptor_file(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("# a square\n1 2\n2 3\n3 4\n4 1\n")
    g = coupling_from_descriptor(f"file:{p}", 4)
    assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})


def test_descriptor_errors():
    with pytest.raises(ParseError):
        coupling_from_descriptor("biclique:x", 5)
    with pytest.raises(ParseError):
        coupling_from_descriptor("torus", 5)
