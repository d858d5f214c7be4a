"""The committed corpus (`tests/corpus.py`, `tests/corpus.json`) still
holds: every fast row gives its pinned ``opt``, orbit and arc counts, arc
column digest and schedule digest.  Each coupling's rows are solved in
corpus order on one coupling object, so its second trivial-pattern row
takes the layer the first one built.  The pinned optima were checked
against their oracles when the corpus was pinned."""

import pytest

from nncp.circuit import fixing_pattern
from tests import corpus

ROWS = corpus.load()


def test_the_corpus_lists_every_instance_once():
    made = [(name, kind, c.n, c.m, fixing_pattern(c).trivial)
            for name, _, circuits in corpus.instances() for kind, c in circuits]
    assert made == [(r["coupling"], r["kind"], r["n"], r["m"], r["trivial"]) for r in ROWS]
    assert {r["oracle"] for r in ROWS if r["coupling"].startswith("star-")} == {"solve_star_dp"}
    assert all(r["oracle"] == "solve_spp" and r["n"] <= 8
               for r in ROWS if not r["coupling"].startswith("star-"))


@pytest.mark.parametrize("name", list(corpus.COUPLINGS))
def test_pinned_rows_hold(name):
    assert corpus.check(ROWS, [name], slow=False) == []
