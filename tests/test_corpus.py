"""The committed corpus (`tests/corpus.py`, `tests/corpus.json`) still
holds: every fast row gives its pinned ``opt``, orbit and arc counts, arc
column digest and schedule digest.  Each coupling's rows are solved in
corpus order on one coupling object, so its second trivial-pattern row
takes the layer the first one built.  The pinned optima were checked
against their oracles when the corpus was pinned, and the benchmark rows'
against the benchmark's own pins."""

import json
import os

import pytest

from nncp.circuit import fixing_pattern
from tests import corpus

ROWS = corpus.load()
NAMES = list(dict.fromkeys(row["coupling"] for row in ROWS))


def test_the_corpus_lists_every_instance_once():
    made = [(name, kind, c.n, c.m, fixing_pattern(c).trivial, g.family)
            for name, g, circuits in corpus.instances() for kind, c in circuits]
    assert [m[:5] for m in made] == [
        (r["coupling"], r["kind"], r["n"], r["m"], r["trivial"]) for r in ROWS]
    for (*_, family), row in zip(made, ROWS):
        if family == "star":
            assert row["oracle"] == "solve_star_dp"
        else:
            assert row["oracle"] == "solve_spp" and row["n"] <= 8


def test_benchmark_rows_pin_the_benchmark_optima():
    # every instance of seeds 0 and 1, with the optimum perfbench pinned
    with open(os.path.join(corpus.ROOT, "perfbench", "pins.json")) as f:
        pins = json.load(f)
    key = corpus.workloads().instance_key
    opt = {(row["coupling"], row["kind"]): row["opt"] for row in ROWS}
    pinned = [(opt[name, inst["name"]], pins[key(inst)]["opt"])
              for name, insts in corpus.benchmark_instances() for inst in insts]
    assert len(pinned) == 56
    assert all(a == b for a, b in pinned)


@pytest.mark.parametrize("name", NAMES)
def test_pinned_rows_hold(name):
    assert corpus.check(ROWS, [name], slow=False) == []
