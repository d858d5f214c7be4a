"""Release gate: one test per shipped guarantee, each a single pass/fail line.

The numbered criteria pin exact model sizes, brute-force equivalences over
full permutation enumerations, the group-averaging feasibility property,
reduction factors, and an end-to-end scale target.  Wall-clock budgets are
asserted where a guarantee includes one.  Everything is seeded and
deterministic."""

import itertools
import math
import random
import time
from pathlib import Path

import pytest

from nncp.baseline import brute_automorphisms, reynolds_check, solve_spp
from nncp.circuit import CNOT, RawGate, decompose, parse_real
from nncp.coupling import make
from nncp.generate import random_class_i
from nncp.lp import build_gnfp, build_rspp_scaled, gnfp_lp, simplex_solve, solve_reduced
from nncp.perm import inverse
from nncp.reconstruct import reconstruct, verify
from nncp.symmetry import quotient_graph, reduction_stats
from tests.test_symmetry import brute_edge_orbits


def chain(n):
    """Connected gate graph: pins every qubit into a singleton class."""
    return [(i, i + 1) for i in range(n - 1)]


def instance(n, pairs, family, m_side=None):
    c = decompose([RawGate(CNOT, p) for p in pairs], n=n)
    g, _, _ = make(family, n=n, m_side=m_side)
    return c, g


# biclique sides must differ, so (2, n-2) only exists for n >= 5
def families_for(n):
    fams = [("cycle", None), ("star", None)]
    if n >= 5:
        fams.append(("biclique", 2))
    return fams


# --- 1: pinned model sizes ------------------------------------------------------

def test_criterion_1_pinned_model_sizes():
    t0 = time.perf_counter()
    c, star = instance(6, chain(6), "star")
    lp = build_rspp_scaled(quotient_graph(c, star))
    assert (lp.n_vars, len(lp.rows)) == (166, 32)

    _, cycle = instance(6, chain(6), "cycle")
    lp = build_rspp_scaled(quotient_graph(c, cycle))
    assert lp.n_vars == 1980
    assert time.perf_counter() - t0 < 1.0


# --- 2: closed-form orbit/orbital counts against full enumeration ---------------

def test_criterion_2_orbit_counts_match_brute_enumeration():
    t0 = time.perf_counter()
    for n in (4, 5, 6):
        patterns = [chain(n), [(0, 1), (2, 3)], [(0, 1), (1, 2)]]
        for family, m_side in families_for(n):
            for pairs in patterns:
                c, g = instance(n, pairs, family, m_side)
                q = quotient_graph(c, g)
                auts = brute_automorphisms(g)
                group = q.fp.group_order * len(auts)
                edges = sorted(g.edges)

                sum_b = 0          # sum over tau of |B_tau|
                sum_b_orbits = 0   # sum over tau of |B_tau| * |E / B_tau|
                cross = [0] * c.m  # same sum restricted to compliant tau
                for tau in itertools.permutations(range(n)):
                    inv = inverse(tau)
                    pulled = [frozenset(inv[x] for x in cl) for cl in q.fp.classes]
                    b_elems = [b for b in auts
                               if all({b[x] for x in s} == s for s in pulled)]
                    sum_b += len(b_elems)
                    sum_b_orbits += len(b_elems) * len(brute_edge_orbits(edges, b_elems))
                    for k, (a, b) in enumerate(c.gates):
                        if tuple(sorted((inv[a], inv[b]))) in g.edges:
                            cross[k] += len(b_elems)

                # orbit-counting: each orbit contributes |G| to the weighted sums
                assert sum_b == len(q.nodes) * group
                assert sum_b_orbits == len(q.arcs) * group
                for k in range(c.m):
                    assert cross[k] == len(q.compliant[k]) * group
    assert time.perf_counter() - t0 < 30.0


# --- 3 + 6 + 9 share a seeded 60-instance pool -----------------------------------

def _random_pool():
    """60 instances covering n in {4,5,6}, all families, and circuits whose
    gate graphs are connected (trivial stabilizer) or sparse (free qubits)."""
    cells = [(n, family, m_side)
             for n in (4, 5, 6) for family, m_side in families_for(n)]
    records = []
    for i in range(60):
        n, family, m_side = cells[i % len(cells)]
        connected = (i // len(cells)) % 2 == 0
        rng = random.Random(3000 + i)
        if connected:
            extra = rng.randint(0, 15 - (n - 1))
            pairs = chain(n) + [tuple(rng.sample(range(n), 2))
                                for _ in range(extra)]
        else:
            sub = rng.sample(range(n), max(2, n - 2))
            pairs = [tuple(rng.sample(sub, 2)) for _ in range(rng.randint(1, 8))]
        c, g = instance(n, pairs, family, m_side)
        q = quotient_graph(c, g)
        opt, sol = solve_reduced(q)
        records.append({
            "instance": (family, n, len(pairs), 3000 + i),
            "stats": reduction_stats(q),
            "reduced": opt,
            "baseline": solve_spp(c, g).opt,
            "verified": verify(reconstruct(q, sol), c, g)["ok"],
        })
    return records


@pytest.fixture(scope="module")
def random_pool():
    t0 = time.perf_counter()
    records = _random_pool()
    return records, time.perf_counter() - t0


def test_criterion_3_reduced_optimum_matches_layered_bfs(random_pool):
    records, elapsed = random_pool
    assert len(records) == 60
    wrong = [(r["instance"], r["reduced"], r["baseline"])
             for r in records if r["reduced"] != r["baseline"]]
    assert not wrong, f"reduced vs layered-graph optimum mismatch: {wrong}"
    assert any(r["stats"]["snf_order"] == 1 for r in records)
    assert any(r["stats"]["snf_order"] > 1 for r in records)
    assert elapsed < 300.0


# --- 4 + 9: star DP pool ----------------------------------------------------------

@pytest.fixture(scope="module")
def star_pool():
    from nncp.dp import solve_star_dp, star_solution

    t0 = time.perf_counter()
    records = []
    for i in range(30):
        rng = random.Random(4000 + i)
        n = rng.randint(5, 20)
        pairs = chain(n) + [tuple(rng.sample(range(n), 2))
                            for _ in range(rng.randint(0, n))]
        c, g = instance(n, pairs, "star")
        q = quotient_graph(c, g)
        assert q.fp.group_order == 1  # connected gate graph by construction
        opt, sol = solve_reduced(q)
        table = solve_star_dp(c)
        records.append({
            "instance": (n, len(pairs), 4000 + i),
            "reduced": opt,
            "dp": table.opt,
            "verified": (verify(reconstruct(q, sol), c, g)["ok"]
                         and verify(star_solution(c, table), c, g)["ok"]),
        })
    return records, time.perf_counter() - t0


def test_criterion_4_star_dp_matches_reduced(star_pool):
    records, elapsed = star_pool
    assert len(records) == 30
    wrong = [(r["instance"], r["dp"], r["reduced"])
             for r in records if r["dp"] != r["reduced"]]
    assert not wrong, f"DP vs reduced optimum mismatch: {wrong}"
    assert elapsed < 10.0


# --- 5: group averaging preserves feasibility and objective -----------------------

def test_criterion_5_group_averaged_flow_stays_feasible():
    grid = [
        (4, chain(4), "cycle", None),
        (4, [(0, 1), (2, 3)], "star", None),
        (5, [(0, 1), (1, 2)], "cycle", None),
        (5, [(0, 1), (2, 3)], "biclique", 2),
        (5, chain(5), "star", None),
    ]
    for n, pairs, family, m_side in grid:
        c, g = instance(n, pairs, family, m_side)
        report = reynolds_check(c, g)
        assert report["ok"], (family, n, report)
        assert report["max_row_residual"] <= 1e-9
        assert report["max_bound_violation"] <= 1e-9
        assert report["objective_error"] <= 1e-9


# --- 6: symmetry reduction shrinks the model by 90% on average --------------------
# The paper claims a reduction of at least 90% on average over the architectures
# it tests, so the 90% bound is asserted on each coupling family's mean over its
# n >= 5 instances.  It is not asserted per instance: on a 5-cycle with a
# connected gate graph the group is Aut(C5) of order 10 acting freely, the
# conservation rows shrink exactly 10-fold, but the two shared source/sink rows
# keep the constraint ratio (2+12m)/(2+120m) above 1/10 for every m.  Where the
# group acts freely (trivial stabilizer) the exact |Aut|-fold shrink is pinned
# instead, and orbit-stabilizer bounds the quotient size on every instance.

def test_criterion_6_reduction_at_least_90_percent(random_pool):
    records, _ = random_pool
    by_family = {}
    for r in records:
        family, n, m, seed = r["instance"]
        if n >= 5:
            by_family.setdefault(family, []).append(r)
    assert set(by_family) == {"cycle", "star", "biclique"}

    def row(r):
        family, n, m, seed = r["instance"]
        s = r["stats"]
        return (family, n, m, s["snf_order"],
                round(s["reduction_variables_pct"], 3),
                round(s["reduction_constraints_pct"], 3))

    for family, rs in by_family.items():
        var_mean = sum(r["stats"]["reduction_variables_pct"] for r in rs) / len(rs)
        const_mean = sum(r["stats"]["reduction_constraints_pct"] for r in rs) / len(rs)
        low = [row(r) for r in rs
               if r["stats"]["reduction_variables_pct"] < 90.0
               or r["stats"]["reduction_constraints_pct"] < 90.0]
        assert var_mean >= 90.0 and const_mean >= 90.0, (
            f"{family}: mean reduction {var_mean:.3f}% variables, "
            f"{const_mean:.3f}% constraints over {len(rs)} instances with n >= 5; "
            "instances under the 90% mark (family, n, m, |stabilizer|, var%, "
            f"const%): {low}"
        )

    for rs in by_family.values():
        for r in rs:
            s = r["stats"]
            group = s["snf_order"] * s["aut_order"]
            # orbit-stabilizer: no orbit is larger than the group
            assert s["nodes_per_layer"] * group >= math.factorial(s["n"]), (
                "quotient merged more orders than the group allows", row(r),
                s["nodes_per_layer"], group)
            if s["snf_order"] == 1:
                # free action: everything but the source/sink rows shrinks |Aut|-fold
                aut = s["aut_order"]
                assert s["variables"] * aut == s["unreduced_variables"], (
                    "variables did not shrink exactly |Aut|-fold", row(r), aut)
                assert ((s["constraints"] - 2) * aut
                        == s["unreduced_constraints"] - 2), (
                    "conservation rows did not shrink exactly |Aut|-fold", row(r), aut)


# --- 7 + 9: end-to-end scale target -----------------------------------------------

@pytest.fixture(scope="module")
def large_star_run():
    t0 = time.perf_counter()
    c = decompose(random_class_i(n=100, m=400, seed=7), n=100)
    g, _, _ = make("star", n=100)
    q = quotient_graph(c, g)
    opt, sol = solve_reduced(q)
    schedule = reconstruct(q, sol)
    report = verify(schedule, c, g)
    return {"opt": opt, "verified": report["ok"],
            "elapsed": time.perf_counter() - t0}


def test_criterion_7_hundred_qubit_star_under_five_minutes(large_star_run):
    assert large_star_run["verified"]
    assert large_star_run["elapsed"] < 300.0


# --- 8: the network-flow form prices out identically ------------------------------

def test_criterion_8_network_flow_matches_scaled_lp():
    for i in range(20):
        rng = random.Random(8000 + i)
        n = rng.choice((4, 5, 6))
        family, m_side = rng.choice(families_for(n))
        if rng.random() < 0.5:
            pairs = chain(n)[:rng.randint(2, n - 1)]
        else:
            pairs = [tuple(rng.sample(range(n), 2))
                     for _ in range(rng.randint(1, 6))]
        c, g = instance(n, pairs, family, m_side)
        q = quotient_graph(c, g)
        lp_sol = simplex_solve(build_rspp_scaled(q))
        flow_sol = simplex_solve(gnfp_lp(build_gnfp(q)))
        assert lp_sol.status == flow_sol.status == "OPTIMAL", (family, n, i)
        assert abs(lp_sol.objective - flow_sol.objective) <= 1e-6, \
            (family, n, i, lp_sol.objective, flow_sol.objective)


# --- 9: every schedule produced above re-verifies ----------------------------------

def test_criterion_9_every_schedule_verifies(random_pool, star_pool, large_star_run):
    records = random_pool[0] + star_pool[0] + [large_star_run]
    assert len(records) == 91
    failed = [r.get("instance", "large-star") for r in records if not r["verified"]]
    assert not failed, f"schedules that failed verification: {failed}"


# --- optional pinned optima for a published benchmark circuit ----------------------

REVLIB = Path(__file__).parent / "fixtures" / "graycode6_47.real"


@pytest.mark.skipif(not REVLIB.is_file(), reason="benchmark circuit not bundled")
def test_revlib_graycode6_47_pinned_optima():
    gates, meta = parse_real(REVLIB.read_text())
    c = decompose(gates, n=meta.get("numvars"),
                  qubit_names=meta["variables"] or None)
    for family, m_side, expected in [("star", None, 2), ("cycle", None, 0),
                                     ("biclique", 2, 1)]:
        g, _, _ = make(family, n=c.n, m_side=m_side)
        opt, _ = solve_reduced(quotient_graph(c, g))
        assert opt == expected, (family, opt, expected)
