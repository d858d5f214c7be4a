import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.optimize

from nncp.circuit import parse_real
from nncp.cli import _exact_integers, main
from nncp.errors import ParseError
from nncp.lp import build_rspp_scaled, simplex_solve

REAL = """\
.version 2.0
.numvars 4
.variables a b c d
.begin
t2 a b
t2 c d
t2 a b
.end
"""


@pytest.fixture
def real_file(tmp_path):
    path = tmp_path / "inst.real"
    path.write_text(REAL)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_human(real_file, capsys):
    code, out, _ = run(capsys, "solve", "--circuit", real_file,
                       "--coupling", "star")
    assert code == 0
    assert "n=4 m=3" in out
    assert "reduced: opt=2" in out
    assert out.count("swap after gate") == 2


def test_solve_json(real_file, capsys):
    code, out, _ = run(capsys, "solve", "--circuit", real_file,
                       "--coupling", "star", "--out", "json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["opt"] == 2
    assert data["methods"] == {"reduced": 2}
    assert len(data["orders"]) == 3
    # the braces, one line per key, one row per order and per swap, and the
    # closing brackets of those two lists
    assert len(out.splitlines()) == 2 + len(data) + len(data["orders"]) + len(data["swaps"]) + 2


def test_solve_csv_all_methods(real_file, capsys):
    code, out, _ = run(capsys, "solve", "--circuit", real_file,
                       "--coupling", "star", "--method", "all", "--out", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,m,coupling,method,opt,swap_count"
    rows = {line.split(",")[3]: line for line in lines[1:]}
    assert set(rows) == {"reduced", "baseline", "dp"}
    assert all(line.endswith(",2,2") for line in rows.values())


def test_solve_generated_descriptor(capsys):
    code, out, _ = run(capsys, "solve", "--circuit", "classI:5:6",
                       "--coupling", "cycle", "--seed", "9", "--out", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 5 and data["m"] == 6
    assert data["opt"] == len(data["swaps"])


def test_solve_output_is_deterministic(capsys):
    argv = ("solve", "--circuit", "classII:6:8", "--coupling", "biclique:2",
            "--seed", "4", "--out", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_stats_human_and_csv(real_file, capsys):
    code, out, _ = run(capsys, "stats", "--circuit", real_file,
                       "--coupling", "star")
    assert code == 0
    assert "variables" in out and "reduction_constraints_pct" in out

    code, out, _ = run(capsys, "stats", "--circuit", real_file,
                       "--coupling", "star", "--out", "csv")
    assert code == 0
    header, values = out.strip().splitlines()
    assert len(header.split(",")) == len(values.split(","))
    assert "n" in header.split(",")


def test_stats_writes_integers_past_the_digit_cap(capsys):
    # |Aut| = 1799! has 5 000+ digits, past the interpreter's 4 300-digit cap
    # on int-to-str conversion; the cap is lifted only while the stats are
    # written, so a 5 000-digit .numvars is still a parse error afterwards
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    argv = ["stats", "--circuit", "classI:1800:10", "--coupling", "star", "--out"]
    outs = {}
    for fmt in ("json", "csv", "human"):
        code, outs[fmt], err = run(capsys, *argv, fmt)
        assert (code, err) == (0, ""), fmt
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap
    with _exact_integers():
        assert json.loads(outs["json"])["aut_order"] == math.factorial(1799)
    assert outs["csv"].splitlines()[1].startswith("1800,10,star,")
    assert outs["human"].splitlines()[-1].startswith("reduction_constraints_pct")
    with pytest.raises(ParseError, match="expects an integer"):
        parse_real(".version 2.0\n.numvars " + "9" * 5000 + "\n.begin\n.end\n")


def test_stats_json_reads_back_with_the_digit_cap_lifted(capsys):
    # what a reader of `nncp stats --out json` does: json.loads refuses an
    # integer past 4 300 digits (Python >= 3.11) until the cap is lifted
    code, out, _ = run(capsys, "stats", "--circuit", "classI:1800:10",
                       "--coupling", "star", "--out", "json")
    assert code == 0
    if hasattr(sys, "set_int_max_str_digits"):
        cap = sys.get_int_max_str_digits()
        if cap:
            with pytest.raises(ValueError, match="Exceeds the limit"):
                json.loads(out)
        sys.set_int_max_str_digits(0)
        try:
            stats = json.loads(out)
        finally:
            sys.set_int_max_str_digits(cap)
    else:
        stats = json.loads(out)
    assert stats["schema"] == 1
    assert stats["aut_order"] == math.factorial(1799)
    assert stats["unreduced_constraints"] == 10 * math.factorial(1800) + 2


def test_decompose_round_trips(capsys, tmp_path):
    path = tmp_path / "toff.real"
    path.write_text(".version 2.0\n.numvars 3\n.variables a b c\n"
                    ".begin\nt3 a b c\n.end\n")
    code, out, _ = run(capsys, "decompose", "--circuit", str(path))
    assert code == 0
    assert out.count("t2 ") == 5  # one Toffoli expands to five two-qubit gates

    # the emitted text is itself a loadable instance
    two = tmp_path / "two.real"
    two.write_text(out)
    code, solved, _ = run(capsys, "solve", "--circuit", str(two),
                          "--coupling", "star", "--out", "json")
    assert code == 0
    assert json.loads(solved)["m"] == 5


def test_verify_round_trip(real_file, capsys, tmp_path):
    _, out, _ = run(capsys, "solve", "--circuit", real_file,
                    "--coupling", "star", "--out", "json")
    sol = tmp_path / "sol.json"
    sol.write_text(out)
    code, report, _ = run(capsys, "verify", "--solution", str(sol),
                          "--circuit", real_file, "--coupling", "star")
    assert code == 0
    assert json.loads(report)["ok"]
    # the same swaps listed high end first still verify
    data = json.loads(out)
    assert data["swaps"]
    for entry in data["swaps"]:
        entry["swap"].reverse()
    sol.write_text(json.dumps(data))
    code, report, _ = run(capsys, "verify", "--solution", str(sol),
                          "--circuit", real_file, "--coupling", "star")
    assert code == 0
    assert json.loads(report)["ok"]


def test_verify_rejects_tampered_solution(real_file, capsys, tmp_path):
    _, out, _ = run(capsys, "solve", "--circuit", real_file,
                    "--coupling", "star", "--out", "json")
    data = json.loads(out)
    data["swaps"] = []  # claim the optimum needs no swaps
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps(data))
    code, report, err = run(capsys, "verify", "--solution", str(sol),
                            "--circuit", real_file, "--coupling", "star")
    assert code == 4
    assert not json.loads(report)["ok"]
    assert "error:" in err


def test_random_emits_parseable_real(capsys, tmp_path):
    code, out, _ = run(capsys, "random", "--class", "II",
                       "--n", "6", "--m", "10", "--seed", "2")
    assert code == 0
    path = tmp_path / "gen.real"
    path.write_text(out)
    code, solved, _ = run(capsys, "solve", "--circuit", str(path),
                          "--coupling", "star", "--out", "json")
    assert code == 0


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "solve", "--circuit", "/no/such/file.real",
                       "--coupling", "star")
    assert code == 1 and "no such circuit file" in err

    code, _, err = run(capsys, "solve", "--circuit", "classI:bad",
                       "--coupling", "star")
    assert code == 1

    code, _, err = run(capsys, "solve", "--circuit", "classI:5:4",
                       "--coupling", "cycle", "--method", "dp")
    assert code == 1 and "star coupling" in err


def test_undecodable_circuit_file_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "bin.real"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "solve", "--circuit", str(path),
                         "--coupling", "star")
    assert code == 1 and out == ""
    assert err.startswith("error: cannot read circuit file ") and str(path) in err
    assert err.count("\n") == 1


def test_exit_code_cap_error(capsys, tmp_path):
    edges = "\n".join(f"{i} {i + 1}" for i in range(1, 12))
    path = tmp_path / "path12.edges"
    path.write_text(edges + "\n")
    code, _, err = run(capsys, "solve", "--circuit", "classI:12:3",
                       "--coupling", f"file:{path}")
    assert code == 2 and "error:" in err


def test_idle_qubits_hit_no_cap(capsys):
    # 3 gates on 20 qubits leave at least 14 idle: S_n(F) has >= 14! elements
    code, out, err = run(capsys, "solve", "--circuit", "classI:20:3",
                         "--coupling", "star", "--method", "all", "--out", "json")
    assert code == 0, err
    data = json.loads(out)
    assert data["methods"]["reduced"] == data["methods"]["dp"]


def test_oversized_split_quotient_fails_fast(capsys):
    # a connected pattern on biclique:5 has C(60, 5) = 5 461 512 orbits,
    # over the cap: counted before any orbit is built
    code, out, err = run(capsys, "stats", "--circuit", "classI:60:200",
                         "--coupling", "biclique:5")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "5461512" in err


def test_oversized_split_arc_count_fails_fast(capsys):
    # on biclique:4 the C(60, 4) = 487 635 orbits pass the cap, but each has
    # 4·56 arcs, 109 230 240 in all: counted before any orbit is built
    code, out, err = run(capsys, "stats", "--circuit", "classI:60:200",
                         "--coupling", "biclique:4")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "arc count 109230240" in err


def test_a_star_whose_arcs_pass_the_cap_solves(capsys, tmp_path):
    # a chain on a 2 300-location star: 2 300 orbits and 2 300·2 299 arcs,
    # over the cap, but neither stats nor a star solve builds an arc
    names = [f"x{i}" for i in range(2300)]
    path = tmp_path / "chain2300.real"
    path.write_text(f".numvars 2300\n.variables {' '.join(names)}\n.begin\n"
                    + "".join(f"t2 {x} {y}\n" for x, y in zip(names, names[1:]))
                    + ".end\n")
    code, out, _ = run(capsys, "stats", "--circuit", str(path), "--coupling", "star",
                       "--out", "json")
    assert code == 0
    with _exact_integers():
        assert json.loads(out)["arcs_per_layer"] == 5287700
    # solve verifies the schedule before it prints
    code, out, _ = run(capsys, "solve", "--circuit", str(path), "--coupling", "star",
                       "--out", "csv")
    assert code == 0
    assert out.splitlines()[1] == "2300,2299,star,reduced,1149,1149"


def test_worklist_orbit_cap_exits_2(capsys, tmp_path, monkeypatch):
    # a chain of gates fixes every qubit: cycle-7 has 7!/14 = 360 orbits
    monkeypatch.setattr("nncp.symmetry.ORBIT_NODE_CAP", 100)
    names = "abcdefg"
    path = tmp_path / "chain7.real"
    path.write_text(f".numvars 7\n.variables {' '.join(names)}\n.begin\n"
                    + "".join(f"t2 {x} {y}\n" for x, y in zip(names, names[1:]))
                    + ".end\n")
    code, out, err = run(capsys, "solve", "--circuit", str(path), "--coupling", "cycle")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "orbit count exceeds cap 100" in err


def test_exit_code_out_of_memory(capsys, monkeypatch):
    def out_of_memory(q):
        raise MemoryError("Unable to allocate 1.58 GiB for an array")

    monkeypatch.setattr("nncp.cli.solve_reduced", out_of_memory)
    code, out, err = run(capsys, "solve", "--circuit", "classI:5:4",
                         "--coupling", "star")
    assert code == 2
    assert out == ""
    assert err == "error: out of memory: Unable to allocate 1.58 GiB for an array\n"


def test_exit_code_solver_error(capsys, monkeypatch):
    # the LP path's failure when HiGHS gives up, raised where solve_reduced runs
    def numerical_failure(*args, **kwargs):
        return scipy.optimize.OptimizeResult(status=4, x=None, message="HiGHS gave up")

    monkeypatch.setattr(scipy.optimize, "linprog", numerical_failure)
    monkeypatch.setattr("nncp.cli.solve_reduced",
                        lambda q: simplex_solve(build_rspp_scaled(q)))
    code, out, err = run(capsys, "solve", "--circuit", "classI:5:4",
                         "--coupling", "star")
    assert code == 3
    assert out == ""
    assert err.splitlines() == ["error: LP solver failed: HiGHS gave up"]


def test_bad_coupling_descriptor(capsys):
    code, _, err = run(capsys, "solve", "--circuit", "classI:5:4",
                       "--coupling", "torus")
    assert code == 1


def assert_one_error_line(code, out, err):
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


@pytest.mark.parametrize("circuit, coupling", [
    ("classI:2:1", "star"),             # a star needs at least 2 leaves
    ("classI:6:5", "biclique:3"),       # the small side must be the smaller
    ("classI:4:2", "file:/nonexistent"),
    ("classI:4:2", "file:{tmp}/disconnected.edges"),
    ("classI:2:1", "file:{tmp}/self_loop.edges"),
    ("classI:3:4", "file:{tmp}/zero_based.edges"),     # line 1 names location 0
    ("classI:3:4", "file:{tmp}/negative.edges"),       # line 1 names location -2
])
def test_bad_coupling_exits_1(capsys, tmp_path, circuit, coupling):
    (tmp_path / "disconnected.edges").write_text("1 2\n3 4\n")
    (tmp_path / "self_loop.edges").write_text("1 1\n")
    (tmp_path / "zero_based.edges").write_text("0 1\n1 2\n")
    (tmp_path / "negative.edges").write_text("1 -2\n")
    code, out, err = run(capsys, "solve", "--circuit", circuit,
                         "--coupling", coupling.format(tmp=tmp_path))
    assert_one_error_line(code, out, err)
    if coupling.endswith(("zero_based.edges", "negative.edges")):
        assert "line 1" in err


@pytest.mark.parametrize("argv", [
    ("solve", "--circuit", "classI:5:-2", "--coupling", "cycle"),
    ("solve", "--circuit", "classII:5:-1", "--coupling", "star"),
    ("stats", "--circuit", "classI:5:-2", "--coupling", "cycle"),
    ("random", "--class", "I", "--n", "3", "--m", "-1"),
    ("random", "--class", "II", "--n", "5", "--m", "-3"),
])
def test_negative_gate_count_exits_1(capsys, argv):
    assert_one_error_line(*run(capsys, *argv))


@pytest.mark.parametrize("command", [
    ("solve", "--coupling", "star"),
    ("stats", "--coupling", "star"),
    ("decompose",),
])
def test_negative_numvars_exits_1(capsys, tmp_path, command):
    path = tmp_path / "negative.real"
    path.write_text(".version 2.0\n.numvars -1\n.begin\n.end\n")
    code, out, err = run(capsys, command[0], "--circuit", str(path), *command[1:])
    assert_one_error_line(code, out, err)
    assert "line 2" in err


def test_coupling_file_of_the_wrong_size_exits_1(capsys, tmp_path):
    # 11 locations: over the automorphism-search cap, but the size mismatch
    # with a 4-qubit circuit is reported first
    path = tmp_path / "path11.edges"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(1, 11)))
    code, out, err = run(capsys, "solve", "--circuit", "classI:4:2",
                         "--coupling", f"file:{path}")
    assert_one_error_line(code, out, err)
    assert "covers 11 locations, circuit has 4 qubits" in err


@pytest.mark.parametrize("data", [
    [1, 2],                                                     # not an object
    {"opt": 0, "orders": 5, "swaps": []},                       # orders not a list
    {"opt": 1, "orders": [[1, 2, 3, 4], [2, 1, 3, 4]],
     "swaps": [{"after_gate": 1, "swap": [1]}]},                # one-point swap
    {"opt": 1, "orders": [[1, 2, 3, 4], [2, 1, 3, 4]],
     "swaps": [{"after_gate": 1, "swap": [0, 1]}]},             # 0-based swap
    {"opt": 1, "orders": [[1, 2, 3, 4], [2, 1, 3, 4]],
     "swaps": [{"after_gate": 1, "swap": [2, 2]}]},             # one location twice
    {"opt": 0, "orders": [[1, 1, 3, 4], [1, 2, 3, 4]],
     "swaps": []},                                              # a repeated qubit
    {"opt": 0, "orders": [[1, 2, 3, 5], [1, 2, 3, 4]],
     "swaps": []},                                              # qubit 5 of 4
])
def test_malformed_solution_file_exits_1(capsys, tmp_path, data):
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps(data))
    assert_one_error_line(*run(capsys, "verify", "--solution", str(sol),
                               "--circuit", "classI:4:2", "--coupling", "star"))


def test_closed_stdout_exits_141_quietly():
    # the reader takes one line and closes the pipe, as `| head -1` does; the
    # ~0.18 MB schedule outgrows the pipe buffer, so a later write hits EPIPE
    root = Path(__file__).resolve().parent.parent
    with subprocess.Popen(
            [sys.executable, "-m", "nncp.cli", "solve", "--circuit", "classI:100:400",
             "--coupling", "star", "--out", "json"],
            cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src")),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
    assert err == b""
