import hashlib
import json

import numpy as np
import pytest

from conftest import random_affine_instance, random_table_instance
from rightsizing import instance_from_json, instance_to_json, dp_optimal, solve_poly
from rightsizing.cli import main


def write_instance(tmp_path, doc, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def zeros_doc(T=3, m=2):
    return {
        "T": T, "m": m, "beta": 1.0, "convention": "up_only",
        "functions": [{"kind": "table", "values": [0.0] * (m + 1)}] * T,
    }


def e1_doc():
    return {
        "T": 3, "m": 2, "beta": 1.0, "convention": "up_only",
        "functions": [
            {"kind": "table", "values": [3, 1, 0]},
            {"kind": "table", "values": [0, 1, 3]},
            {"kind": "table", "values": [3, 1, 0]},
        ],
    }


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_zero_instance(tmp_path, capsys):
    path = write_instance(tmp_path, zeros_doc())
    assert main(["solve", path, "--algorithm", "oracle"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schedule"] == [0, 0, 0]
    assert doc["cost"] == 0.0


def test_solve_both_algorithms_agree(tmp_path, capsys):
    path = write_instance(tmp_path, e1_doc())
    costs = {}
    for algo in ("poly", "oracle"):
        assert main(["solve", path, "--algorithm", algo]) == 0
        costs[algo] = json.loads(capsys.readouterr().out)["cost"]
    assert costs["poly"] == costs["oracle"] == 4.0


def test_solve_deterministic_apart_from_wall_clock(tmp_path, capsys):
    path = write_instance(tmp_path, e1_doc())
    docs = []
    for _ in range(2):
        assert main(["solve", path, "--algorithm", "poly", "--seed", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        doc.pop("wall_ms")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_solve_notes_padding(tmp_path, capsys):
    rng = np.random.default_rng(0)
    inst = random_table_instance(rng, 4, 5, beta=1.0)
    path = write_instance(tmp_path, instance_to_json(inst))
    assert main(["solve", path, "--algorithm", "poly"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["padded_m"] == 8
    assert max(doc["schedule"]) <= 5


def test_solve_schema_violation_exit_2(tmp_path, capsys):
    path = write_instance(tmp_path, {"T": 1, "m": 1, "beta": 1.0,
                                     "convention": "up_only"})
    assert main(["solve", path]) == 2
    assert "functions" in capsys.readouterr().err


def test_solve_infeasible_exit_3(tmp_path, capsys):
    doc = {
        "T": 1, "m": 1, "beta": 1.0, "convention": "up_only",
        "functions": [{"kind": "restricted", "eps": 0.1, "slope_k": 2.0,
                       "lambda": 5.0}],
    }
    path = write_instance(tmp_path, doc)
    assert main(["solve", path]) == 3


@pytest.mark.parametrize("argv", [
    ["solve", "--algorithm", "poly"],
    ["solve", "--algorithm", "oracle"],
    ["simulate", "--policy", "lcp"],
])
@pytest.mark.parametrize("size", [2, 4])
def test_table_of_wrong_length_exit_2(tmp_path, capsys, argv, size):
    doc = e1_doc()
    doc["functions"][1] = {"kind": "table", "values": [0.0] * size}
    path = write_instance(tmp_path, doc)
    assert main(argv[:1] + [path] + argv[1:]) == 2
    assert "f_2: table has" in capsys.readouterr().err


def _table(*values):
    return {"kind": "table", "values": list(values)}


INF, NAN = float("inf"), float("nan")
AFFINE = {"kind": "affine_abs", "eps": 1.0, "center": 1.0}

# Documents that break the model's assumptions (json writes NaN and Infinity
# literals, which the loader accepts), a command that used to run on them
# and exit 0 or 3 or end in a traceback, the message the load-time check
# must print, and optionally header fields that replace the defaults.
BAD_DOCS = {
    "non-convex-table": ([_table(0, 1, 2), _table(0, 2, 1)],
                         ["solve", "--algorithm", "poly"], "f_2: not convex at x=1"),
    "nan-table-entry": ([_table(0, NAN, 1), _table(0, 1, 2)],
                        ["solve", "--algorithm", "poly"], "f_1: NaN value"),
    "minus-inf-table-entry": ([_table(0, 1, 2), _table(-INF, 0, 1)],
                              ["solve", "--algorithm", "poly"],
                              "f_2: negative value at x=0"),
    "restricted-negative-eps": ([_table(0, 1, 2),
                                 {"kind": "restricted", "eps": -0.5, "slope_k": 2.0,
                                  "lambda": 1.0}],
                                ["solve", "--algorithm", "poly"], "f_2: eps = -0.5"),
    "interleaved-inf": ([_table(INF, 0, INF), _table(0, INF, 0)],
                        ["simulate", "--policy", "lcp"],
                        "f_2: infeasible states interleave feasible ones"),
    "affine-nan-center": ([{"kind": "affine_abs", "eps": 1.0, "center": NAN},
                           _table(0, 1, 2)],
                          ["solve", "--algorithm", "poly"], "f_1: center = nan"),
    "infinite-beta": ([AFFINE] * 2, ["solve", "--algorithm", "poly"],
                      "beta must be finite and positive", {"beta": INF}),
    "infinite-beta-lcp": ([AFFINE] * 2, ["simulate", "--policy", "lcp"],
                          "beta must be finite and positive", {"beta": INF}),
    "fractional-T": ([AFFINE] * 2, ["solve", "--algorithm", "poly"],
                     "'T' must be an integer, got 2.5", {"T": 2.5}),
    "fractional-m": ([AFFINE] * 2, ["solve", "--algorithm", "poly"],
                     "'m' must be an integer, got 4.9", {"m": 4.9}),
    "boolean-m": ([AFFINE] * 2, ["solve", "--algorithm", "poly"],
                  "'m' must be an integer, got True", {"m": True}),
    "infinite-m": ([AFFINE] * 2, ["solve", "--algorithm", "poly"],
                   "'m' must be an integer, got inf", {"m": INF}),
    "boolean-beta": ([AFFINE] * 2, ["solve", "--algorithm", "poly"],
                     "'beta' must be a number, got True", {"beta": True}),
    "string-beta": ([AFFINE] * 2, ["solve", "--algorithm", "poly"],
                    "'beta' must be a number, got '1.5'", {"beta": "1.5"}),
    "huge-integer-beta": ([AFFINE] * 2, ["solve", "--algorithm", "poly"],
                          "'beta': int too large to convert to float", {"beta": 10**400}),
    "boolean-eps": ([{"kind": "affine_abs", "eps": True, "center": 1.0}, AFFINE],
                    ["solve", "--algorithm", "poly"], "'eps' must be a number, got True"),
    "boolean-lambda": ([{"kind": "restricted", "eps": 0.5, "slope_k": 2.0, "lambda": False},
                        AFFINE], ["simulate", "--policy", "lcp"],
                       "'lambda' must be a number, got False"),
}


@pytest.mark.parametrize("name", sorted(BAD_DOCS))
def test_invalid_costs_rejected_at_load_exit_2(tmp_path, capsys, name):
    functions, argv, message, *header = BAD_DOCS[name]
    doc = {"T": 2, "m": 2, "beta": 1.0, "convention": "up_only", "functions": functions}
    doc.update(*header)
    path = write_instance(tmp_path, doc)
    assert main(argv[:1] + [path] + argv[1:]) == 2
    assert message in capsys.readouterr().err


def test_solve_poly_finds_a_slot_finite_only_inside_the_fleet(tmp_path, capsys):
    # m = 6 pads to 8, whose first window {0, 2, 4, 6, 8} misses state 5.
    doc = {"T": 1, "m": 6, "beta": 1.0, "convention": "up_only",
           "functions": [_table(INF, INF, INF, INF, INF, 3, INF)]}
    path = write_instance(tmp_path, doc)
    found = {}
    for algo in ("poly", "oracle"):
        assert main(["solve", path, "--algorithm", algo]) == 0
        out = json.loads(capsys.readouterr().out)
        found[algo] = out["schedule"], out["cost"]
    assert found["poly"] == found["oracle"] == ([5], 8.0)


def test_solve_padding_raises_no_warning(tmp_path, capsys):
    # The padded slope is +inf, and the lanes below the fleet multiply it by
    # 0 before np.where drops them; RuntimeWarning is an error under pytest.
    doc = {"T": 2, "m": 3, "beta": 1.0, "convention": "up_only",
           "functions": [_table(0, 1, 2, INF), _table(2, 1, 0, INF)]}
    assert main(["solve", write_instance(tmp_path, doc), "--algorithm", "poly"]) == 0
    assert json.loads(capsys.readouterr().out)["schedule"] == [0, 0]


@pytest.mark.parametrize("m,algo,code", [(1e30, "poly", 4), (1e30, "oracle", 4),
                                         ((1 << 62) + 1, "poly", 4), (1 << 62, "poly", 0)])
def test_solve_fleet_beyond_int64_exit_4(tmp_path, capsys, m, algo, code):
    doc = {"T": 2, "m": m, "beta": 1.0, "convention": "up_only", "functions": [AFFINE] * 2}
    assert main(["solve", write_instance(tmp_path, doc), "--algorithm", algo]) == code
    assert ("2^62" in capsys.readouterr().err) == (code == 4)


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf-8"])
def test_unreadable_instance_file_exits_2(tmp_path, capsys, kind):
    path = tmp_path / "instance.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf-8":
        path.write_bytes(b'{"T": 1, "m": 1, "beta": "\xff"}')
    assert main(["solve", str(path)]) == 2
    assert "cannot read instance file" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_lcp_trace(tmp_path, capsys):
    doc = {
        "T": 2, "m": 1, "beta": 1.0, "convention": "up_only",
        "functions": [{"kind": "affine_abs", "eps": 1.0, "center": 1.0}] * 2,
    }
    path = write_instance(tmp_path, doc)
    assert main(["simulate", path, "--policy", "lcp"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "t,x_L,x_U,x_policy,f_t_cost,cum_cost"
    r1 = lines[1].split(",")
    r2 = lines[2].split(",")
    assert r1[:4] == ["1", "0", "1", "0"]
    assert r2[:4] == ["2", "1", "1", "1"]
    summary = lines[3].split(",")
    assert summary[0] == "summary"
    assert float(summary[4]) == 2.0  # total
    assert float(summary[5]) == 2.0  # ratio vs optimum 1


def _summary(path):
    total, ratio = path.read_text().strip().split("\n")[-1].split(",")[4:]
    return float(total), float(ratio)


@pytest.mark.parametrize("m", [1 << 22, (1 << 22) + 5])
def test_simulate_lcp_beyond_dense_state_limit(tmp_path, m):
    inst = random_affine_instance(np.random.default_rng(m), 200, m)
    path = write_instance(tmp_path, instance_to_json(inst))
    out = tmp_path / "trace.csv"
    assert main(["simulate", path, "--policy", "lcp", "--out", str(out)]) == 0
    total, ratio = _summary(out)
    assert ratio == total / solve_poly(inst).cost


@pytest.mark.parametrize("doc,steps", [
    (e1_doc(), 3),
    (instance_to_json(random_affine_instance(np.random.default_rng(3), 30, 40)), 30),
])
def test_simulate_lcp_takes_optimum_from_bands(tmp_path, monkeypatch, doc, steps):
    # Every slot is one lcp_step, whatever form the state keeps; no instance
    # runs the full-grid oracle for the summary.
    import rightsizing.cli as cli

    calls = []
    step = cli.lcp_step
    monkeypatch.setattr(cli, "lcp_step", lambda *a: calls.append("step") or step(*a))
    monkeypatch.setattr(cli, "dp_optimal", lambda *a: calls.append("oracle"))
    out = tmp_path / "trace.csv"
    assert main(["simulate", write_instance(tmp_path, doc), "--policy", "lcp",
                 "--out", str(out)]) == 0
    assert calls == ["step"] * steps
    total, ratio = _summary(out)
    assert ratio == total / dp_optimal(instance_from_json(doc)).cost


def test_simulate_random_round_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    inst = random_table_instance(rng, 8, 3, beta=1.0)
    path = write_instance(tmp_path, instance_to_json(inst))
    outs = []
    for _ in range(2):
        out = tmp_path / "trace.csv"
        assert main(["simulate", path, "--policy", "random-round",
                     "--seed", "7", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_simulate_offline_ratio_is_one(tmp_path, capsys):
    path = write_instance(tmp_path, e1_doc())
    assert main(["simulate", path, "--policy", "offline"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert float(lines[-1].split(",")[5]) == 1.0


def test_simulate_offline_solves_once(tmp_path, monkeypatch, capsys):
    import rightsizing.cli as cli

    calls = []
    solve = cli.dp_optimal
    monkeypatch.setattr(cli, "dp_optimal",
                        lambda inst: calls.append(inst) or solve(inst))
    path = write_instance(tmp_path, e1_doc())
    assert main(["simulate", path, "--policy", "offline"]) == 0
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# adversary
# ---------------------------------------------------------------------------


def test_adversary_discrete_json(tmp_path, capsys):
    assert main(["adversary", "--variant", "discrete", "--policy", "lcp",
                 "--eps", "0.1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["T"] == 100
    assert doc["ratio"] <= 3.0 + 1e-9
    assert doc["opt_cost"] <= doc["opt_bound"] + 1e-9
    assert doc["seed"] == 0


def test_adversary_continuous_exact(tmp_path, capsys):
    assert main(["adversary", "--variant", "continuous", "--policy",
                 "algorithm-b", "--eps", "0.1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ratio"] == pytest.approx(1.95, abs=1e-9)


def test_adversary_invalid_combination_exit_4(capsys):
    assert main(["adversary", "--variant", "continuous", "--policy", "lcp",
                 "--eps", "0.1"]) == 4
    for policy in ("lcp", "bogus"):
        assert main(["adversary", "--variant", "randomized", "--policy", policy,
                     "--eps", "0.1", "--runs", "10"]) == 4
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("runs", ["0", "-3"])
def test_adversary_rejects_fewer_than_one_run(capsys, runs):
    assert main(["adversary", "--variant", "randomized", "--policy", "random-round",
                 "--eps", "0.1", "--runs", runs]) == 4
    assert capsys.readouterr().out == ""


def test_adversary_byte_determinism(tmp_path):
    outs = []
    for _ in range(2):
        out = tmp_path / "duel.json"
        assert main(["adversary", "--variant", "randomized", "--policy",
                     "random-round", "--eps", "0.1", "--seed", "3",
                     "--runs", "50", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_adversary_dump_instance_round_trip(tmp_path):
    out = tmp_path / "duel.json"
    dump = tmp_path / "realized.json"
    assert main(["adversary", "--variant", "discrete", "--policy", "lcp",
                 "--eps", "0.5", "--T", "12", "--out", str(out),
                 "--dump-instance", str(dump)]) == 0
    doc = json.loads(dump.read_text())
    inst = instance_from_json(doc)
    assert inst.T == 12
    assert instance_to_json(inst) == doc
    report = json.loads(out.read_text())
    assert report["policy_cost"] == pytest.approx(
        report["ratio"] * report["opt_cost"], rel=1e-12)
    assert dp_optimal(inst).cost == pytest.approx(report["opt_cost"], rel=1e-12)


def test_restricted_dump_round_trips(tmp_path):
    dump = tmp_path / "restricted.json"
    assert main(["adversary", "--variant", "restricted", "--policy", "lcp",
                 "--eps", "0.5", "--T", "10", "--dump-instance", str(dump),
                 "--out", str(tmp_path / "r.json")]) == 0
    doc = json.loads(dump.read_text())
    inst = instance_from_json(doc)
    assert instance_to_json(inst) == doc
    assert doc["functions"][0]["kind"] == "restricted"


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_lcp_suite(tmp_path):
    assert main(["bench", "--suite", "lcp", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "bench_lcp.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "T,m,lcp_ms,ratio"
    assert len(lines) == 4
    for row in lines[1:]:
        assert float(row.split(",")[3]) <= 3.0 + 1e-9


# ---------------------------------------------------------------------------
# golden bytes
# ---------------------------------------------------------------------------

# Digests of the CLI's output files, recorded before the cost-accounting
# and row-evaluation refactor. The inputs are dyadic and the loads integers
# (so rounding stays feasible); every sum the outputs report is exact or
# sequential, so the bytes do not depend on summation order or platform.
def mixed_doc(convention):
    return {
        "T": 8, "m": 6, "beta": 0.75, "convention": convention,
        "functions": [
            {"kind": "table", "values": [4, 2.5, 1.5, 1, 1, 1.5, 2.5]},
            {"kind": "affine_abs", "eps": 0.5, "center": 3.5},
            {"kind": "restricted", "eps": 0.25, "slope_k": 2.0, "lambda": 2.0},
            {"kind": "table", "values": [6, 4, 2.5, 1.5, 1, 0.75, 0.5]},
            {"kind": "affine_abs", "eps": 1.0, "center": 0.0},
            {"kind": "affine_abs", "eps": 2.0, "center": 1.0},
            {"kind": "restricted", "eps": 0.5, "slope_k": 1.0, "lambda": 3.0},
            {"kind": "table", "values": [0, 0.5, 1.5, 3, 5, 7.5, 10.5]},
        ],
    }


# The same kinds with non-dyadic parameters, recorded before each kind's
# formula moved into its batched ``rows``. Its costs round, so a formula
# whose float operations are reordered changes these bytes; loads stay
# integers so that rounding stays feasible.
def nondyadic_doc(convention):
    return {
        "T": 10, "m": 6, "beta": 0.7, "convention": convention,
        "functions": [
            {"kind": "table", "values": [3.1, 1.7, 0.9, 0.3, 0.6, 1.3, 2.7]},
            {"kind": "affine_abs", "eps": 0.3, "center": 2.7},
            {"kind": "restricted", "eps": 0.7, "slope_k": 2.7, "lambda": 2.0},
            {"kind": "affine_abs", "eps": 1.1, "center": 4.3},
            {"kind": "table", "values": [5.3, 3.9, 2.7, 1.7, 0.9, 0.3, 0.1]},
            {"kind": "restricted", "eps": 0.3, "slope_k": 1.3, "lambda": 3.0},
            {"kind": "affine_abs", "eps": 0.7, "center": 0.9},
            {"kind": "table", "values": [0.1, 0.4, 1.1, 2.2, 3.7, 5.6, 7.9]},
            {"kind": "restricted", "eps": 0.9, "slope_k": 0.7, "lambda": 1.0},
            {"kind": "affine_abs", "eps": 2.7, "center": 5.1},
        ],
    }


GOLDEN_ADVERSARY = {
    "discrete-lcp": ["--variant", "discrete", "--policy", "lcp",
                     "--eps", "0.25", "--T", "40"],
    "continuous-algorithm-b": ["--variant", "continuous", "--policy",
                               "algorithm-b", "--eps", "0.25"],
    "randomized-random-round": ["--variant", "randomized", "--policy",
                                "random-round", "--eps", "0.25", "--T", "24",
                                "--runs", "64", "--seed", "3"],
    "restricted-lcp": ["--variant", "restricted", "--policy", "lcp",
                       "--eps", "0.25", "--T", "24"],
    "restricted-algorithm-b": ["--variant", "restricted", "--policy",
                               "algorithm-b", "--eps", "0.25", "--T", "24"],
}

GOLDEN_DIGESTS = {
    "solve-poly-up_only": "78f8d38bcbcfeb79",
    "solve-oracle-up_only": "44724f6f7ec8d106",
    "simulate-lcp-up_only": "e2d26714649f8723",
    "simulate-random-round-up_only": "762af7988d3317ed",
    "simulate-offline-up_only": "762af7988d3317ed",
    "solve-poly-symmetric": "78f8d38bcbcfeb79",
    "solve-oracle-symmetric": "44724f6f7ec8d106",
    "simulate-lcp-symmetric": "aa66c6bb83c2b131",
    "simulate-random-round-symmetric": "78b777faa0b002ef",
    "simulate-offline-symmetric": "78b777faa0b002ef",
    "adversary-discrete-lcp": "89f9edbf28ab4831",
    "adversary-continuous-algorithm-b": "23e5f62561444149",
    "adversary-randomized-random-round": "dbffdad7e84d1660",
    "adversary-restricted-lcp": "a86d2541af246c43",
    "adversary-restricted-algorithm-b": "f00a2d080e63e46b",
    "adversary-restricted-lcp-dump": "6100e2c0aad229a7",
    "nondyadic-solve-poly-up_only": "438719d871cfe771",
    "nondyadic-solve-oracle-up_only": "609e78901800b1e7",
    "nondyadic-simulate-lcp-up_only": "543131cb2fc13672",
    "nondyadic-simulate-random-round-up_only": "bd48fa43d67963e6",
    "nondyadic-simulate-offline-up_only": "bd48fa43d67963e6",
    "nondyadic-solve-poly-symmetric": "438719d871cfe771",
    "nondyadic-solve-oracle-symmetric": "609e78901800b1e7",
    "nondyadic-simulate-lcp-symmetric": "62a6f9117a9df5fe",
    "nondyadic-simulate-random-round-symmetric": "9bf6cb2bbab4557e",
    "nondyadic-simulate-offline-symmetric": "9bf6cb2bbab4557e",
}


def _golden_cases():
    for prefix, make_doc in (("", mixed_doc), ("nondyadic-", nondyadic_doc)):
        for conv in ("up_only", "symmetric"):
            for algo in ("poly", "oracle"):
                yield (f"{prefix}solve-{algo}-{conv}", make_doc(conv),
                       ["solve", "--algorithm", algo])
            for policy in ("lcp", "random-round", "offline"):
                yield (f"{prefix}simulate-{policy}-{conv}", make_doc(conv),
                       ["simulate", "--policy", policy, "--seed", "5"])
    for name, argv in GOLDEN_ADVERSARY.items():
        yield f"adversary-{name}", None, ["adversary"] + argv
    yield ("adversary-restricted-lcp-dump", None,
           ["adversary"] + GOLDEN_ADVERSARY["restricted-lcp"]
           + ["--out", "report.json", "--dump-instance"])


@pytest.mark.parametrize("name,doc,argv", [
    pytest.param(*case, id=case[0]) for case in _golden_cases()])
def test_output_bytes_match_golden_digest(tmp_path, monkeypatch, name, doc, argv):
    # The digested file is the last flag's value (--out, or --dump-instance).
    monkeypatch.chdir(tmp_path)
    if doc is not None:
        argv = argv[:1] + [write_instance(tmp_path, doc)] + argv[1:]
    if argv[-1] != "--dump-instance":
        argv = argv + ["--out"]
    assert main(argv + ["golden.out"]) == 0
    data = (tmp_path / "golden.out").read_bytes()
    if argv[0] == "solve":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b'  "wall_ms":'))
    assert hashlib.sha256(data).hexdigest()[:16] == GOLDEN_DIGESTS[name]
