"""The benchmark's own checks at tiny sizes: each must accept the program's
real output and reject a deliberately wrong one."""

from __future__ import annotations

import csv
import io
import json
import os

import checks
import run
from rightsizing import eval_cost
from rightsizing.cli import main as cli_main
from tracer import Tracer
from workloads import affine_doc, table_doc


def solve_text(tmp_path, doc, *flags):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.txt"
    assert cli_main([*flags[:1], str(path), *flags[1:], "--out", str(out)]) == 0
    return run.instance_from_file(str(path)), out.read_text()


def moved(text: str, slot: int = 3) -> dict:
    doc = json.loads(text)
    doc["schedule"][slot] = 0 if doc["schedule"][slot] else doc["schedule"][slot] + 1
    return doc


def test_solve_on_grid_rejects_moved_slot(tmp_path):
    inst, text = solve_text(tmp_path, affine_doc(5, 24, 1 << 6, grid=3),
                            "solve", "--algorithm", "poly")
    assert checks.check_solve_on_grid(inst, text, 3) == []
    wrong = moved(text)
    assert checks.check_solve_on_grid(inst, json.dumps(wrong), 3)  # cost no longer matches
    wrong["cost"] = eval_cost(inst, wrong["schedule"]).total
    assert checks.check_solve_on_grid(inst, json.dumps(wrong), 3)  # honest but not optimal


def test_solve_exact_rejects_moved_slot_and_padding(tmp_path):
    inst, text = solve_text(tmp_path, table_doc(6, 16, 7), "solve", "--algorithm", "poly")
    assert checks.check_solve_exact(inst, text, 8) == []
    assert checks.check_solve_exact(inst, json.dumps(moved(text)), 8)
    assert checks.check_solve_exact(inst, text, 16)


def test_simulate_lcp_rejects_ratio_and_moved_band(tmp_path):
    inst, text = solve_text(tmp_path, affine_doc(7, 40, 32), "simulate", "--policy", "lcp")
    assert checks.check_simulate_lcp(inst, text) == []
    rows = list(csv.reader(io.StringIO(text)))

    def as_text(rs):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rs)
        return buf.getvalue()

    high = [r[:] for r in rows]
    high[-1][5] = "3.5"
    assert checks.check_simulate_lcp(inst, as_text(high))
    band = [r[:] for r in rows]
    band[10][1] = band[10][2] = str(inst.m)
    assert checks.check_simulate_lcp(inst, as_text(band))


def test_ratio_bounds():
    assert checks.check_ratio('{"ratio": 2.99}', 2.9, 3.0) == []
    assert checks.check_ratio('{"ratio": 3.01}', 2.9, 3.0)
    assert checks.check_ratio('{"ratio": 1.89}', 1.9, 2.0)


def test_byte_identity_ignores_only_wall_ms():
    a = b'{\n  "cost": 4.0,\n  "wall_ms": 1.5,\n  "seed": 0\n}\n'
    assert checks.same_output(a, a.replace(b"1.5", b"2.25"))
    assert not checks.same_output(a, a.replace(b"4.0", b"4.1"))
    assert not checks.same_output(a, a + b" ")


def test_counts_must_repeat():
    assert checks.counts_repeat([{"lcp.steps": 3}, {"lcp.steps": 3}]) == []
    assert checks.counts_repeat([{"lcp.steps": 3}, {"lcp.steps": 4}])


def test_judge_counts_changed_bytes_and_exit_codes_as_failures(tmp_path):
    spec = run.WORKLOADS["duel-tiny"](1, str(tmp_path))
    good = ['{\n  "ratio": 2.99\n}\n', '{\n  "ratio": 1.97\n}\n']
    rounds = []
    for i, texts in enumerate([good, good, [good[0], good[1].replace("7", "8")], good]):
        d = tmp_path / f"round{i}"
        d.mkdir()
        for j, (argv, text) in enumerate(zip(spec.commands, texts)):
            (d / os.path.basename(argv[-1])).write_text(text)
            (d / f"cmd{j}.stdout").write_text("")
        codes = [0, 0] if i < 3 else [0, 5]
        rounds.append({"dir": str(d), "commands": [{"code": c} for c in codes]})
    attempted, failed, problems = run.judge("duel-tiny", spec, rounds)
    assert (attempted, failed) == (8, 2)
    assert len(problems) == 2


def test_tracer_counts_match_solver_and_restore(tmp_path):
    import rightsizing.offline as offline

    original = offline._window_dp
    tracer = Tracer()
    tracer.install()
    try:
        _, text = solve_text(tmp_path, affine_doc(8, 30, 1 << 7), "solve", "--algorithm", "poly")
    finally:
        tracer.uninstall()
    assert offline._window_dp is original
    doc = json.loads(text)
    assert tracer.counts["offline.levels"] == doc["iterations"]
    assert tracer.counts["offline.states_probed"] == doc["states_probed"]
    assert 0 < tracer.total["offline.kernel"] <= tracer.total["offline.solve_poly"]
    assert tracer.missing == []


def test_missing_attribute_is_reported(monkeypatch):
    import rightsizing.cli as cli

    monkeypatch.delattr(cli, "run_duel")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["rightsizing.cli.run_duel"]
    assert tracer.missing_spans() == {"adversary.duel"}


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "duel-tiny", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_printed_metrics_match_benchmark_json():
    with open(os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: unit for k, (_, unit) in run.PER_LAYER.items()}
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
