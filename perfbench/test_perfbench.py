"""Tests of the benchmark itself: reference checks, deadline, exit status."""

import json
import signal
import time
from pathlib import Path

import pytest

import refcheck as ref
import run
import workloads

# A 4-cycle 0-1-2-3 with default rotations: slot 0 of each vertex holds
# its lower-id edge.
SQUARE = ref.parse_graph("e 0 0 1\ne 1 1 2\ne 2 2 3\ne 3 0 3\n")
SQUARE_COVER = [(0, 0, 2), (2, 0, 2)]


def test_reference_cover_check_accepts_a_cover():
    assert ref.cover_problems(SQUARE, SQUARE_COVER, 1, 2) == []


def test_reference_cover_check_rejects_one_uncovered_edge():
    g = ref.parse_graph("e 0 0 1\ne 1 1 2\ne 2 2 3\ne 3 0 3\ne 4 0 2\n")
    problems = ref.cover_problems(g, [(0, 0, 2), (2, 0, 2)], 1, 2)
    assert problems == ["1 uncovered edges, first [4]"]


def test_reference_cover_check_rejects_wrong_width_and_count():
    problems = ref.cover_problems(SQUARE, [(0, 0, 1), (2, 0, 2)], 1, 2)
    assert problems[0] == "vertex 0: angle width 1, expected 2"
    problems = ref.cover_problems(SQUARE, SQUARE_COVER + [(0, 1, 2)], 1, 2)
    assert problems == ["vertex 0: 2 angles exceed 1"]


def test_reference_density_check_needs_a_strict_witness():
    # K5 has 10 = 2 * 5 edges: tight, so it is no witness.
    k5 = ref.parse_graph("".join(
        f"e {i} {u} {v}\n" for i, (u, v) in enumerate(
            (u, v) for u in range(5) for v in range(u + 1, 5))))
    assert ref.density_problems(k5, False, {}, range(5))
    extra = ref.parse_graph("".join(f"e {e} {u} {v}\n" for e, (u, v) in k5.edges.items())
                            + "e 10 0 1\n")
    assert ref.density_problems(extra, False, {}, range(5)) == []


def test_reference_density_check_needs_a_saturating_matching():
    matching = {0: (0, 0), 1: (1, 0), 2: (2, 0), 3: (3, 0)}
    assert ref.density_problems(SQUARE, True, matching, None) == []
    assert ref.density_problems(SQUARE, True, {**matching, 3: (0, 0)}, None)
    assert ref.density_problems(SQUARE, True, {**matching, 3: (1, 1)}, None)


def test_reference_blowup_union():
    g = ref.parse_graph("e 0 0 1\n")
    full = [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert ref.blowup_union_problems(g, [full[:2], full[2:]]) == []
    assert ref.blowup_union_problems(g, [full[:2], full[2:3]])


@pytest.fixture
def alarm():
    old = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, old)


def test_slow_operation_fails_and_is_charged_the_deadline(alarm):
    def slow():
        time.sleep(5)
        return {"verdict": "YES"}

    op = workloads.Op("slow", slow, lambda out: [])
    t0 = time.perf_counter()
    row = run.run_op(op, 0.05)
    assert time.perf_counter() - t0 < 1
    assert row["status"] == "deadline" and row["charged"] == 0.05


def test_crash_and_indeterminate_are_failures(alarm):
    def crash():
        raise RecursionError("too deep")

    row = run.run_op(workloads.Op("crash", crash, lambda out: []), 1.0)
    assert row["status"].startswith("RecursionError") and row["charged"] == 1.0
    undecided = workloads.Op("undecided", lambda: {"verdict": "INDETERMINATE"},
                             lambda out: ["not checked"])
    row = run.run_op(undecided, 1.0)
    assert row["status"] == "indeterminate" and row["problems"] == []


def test_unreadable_output_is_rejected_not_raised(alarm):
    op = workloads.Op("garbled", lambda: {"verdict": "YES", "cover": "angle 0 x 2\n"},
                      lambda out: ref.cover_problems(SQUARE, ref.parse_cover(out["cover"]), 1, 2))
    row = run.run_op(op, 1.0)
    assert row["status"] == "passed" and "could not be read" in row["problems"][0]


@pytest.fixture
def sandbox(tmp_path, monkeypatch, alarm):
    (tmp_path / "src").symlink_to(run.ROOT / "src")
    monkeypatch.setattr(run, "ROOT", tmp_path)
    return tmp_path


def _stub(monkeypatch, verdict):
    op = workloads.Op("stub", lambda: {"verdict": verdict},
                      lambda out: ref.verdict_problems("NO", out["verdict"]))
    monkeypatch.setitem(workloads.WORKLOADS, "stub",
                        workloads.Workload("stub", 1.0, lambda pkg, seed, ctx: [op]))


def test_wrong_verdict_makes_the_command_exit_nonzero(sandbox, monkeypatch, capsys):
    _stub(monkeypatch, "YES")
    assert run.main(["--workload", "stub", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False and result["attempted"] == 1
    _stub(monkeypatch, "NO")
    assert run.main(["--workload", "stub", "--seconds", "0"]) == 0


def test_missing_package_exits_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "linear"]) == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_names_every_metric_the_run_reports():
    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["workloads"]] == list(workloads.WORKLOADS)
    rows = [[{"status": "passed", "seconds": 1.0, "charged": 1.0}]]
    reported, _ = run.end_to_end(rows, 1.0, 1024)
    assert [m["name"] for m in bench["end_to_end"]] == list(reported)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        run.per_layer_names()
