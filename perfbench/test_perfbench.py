"""Tests of the benchmark itself (not of qflag):

    python3 -m pytest perfbench
"""

import copy
import json
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, spec_for, survey_key  # noqa: E402


def test_smoke_prints_every_metric_with_unit():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = [json.loads(ln) for ln in proc.stdout.splitlines() if ln.startswith('{"correct"')]
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    assert len(results) == 2 * len(WORKLOADS)
    want = [bench["end_to_end"], bench["per_layer"]]
    for k, result in enumerate(results):
        assert result["correct"] and result["failed"] == 0
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in want[k % 2]}


@pytest.mark.parametrize("workload", ["survey-r5-head", "desk-mix"])
def test_corrupted_golden_entry_is_reported_as_error(workload):
    golden = copy.deepcopy(run.load_golden())
    spec = spec_for(workload, smoke=True)
    if spec["kind"] == "survey":
        rows = golden["surveys"][survey_key(spec)]["rows"]
        rows[1] = rows[1].replace('"verdict": "', '"verdict": "x')
        n_items = len(rows)
    else:
        entry = next(r for r in golden["requests"] if r["argv"] == spec["requests"][2])
        entry["stdout"] += " "
        n_items = len(spec["requests"])
    result, info = run.measure(workload, seed=1, seconds=1, trace=False, smoke=True, golden=golden)
    assert not result["correct"]
    assert result["failed"] == info["passes"] and result["attempted"] == info["passes"] * n_items
    assert info["error_rate"] == 1 / n_items


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _spans(rows, agg=None):
    """rows: (name, parent, start, end); the first is the root."""
    names = sorted({r[0] for r in rows})
    counters = dict.fromkeys(("normal_words_out", "normal_words_kept", "normal_words_tried"), 0)
    out = {"names": names, "n": len(rows), "counters": counters, "wall_s": rows[0][3] - rows[0][2]}
    out["fn"] = array("i", [names.index(r[0]) for r in rows])
    out["parent"] = array("i", [r[1] for r in rows])
    out["start"] = array("d", [r[2] for r in rows])
    out["end"] = array("d", [r[3] for r in rows])
    out["agg_s"] = array("d", agg or [0.0] * len(rows))
    out["agg_n"] = array("q", [0] * len(rows))
    return out


GOOD = [
    (spans.ROOT, -1, 0.0, 10.0),
    ("calculus.exterior_dims", 0, 1.0, 6.0),
    ("freealg.TruncatedGB.normal_words", 1, 2.0, 5.0),
    ("uqsl.root_vectors", 0, 6.0, 9.0),
]


def test_span_check_accepts_nested_spans_and_splits_self_time():
    s = _spans(GOOD, agg=[0.5, 0.0, 1.0, 0.0])
    spans.check(s)
    assert spans.self_times(s) == [1.5, 2.0, 2.0, 3.0]
    m = spans.layer_metrics(s, untraced_pass_s=8.0)
    assert m["scalars.self_s"][0] == 1.5
    assert m["calculus.self_s"][0] == 2.0 and m["freealg.self_s"][0] == 2.0
    assert m["freealg.normal_words_s"][0] == 3.0 and m["uqsl.root_vectors_s"][0] == 3.0
    assert m["trace.overhead_s"][0] == 2.0


@pytest.mark.parametrize("broken", [
    [GOOD[0], GOOD[1], ("freealg.TruncatedGB.normal_words", 1, 2.0, 7.0), GOOD[3]],  # leaves parent
    [GOOD[0], GOOD[1], GOOD[2], ("uqsl.root_vectors", 0, 5.0, 9.0)],  # overlaps sibling
    [GOOD[0], GOOD[1], GOOD[2], ("uqsl.root_vectors", 3, 6.0, 9.0)],  # parent not earlier
])
def test_span_check_rejects_bad_nesting(broken):
    with pytest.raises(spans.SpanCheckError):
        spans.check(_spans(broken))


def test_span_check_rejects_self_times_not_summing_to_wall():
    s = _spans(GOOD)
    s["wall_s"] = 11.0
    with pytest.raises(spans.SpanCheckError):
        spans.check(s)
    with pytest.raises(spans.SpanCheckError):
        spans.check(_spans(GOOD, agg=[0.0, 0.0, 4.0, 0.0]))  # scalar time beyond its span


def test_every_per_layer_metric_has_a_prediction():
    with open(HERE / "predictions.json") as fh:
        predicted = {m for group in json.load(fh)["per_layer"] for m in group["metrics"]}
    assert predicted == {m[0] for m in spans.PER_LAYER}


def test_end_to_end_takes_medians_over_passes():
    def one(setup, work, completed, rss_kb):
        summary = {"ref_setup_s": setup, "ref_work_s": work, "rss_kb": rss_kb}
        return {"summary": summary, "completed": completed}

    passes = [one(1.0, 4.0, 2, 1024), one(2.0, 6.0, 2, 3072), one(1.0, 5.0, 1, 2048),
              {"summary": None, "completed": 0}]
    m = run.end_to_end(passes, setups=[1.0, 2.0, 0.5])
    assert m["ref_cpu_s"] == (6.0, "s")
    assert m["setup_s"] == (1.0, "s")
    assert m["items_per_ref_cpu_s"] == (1 / 3, "1/s")  # median of 2/4, 2/6, 1/5
    assert m["peak_rss_mb"] == (2.0, "MB")


def test_work_between_reference_loops_is_scaled_to_reference_speed():
    marks = worker.Marks()
    r = worker.REF_S
    # set-up 1 s, then loops of r and 2r around 3 s of work: half speed
    marks.cpu = [(1.0, 1.0 + r), (4.0 + r, 4.0 + 3 * r)]
    got = marks.at_ref_speed(t0=0.0)
    assert got["ref_setup_s"] == pytest.approx(1.0)
    assert got["ref_work_s"] == pytest.approx(3.0 / 1.5)
