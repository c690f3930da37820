"""qflag benchmark: end-to-end metrics (untraced) and a per-layer breakdown
(traced) on fixed workloads, checked against golden outputs.

    python3 perfbench/run.py --workload survey-r4 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --smoke

Run from any directory; the program is taken from ``src/`` beside this
directory. Load is one closed-loop client: the runner starts one worker
interpreter at a time and waits for it, so every pass starts cold, with no
``UqAlgebra`` or ``oq`` cache left from the previous one, as a command-line
user would. A run makes the workload's minimum number of passes, then more
while another one still fits in ``--seconds``; extra set-up-only
interpreters then bring the set-up samples up to the workload's count.
Pass times are the worker's CPU time scaled to a reference speed, which on
a shared virtual machine leaves out the host's steal and its changes of
core speed (see ``worker.py``); set-up time is scaled the same way; plain
CPU and wall times are recorded on the info line. Every end-to-end metric is a
median over the run's samples.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` makes untraced
passes for half of ``--seconds``, then one traced pass, checks its spans
and reports the per-layer metrics. Both check every item byte for byte
against ``golden.json`` and count mismatches, errors and timeouts as
failed. The last line of stdout is the result object; the line before it
records the error rate, sample counts and the machine.

``--smoke`` runs every workload on rank-2/3 inputs, untraced and traced,
and exits non-zero unless each result names every metric of
``BENCHMARK.json`` with its unit and no item failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS, spec_for, survey_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
OUT_DIR = ROOT / ".bench_out"
RUN_DEADLINE_S = 170.0  # every run must end within 180 s

END_TO_END = {"ref_cpu_s": "s", "setup_s": "s", "items_per_ref_cpu_s": "1/s", "peak_rss_mb": "MB"}


def load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "cpu": cpu, "nproc": nproc}


def run_pass(request: dict, hashseed: int, timeout: float) -> dict:
    """Run one worker interpreter; a timeout kills it and keeps the items
    it finished."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(hashseed))
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(request)]
    t = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, timeout=max(timeout, 1))
        out, err, ok = proc.stdout, proc.stderr, proc.returncode == 0
    except subprocess.TimeoutExpired as e:
        out, err, ok = e.stdout or b"", b"timed out", False
    elapsed = time.perf_counter() - t
    items, summary = {}, None
    for line in out.decode(errors="replace").splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if "item" in obj:
            items[obj["item"]] = obj
        else:
            summary = obj
    if not ok:
        summary = None
        sys.stderr.write(err.decode(errors="replace")[-2000:] + "\n")
    return {"items": items, "summary": summary, "elapsed": elapsed}


def verify(spec: dict, result: dict, golden: dict, order) -> tuple[int, int]:
    """(attempted, failed) items of one pass against the golden record."""
    items, summary = result["items"], result["summary"]
    if spec["kind"] == "survey":
        want = golden["surveys"][survey_key(spec)]
        rows = want["rows"]
        if summary is None or summary.get("total_classes") != want["total_classes"] or len(items) != len(rows):
            return len(rows), len(rows)
        return len(rows), sum(items[i]["out"] != row for i, row in enumerate(rows))
    by_argv = {tuple(r["argv"]): r for r in golden["requests"]}
    failed = 0
    for i in order:
        want, got = by_argv[tuple(spec["requests"][i])], items.get(i)
        failed += got is None or got["out"] != want["stdout"] or got["code"] != want["code"]
    return len(order), failed


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False, golden=None):
    """One benchmark run; returns (result object, info object)."""
    spec = spec_for(name, smoke)
    golden = load_golden() if golden is None else golden
    rng = random.Random(seed)
    t_start = time.perf_counter()
    deadline = t_start + RUN_DEADLINE_S
    totals = {"attempted": 0, "failed": 0}
    passes = []

    def do_pass(**extra):
        request = {"workload": name, "smoke": smoke, **extra}
        if spec["kind"] == "desk":
            order = list(range(len(spec["requests"])))
            rng.shuffle(order)
            request["order"] = order
        timeout = min(spec["pass_timeout"], deadline - time.perf_counter())
        result = run_pass(request, rng.randrange(1, 2**32), timeout)
        if extra.get("setup_only"):
            return result
        attempted, failed = verify(spec, result, golden, request.get("order"))
        totals["attempted"] += attempted
        totals["failed"] += failed
        result["completed"] = attempted - failed
        return result

    budget, need = (seconds / 2, 1) if trace else (seconds, spec["min_passes"])
    while True:
        p = do_pass()
        passes.append(p)
        typical = statistics.median(q["elapsed"] for q in passes)
        now = time.perf_counter()
        if p["summary"] is None or now + typical > deadline:
            break
        if len(passes) >= need and now + typical > t_start + budget:
            break
    ok = [p["summary"] for p in passes if p["summary"]]
    info = {"workload": name, "seed": seed, "trace": int(trace), "smoke": smoke,
            "passes": len(passes), "env": environment()}
    metrics = {}
    if trace:
        info["samples"] = {"pass_s": [s["pass_s"] for s in ok]}
        path = OUT_DIR / f"spans-{name}.bin"
        OUT_DIR.mkdir(exist_ok=True)
        if ok and do_pass(trace_out=str(path))["summary"]:
            recorded = spans.load(path)
            spans.check(recorded)
            metrics = spans.layer_metrics(recorded, statistics.median(info["samples"]["pass_s"]))
            info["spans_file"] = str(path.relative_to(ROOT))
    else:
        setups = [s["ref_setup_s"] for s in ok]
        while len(setups) < spec["setup_samples"] and time.perf_counter() + 2 * (
            statistics.median(setups) if setups else 1.0
        ) < deadline:
            s = do_pass(setup_only=True)["summary"]
            if s is None:
                break
            setups.append(s["ref_setup_s"])
        info["samples"] = {
            "ref_cpu_s": [s["ref_setup_s"] + s["ref_work_s"] for s in ok],
            "cpu_s": [s["cpu_s"] for s in ok],
            "wall_s": [s["wall_s"] for s in ok],
            "ref_loop_s": [s["ref_loop_s"] for s in ok],
            "setup_s": setups,
        }
        metrics = end_to_end(passes, setups)
    info["error_rate"] = totals["failed"] / totals["attempted"] if totals["attempted"] else 1.0
    result = {
        "correct": totals["failed"] == 0 and bool(metrics),
        "attempted": max(totals["attempted"], 1),
        "failed": totals["failed"] if totals["attempted"] else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info


def end_to_end(passes: list, setups: list) -> dict:
    """Medians over the run's passes: CPU time per pass at reference speed,
    items completed per second of it after set-up, and peak memory;
    setup_s is the median set-up sample, also at reference speed."""
    ok = [p for p in passes if p["summary"]]
    if not ok or not setups:
        return {}
    values = {
        "ref_cpu_s": statistics.median(
            p["summary"]["ref_setup_s"] + p["summary"]["ref_work_s"] for p in ok
        ),
        "setup_s": statistics.median(setups),
        "items_per_ref_cpu_s": statistics.median(
            p["completed"] / p["summary"]["ref_work_s"] for p in ok
        ),
        "peak_rss_mb": statistics.median(p["summary"]["rss_kb"] / 1024 for p in ok),
    }
    return {k: (v, END_TO_END[k]) for k, v in values.items()}


def smoke() -> int:
    """Every workload on its small inputs, untraced and traced; 0 when each
    result is correct and names every metric of BENCHMARK.json with its unit."""
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    want = {0: bench["end_to_end"], 1: bench["per_layer"]}
    bad = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            result, info = measure(name, seed=1, seconds=1, trace=bool(trace), smoke=True)
            print(json.dumps(info))
            print(json.dumps(result))
            got = result["metrics"]
            for m in want[trace]:
                if got.get(m["name"], {}).get("unit") != m["unit"]:
                    print(f"smoke: {name} trace={trace} lacks {m['name']} [{m['unit']}]")
                    bad += 1
            if set(got) != {m["name"] for m in want[trace]} or not result["correct"]:
                print(f"smoke: {name} trace={trace} has extra metrics or failed items")
                bad += 1
    print("smoke: ok" if not bad else f"smoke: {bad} problem(s)")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small inputs, every workload, self-check")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qflag" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no qflag sources under {ROOT / 'src'}\n")
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
