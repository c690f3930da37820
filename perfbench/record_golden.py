"""Record ``golden.json``: the reference outputs every benchmark run is
checked against, byte for byte.

    python3 perfbench/record_golden.py

Runs each full and smoke workload once, untraced, on the sources in
``src/``, and stores survey rows as their ``as_json_dict()`` JSON and each
desk request's stdout and exit code. Re-record only at a commit whose
outputs are known to be right; a change that alters an output is then
reported by every benchmark run as failed items.
"""

import json
import sys

from run import GOLDEN, run_pass
from workloads import WORKLOADS, spec_for, survey_key


def record() -> dict:
    golden = {"surveys": {}, "requests": []}
    seen = set()
    for name in WORKLOADS:
        for smoke in (False, True):
            spec = spec_for(name, smoke)
            request = {"workload": name, "smoke": smoke}
            if spec["kind"] == "desk":
                request["order"] = list(range(len(spec["requests"])))
            result = run_pass(request, hashseed=0, timeout=900)
            if result["summary"] is None:
                raise SystemExit(f"record_golden: {name} (smoke={smoke}) failed")
            items = result["items"]
            if spec["kind"] == "survey":
                golden["surveys"][survey_key(spec)] = {
                    "rows": [items[i]["out"] for i in range(len(items))],
                    "total_classes": result["summary"]["total_classes"],
                }
                continue
            for i, argv in enumerate(spec["requests"]):
                if tuple(argv) not in seen:
                    seen.add(tuple(argv))
                    golden["requests"].append(
                        {"argv": argv, "stdout": items[i]["out"], "code": items[i]["code"]}
                    )
    return golden


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
