"""Workload definitions shared by the benchmark runner and its worker.

A workload is one of two kinds:

* ``survey``: ``calculus.survey_rows(UqAlgebra(rank), max_classes=...)``;
  one item per commutation class, checked as its ``as_json_dict()`` JSON.
* ``desk``: a fixed list of ``qflag.cli.run(argv)`` requests, each building
  its own ``UqAlgebra`` as the command line does; one item per request,
  checked as its stdout and exit code.

``min_passes`` is how many passes an untraced run makes at least, however
long they take; ``setup_samples`` is how many set-up times it collects
(extra set-up-only interpreters are started when its passes give fewer);
``pass_timeout`` is the seconds one pass may take before its missing items
count as failed.
"""

DESK_REQUESTS = [
    ["roots", "--rank", "3", "--word", "nice"],
    ["coproduct", "--rank", "3", "--expr", "[[E3,E2]_{q^-1},E1]_{q^-1}"],
    ["pair", "--rank", "2", "--expr", "[E2,E1]_{q^-1}", "--with-word", "u[3,1]"],
    ["coideal", "--rank", "4", "--word", "4321343234"],
    ["relations", "--rank", "3", "--word", "nice"],
    ["exterior", "--rank", "3", "--word", "nice"],
    ["exterior", "--rank", "2", "--tangent", "E1; E2; [E2,E1]_{t}", "--set", "t=1"],
    ["exterior", "--rank", "3", "--word", "nice", "--reverse-order"],
    ["exterior", "--rank", "4", "--word", "nice", "--format", "json"],
    ["gr", "--rank", "3", "--word", "nice"],
    ["frobenius", "--rank", "3"],
    ["lines", "--rank", "3", "--k", "2"],
    ["grassmann", "--rank", "3", "--r", "1"],
    ["grassmann", "--rank", "3", "--r", "2"],
    ["grassmann", "--rank", "4", "--r", "2"],
    ["dbar-kernel", "--rank", "2", "--degree", "2"],
    ["dbar-kernel", "--rank", "3", "--degree", "2"],
    ["classes", "--rank", "4", "--format", "json", "--involution"],
    ["survey", "--rank", "3", "--format", "json"],
]

# Rank-2/3 requests that still reach oq, parser, cli and every calculus stage.
SMOKE_REQUESTS = [DESK_REQUESTS[i] for i in (0, 1, 2, 6, 10, 12, 15)] + [
    ["survey", "--rank", "2", "--format", "json"],
]

WORKLOADS = {
    "survey-r4": {
        "kind": "survey", "rank": 4, "max_classes": None,
        "min_passes": 2, "setup_samples": 7, "pass_timeout": 150,
    },
    "survey-r5-head": {
        "kind": "survey", "rank": 5, "max_classes": 4,
        "min_passes": 3, "setup_samples": 3, "pass_timeout": 160,
    },
    "desk-mix": {
        "kind": "desk", "requests": DESK_REQUESTS,
        "min_passes": 6, "setup_samples": 9, "pass_timeout": 60,
    },
}

SMOKE_WORKLOADS = {
    "survey-r4": {
        "kind": "survey", "rank": 3, "max_classes": None,
        "min_passes": 2, "setup_samples": 3, "pass_timeout": 60,
    },
    "survey-r5-head": {
        "kind": "survey", "rank": 3, "max_classes": 4,
        "min_passes": 2, "setup_samples": 3, "pass_timeout": 60,
    },
    "desk-mix": {
        "kind": "desk", "requests": SMOKE_REQUESTS,
        "min_passes": 2, "setup_samples": 3, "pass_timeout": 60,
    },
}


def spec_for(name: str, smoke: bool = False) -> dict:
    return (SMOKE_WORKLOADS if smoke else WORKLOADS)[name]


def survey_key(spec: dict) -> str:
    """Golden-record key of a survey: rank and class limit."""
    return f"r{spec['rank']}:{spec['max_classes'] or 'all'}"
