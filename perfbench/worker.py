"""One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py '<json request>'

The request names the workload and says whether this is a set-up-only
pass, the order of desk requests, whether to use the smoke inputs and
where to write spans (traced pass). qflag must be importable (the runner
puts ``src`` on ``PYTHONPATH``).

Prints one JSON line per finished item, flushed as it finishes so that a
pass cut by its timeout still reports what it completed, then one summary
line. Times are the process's CPU time (user + system), measured from just
before ``import qflag``: the worker is one thread that never waits, so on an
unshared core this equals its wall time, and on a shared virtual machine it
leaves out the time the host gives the core to someone else (steal).

CPU time still follows the speed the host lends the core, which changes
within seconds (a busy sibling hyperthread, clock changes): on a shared
2-vCPU host one desk pass took 4.2 to 8.0 CPU seconds. So an untraced pass
also reports its CPU time at reference speed, split into set-up
(``ref_setup_s``) and the rest (``ref_work_s``). A fixed
pure-Python loop (``reference_loop``) runs after set-up, before every item
and after the last; each stretch of the program's work between two loops
is scaled by ``REF_S`` over the mean CPU time of those two loops, and
set-up by ``REF_S`` over the first loop. The loops themselves are left out.
``wall_s`` and ``pass_s`` are wall times (``pass_s`` without the loops),
kept for reference and for the tracing overhead.
"""

import contextlib
import io
import json
import resource
import sys
from fractions import Fraction
from time import perf_counter, process_time

from workloads import spec_for

# CPU seconds of one reference_loop() on the host the benchmark was first
# measured on (Intel Xeon, 2 vCPUs, CPython 3.11), in its slower, steady state.
REF_S = 0.023


def reference_loop():
    """Fixed interpreter work like the program's: rationals, tuples, dicts."""
    d = {}
    x = Fraction(1, 3)
    for i in range(2000):
        x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i + 1)
        x = Fraction(x.numerator % 1000003, x.denominator % 999983 + 1)
        d[i % 97, i % 13] = d.get((i % 97, i % 13), 0) + i
    return x, len(d)


class Marks:
    """The reference loops of one pass: CPU and wall time at each loop's
    start and end."""

    def __init__(self):
        self.cpu, self.wall = [], []

    def __call__(self):
        c, w = process_time(), perf_counter()
        reference_loop()
        self.cpu.append((c, process_time()))
        self.wall.append((w, perf_counter()))

    def at_ref_speed(self, t0) -> dict:
        """Set-up (from t0 to the first loop) and the work between loops,
        each scaled to reference speed, and the loops' median CPU time."""
        r = [end - start for start, end in self.cpu]
        work = sum(
            (self.cpu[k + 1][0] - self.cpu[k][1]) * REF_S / ((r[k] + r[k + 1]) / 2)
            for k in range(len(r) - 1)
        )
        return {"ref_setup_s": (self.cpu[0][0] - t0) * REF_S / r[0], "ref_work_s": work,
                "ref_loop_s": sorted(r)[len(r) // 2]}

    def loops_wall_s(self):
        return sum(end - start for start, end in self.wall)


def _emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _survey(spec, algebra_cls, calculus, mark):
    alg = algebra_cls(spec["rank"])
    setup_end = process_time()
    if mark is not None:  # survey_rows starts every class with tangent_from_word
        tangent = calculus.tangent_from_word

        def marked(*args):
            mark()
            return tangent(*args)

        mark()
        calculus.tangent_from_word = marked
    rows, total = calculus.survey_rows(alg, max_classes=spec["max_classes"])
    if mark is not None:
        mark()
    for i, row in enumerate(rows):
        _emit({"item": i, "out": json.dumps(row.as_json_dict(), sort_keys=True)})
    return setup_end, {"total_classes": total}


def _desk(spec, order, cli, mark):
    for i in order:
        if mark is not None:
            mark()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(spec["requests"][i])
        _emit({"item": i, "out": out.getvalue(), "code": code})
    if mark is not None:
        mark()
    return {}


def main(request):
    spec = spec_for(request["workload"], request.get("smoke", False))
    t0, w0 = process_time(), perf_counter()
    from qflag import calculus, cli
    from qflag.uqsl import UqAlgebra

    import_end = process_time()
    if request.get("setup_only"):
        if spec["kind"] == "survey":
            UqAlgebra(spec["rank"])
        setup_end = process_time()
        marks = Marks()
        marks()
        _emit({"setup_s": setup_end - t0, "ref_setup_s": marks.at_ref_speed(t0)["ref_setup_s"]})
        return

    tracer = None
    if request.get("trace_out"):
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    marks = None if tracer else Marks()

    def one_pass():
        if spec["kind"] == "survey":
            return _survey(spec, UqAlgebra, calculus, marks)
        return import_end, _desk(spec, request["order"], cli, marks)

    pass_start = perf_counter()
    if tracer:
        (setup_end, extra), traced_s = tracer.root(one_pass)
        tracer.write(request["trace_out"], traced_s)
    else:
        setup_end, extra = one_pass()
        extra.update(marks.at_ref_speed(t0))
    end, cpu_end = perf_counter(), process_time()
    _emit({
        "cpu_s": cpu_end - t0,
        "wall_s": end - w0,
        "setup_s": setup_end - t0,
        "pass_s": end - pass_start - (marks.loops_wall_s() if marks is not None else 0.0),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        **extra,
    })


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
