"""Command-line surface: parse words and expressions, run the calculus
pipeline, and print deterministic text, JSON, or DOT reports.

Each `cmd_*` returns its report: the JSON object and the text lines, plus
an exit code for the `--expect` commands.  `run` alone picks the format
and writes stdout, so a command that fails writes nothing there.

Exit codes: 0 success; 2 argument/parse/validation errors; 1 when an
--expect assertion is supplied and the computed verdict violates it, or
when the reader closes stdout early (no traceback then).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from qflag import calculus, oq, weyl
from qflag.parser import ParseError, parse_oq, parse_scalar, parse_tangent_exprs, parse_uq, parse_word
from qflag.scalars import RatQ
from qflag.uqsl import UqAlgebra, coproduct

USAGE_ERROR, EXPECT_ERROR = 2, 1
_DBAR_MAX_WORDS = 4096  # caps all (n+1)^(2*degree) u-words; the kernel runs on the ordered ones
_KMAX_CAP = 64  # exterior --kmax; rank 6 needs d + 1 = 22


def _params(args) -> dict[str, RatQ]:
    """--set name=value pairs, each name one the parser's name token reads as a
    parameter (so not q, nu or u), set once."""
    out = {}
    for item in getattr(args, "set", None) or []:
        name, _, val = item.partition("=")
        name = name.strip()
        if not val or not re.fullmatch(r"[A-Za-z][A-Za-z_]*", name) or name in ("q", "nu", "u"):
            raise ParseError(f"--set needs name=value, a bare name other than q, nu and u, got {item!r}")
        if name in out:
            raise ParseError(f"--set sets {name!r} twice")
        out[name] = parse_scalar(val)
    return out


def _tangent(args):
    alg = UqAlgebra(args.rank)
    if getattr(args, "tangent", None) is not None:
        return calculus.tangent_from_exprs(
            alg, parse_tangent_exprs(args.tangent, alg, _params(args))
        )
    word = parse_word(args.word or "nice", alg.n)
    return calculus.tangent_from_word(alg, word)


def _weight_str(w) -> str:
    parts = []
    for i, c in enumerate(w, start=1):
        if c == 1:
            parts.append(f"a{i}")
        elif c:
            parts.append(f"{c}*a{i}")
    return "+".join(parts) if parts else "0"


def _rendered_by_weight(rel: calculus.RelationSpace) -> dict[str, list[str]]:
    return {
        _weight_str(wt): [r.render(rel.alphabet) for r in rels]
        for wt, rels in sorted(rel.by_weight.items())
    }


def _non_negative(text: str) -> int:
    """argparse type of the size flags: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def cmd_roots(args):
    t = _tangent(args)
    rows = [
        {"k": k + 1, "root": str(b), "weight": list(w), "vector": t.algebra.eword_element(x).render()}
        for k, (b, w, x) in enumerate(zip(t.roots, t.weights, t.coords))
    ]
    lines = [f"beta_{r['k']} = {r['root']}  {r['vector']}" for r in rows]
    return {"word": weyl.word_str(t.word), "roots": rows}, lines


def cmd_coproduct(args):
    x = parse_uq(args.expr, UqAlgebra(args.rank), _params(args))
    d = coproduct(x).render()
    return {"expr": x.render(), "coproduct": d}, [d]


def cmd_pair(args):
    x = parse_uq(args.expr, UqAlgebra(args.rank), _params(args))
    e = parse_oq(args.with_word, args.rank, _params(args))
    val = str(oq.pair(x, e))
    return {"value": val}, [val]


def cmd_coideal(args):
    rep = calculus.coideal_check(_tangent(args))
    verdicts = (rep.verdict, rep.verdict.replace("_only", ""))
    lines = [f"verdict: {verdicts[1]}"] + [
        f"  {side} fails at {w.basis_label}: component {w.group_monomial}, residue {w.residue}"
        for side, w in sorted(rep.witnesses.items())
    ]
    failed = args.expect and args.expect.replace("-", "_") not in verdicts
    return rep.as_json_dict(), lines, EXPECT_ERROR if failed else 0


def cmd_relations(args):
    rel = calculus.quadratic_relations(_tangent(args))
    rendered = _rendered_by_weight(rel)
    lines = []
    for wt, rels in rendered.items():
        lines += [f"weight {wt}:"] + [f"  {r}" for r in rels]
    total = rel.total_dim()
    return {"relations": rendered, "total": total}, lines + [f"total: {total}"]


def cmd_exterior(args):
    if args.kmax is not None and args.kmax > _KMAX_CAP:
        raise ValueError(f"--kmax {args.kmax} exceeds the cap of {_KMAX_CAP}")
    table = calculus.exterior_dims(_tangent(args), kmax=args.kmax, reverse_order=args.reverse_order)
    flag = {True: "yes", False: "no", None: "undetermined"}[table.classical]
    line = "dims: " + " ".join(str(d) for d in table.dims) + f"  classical: {flag}"
    failed = args.expect and table.classical is not (args.expect == "classical")
    return table.as_json_dict(), [line], EXPECT_ERROR if failed else 0


def cmd_gr(args):
    rendered = _rendered_by_weight(calculus.gr_leading_relations(_tangent(args)))
    lines = [f"{wt}:  {r}" for wt, rels in rendered.items() for r in rels]
    return {"relations": rendered}, lines


def cmd_frobenius(args):
    rep = calculus.frobenius_report(_tangent(args))
    nd = all(rep.pairing_nondegenerate.values()) if rep.pairing_nondegenerate else False
    signs = sorted(set(rep.nakayama_sign.values()))
    sign = signs[0] if len(signs) == 1 else dict(sorted(rep.nakayama_sign.items()))
    lines = [
        f"top degree: {rep.top_degree}  top dimension: {rep.top_dimension}",
        f"pairing nondegenerate in all complementary degrees: {'yes' if nd else 'no'}",
        f"nakayama_sign: {sign}",
    ]
    if rep.note:
        lines.append(f"note: {rep.note}")
    return rep.as_json_dict(), lines


def cmd_lines(args):
    weights = calculus.line_decomposition(_tangent(args), args.k)
    line = " ".join(_weight_str(w) for w in weights)
    return {"k": args.k, "weights": [list(w) for w in weights]}, [line]


def cmd_grassmann(args):
    t = calculus.tangent_from_word(UqAlgebra(args.rank), weyl.nice_word(args.rank))
    sub, closed = calculus.grassmann_restriction(t, args.r)
    basis = [sub.algebra.eword_element(x).render() for x in sub.coords]
    lines = [f"size: {sub.dim}  ad-closed: {'yes' if closed else 'no'}"]
    lines += [f"  {lab}: {x}" for lab, x in zip(sub.labels, basis)]
    return {"r": args.r, "basis": basis, "size": sub.dim, "ad_closed": closed}, lines


def cmd_dbar_kernel(args):
    n, k = args.rank, args.degree
    weyl.check_rank(n)
    # (n+1)^(2k) >= 4^k is past the cap from degree 7 on, so from degree 33
    # on the refusal names the power instead of computing it
    span = f"{n + 1}^{2 * k}" if k > 32 else (n + 1) ** (2 * k)
    if k > 32 or span > _DBAR_MAX_WORDS:
        raise ValueError(f"dbar-kernel would span {span} u-words (at most {_DBAR_MAX_WORDS})")
    dim, basis = calculus.dbar_kernel(UqAlgebra(n), k)
    basis = [b.render() for b in basis]
    lines = [f"dimension: {dim}"] + [f"  {b}" for b in basis]
    return {"degree": args.degree, "dimension": dim, "basis": basis}, lines


def cmd_classes(args):
    g = weyl.commutation_classes(args.rank)
    classes = [{"word": weyl.word_str(rep), "size": weyl.class_size(rep)} for rep in g.reps]
    involution = weyl.involution_on_classes(g) if args.involution else None
    if args.format == "dot":
        lines = weyl.class_graph_dot(g, involution).splitlines()
    else:
        lines = [f"classes: {g.num_classes}"]
        lines += [f"  C{c}: {d['word']} ({d['size']} words)" for c, d in enumerate(classes)]
        lines.append("edges: " + " ".join(f"C{a}-C{b}" for a, b in g.edges))
        if involution is not None:
            lines.append("involution: " + " ".join(f"C{c}->C{d}" for c, d in enumerate(involution)))
    return {
        "classes": classes,
        "edges": [list(e) for e in g.edges],
        "involution": involution,
    }, lines


def cmd_survey(args):
    alg = UqAlgebra(args.rank)
    rows, total = calculus.survey_rows(
        alg, early_stop=not args.full_dims, max_classes=args.max_classes
    )
    out = {"rows": [r.as_json_dict() for r in rows], "total_classes": total}
    lines = []
    for r in rows:
        dims = " ".join(str(d) for d in r.dims) if r.dims is not None else "-"
        flag = {True: "yes", False: "no", None: "-"}[r.classical]
        trunc = " (truncated)" if r.truncated_at is not None else ""
        lines.append(
            f"{weyl.word_str(r.representative)}  verdict: {r.verdict.replace('_only', '')}"
            f"  dims: {dims}{trunc}  classical: {flag}"
        )
    if len(rows) < total:
        out["truncated"] = True
        lines.append(f"... truncated after {len(rows)} of {total} classes")
    return out, lines


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qflag",
        description="Lusztig root vectors and differential calculi on type-A quantum flag manifolds",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, formats=("text", "json"), **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        sp.add_argument("--rank", type=int, required=True, help="rank n (Weyl group S_{n+1})")
        sp.add_argument("--format", choices=formats, default="text")
        return sp

    sp = add("roots", cmd_roots, help="beta sequence and root vectors of a reduced word")
    sp.add_argument("--word", default="nice")

    sp = add("coproduct", cmd_coproduct, help="coproduct of an expression")
    sp.add_argument("--expr", required=True)
    sp.add_argument("--set", action="append", metavar="name=value")

    sp = add("pair", cmd_pair, help="evaluation pairing of an expression with a u-word")
    sp.add_argument("--expr", required=True)
    sp.add_argument("--with-word", required=True, metavar="UWORD")
    sp.add_argument("--set", action="append", metavar="name=value")

    for name, fn, needs_expect in (
        ("coideal", cmd_coideal, True),
        ("relations", cmd_relations, False),
        ("exterior", cmd_exterior, True),
        ("gr", cmd_gr, False),
        ("frobenius", cmd_frobenius, False),
    ):
        sp = add(name, fn, help=f"{name} report for a tangent space")
        sp.add_argument("--word", default=None)
        sp.add_argument("--tangent", default=None, metavar="'E1; E2; ...'")
        sp.add_argument("--set", action="append", metavar="name=value")
        if name == "exterior":
            sp.add_argument("--kmax", type=_non_negative, default=None)
            sp.add_argument("--reverse-order", action="store_true",
                            help="count with the reversed generator precedence")
            sp.add_argument("--expect", choices=("classical", "non-classical"), default=None)
        elif needs_expect:
            sp.add_argument(
                "--expect",
                choices=("two_sided", "left", "right", "neither", "left_only", "right_only"),
                default=None,
            )

    sp = add("lines", cmd_lines, help="line-module weights in one degree")
    sp.add_argument("--word", default="nice")
    sp.add_argument("--k", type=_non_negative, required=True)

    sp = add("grassmann", cmd_grassmann, help="restriction to a quantum Grassmannian")
    sp.add_argument("--r", type=int, required=True, help="crossed simple node")

    sp = add("dbar-kernel", cmd_dbar_kernel, help="antiholomorphic kernel on degree-k words")
    sp.add_argument("--degree", type=_non_negative, default=1)

    sp = add("classes", cmd_classes, ("text", "json", "dot"), help="commutation-class graph")
    sp.add_argument("--involution", action="store_true")

    sp = add("survey", cmd_survey, help="classify every commutation class")
    sp.add_argument("--full-dims", action="store_true")
    sp.add_argument("--max-classes", type=_non_negative, default=None,
                    help="partial survey: stop after this many classes")
    return p


_parser = functools.cache(build_parser)  # parse_args leaves a parser reusable


def run(argv) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0
    try:
        obj, lines, *code = args.fn(args)
    except (ParseError, ValueError, KeyError) as e:
        sys.stderr.write(f"error: {e}\n")
        return USAGE_ERROR
    if args.format == "json":
        lines = [json.dumps(obj, sort_keys=True, separators=(", ", ": "))]
    sys.stdout.write("".join(line + "\n" for line in lines))
    return code[0] if code else 0


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # reader gone: stdout to devnull keeps the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
