"""Command-line surface: parse words and expressions, run the calculus
pipeline, and emit deterministic text, JSON, or DOT reports.

Exit codes: 0 success; 2 argument/parse/validation errors; 1 when an
--expect assertion is supplied and the computed verdict violates it, or
when the reader closes stdout early (no traceback then).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from qflag import calculus, oq, weyl
from qflag.freealg import graded_dims
from qflag.parser import ParseError, parse_oq, parse_scalar, parse_tangent_exprs, parse_uq, parse_word
from qflag.scalars import RatQ
from qflag.uqsl import UqAlgebra, coproduct, root_vectors

USAGE_ERROR, EXPECT_ERROR = 2, 1
_DBAR_MAX_WORDS = 4096  # dbar-kernel builds all (n+1)^(2*degree) u-words up front


def _emit(text: str):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(obj):
    _emit(json.dumps(obj, sort_keys=True, separators=(", ", ": ")))


def _params(args) -> dict[str, RatQ]:
    out = {}
    for item in getattr(args, "set", None) or []:
        name, _, val = item.partition("=")
        if not val:
            raise ParseError(f"--set needs name=value, got {item!r}")
        out[name.strip()] = parse_scalar(val)
    return out


def _tangent(args, alg):
    if getattr(args, "tangent", None):
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
        _weight_str(wt): [r.render(rel.alphabet, rel.order) for r in rels]
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
    alg = UqAlgebra(args.rank)
    word = parse_word(args.word or "nice", args.rank)
    betas = weyl.beta_sequence(word, args.rank)
    vecs = root_vectors(alg, word)
    rows = [
        {"k": k + 1, "root": str(b), "weight": list(b.weight(args.rank)), "vector": v.render()}
        for k, (b, v) in enumerate(zip(betas, vecs))
    ]
    if args.format == "json":
        _emit_json({"word": weyl.word_str(word), "roots": rows})
    else:
        for r in rows:
            _emit(f"beta_{r['k']} = {r['root']}  {r['vector']}")
    return 0


def cmd_coproduct(args):
    alg = UqAlgebra(args.rank)
    x = parse_uq(args.expr, alg, _params(args))
    d = coproduct(x)
    if args.format == "json":
        _emit_json({"expr": x.render(), "coproduct": d.render()})
    else:
        _emit(d.render())
    return 0


def cmd_pair(args):
    alg = UqAlgebra(args.rank)
    x = parse_uq(args.expr, alg, _params(args))
    e = parse_oq(args.with_word, args.rank, _params(args))
    val = oq.pair(x, e)
    if args.format == "json":
        _emit_json({"value": str(val)})
    else:
        _emit(str(val))
    return 0


def cmd_coideal(args):
    alg = UqAlgebra(args.rank)
    t = _tangent(args, alg)
    rep = calculus.coideal_check(t)
    if args.format == "json":
        _emit_json(rep.as_json_dict())
    else:
        _emit(f"verdict: {rep.verdict.replace('_only', '')}")
        for side, w in sorted(rep.witnesses.items()):
            _emit(f"  {side} fails at {w.basis_label}: component {w.group_monomial}, residue {w.residue}")
    if args.expect and args.expect.replace("-", "_") not in (rep.verdict, rep.verdict.replace("_only", "")):
        return EXPECT_ERROR
    return 0


def cmd_relations(args):
    alg = UqAlgebra(args.rank)
    t = _tangent(args, alg)
    rel = calculus.quadratic_relations(t)
    rendered = _rendered_by_weight(rel)
    if args.format == "json":
        _emit_json({"relations": rendered, "total": rel.total_dim()})
    else:
        for wt, rels in rendered.items():
            _emit(f"weight {wt}:")
            for r in rels:
                _emit(f"  {r}")
        _emit(f"total: {rel.total_dim()}")
    return 0


def cmd_exterior(args):
    alg = UqAlgebra(args.rank)
    t = _tangent(args, alg)
    if args.reverse_order:
        rel = calculus.quadratic_relations(t)
        kmax = args.kmax if args.kmax is not None else t.dim + 1
        table = graded_dims(rel.all_relations(), rel.order.reversed(), kmax, rel.alphabet)
        table.classical = calculus.classical_verdict(table.dims, t.dim)
    else:
        table = calculus.exterior_dims(t, kmax=args.kmax)
    if args.format == "json":
        _emit_json(table.as_json_dict())
    else:
        flag = {True: "yes", False: "no", None: "undetermined"}[table.classical]
        _emit("dims: " + " ".join(str(d) for d in table.dims) + f"  classical: {flag}")
    if args.expect:
        want = args.expect == "classical"
        if table.classical is not want:
            return EXPECT_ERROR
    return 0


def cmd_gr(args):
    alg = UqAlgebra(args.rank)
    t = _tangent(args, alg)
    rel = calculus.gr_leading_relations(t)
    rendered = _rendered_by_weight(rel)
    if args.format == "json":
        _emit_json({"relations": rendered})
    else:
        for wt, rels in rendered.items():
            for r in rels:
                _emit(f"{wt}:  {r}")
    return 0


def cmd_frobenius(args):
    alg = UqAlgebra(args.rank)
    t = _tangent(args, alg)
    rep = calculus.frobenius_report(t)
    if args.format == "json":
        _emit_json(rep.as_json_dict())
    else:
        _emit(f"top degree: {rep.top_degree}  top dimension: {rep.top_dimension}")
        nd = all(rep.pairing_nondegenerate.values()) if rep.pairing_nondegenerate else False
        _emit(f"pairing nondegenerate in all complementary degrees: {'yes' if nd else 'no'}")
        signs = sorted(set(rep.nakayama_sign.values()))
        _emit(f"nakayama_sign: {signs[0] if len(signs) == 1 else dict(sorted(rep.nakayama_sign.items()))}")
        if rep.note:
            _emit(f"note: {rep.note}")
    return 0


def cmd_lines(args):
    alg = UqAlgebra(args.rank)
    t = _tangent(args, alg)
    weights = calculus.line_decomposition(t, args.k)
    if args.format == "json":
        _emit_json({"k": args.k, "weights": [list(w) for w in weights]})
    else:
        _emit(" ".join(_weight_str(w) for w in weights))
    return 0


def cmd_grassmann(args):
    alg = UqAlgebra(args.rank)
    t = calculus.tangent_from_word(alg, weyl.nice_word(args.rank))
    sub, closed = calculus.grassmann_restriction(t, args.r)
    if args.format == "json":
        _emit_json(
            {
                "r": args.r,
                "basis": [x.render() for x in sub.basis],
                "size": sub.dim,
                "ad_closed": closed,
            }
        )
    else:
        _emit(f"size: {sub.dim}  ad-closed: {'yes' if closed else 'no'}")
        for lab, x in zip(sub.labels, sub.basis):
            _emit(f"  {lab}: {x.render()}")
    return 0


def cmd_dbar_kernel(args):
    n = args.rank
    weyl.check_rank(n)
    count = (n + 1) ** (2 * args.degree)
    if count > _DBAR_MAX_WORDS:
        raise ValueError(f"dbar-kernel would span {count} u-words (at most {_DBAR_MAX_WORDS})")
    t = _tangent(args, UqAlgebra(n))
    words = [()]
    for _ in range(args.degree):
        words = [w + ((a, b),) for w in words for a in range(1, n + 2) for b in range(1, n + 2)]
    dim, basis = calculus.dbar_kernel(words, t)
    if args.format == "json":
        _emit_json({"degree": args.degree, "dimension": dim, "basis": [b.render() for b in basis]})
    else:
        _emit(f"dimension: {dim}")
        for b in basis:
            _emit(f"  {b.render()}")
    return 0


def cmd_classes(args):
    g = weyl.commutation_classes(args.rank)
    if args.format == "dot":
        _emit(weyl.class_graph_dot(g, involution=args.involution))
    elif args.format == "json":
        _emit_json(
            {
                "classes": [
                    {"word": weyl.word_str(rep), "size": size}
                    for rep, size in zip(g.reps, g.sizes)
                ],
                "edges": [list(e) for e in g.edges],
                "involution": weyl.involution_on_classes(g) if args.involution else None,
            }
        )
    else:
        _emit(f"classes: {g.num_classes}")
        for c, (rep, size) in enumerate(zip(g.reps, g.sizes)):
            _emit(f"  C{c}: {weyl.word_str(rep)} ({size} words)")
        _emit("edges: " + " ".join(f"C{a}-C{b}" for a, b in g.edges))
    return 0


def cmd_survey(args):
    alg = UqAlgebra(args.rank)
    rows, total = calculus.survey_rows(
        alg, early_stop=not args.full_dims, max_classes=args.max_classes
    )
    if args.format == "json":
        out = {"rows": [r.as_json_dict() for r in rows], "total_classes": total}
        if len(rows) < total:
            out["truncated"] = True
        _emit_json(out)
    else:
        for r in rows:
            dims = " ".join(str(d) for d in r.dims) if r.dims is not None else "-"
            flag = {True: "yes", False: "no", None: "-"}[r.classical]
            trunc = " (truncated)" if r.truncated_at is not None else ""
            _emit(
                f"{weyl.word_str(r.representative)}  verdict: {r.verdict.replace('_only', '')}"
                f"  dims: {dims}{trunc}  classical: {flag}"
            )
        if len(rows) < total:
            _emit(f"... truncated after {len(rows)} of {total} classes")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qflag",
        description="Lusztig root vectors and differential calculi on type-A quantum flag manifolds",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        sp.add_argument("--rank", type=int, required=True, help="rank n (Weyl group S_{n+1})")
        sp.add_argument("--format", choices=("text", "json", "dot"), default="text")
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
    sp.add_argument("--word", default="nice")
    sp.add_argument("--degree", type=_non_negative, default=1)

    sp = add("classes", cmd_classes, help="commutation-class graph")
    sp.add_argument("--involution", action="store_true")

    sp = add("survey", cmd_survey, help="classify every commutation class")
    sp.add_argument("--full-dims", action="store_true")
    sp.add_argument("--max-classes", type=_non_negative, default=None,
                    help="partial survey: stop after this many classes")
    return p


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ParseError, ValueError, KeyError) as e:
        sys.stderr.write(f"error: {e}\n")
        return USAGE_ERROR


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
