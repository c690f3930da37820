"""Expression grammar and the command-line surface."""

import io
import json
import os
import shlex
import sys
from pathlib import Path

import pytest
from oracles import build_Eji

from qflag import calculus, cli, weyl
from qflag.cli import main, run
from qflag.oq import OqElement
from qflag.parser import ParseError, parse_oq, parse_scalar, parse_uq, parse_word
from qflag.scalars import NU, ONE, Q, QINV, RatQ
from qflag.uqsl import UqAlgebra, qcomm


def test_parse_scalar():
    assert parse_scalar("q") == Q
    assert parse_scalar("q^-1") == QINV
    assert parse_scalar("nu") == NU
    assert parse_scalar("q - q^-1") == NU
    assert parse_scalar("(q^2 - 1)/q") == NU
    assert parse_scalar("-2*q^3") == RatQ((0, 0, 0, -2))
    assert parse_scalar("t", {"t": Q + 1}) == Q + 1
    with pytest.raises(ParseError):
        parse_scalar("q +")
    with pytest.raises(ParseError):
        parse_scalar("zz")
    with pytest.raises(ParseError, match="division by zero"):
        parse_scalar("1/(q-q)")


def test_parse_uq():
    A = UqAlgebra(2)
    assert parse_uq("E1", A) == A.E(1)
    assert parse_uq("K2^-1", A) == A.K(2, -1)
    assert parse_uq("E1 E2 - E2 E1", A) == A.E(1) * A.E(2) - A.E(2) * A.E(1)
    assert parse_uq("[E2,E1]_{q^-1}", A) == qcomm(A.E(2), A.E(1), QINV) == build_Eji(A, 1, 3)
    assert parse_uq("[E2,E1]_q", A) == qcomm(A.E(2), A.E(1), Q)
    assert parse_uq("q^-1 * nu * E1", A) == A.E(1).scale(QINV * NU)
    assert parse_uq("[E2,E1]_{t}", A, {"t": ONE}) == qcomm(A.E(2), A.E(1), ONE)
    assert parse_uq("E1^2", A) == A.E(1) * A.E(1)
    assert parse_uq("2*(E1 + F2)", A) == (A.E(1) + A.F(2)).scale(RatQ(2))
    with pytest.raises(ValueError):
        parse_uq("E9", A)  # generator index out of range
    with pytest.raises(ParseError):
        parse_uq("[E1, E2", A)


def test_parse_oq():
    e = parse_oq("u[1,1]u[2,2] - q*u[1,2]u[2,1]", 1)
    det = OqElement(1, {((1, 1), (2, 2)): ONE, ((1, 2), (2, 1)): -Q})
    assert e == det
    with pytest.raises(ParseError):
        parse_oq("u[5,1]", 1)


def test_parse_word():
    assert parse_word("321323", 3) == (3, 2, 1, 3, 2, 3)
    assert parse_word("nice", 2) == (2, 1, 2)
    assert parse_word("nice-op", 3) == (1, 2, 3, 1, 2, 1)
    assert parse_word("10,1,2", 10) == (10, 1, 2)
    assert parse_word(" 10, 1, 2 ", 10) == (10, 1, 2)
    for text in ("abc", "", "121,", ",121", "1,,2", "1,a,2", "1²", "1,²", "1 2"):
        with pytest.raises(ParseError, match="cannot parse word"):
            parse_word(text, 3)


def _out(capsys, argv):
    code = run(argv)
    return code, capsys.readouterr().out


def _runs(capsys, argvs):
    """(exit code, stdout, stderr) of each request in turn."""
    out = []
    for argv in argvs:
        code = run(argv)
        captured = capsys.readouterr()
        out.append((code, captured.out, captured.err))
    return out


def test_cli_reused_parser_keeps_no_state(capsys, monkeypatch):
    """`run` builds its parser once per process; a usage error, then a valid
    request, and one --set request twice print what fresh parsers print."""
    argvs = [
        ["roots", "--rank", "2", "--word"],
        ["roots", "--rank", "2", "--format", "json"],
        ["coproduct", "--rank", "2", "--expr", "[E2,E1]_{t}", "--set", "t=q"],
        ["coproduct", "--rank", "2", "--expr", "[E2,E1]_{t}", "--set", "t=q"],
        ["coproduct", "--rank", "2", "--expr", "E1"],
    ]
    assert cli._parser() is cli._parser()
    reused = _runs(capsys, argvs)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert reused == _runs(capsys, argvs)
    assert [r[0] for r in reused] == [2, 0, 0, 0, 0]
    assert reused[2] == reused[3] and reused[2][1] != reused[4][1]


def test_cli_exterior_text(capsys):
    code, out = _out(capsys, ["exterior", "--rank", "3", "--word", "nice", "--kmax", "7"])
    assert code == 0
    assert out == "dims: 1 6 15 20 15 6 1 0  classical: yes\n"


def test_cli_coideal_expect_gate(capsys):
    code, _ = _out(capsys, ["coideal", "--rank", "3", "--word", "321323", "--expect", "two_sided"])
    assert code == 0
    code, _ = _out(capsys, ["coideal", "--rank", "3", "--word", "312132", "--expect", "two_sided"])
    assert code == 1
    code, _ = _out(capsys, ["coideal", "--rank", "3", "--word", "312132", "--expect", "right"])
    assert code == 0


def test_cli_parse_error_exit_code(capsys):
    code = run(["coproduct", "--rank", "2", "--expr", "E1 +"])
    assert code == 2
    code = run(["roots", "--rank", "99", "--word", "nice"])
    assert code == 2
    # dot is a format of `classes` only
    code, out = _out(capsys, ["roots", "--rank", "2", "--format", "dot"])
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "argv, err",
    [
        ("roots --rank 3 --word 12", "beta_sequence requires a reduced word of the longest element"),
        ("roots --rank 3 --word 0", "letter 0 out of range 1..3"),
        ("roots --rank 3 --word 121,", "cannot parse word '121,'"),
        ("coideal --rank 2 --tangent E1;E1", "tangent basis is linearly dependent at E1"),
        ("pair --rank 2 --expr E1 --with-word u[4,1]", "matrix indices must lie in 1..3"),
        ("pair --rank 2 --expr E1 --with-word u[0,2]", "matrix indices must lie in 1..3"),
        ("pair --rank 2 --expr E1 --with-word u[x,1]", "expected row index"),
        ("pair --rank 2 --expr E1 --with-word u[1,x]", "expected column index"),
        ("pair --rank 2 --expr E1 --with-word +", "empty term in word expression"),
        ("coproduct --rank 2 --expr t*E1", "unknown scalar name 't'"),
        ("coproduct --rank 2 --expr q^x*E1", "expected integer exponent, got 'x'"),
        ("coproduct --rank 2 --expr E1)", "trailing input after expression: ')'"),
        ("coproduct --rank 2 --expr E1^-1", "negative powers of E1 are not invertible"),
        ("coproduct --rank 2 --expr E1+@", "unexpected input at: '@'"),
    ],
)
def test_cli_malformed_input_messages(capsys, argv, err):
    assert run(argv.split()) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {err}\n")


def test_readme_command_lines_run(capsys):
    """Every `qflag` line of the README's sh blocks exits 0 through cli.run,
    and a line's `# ->` text appears in its stdout."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [b.split("```", 1)[0] for b in text.split("```sh\n")[1:]]
    lines = [line for b in blocks for line in b.splitlines() if line.startswith("qflag ")]
    assert len(lines) == 14
    for line in lines:
        expect = line.partition("# ->")[2].strip()
        code, out = _out(capsys, shlex.split(line, comments=True)[1:])
        assert code == 0 and expect in out, line


@pytest.mark.parametrize(
    "argv, err",
    [
        (["coideal", "--rank", "2", "--tangent", "1"], "tangent element 1 has weight 0"),
        (["coideal", "--rank", "2", "--tangent", "q"], "tangent element q has weight 0"),
        (["exterior", "--rank", "2", "--tangent", "E1; 1"], "tangent element 1 has weight 0"),
    ],
)
def test_cli_refuses_a_weight_zero_tangent_element(capsys, argv, err):
    # a tangent space lies in ker eps, and U+ in weight 0 is C1
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {err}")


@pytest.mark.parametrize("command", ["coideal", "relations", "exterior"])
@pytest.mark.parametrize("tangent", ["", ";", " ; ; "])
def test_cli_refuses_an_empty_tangent_list(capsys, command, tangent):
    assert run([command, "--rank", "2", "--tangent", tangent]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: tangent basis is empty\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["coproduct", "--rank", "2", "--expr", "1/0"],
        ["exterior", "--rank", "2", "--tangent", "E1/0"],
        ["exterior", "--rank", "2", "--tangent", "E1; E2; [E2,E1]_{t}", "--set", "t=1/(q-q)"],
    ],
)
def test_cli_division_by_zero_is_a_parse_error(capsys, argv):
    # exit 1 is kept for --expect and closed pipes
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "division by zero" in captured.err


# one cheap rank-2 request per subcommand, with the top-level keys of its JSON
JSON_REQUESTS = {
    "roots": (["--word", "212"], {"roots", "word"}),
    "coproduct": (["--expr", "[E2,E1]_{q^-1}"], {"coproduct", "expr"}),
    "pair": (["--expr", "[E2,E1]_{q^-1}", "--with-word", "u[3,1]"], {"value"}),
    "coideal": (["--word", "121"], {"verdict", "witness"}),
    "relations": ([], {"relations", "total"}),
    "exterior": (["--kmax", "4"], {"classical", "dims"}),
    "gr": ([], {"relations"}),
    "frobenius": ([], {"nakayama_sign", "note", "pairing_nondegenerate", "top_degree",
                       "top_dimension"}),
    "lines": (["--k", "1"], {"k", "weights"}),
    "grassmann": (["--r", "1"], {"ad_closed", "basis", "r", "size"}),
    "dbar-kernel": (["--degree", "1"], {"basis", "degree", "dimension"}),
    "classes": (["--involution"], {"classes", "edges", "involution"}),
    "survey": ([], {"rows", "total_classes"}),
}


@pytest.mark.parametrize("command", sorted(JSON_REQUESTS))
def test_cli_json_roundtrip_and_determinism(capsys, command):
    extra, keys = JSON_REQUESTS[command]
    argv = [command, "--rank", "2", "--format", "json", *extra]
    code, out1 = _out(capsys, argv)
    assert code == 0
    code, out2 = _out(capsys, argv)
    assert out1 == out2
    parsed = json.loads(out1)
    again = json.dumps(parsed, sort_keys=True, separators=(", ", ": ")) + "\n"
    assert again == out1
    assert set(parsed) == keys


def test_cli_classes_dot(capsys):
    code, out = _out(capsys, ["classes", "--rank", "3", "--format", "dot"])
    assert code == 0
    assert out.startswith("graph commutation_classes {") and out.rstrip().endswith("}")
    assert out.count("[label=") == 8
    # crude syntactic check: balanced braces, only node/edge statements
    assert out.count("{") == out.count("}")


def test_cli_classes_text_involution(capsys):
    code, plain = _out(capsys, ["classes", "--rank", "3"])
    assert code == 0 and "involution" not in plain
    code, out = _out(capsys, ["classes", "--rank", "3", "--involution"])
    assert code == 0
    assert out == plain + "involution: C0->C7 C1->C6 C2->C2 C3->C5 C4->C4 C5->C3 C6->C1 C7->C0\n"


def test_cli_lines_refuses_degree_above_dimension(capsys):
    assert run(["lines", "--rank", "2", "--k", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "k=9 exceeds the tangent dimension 3" in captured.err


def test_cli_theta_tangent(capsys):
    code, out = _out(
        capsys,
        ["exterior", "--rank", "2", "--tangent", "E1; E2; [E2,E1]_{t}", "--set", "t=1"],
    )
    assert code == 0
    assert out == "dims: 1 3 1 0 0  classical: no\n"
    code, out = _out(
        capsys,
        ["exterior", "--rank", "2", "--tangent", "E1; E2; [E2,E1]_{t}", "--set", "t=q^-1"],
    )
    assert out == "dims: 1 3 3 1 0  classical: yes\n"


@pytest.mark.parametrize(
    "sets",
    [["q=1"], ["nu=2"], ["u=2"], ["t2=1"], ["E1=1"], ["=1"], ["t$=1"], ["t=1", "t=2"]],
)
def test_cli_set_refuses_names_no_expression_reads(capsys, sets):
    """--set refuses a name the grammar reads as something else (q, nu, u,
    a generator), one that is not a bare name, and a name set twice."""
    argv = ["coproduct", "--rank", "2", "--expr", "[E2,E1]_{q}"]
    for item in sets:
        argv += ["--set", item]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: --set ")


def test_cli_set_parameter(capsys):
    argv = ["coproduct", "--rank", "2", "--expr", "[E2,E1]_{t}"]
    code, out = _out(capsys, argv + ["--set", "t=q"])
    assert code == 0
    assert _out(capsys, ["coproduct", "--rank", "2", "--expr", "[E2,E1]_{q}"]) == (0, out)
    assert _out(capsys, argv + ["--set", " t =q"]) == (0, out)


def test_cli_pair_and_coproduct(capsys):
    code, out = _out(
        capsys, ["pair", "--rank", "2", "--expr", "[E2,E1]_{q^-1}", "--with-word", "u[3,1]"]
    )
    assert code == 0 and out.strip() == "1"
    code, out = _out(capsys, ["coproduct", "--rank", "1", "--expr", "E1"])
    assert code == 0
    assert out.strip() == "1 (x) E1  +  E1 (x) K1"


def test_cli_grassmann_and_dbar(capsys):
    code, out = _out(capsys, ["grassmann", "--rank", "3", "--r", "2"])
    assert code == 0 and out.startswith("size: 4  ad-closed: yes")
    code, out = _out(capsys, ["dbar-kernel", "--rank", "1", "--degree", "1"])
    assert code == 0 and "dimension: 2" in out


def test_cli_survey_text(capsys):
    code, out = _out(capsys, ["survey", "--rank", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert all("two_sided" in l or "two sided" in l.replace("_", " ") for l in lines)
    code, out = _out(capsys, ["survey", "--rank", "2", "--format", "json"])
    assert [r["verdict"] for r in json.loads(out)["rows"]] == ["two_sided", "two_sided"]


def test_cli_survey_truncation_marker(capsys):
    code, out = _out(capsys, ["survey", "--rank", "3", "--max-classes", "2"])
    assert code == 0
    assert out.strip().endswith("... truncated after 2 of 8 classes")
    code, out = _out(capsys, ["survey", "--rank", "3", "--max-classes", "2", "--format", "json"])
    assert json.loads(out)["truncated"] is True


def test_cli_exterior_reverse_order(capsys):
    base = ["exterior", "--rank", "2", "--word", "nice", "--kmax", "4"]
    _, out1 = _out(capsys, base)
    _, out2 = _out(capsys, base + ["--reverse-order"])
    assert out1 == out2 == "dims: 1 3 3 1 0  classical: yes\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["survey", "--rank", "2", "--max-classes", "-1"], "--max-classes"),
        (["exterior", "--rank", "2", "--kmax", "-1"], "--kmax"),
        (["dbar-kernel", "--rank", "1", "--degree", "-1"], "--degree"),
        (["lines", "--rank", "2", "--k", "-1"], "--k"),
    ],
)
def test_cli_rejects_negative_sizes(capsys, argv, flag):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be non-negative, got -1" in captured.err


@pytest.mark.parametrize(
    "rank, degree, count",
    [(6, 5, 282475249), (3, 4, 65536), (1, 7, 16384), (1, 10**6, "2^2000000"), (1, 3 * 10**9, "2^6000000000")],
)
def test_cli_dbar_kernel_rejects_oversized_span(capsys, rank, degree, count):
    # the (n+1)^(2*degree) u-words are refused before any is built, and a
    # degree past 32 before the power itself is computed
    assert run(["dbar-kernel", "--rank", str(rank), "--degree", str(degree)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"dbar-kernel would span {count} u-words (at most 4096)" in captured.err


def test_cli_dbar_kernel_has_no_word_option(capsys):
    # the kernel is the same for every reduced word, so no word is taken
    assert run(["dbar-kernel", "--rank", "2", "--degree", "1", "--word", "nice"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --word nice" in captured.err


def test_cli_dbar_kernel_accepts_the_word_cap(capsys):
    # the cap's (n+1)^(2*degree) = 4096 words are accepted; the kernel runs
    # on the 816 ordered ones
    assert run(["dbar-kernel", "--rank", "3", "--degree", "3"]) == 0
    assert capsys.readouterr().out.startswith("dimension: 44\n")


@pytest.mark.parametrize(
    "argv, exponent",
    [
        (["coproduct", "--rank", "1", "--expr", "E1^100000"], 100000),
        (["coproduct", "--rank", "1", "--expr", "q^-100000000*E1"], 100000000),
        (["pair", "--rank", "1", "--expr", "K1^100000000", "--with-word", "u[1,1]"], 100000000),
        (["coproduct", "--rank", "2", "--expr", "F2^33"], 33),
        (["pair", "--rank", "1", "--expr", "K1^-33", "--with-word", "u[1,1]"], 33),
    ],
)
def test_cli_refuses_an_oversized_exponent(capsys, argv, exponent):
    # refused as it is read, before any product or dense q-power is built
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: exponent {exponent} exceeds the cap of 32\n"


def test_exponent_cap_itself_is_accepted():
    A = UqAlgebra(1)
    assert parse_scalar("q^-32") == QINV**32 and parse_scalar("q^32") == Q**32
    assert parse_uq("K1^-32", A) == A.K(1, -32)
    assert parse_uq("E1^32", A) == parse_uq("E1^16", A) * parse_uq("E1^16", A)
    with pytest.raises(ParseError, match="exponent 33 exceeds the cap of 32"):
        parse_scalar("(q + 1)^33")


def test_cli_exterior_caps_kmax(capsys):
    # refused before the tangent space is built; the cap itself is accepted
    assert run(["exterior", "--rank", "3", "--word", "nice", "--kmax", "100000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--kmax 100000 exceeds the cap of 64" in captured.err
    code, out = _out(capsys, ["exterior", "--rank", "2", "--word", "nice", "--kmax", "64"])
    assert code == 0
    assert out == "dims: 1 3 3 1" + " 0" * 61 + "  classical: yes\n"


def test_cli_frobenius_refuses_rank_5(capsys):
    # the normal words are counted by degree and weight; the pairing would reduce the
    # 385,376 products of the top word's weight (of C(30, 15) in all)
    assert run(["frobenius", "--rank", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "frobenius pairing would reduce 385376 products (at most 200000)" in captured.err


def test_cli_frobenius_pairing_cap_boundary(capsys, monkeypatch):
    # rank 2 has dims 1 3 3 1 and distinct weights in each degree, so each normal word
    # meets one of the complementary weight: the pairing reduces 1 + 3 + 3 + 1 = 8 products
    monkeypatch.setattr(calculus, "_FROBENIUS_MAX_PRODUCTS", 8)
    code, out = _out(capsys, ["frobenius", "--rank", "2"])
    assert code == 0 and out.startswith("top degree: 3  top dimension: 1\n")
    monkeypatch.setattr(calculus, "_FROBENIUS_MAX_PRODUCTS", 7)
    assert run(["frobenius", "--rank", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "frobenius pairing would reduce 8 products (at most 7)" in captured.err


@pytest.mark.parametrize("command", ["classes", "survey"])
def test_cli_refuses_rank_7_by_its_class_count(capsys, monkeypatch, command):
    """Rank 7 passes the rank cap 7; its 1,232,944 commutation classes
    (OEIS A006245) are refused by count before any is enumerated."""
    monkeypatch.setenv("QFLAG_RANK_CAP", "7")
    monkeypatch.setattr(weyl, "_class_reps", lambda n: pytest.fail("classes enumerated"))
    assert run([command, "--rank", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "rank 7 is refused: it has 1,232,944 commutation classes (at most 30,000)" in captured.err


def test_cli_rank_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("QFLAG_RANK_CAP", "2")
    code = run(["roots", "--rank", "3", "--word", "nice"])
    assert code == 2
    monkeypatch.delenv("QFLAG_RANK_CAP")
    assert run(["roots", "--rank", "3", "--word", "nice"]) == 0


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: flushing raises BrokenPipeError, and
    so does writing unless the output still fits in the buffer; fileno()
    is the descriptor of a temporary file."""

    def __init__(self, fd, buffered):
        super().__init__()
        self.fd, self.buffered = fd, buffered

    def write(self, text):
        if self.buffered:
            return super().write(text)
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("buffered", [False, True])
def test_cli_closed_stdout_exits_quietly(capsys, monkeypatch, tmp_path, buffered):
    monkeypatch.setattr(sys, "argv", ["qflag", "dbar-kernel", "--rank", "2", "--degree", "2"])
    with open(tmp_path / "stdout", "w") as f:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(f.fileno(), buffered))
        with pytest.raises(SystemExit) as exit_:
            main()
        # the descriptor behind stdout now writes to devnull
        assert os.path.samestat(os.fstat(f.fileno()), os.stat(os.devnull))
    assert exit_.value.code == 1
    assert capsys.readouterr().err == ""
