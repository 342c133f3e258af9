"""The forge command line: files in, reports out, exit codes."""

import contextlib
import io
import json
import re
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from algforge.cli import main
from algforge.consequence import SpanCertificate
from algforge.fixtures import data_text


@pytest.fixture()
def variety_file(tmp_path):
    path = tmp_path / "lie-triple.txt"
    path.write_text(data_text("varieties/lie-triple.txt"))
    return path


def test_kp_writes_transformed_file(tmp_path, variety_file, capsys):
    out = tmp_path / "out.txt"
    assert main(["kp", "--in", str(variety_file), "--out", str(out)]) == 0
    text = out.read_text()
    assert "op br/3 variants 3" in text
    assert "br_1(a, b, c) + br_2(b, a, c)" in text
    # the output parses back under the grammar
    from algforge.parsing import parse_file

    sig, idents = parse_file(text)
    assert len(idents) == 11 + 12


def test_span_certificate(tmp_path, capsys):
    target = tmp_path / "target.txt"
    target.write_text(
        "op br/3\n"
        "lts1: br(a,br(b,c,d),e) + br(a,br(c,b,d),e)\n"
    )
    gens = tmp_path / "gens.txt"
    gens.write_text(data_text("identities/triple-systems.txt"))
    code = main([
        "span", "--target", str(target), "--gens", str(gens),
        "--degree", "5", "--vars", "a,b,c,d,e",
    ])
    out = capsys.readouterr().out
    assert code == 0 and out.startswith("IN SPAN")


def test_span_lift_and_failure(tmp_path, capsys):
    target = tmp_path / "t.txt"
    target.write_text("op mul/2\nmul(mul(mul(mul(a,b),c),d),e)\n")
    gens = tmp_path / "g.txt"
    gens.write_text(
        "op mul/2\n"
        "rj: mul(mul(d,mul(a,b)),c) + mul(mul(d,mul(a,c)),b) + mul(mul(d,mul(b,c)),a)"
        " - mul(mul(d,a),mul(b,c)) - mul(mul(d,b),mul(a,c)) - mul(mul(d,c),mul(a,b))\n"
    )
    code = main([
        "span", "--target", str(target), "--gens", str(gens),
        "--degree", "5",
    ])
    out = capsys.readouterr().out
    assert code == 1 and out.startswith("NOT IN SPAN")


def test_span_lifts_by_degree_as_equiv_does(tmp_path, capsys):
    assoc = "mul(mul(a,b),c) - mul(a,mul(b,c))"
    gens, high = tmp_path / "g.txt", tmp_path / "h.txt"
    gens.write_text(f"op mul/2\n{assoc}\n")
    high.write_text(f"op mul/2\nmul({assoc}, mul(d,mul(e,f)))\n")
    # a generator one degree below is lifted, with no flag
    lifted = tmp_path / "t4.txt"
    lifted.write_text("op mul/2\nmul(mul(mul(a,b),c),d) - mul(mul(a,mul(b,c)),d)\n")
    assert main(["span", "--target", str(lifted), "--gens", str(gens), "--degree", "4"]) == 0
    assert capsys.readouterr().out.startswith("IN SPAN")
    # a two-degree gap and a generator above the degree are refused before
    # any answer, in the line forge equiv prints for the same file
    target = tmp_path / "t5.txt"
    target.write_text("op mul/2\nmul(mul(mul(mul(a,b),c),d),e)\n")
    for path, message in (
        (gens, "error: only a one-degree lift is supported, asked 3 -> 5\n"),
        (high, "error: identity g0 has degree 6, above the requested degree 5\n"),
    ):
        for argv in (["span", "--target", str(target), "--gens", str(path)],
                     ["equiv", "--a", str(path), "--b", str(path)]):
            assert main(argv + ["--degree", "5"]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", message)


_DEGREE_8 = "op mul/2\nmul(mul(mul(mul(mul(mul(mul(a,b),c),d),e),f),g),h)\n"


@pytest.mark.parametrize("command", [
    ["span", "--target", "{f}", "--gens", "{f}"],
    ["equiv", "--a", "{f}", "--b", "{f}"],
])
def test_oversized_basis_is_a_one_line_error(command, tmp_path, capsys):
    path = tmp_path / "deg8.txt"
    path.write_text(_DEGREE_8)
    # 429 shapes x 8! = 17.3 million trees: counted, never built
    argv = [arg.format(f=path) for arg in command] + ["--degree", "8"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: degree 8 basis too large: 429 shapes x 8! = 17297280 monomials, over 100000\n"
    )


def test_equiv(tmp_path, capsys):
    a = tmp_path / "a.txt"
    a.write_text(
        "op br/3\n"
        "lts-a: br(a,br(b,c,d),e) - br(br(a,b,c),d,e) + br(br(a,c,b),d,e)"
        " + br(br(a,d,b),c,e) - br(br(a,d,c),b,e)\n"
        "lts-b: br(a,b,br(c,d,e)) - br(br(a,b,c),d,e) + br(br(a,b,d),c,e)"
        " - br(br(a,b,e),d,c) + br(br(a,b,e),c,d)\n"
    )
    b = tmp_path / "b.txt"
    b.write_text(data_text("identities/triple-systems.txt"))
    # the right-hand file also contains the redundant identities; inclusion
    # both ways still holds
    code = main(["equiv", "--a", str(a), "--b", str(b), "--degree", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "EQUIVALENT" in out


@pytest.mark.parametrize("command", [
    ["span", "--target", "{f}", "--gens", "{f}"],
    ["equiv", "--a", "{f}", "--b", "{f}"],
])
def test_a_certificate_that_does_not_re_expand_is_an_error_not_a_yes(command, tmp_path, capsys):
    path = tmp_path / "assoc.txt"
    path.write_text("op mul/2\nassoc: mul(mul(a,b),c) - mul(a,mul(b,c))\n")
    argv = [arg.format(f=path) for arg in command] + ["--degree", "3"]
    assert main(argv) == 0
    capsys.readouterr()
    with mock.patch.object(SpanCertificate, "verify", return_value=False):
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: the certificate for assoc does not re-expand to its target\n")


def test_equiv_refuses_an_identity_above_the_degree(tmp_path, capsys):
    # lie.txt's degree-3 Jacobi identity cannot be checked at degree 2
    lie = tmp_path / "lie.txt"
    lie.write_text(data_text("varieties/lie.txt"))
    assert main(["equiv", "--degree", "2", "--a", str(lie), "--b", str(lie)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: identity jacobi has degree 3, above the requested degree 2\n"


@pytest.mark.parametrize("command, code", [("equiv", 1), ("span", 0)])
def test_a_repeated_variable_is_a_one_line_error(command, code, tmp_path, capsys):
    # over a, b, c, A is in the span of B's relabelings but not equivalent
    # to B; over a, a, c the two would be taken as equivalent
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("op mul/2\nA: mul(a,mul(c,b)) + mul(b,mul(c,a))\n")
    b.write_text("op mul/2\nB: mul(a,mul(c,b))\n")
    files = (["--a", str(a), "--b", str(b)] if command == "equiv"
             else ["--target", str(a), "--gens", str(b)])
    assert main([command, "--degree", "3", *files]) == code
    capsys.readouterr()
    assert main([command, "--degree", "3", "--vars", "a,a,c", *files]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: variable 'a' is repeated\n"


def test_a_variable_list_with_a_digit_is_a_one_line_error(tmp_path, capsys):
    # "a1c" is no list of letters: the digit is refused, not read as a variable
    lie = tmp_path / "lie.txt"
    lie.write_text(data_text("varieties/lie.txt"))
    assert main(["equiv", "--degree", "3", "--a", str(lie), "--b", str(lie), "--vars", "a1c"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expected letter, found '1' in 'a1c'\n"


def _identity_line(name: str) -> str:
    """The line of a packaged triple-system identity, ``name: body``."""
    text = data_text("identities/triple-systems.txt")
    return next(l for l in text.splitlines() if l.startswith(f"{name}: "))


_BR, _LTS_A, _LTS_B = "op br/3", _identity_line("lts-a"), _identity_line("lts-b")
_RJ = next(l for l in data_text("identities/jordan.txt").splitlines() if l.startswith("rj: "))


@pytest.mark.parametrize("files, command, message", [
    # a third identity named lts-a, with lts-b's body
    ({"late.txt": [_BR, _LTS_A, _LTS_B, "lts-a: " + _LTS_B.split(": ", 1)[1]],
      "ab.txt": [_BR, _LTS_A, _LTS_B]},
     ["equiv", "--a", "late.txt", "--b", "ab.txt"],
     "error: duplicate generator tag 'lts-a(a,b,c,d,e)'\n"),
    # a generator with a repeated variable, behind one whose instances span the target
    ({"ta.txt": [_BR, _LTS_A],
      "gnm.txt": [_BR, _LTS_A, "nm: br(a,b,br(c,d,e)) - br(a,a,br(c,d,e))"]},
     ["span", "--target", "ta.txt", "--gens", "gnm.txt"],
     "error: monomial br(a,a,br(c,d,e)) is outside this basis\n"),
    # an identity named g1 beside an unnamed second one, which is named g1 too
    ({"ta.txt": [_BR, _LTS_A],
      "clash.txt": [_BR, "g1: " + _LTS_A.split(": ", 1)[1], _LTS_B.split(": ", 1)[1]]},
     ["span", "--target", "ta.txt", "--gens", "clash.txt"],
     "error: duplicate generator tag 'g1(a,b,c,d,e)'\n"),
])
def test_span_input_refused_up_front(files, command, message, tmp_path, capsys):
    # each would be answered if the generators were read only as far as the
    # target needs; the whole stream is read first, and refused
    for name, lines in files.items():
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    argv = [str(tmp_path / a) if a.endswith(".txt") else a for a in command]
    assert main(argv + ["--degree", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_equiv_over_a_multi_letter_variable_answers_as_over_one_letters(tmp_path, capsys):
    # beside the variable ab, the product of a and b in one slot is tagged
    # a*b; renaming ab to x and a*b to ab gives the one-letter run's lines
    rj = tmp_path / "rj.txt"
    rj.write_text(f"op mul/2\n{_RJ}\n")
    runs = []
    for names in ("a,b,ab,c,d", "a,b,x,c,d"):
        assert main(["equiv", "--a", str(rj), "--b", str(rj), "--degree", "5", "--vars", names]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        runs.append(captured.out.splitlines())
    multi, single = runs
    tags = [line.split(": ")[1] for line in multi if "A in span(B)" in line]
    assert len(set(tags)) == len(tags) == 6 and tags[0] == "rj(a*b,ab,c,d)"
    assert [re.sub(r"\bab\b", "x", line).replace("a*b", "ab") for line in multi] == single
    assert single[-1] == "EQUIVALENT"


@pytest.mark.parametrize("other, code, verdict", [
    ("lie", 0, "EQUIVALENT"),
    ("associativity", 1, "NOT EQUIVALENT"),
])
def test_equiv_lifts_an_identity_one_degree_below(other, code, verdict, tmp_path, capsys):
    # lie.txt holds degree-2 anticommutativity beside the degree-3 Jacobi
    # identity; at degree 3 the former is checked through its liftings
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text(data_text("varieties/lie.txt"))
    b.write_text(data_text(f"varieties/{other}.txt"))
    assert main(["equiv", "--degree", "3", "--a", str(a), "--b", str(b)]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[-1] == verdict
    assert [l.split(": ")[1] for l in lines if "A in span(B)" in l] == [
        "anticomm(ab,c)", "anticomm(c,ab)", "anticomm(b,c)*a", "a*anticomm(b,c)", "jacobi"]


def test_free_expand(capsys):
    assert main(["free-expand", "--expr", "(a*(b*c))*d"]) == 0
    assert capsys.readouterr().out.strip() == "abcd - acbd"
    assert main(["free-expand", "--expr", "(ab)(cd)"]) == 0
    assert capsys.readouterr().out.strip() == "abcd - abdc"


@pytest.mark.parametrize("expr", ["((ab)", "(ab))", "a1", "ab - ba", "2*ab"])
def test_free_expand_bad_input_is_a_one_line_error(expr, capsys):
    assert main(["free-expand", "--expr", expr]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_input_ending_too_early_is_named_with_its_position(tmp_path, capsys):
    assert main(["free-expand", "--expr", "((ab)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expected ')', found end of input (at position 5)\n"
    path = tmp_path / "cut.txt"
    path.write_text("op br/3\nx: br(a,b,c) +\n")
    assert main(["free-check", "--identities", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: expected variable or operation, found end of input (at position 11)\n"
    )


def test_free_check(tmp_path, capsys):
    path = tmp_path / "lts.txt"
    path.write_text(data_text("identities/triple-systems.txt"))
    code = main(["free-check", "--identities", str(path)])
    out = capsys.readouterr().out
    # every identity in this file is a consequence of the two defining ones,
    # so all hold under the iterated bracket
    assert code == 0
    assert "PASS  lts-a" in out and "PASS  lts-b" in out
    assert "FAIL" not in out


def test_free_check_reports_failures(tmp_path, capsys):
    path = tmp_path / "lie-triple.txt"
    path.write_text(data_text("varieties/lie-triple.txt"))
    code = main(["free-check", "--identities", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL  l1" in out and "FAIL  l2" in out


def test_jordan(capsys):
    code = main(["jordan", "--check", "lts-a,lts-b,lts1,lts2,lts3", "--emit-certificate"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 5
    assert "rj(" in out  # certificate lines mention lifted instances


def test_jordan_refuses_a_certificate_that_does_not_re_expand_before_printing(capsys):
    argv = ["jordan", "--check", "lts-a,lts-b,lts1,lts2,lts3", "--emit-certificate"]
    with mock.patch.object(SpanCertificate, "verify", return_value=False):
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: the certificate for lts-a does not re-expand to its target\n")


def test_jordan_checks_every_name_before_printing(capsys):
    assert main(["jordan", "--check", "lts1,nope"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown fixture 'nope'\n"


@pytest.mark.parametrize("names", ["", ",", " , "])
def test_jordan_refuses_an_empty_check_list(names, capsys):
    assert main(["jordan", "--check", names]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --check names no fixture: nothing to check\n"


def test_free_check_checks_every_identity_before_printing(tmp_path, capsys):
    path = tmp_path / "mixed.txt"
    path.write_text("op br/3\nop mul/2\nl1: br(a,b,c) + br(b,a,c)\nmixed: mul(br(a,b,c),d)\n")
    assert main(["free-check", "--identities", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: mixed-arity identity 'mixed'\n"


def test_verify_and_envelope(tmp_path, capsys):
    system = tmp_path / "sys.json"
    system.write_text(data_text("systems/sys2d-1.json"))
    assert main(["verify", "--system", str(system)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out

    assert main(["envelope", "--system", str(system), "--emit", "table"]) == 0
    table = capsys.readouterr().out
    from algforge.fixtures import envelope_golden

    assert table == envelope_golden("sys2d-1")

    assert main(["envelope", "--system", str(system), "--emit", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 6
    assert payload["product"]["x,x"] == "xx"


@pytest.mark.parametrize("command", [["verify"], ["envelope", "--check-leibniz"]])
@pytest.mark.parametrize("limit", ["-1", "-8"])
def test_a_negative_violation_limit_is_refused_before_any_output(command, limit, tmp_path, capsys):
    system = tmp_path / "sys.json"
    system.write_text(data_text("systems/sys2d-1.json"))
    assert main(command + ["--system", str(system), "--max-violations", limit]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --max-violations must be at least 0, got {limit}\n"
    # a limit of 0 lists no violation, and the default lists all 8 of the law
    assert main(["envelope", "--check-leibniz", "--system", str(system),
                 "--max-violations", "0"]) == 1
    assert "violated" not in capsys.readouterr().out
    assert main(["envelope", "--check-leibniz", "--system", str(system)]) == 1
    assert capsys.readouterr().out.count("  violated at ") == 8


def test_verify_rejects_non_system(tmp_path, capsys):
    system = tmp_path / "bad.json"
    system.write_text(
        '{"dim": 2, "basis": ["x", "y"],'
        ' "triple": {"x,y,x": "y", "y,x,x": "-1*y", "x,x,y": "y"}}'
    )
    assert main(["verify", "--system", str(system)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "violated" in out


@pytest.mark.parametrize("command", [["verify"], ["envelope", "--emit", "table"]])
def test_repeated_basis_names_are_a_one_line_error(command, tmp_path, capsys):
    system = tmp_path / "repeated.json"
    system.write_text('{"dim": 2, "basis": ["x", "x"], "triple": {"x,x,x": "x"}}')
    assert main(command + ["--system", str(system)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: basis name 'x' is repeated\n"


_NO_DIM = 'system JSON needs an integer "dim"'
_NOT_STRINGS = '"triple" must map index keys to strings'


@pytest.mark.parametrize("text, message", [
    pytest.param('{"dim": 2, "basis": ["x","y"], "triple": {"x,y,x": "y"',
                 "system file is not valid JSON: Expecting ',' delimiter: line 1 column 55 (char 54)",
                 id="truncated"),
    pytest.param('{"dim": "x", "basis": ["x","y"], "triple": {}}', _NO_DIM, id="dim-string"),
    pytest.param('{"dim": 2.7, "basis": ["x","y"], "triple": {"x,y,x": "y"}}', _NO_DIM,
                 id="dim-float"),
    pytest.param('{"dim": true, "basis": ["x"], "triple": {}}', _NO_DIM, id="dim-bool"),
    pytest.param('{"basis": ["x","y"], "triple": {}}', _NO_DIM, id="dim-missing"),
    pytest.param('{"dim": 2, "basis": ["x", 3], "triple": {}}', '"basis" must be a list of names',
                 id="basis-number"),
    pytest.param('{"dim": 2, "basis": ["x","y"], "triple": {"x,y,x": 1}}', _NOT_STRINGS,
                 id="value-number"),
    pytest.param('{"dim": 2, "basis": ["x","y"], "triple": ["x"]}', _NOT_STRINGS, id="table-list"),
    pytest.param('[2, ["x","y"]]', "system JSON must be an object", id="top-level-list"),
])
def test_malformed_system_json_is_a_one_line_error(text, message, tmp_path, capsys):
    system = tmp_path / "bad.json"
    system.write_text(text)
    assert main(["verify", "--system", str(system)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command, message", [
    (["verify"], "2000000000000000 identity evaluations on basis tuples, over 200000"),
    (["envelope", "--check-leibniz"], "its envelope takes 1000000000000 pair products, over 200000"),
])
def test_oversized_system_is_refused_before_any_work(command, message, tmp_path, capsys):
    # counted, never evaluated: loading it lists no index tuples either
    system = tmp_path / "big.json"
    system.write_text(json.dumps({"dim": 1000}))
    assert main(command + ["--system", str(system)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: system too large: {message}\n"


@pytest.mark.parametrize("command", [["verify"], ["envelope", "--emit", "table"]])
@pytest.mark.parametrize("dim, message", [
    (10_000_000, "system too large: dimension 10000000, over 200000"),
    (-3, "dimension must be at least 1"),
    (0, "dimension must be at least 1"),
])
def test_out_of_range_dimension_is_refused_before_its_basis_is_built(
    command, dim, message, tmp_path, capsys
):
    system = tmp_path / "dim.json"
    system.write_text(json.dumps({"dim": dim}))
    start = time.perf_counter()
    assert main(command + ["--system", str(system)]) == 2
    assert time.perf_counter() - start < 0.05
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_a_dimension_of_too_many_digits_is_a_one_line_error(tmp_path, capsys):
    system = tmp_path / "digits.json"
    system.write_text('{"dim": 1' + "0" * 5000 + "}")
    assert main(["verify", "--system", str(system)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: system file is not valid JSON: ")
    assert captured.err.count("\n") == 1


def _comb_text(letters: int) -> str:
    text = f"x{letters}"
    for i in range(letters - 1, 0, -1):
        text = f"(x{i}*{text})"
    return text


def test_free_expand_refuses_an_oversized_expansion(capsys):
    assert main(["free-expand", "--expr", _comb_text(40)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: expansion too large: up to ")
    assert captured.err.endswith(" word terms, over 1000000\n")
    assert captured.err.count("\n") == 1


def test_free_expand_of_a_13_letter_comb_prints_its_2048_words(capsys):
    assert main(["free-expand", "--expr", _comb_text(13)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert len(re.split(r" [-+] ", captured.out.strip())) == 2048


def test_free_check_refuses_an_oversized_expansion(tmp_path, capsys):
    path = tmp_path / "comb.txt"
    comb = _comb_text(40).replace("*", ",").replace("(", "mul(")
    path.write_text(f"op mul/2\ncomb: {comb}\n")
    assert main(["free-check", "--identities", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: expansion too large: up to ")
    assert captured.err.count("\n") == 1


def test_envelope_law_check_is_refused_before_the_table_is_printed(tmp_path, capsys):
    # an 8-dimensional system's envelope (4,096 pair products) is built, but
    # its law check, 72**3 = 373,248 triples, is refused
    system = tmp_path / "dim8.json"
    system.write_text(json.dumps({"dim": 8}))
    assert main(["envelope", "--check-leibniz", "--system", str(system)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: system too large: 373248 identity evaluations on basis tuples, over 200000\n"
    )


def test_classify2d(capsys):
    assert main(["classify2d", "--verify-known"]) == 0
    capsys.readouterr()
    assert main(["classify2d", "--search-fp", "3", "--mask", "a122,a222"]) == 0
    out = capsys.readouterr().out
    assert "solutions over F_3" in out
    assert "a122=2, a222=2" in out


@pytest.mark.parametrize("argv", [
    ["--search-fp", "4", "--mask", "a122,a222"],
    ["--search-fp", "-3", "--mask", "a122,a222"],
    ["--search-fp", "0", "--mask", "a122,a222"],
    ["--search-fp", "3", "--mask", "a122,a222", "--fixed", "a111=x"],
    ["--search-fp", "3", "--mask", "a122,a122"],
    ["--search-fp", "3", "--mask", "a122,a222", "--fixed", "a122=1"],
    # 3^13 candidates, over the search bound
    ["--search-fp", "3", "--mask",
     "a111,a112,a121,a122,a211,a212,a221,a222,b111,b112,b121,b122,b211"],
])
def test_classify2d_bad_search_input_is_a_one_line_error(argv, capsys):
    assert main(["classify2d", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_deeply_nested_input_is_a_one_line_error(tmp_path, capsys):
    expr = "a"
    for _ in range(1500):
        expr = f"br({expr},b,c)"
    target = tmp_path / "deep.txt"
    target.write_text(f"op br/3\n{expr}\n")
    gens = tmp_path / "gens.txt"
    gens.write_text("op br/3\nbr(a,b,c)\n")
    code = main(["span", "--target", str(target), "--gens", str(gens), "--degree", "3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_replay_exit_codes_and_determinism(capsys):
    assert main(["replay", "ex2.4"]) == 0
    first = capsys.readouterr().out
    assert main(["replay", "ex2.4"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("== ex2.4 ==")
    assert "PASS" in first


def test_replay_deterministic_across_processes(tmp_path):
    import subprocess
    import sys

    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "algforge.cli", "replay", "thm6.3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        runs.append(proc.stdout)
    assert runs[0] == runs[1]


def test_replay_json(capsys):
    assert main(["replay", "lem3.3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["section"] == "lem3.3"
    assert payload[0]["ok"] is True


def test_replay_unknown_section():
    with pytest.raises(SystemExit):
        main(["replay", "nope"])  # argparse rejects unknown choices
    from algforge.checks import replay_many

    with pytest.raises(KeyError, match="unknown section 'nope'; choose from ex2.4, ex2.5,"):
        replay_many(["lem3.3", "nope"])


def test_error_exit_code(tmp_path, capsys):
    assert main(["verify", "--system", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--system", "{dir}"],
    ["kp", "--in", "{dir}"],
    ["kp", "--in", "{variety}", "--out", "{dir}"],
])
def test_a_directory_given_as_a_file_is_a_one_line_error(argv, tmp_path, variety_file, capsys):
    argv = [a.format(dir=tmp_path, variety=variety_file) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--system", "{bad}"],
    ["span", "--target", "{bad}", "--gens", "{bad}", "--degree", "2"],
])
def test_a_file_that_is_not_utf8_is_a_one_line_error(argv, tmp_path, capsys):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("op mul/2\nf\xfcr: mul(a,b)\n".encode("latin-1"))
    assert main([a.format(bad=bad) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: 'utf-8' codec can't decode byte 0xfc in position 10: invalid start byte\n"
    )


# The front door under byte-level mutation: a packaged identity or system
# file, or an --expr string, with one token deleted, repeated or swapped, or
# one byte (any of the 256) put in.  Each case is (argv, packaged file or
# None, --expr bytes or None); "{file}" in argv is the mutated file's path.
_FUZZ_CASES = [
    (["free-check", "--identities", "{file}"], "identities/leibniz.txt", None),
    (["free-check", "--identities", "{file}"], "identities/triple-systems.txt", None),
    (["kp", "--in", "{file}"], "varieties/lie-triple.txt", None),
    (["span", "--degree", "3", "--target", "{file}", "--gens", "{file}"],
     "varieties/associativity.txt", None),
    (["equiv", "--degree", "3", "--a", "{file}", "--b", "{file}"], "varieties/lie.txt", None),
    (["verify", "--system", "{file}"], "systems/sys2d-1.json", None),
    (["envelope", "--check-leibniz", "--system", "{file}"], "systems/sys2d-2.json", None),
    (["free-expand"], None, b"(a*(b*c))*d"),
    (["free-expand"], None, b"(ab)(c(de))"),
]
_FUZZ_TOKEN = re.compile(rb"\w+|\s+|.", re.S)


@st.composite
def _mutated(draw, source: bytes) -> bytes:
    tokens = _FUZZ_TOKEN.findall(source)
    i = draw(st.integers(0, len(tokens) - 1))
    kind = draw(st.sampled_from(["delete", "repeat", "swap", "byte"]))
    if kind == "delete":
        del tokens[i]
    elif kind == "repeat":
        tokens.insert(i, tokens[i])
    elif kind == "swap":
        j = draw(st.integers(0, len(tokens) - 1))
        tokens[i], tokens[j] = tokens[j], tokens[i]
    else:
        tokens.insert(i, bytes([draw(st.integers(0, 255))]))
    return b"".join(tokens)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(_FUZZ_CASES), data=st.data())
def test_mutated_input_ends_in_a_report_or_one_error_line(fuzz_dir, case, data):
    argv, packaged, expr = case
    path = fuzz_dir / "input"
    argv = [a.format(file=path) for a in argv]
    if packaged is not None:
        path.write_bytes(data.draw(_mutated(data_text(packaged).encode())))
    else:
        # bytes that are not UTF-8 reach sys.argv the way the interpreter
        # decodes them
        argv.append("--expr=" + data.draw(_mutated(expr)).decode("utf-8", "surrogateescape"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""


def test_fixtures_listing(capsys):
    assert main(["fixtures"]) == 0
    out = capsys.readouterr().out
    assert "lts-a" in out and "rj" in out
