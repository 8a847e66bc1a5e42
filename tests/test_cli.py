import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import rsol
from rsol.cli import main
from rsol.formulas import MAX_DEPTH, MAX_NORMAL_NODES

TWO = '{"domain_size": 2, "predicates": {}, "functions": {}, "constants": {}}'
PRED = ('{"domain_size": 2, "predicates": {"P0": [[0]]}, '
        '"functions": {}, "constants": {}}')
SENTENCE = "forall x exists X forall y (X(y) <-> x = y)"


@pytest.fixture
def two_json(tmp_path):
    p = tmp_path / "two.json"
    p.write_text(TWO, encoding="utf-8")
    return str(p)


@pytest.fixture
def pred_json(tmp_path):
    p = tmp_path / "pred.json"
    p.write_text(PRED, encoding="utf-8")
    return str(p)


def run_cli(args):
    """Run in-process and capture stdout."""
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_parse_command():
    code, out = run_cli(["parse", "--sentence", SENTENCE])
    assert code == 0
    assert "sentence:  True" in out


def test_parse_error_exit_code(capsys):
    code = main(["parse", "--sentence", "P0(x0"])
    assert code == 2


def test_eval_orbits_vs_weak(two_json):
    code, out = run_cli(["eval", "--structure", two_json, "--theta", "dsl",
                         "--oracle", "orbits", "--sentence", SENTENCE])
    assert code == 0 and "False" in out
    code, out = run_cli(["eval", "--structure", two_json,
                         "--theta", "weak-so:1", "--bound", "1",
                         "--sentence", SENTENCE])
    assert code == 0 and "True" in out


def test_eval_all_orbits_ranges_over_every_arity(tmp_path):
    # E is a union of orbits of pairs on the rigid path 0 -> 1 -> 2: the
    # all-orbits oracle has it, the orbits oracle has no binary relation
    path = tmp_path / "path.json"
    path.write_text('{"domain_size": 3, "predicates": {"E": [[0, 1], [1, 2]]}}',
                    encoding="utf-8")
    sentence = "exists X^2 forall x forall y (X^2(x, y) <-> E(x, y))"
    for oracle, value in (("all-orbits", "True"), ("orbits", "False")):
        code, out = run_cli(["eval", "--structure", str(path), "--oracle", oracle,
                             "--sentence", sentence])
        assert code == 0 and out.endswith(f"->  {value}\n"), (oracle, out)


def test_ktheta_lists_relations(two_json):
    code, out = run_cli(["ktheta", "--structure", two_json,
                         "--theta", "weak-so:1", "--bound", "1"])
    assert code == 0
    assert "total: {1: 3}" in out


@pytest.mark.parametrize("line, message", [
    ("x0 ; ; X0(x0)", "members must be first-order"),
    ("x0 ; x1 ; P0(x0)", "free variables [0] do not match the declared slot/parameter split"),
    ("x0 x0 ; ; x0 = x0", "x0 appears twice in the slot/parameter split"),
], ids=["second-order", "unused-parameter", "repeated-slot"])
def test_a_bad_family_file_member_names_its_line(tmp_path, capsys, pred_json, line, message):
    # the bad member is line 3, past the bound: it is refused as it is read
    fam = tmp_path / "bad.fam"
    fam.write_text(f"# two members\nx0 ; ; P0(x0)\n{line}\n", encoding="utf-8")
    code = main(["ktheta", "--structure", pred_json, "--theta", f"file:{fam}",
                 "--bound", "0"])
    assert code == 3
    assert capsys.readouterr().err == f"error: {fam}:3: {message}\n"


def test_a_parse_error_in_a_family_file_names_its_line(tmp_path, capsys, pred_json):
    fam = tmp_path / "bad.fam"
    fam.write_text("x0 ; ; P0(x0)\nx0 ; ; P0(x0\n", encoding="utf-8")
    code = main(["ktheta", "--structure", pred_json, "--theta", f"file:{fam}",
                 "--bound", "0"])
    assert (code, capsys.readouterr()) == (2, (
        "", f"parse error: {fam}:2: expected rparen, found '' (at position 5)\n"))


def test_a_parse_error_in_a_proof_file_names_its_line(tmp_path, capsys):
    proof = tmp_path / "bad.prf"
    proof.write_text("1. P0(c0) ; ax P1\n2. P0(c0 ; ax P1\n", encoding="utf-8")
    code = main(["prove-check", "--proof", str(proof)])
    assert (code, capsys.readouterr()) == (2, (
        "", "parse error: line 2: expected rparen, found '' (at position 5)\n"))


def test_a_too_deep_formula_in_a_file_names_its_line(tmp_path, capsys, const_json):
    for deep, position in [("~" * 150 + "P0(c0)", 100),
                           ("P0(" + "f0(" * 150 + "c0" + ")" * 151, 302)]:
        fam, proof = tmp_path / "deep.fam", tmp_path / "deep.prf"
        fam.write_text(f"x0 ; ; P0(x0)\n ; ; {deep}\n", encoding="utf-8")
        proof.write_text(f"1. P0(c0) ; ax P1\n2. {deep} ; ax P1\n", encoding="utf-8")
        refused = f"formula nested deeper than 100 levels (at position {position})\n"
        assert main(["ktheta", "--structure", const_json, "--theta", f"file:{fam}",
                     "--bound", "0"]) == 2
        assert capsys.readouterr() == ("", f"parse error: {fam}:2: {refused}")
        assert main(["prove-check", "--proof", str(proof)]) == 2
        assert capsys.readouterr() == ("", f"parse error: line 2: {refused}")


def test_orbits_command(pred_json):
    code, out = run_cli(["orbits", "--structure", pred_json, "--arity", "1"])
    assert code == 0
    assert "total: 4" in out


def test_compare_so(pred_json):
    code, out = run_cli(["compare-so", "--structure", pred_json,
                         "--sentence", SENTENCE])
    assert code == 0 and "agree: True" in out


def test_lemma_check_cli(two_json):
    code, out = run_cli(["lemma-check", "--structure", two_json,
                         "--which", "v", "--body", "X0(x0)",
                         "--theta", "weak-so:1", "--bound", "1"])
    assert code == 0 and "holds" in out


def test_reduce_cli(two_json):
    code, out = run_cli(["reduce", "--structure", two_json])
    assert code == 0 and "quotient size: 1" in out


def test_reduce_has_no_depth_option(two_json, capsys):
    # a cap below the fixpoint gave partitions that the functions do not
    # respect, so the option is gone and argparse refuses it
    with pytest.raises(SystemExit) as exit_:
        main(["reduce", "--structure", two_json, "--depth", "0"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --depth 0" in capsys.readouterr().err


SELF_WEAK = ("template t1 over n {\n"
             "1. forall X0 X0(c0) -> inst(X0, X0(c0)) ; A6 n\n"
             "}\n"
             "1. forall X0 X0(c0) -> forall X0 X0(c0) ; R3 t1\n")


def test_prove_check_cli(tmp_path):
    proof = tmp_path / "p.prf"
    proof.write_text(SELF_WEAK, encoding="utf-8")
    code, out = run_cli(["prove-check", "--proof", str(proof),
                         "--theta", "weak-so:1", "--spot", "3"])
    assert code == 0
    assert "accepted" in out and "evidence(3)" in out


def test_prove_check_spot_past_the_old_stack_limit(tmp_path):
    # the README's proof; its instances are about 4n levels deep, and the
    # kernel ran out of stack from n = 247 before its walks kept a stack
    proof = tmp_path / "self.prf"
    proof.write_text(SELF_WEAK, encoding="utf-8")
    code, out = run_cli(["prove-check", "--proof", str(proof),
                         "--theta", "weak-so:1", "--spot", "300"])
    assert code == 0 and "template t1: evidence(300)" in out


def test_prove_check_spot_over_the_budget_exits_5(tmp_path, capsys):
    # the instance at n = 1000 has 6,007 distinct nodes, and 1,001 instances
    # of that size exceed SPOT_BUDGET: refused with a reason after the
    # instance at the bound is built, before the spot check from n = 0
    proof = tmp_path / "self.prf"
    proof.write_text(SELF_WEAK, encoding="utf-8")
    start = time.perf_counter()
    code = main(["prove-check", "--proof", str(proof),
                 "--theta", "weak-so:1", "--spot", "1000"])
    assert time.perf_counter() - start < 1.0
    assert code == 5
    assert capsys.readouterr().err == (
        "feasibility guard: template t1: 1001 instances of up to 6007 nodes "
        "each exceed the spot-check budget of 4000000 nodes\n")


@pytest.mark.parametrize("text", [SELF_WEAK, "1. P0(c0) -> (P0(c1) -> P0(c0)) ; ax P1\n",
                                  None], ids=["templates", "no-templates", "no-file"])
def test_prove_check_negative_spot_exits_3_before_any_work(tmp_path, capsys, text):
    # refused before the proof is read: a missing file gives the same error
    proof = tmp_path / "p.prf"
    if text is not None:
        proof.write_text(text, encoding="utf-8")
    code = main(["prove-check", "--proof", str(proof), "--theta", "weak-so:1",
                 "--spot", "-1"])
    assert code == 3
    assert capsys.readouterr() == ("", "error: spot bound must be >= 0, got -1\n")


@pytest.mark.parametrize("missing", [False, True], ids=["complete", "no-file"])
def test_rs_negative_steps_exits_3_before_any_work(tmp_path, capsys, missing):
    family = str(tmp_path / "fam.txt") if missing else "complete"
    code = main(["rs", "--algebra", "powerset:2", "--family", family,
                 "--avoid", "0", "--steps", "-3"])
    assert code == 3
    assert capsys.readouterr() == ("", "error: steps must be >= 0, got -3\n")


def test_prove_check_rejection_exit(tmp_path):
    proof = tmp_path / "bad.prf"
    proof.write_text("1. P0(c0) ; ax P1\n", encoding="utf-8")
    code, out = run_cli(["prove-check", "--proof", str(proof)])
    assert code == 4 and "rejected" in out


def test_rs_cli_fincof():
    code, out = run_cli(["rs", "--algebra", "fincof", "--family", "atoms",
                         "--avoid", "zero", "--steps", "30"])
    assert code == 0
    assert "excluded: True" in out


def test_rs_cli_family_file(tmp_path):
    fam = tmp_path / "fam.txt"
    fam.write_text("join : 0,1 : 0 1\nmeet : zero : 0 1\n", encoding="utf-8")
    code, out = run_cli(["rs", "--algebra", "powerset:2", "--family", str(fam),
                         "--avoid", "0", "--steps", "8"])
    assert code == 0


def test_rs_cli_fincof_family_file(tmp_path):
    # the colon inside a `fin:` element does not split the fields
    fam = tmp_path / "fam.txt"
    fam.write_text("join : fin:1,2 : fin:1 fin:2\n", encoding="utf-8")
    code, out = run_cli(["rs", "--algebra", "fincof", "--family", str(fam),
                         "--avoid", "zero"])
    assert code == 0 and "entries compatible: 1/1" in out


def test_rs_cli_avoid_unit_precondition():
    code, _ = run_cli(["rs", "--algebra", "powerset:2", "--family", "complete",
                       "--avoid", "unit"])
    assert code == 3


@pytest.mark.parametrize("spec, message", [
    ("fincof:3", "algebra 'fincof' takes no argument, got 'fincof:3'"),
    (":3", "unknown algebra ':3'"),
    ("nope:2", "unknown algebra 'nope:2'"),
    ("powerset", "algebra 'powerset' takes a size, as in powerset:N"),
], ids=["fincof-with-argument", "no-kind", "unknown-kind", "powerset-without-size"])
def test_rs_cli_bad_algebra_exits_3(capsys, spec, message):
    code = main(["rs", "--algebra", spec, "--family", "atoms", "--avoid", "zero"])
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"


# an entry file's errors name the file and the line, written {path}:1 here
@pytest.mark.parametrize("algebra, family, avoid, message", [
    ("powerset:3", "complete", "7", "element '7' is not a subset of the atoms [0, 1, 2]"),
    ("powerset:3", "complete", "-1", "element '-1' is not a subset of the atoms [0, 1, 2]"),
    ("powerset:3", "join : 0,7 : 0 1", "1",
     "{path}:1: element '0,7' is not a subset of the atoms [0, 1, 2]"),
    ("powerset:3", "meet : 0 : 0 5", "1",
     "{path}:1: element '5' is not a subset of the atoms [0, 1, 2]"),
    ("free:2", "join : 15 : 3 12", "99", "element '99' is outside 0..15"),
    ("free:2", "join : 15 : 3 12", "-1", "element '-1' is outside 0..15"),
    ("free:2", "join : 15 : 3 99", "3", "{path}:1: element '99' is outside 0..15"),
    ("fincof", "atoms", "cof:-5", "element 'cof:-5' names a negative number"),
    ("fincof", "atoms", "fin:1,-2", "element 'fin:1,-2' names a negative number"),
    ("fincof", "join : fin:1,-2 : fin:1", "zero",
     "{path}:1: element 'fin:1,-2' names a negative number"),
    ("free:2", "join : 15 : 3 x", "3", "{path}:1: cannot read element 'x'"),
    ("free:2", "join : 15 : 3 12", "x", "cannot read element 'x'"),
    ("powerset:3", "complete", "1,x", "cannot read element '1,x'"),
    ("fincof", "atoms", "fin:1,y", "cannot read element 'fin:1,y'"),
    ("free:2", "jion : 1 : 1", "3",
     "{path}:1: entry kind must be join or meet, got 'jion'"),
    ("fincof", "jion : zero : @atoms", "zero",
     "{path}:1: entry kind must be join or meet, got 'jion'"),
    ("free:2", "meet 1", "3", "{path}:1: expected 'join|meet : bound : members'"),
], ids=["powerset-7", "powerset-negative", "powerset-bound", "powerset-member",
        "free-99", "free-negative", "free-member", "cof-negative", "fin-negative",
        "fin-bound-negative", "free-non-integer-member", "free-non-integer-avoid",
        "powerset-non-integer-avoid", "fin-non-integer-avoid", "misspelt-kind",
        "misspelt-kind-atoms", "short-line"])
def test_rs_cli_element_outside_the_carrier_exits_3(tmp_path, capsys, algebra, family,
                                                   avoid, message):
    if family not in ("complete", "atoms"):
        path = tmp_path / "fam.txt"
        path.write_text(family + "\n", encoding="utf-8")
        family = str(path)
    message = message.format(path=family)
    code = main(["rs", "--algebra", algebra, "--family", family, "--avoid", avoid])
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_lemma_check_exits_4_when_the_identity_fails(two_json, monkeypatch):
    # an entry whose bound is the complement of the true class must fail
    import rsol.structures as st
    true_entry = st._quantifier_entry

    def complemented(s, v, *args):
        entry = true_entry(s, v, *args)
        entry.bound = st.truth_algebra(s, v).algebra.complement(entry.bound)
        return entry

    monkeypatch.setattr(st, "_quantifier_entry", complemented)
    for which, body in (("i", "x0 = x0"), ("vi", "X0(x0)")):
        code, out = run_cli(["lemma-check", "--structure", two_json,
                             "--which", which, "--body", body, "--bound", "1"])
        assert code == 4 and f"item ({which}): fails" in out


@pytest.mark.parametrize("args, reason", [
    (["--which", "iii", "--body", "X0(x0)", "--theta", "weak-so:1", "--bound", "12"],
     "materialization would scan 89478484 parameter tuples"),
    (["--which", "i", "--body", "x0 = x0", "--budget-vars", "40"],
     "the truth algebra on A^40 would list more than 10000000 tuple entries"),
], ids=["materialization", "truth-algebra"])
def test_lemma_check_past_a_guard_exits_5_at_once(tmp_path, capsys, args, reason):
    four = tmp_path / "four.json"
    four.write_text(TWO.replace('"domain_size": 2', '"domain_size": 4'),
                    encoding="utf-8")
    start = time.perf_counter()
    code = main(["lemma-check", "--structure", str(four)] + args)
    assert time.perf_counter() - start < 1.0
    assert code == 5
    assert capsys.readouterr().err == f"feasibility guard: {reason}\n"


@pytest.mark.parametrize("args, reason", [
    (["orbits", "--arity", "10000", "--with-parameters"],
     "2^(3^10000) relations exceed the guard"),
    (["compare-so", "--sentence", "forall X0^10000 X0^10000 = X0^10000"],
     "2^(3^10000) relations exceed the guard"),
    (["eval", "--oracle", "all", "--sentence", "forall X0^10000 X0^10000 = X0^10000"],
     "2^(3^10000) relations exceed the guard"),
    # 3^14 assignments pass a guard on their count, not on their 14 entries
    (["lemma-check", "--which", "i", "--body", "x0 = x0", "--budget-vars", "14"],
     "the truth algebra on A^14 would list more than 10000000 tuple entries"),
], ids=["orbits-with-parameters", "compare-so", "eval-all", "truth-algebra-entries"])
def test_guards_on_three_elements_exit_5_at_once(tmp_path, capsys, args, reason):
    # the guard names a power too large to print in full, and refuses it
    # before any work: exit 5 and one line on stderr, not a traceback
    three = tmp_path / "three.json"
    three.write_text(TWO.replace('"domain_size": 2', '"domain_size": 3'),
                     encoding="utf-8")
    start = time.perf_counter()
    code = main(args[:1] + ["--structure", str(three)] + args[1:])
    assert time.perf_counter() - start < 1.0
    assert code == 5
    assert capsys.readouterr().err == f"feasibility guard: {reason}\n"


@pytest.mark.parametrize("args", [
    ["ktheta", "--theta", "all-fo"],
    ["eval", "--sentence", "exists X X(x0)"],
    ["lemma-check", "--which", "iv", "--body", "X0(x0)"],
    # a first-order body of items i/ii reads no member, but is refused too
    ["lemma-check", "--which", "i", "--body", "x0 = x0"],
], ids=["ktheta", "eval", "lemma-check", "lemma-check-first-order"])
def test_negative_bound_exits_3(tmp_path, capsys, args):
    # a negative bound holds no member: refused, not answered over an
    # empty range
    three = tmp_path / "three.json"
    three.write_text(TWO.replace('"domain_size": 2', '"domain_size": 3'),
                     encoding="utf-8")
    code = main(args[:1] + ["--structure", str(three), "--bound", "-1"] + args[1:])
    assert code == 3
    assert capsys.readouterr() == ("", "error: bound must be >= 0, got -1\n")


def test_suite_exit_status():
    code, out = run_cli(["suite", "weakso"])
    assert code == 0 and "7/7" in out


def test_json_output_is_deterministic(two_json):
    args = ["--format", "json", "suite", "weakso", "--seed", "3"]
    code1, out1 = run_cli(args)
    code2, out2 = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2
    for line in out1.strip().splitlines():
        rec = json.loads(line)
        assert rec["seed"] == 3


def _child_env(**extra):
    """Environment for a child interpreter that imports this checkout's rsol."""
    src = str(Path(rsol.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rsol.cli", "parse", "--sentence", "P0(c0)"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert "sentence:  True" in proc.stdout


DRAWS = """
import random
from rsol.formulas import Signature
from rsol.sampling import random_structure
sig = Signature(constants=[f"c{i}" for i in range(8)])
for seed in range(5):
    s = random_structure(random.Random(seed), sig, min_size=4, max_size=4)
    print(sorted(s.constants.items()))
"""


def test_random_structure_ignores_hash_seed():
    outs = [subprocess.run([sys.executable, "-c", DRAWS], capture_output=True,
                           text=True, check=True,
                           env=_child_env(PYTHONHASHSEED=h)).stdout
            for h in ("0", "1")]
    assert outs[0] == outs[1]


@pytest.mark.parametrize("text, message", [
    ('{"domain_size": "3"}', "domain_size must be an integer"),
    ('{"domain_size": true}', "domain_size must be an integer"),
    ('{"domain_size": -1}', "domain must be nonempty"),
    ('{"domain_size": 0, "functions": {"f": [0]}}', "domain must be nonempty"),
    ('[1, 2]', "structure must be a JSON object"),
    ('{"domain_size": 2, "predicates": {"P": [["a"]]}}',
     "predicate P row must be a list of integers"),
    ('{"domain_size": 2, "predicates": {"P": [1]}}',
     "predicate P row must be a list of integers"),
    ('{"domain_size": 2, "predicates": {"P": 1}}', "predicate P: rows must be a list"),
    ('{"domain_size": 2, "predicates": []}', "predicates must be a JSON object"),
    ('{"domain_size": 2, "arities": {"P": "x"}, "predicates": {"P": []}}',
     "arity of P must be an integer"),
    ('{"domain_size": 2, "functions": {"f": ["a", 1]}}',
     "function f table must be a list of integers"),
    ('{"domain_size": 2, "functions": {"f": 3}}',
     "function f table must be a list of integers"),
    ('{"domain_size": 1, "functions": {"f": [0, 0]}}',
     "function f: table length 2 does not match |A|^1"),
    ('{"domain_size": 2, "constants": {"c": "0"}}', "constant c must be an integer"),
    ('{"domain_size": 2, "constants": {"c": 1.0}}', "constant c must be an integer"),
    ('{"domain_size": 2, "identity": "no"}', "identity must be true or false"),
    # the signature's refusals: one name for two symbols, a predicate of arity 0
    ('{"domain_size": 2, "predicates": {"P": [[0]]}, "constants": {"P": 0}}',
     "duplicate symbol name 'P'"),
    ('{"domain_size": 2, "arities": {"P": 0}, "predicates": {"P": []}}',
     "predicate 'P' must have arity >= 1"),
])
def test_malformed_structure_exits_3(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    code = main(["eval", "--structure", str(path), "--oracle", "all",
                 "--sentence", "forall x P(x)"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("justification", [
    "premise", "ax", "eq", "A1", "A2", "A6", "mp 1", "gen x0", "genso X0", "R3",
])
def test_justification_missing_its_argument_exits_3(tmp_path, capsys, justification):
    proof = tmp_path / "short.prf"
    proof.write_text(f"1. P0(c0) ; {justification}\n", encoding="utf-8")
    code = main(["prove-check", "--proof", str(proof)])
    assert code == 3
    assert capsys.readouterr().err == (
        f"error: line 1: justification {justification!r} is missing an argument\n")


@pytest.mark.parametrize("justification", [
    "premise x", "A1 x", "A6 x", "mp 1 y", "gen x0 z", "genso X0 z",
])
def test_justification_with_a_non_integer_argument_exits_3(tmp_path, capsys, justification):
    proof = tmp_path / "words.prf"
    proof.write_text(f"1. P0(c0) ; {justification}\n", encoding="utf-8")
    code = main(["prove-check", "--proof", str(proof)])
    assert code == 3
    assert capsys.readouterr().err == (
        f"error: line 1: justification {justification!r} has an argument "
        f"that is not an integer\n")


@pytest.mark.parametrize("text, message", [
    ("1. P0(c0) ; A6 n\n", "line 1: the meta-index belongs inside templates"),
    ("1. P0(c0) ; gen X0 1\n", "line 1: bad variable 'X0'"),
    ("1. P0(c0) ; genso x0 1\n", "line 1: bad variable 'x0'"),
    ("1. P0(c0) ; foo 1\n", "line 1: unknown justification 'foo 1'"),
    ("# a template\ntemplate t1 over n {\n1. P0(c0) ; genso x0 1\n}\n",
     "line 3: bad variable 'x0'"),
], ids=["meta-index", "gen", "genso", "unknown", "in-template"])
def test_a_justification_that_does_not_read_names_its_line(tmp_path, capsys, text, message):
    proof = tmp_path / "bad.prf"
    proof.write_text(text, encoding="utf-8")
    code = main(["prove-check", "--proof", str(proof)])
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("line", [
    "1. P0(c0) ; A2 2000",
    "1. forall X0^2000 forall X1^2000 (X0^2000 = X1^2000) ; A2 2000",
    "1. P0(c0) ; A2 0",
    "1. P0(c0) ; A2 -1",
], ids=["atom", "relation identity", "arity 0", "arity -1"])
def test_extensionality_at_a_hostile_arity_exits_4(tmp_path, capsys, line):
    # building the instance at arity 2000 would nest 2000 quantifiers; the
    # line has fewer levels, so it is rejected before anything is built.
    # Below arity 1 there is no instance to build
    proof = tmp_path / "a2.prf"
    proof.write_text(line + "\n", encoding="utf-8")
    code = main(["prove-check", "--proof", str(proof)])
    out, err = capsys.readouterr()
    assert code == 4 and err == ""
    arity = line.split()[-1]
    assert out == f"rejected at line 1: not the extensionality instance at arity {arity}\n"


@pytest.mark.parametrize("line, reason", [
    ("1. P0(c0) ; A1 300", "not the comprehension instance for member 300"),
    ("1. forall X0 X0(c0) -> X0(c0) ; A6 300",
     "not the instantiation axiom for member 300"),
    ("1. P0(c0) ; A1 1200", "not the comprehension instance for member 1200"),
    ("1. forall X0 X0(c0) -> X0(c0) ; A6 1200",
     "not the instantiation axiom for member 1200"),
    ("1. P0(c0) ; A1 -1", "not the comprehension instance for member -1"),
    ("1. forall X0 X0(c0) -> X0(c0) ; A6 -1",
     "not the instantiation axiom for member -1"),
], ids=["A1", "A6", "A1-1200", "A6-1200", "A1-negative", "A6-negative"])
def test_family_axiom_at_a_hostile_member_exits_4(tmp_path, capsys, line, reason):
    # weak-so member n is a disjunction about n levels deep with as many
    # parameters; the line has fewer levels, so it is rejected before the
    # instance is built.  At 1200 levels, building and checking the member
    # itself must not recurse.
    proof = tmp_path / "member.prf"
    proof.write_text(line + "\n", encoding="utf-8")
    code = main(["prove-check", "--theta", "weak-so:1", "--proof", str(proof)])
    out, err = capsys.readouterr()
    assert code == 4 and err == ""
    assert out == f"rejected at line 1: {reason}\n"


DEEP = {
    "negations": "~" * 1200 + "P0(c0)",
    "parentheses": "(" * 200 + "P0(c0)" + ")" * 200,
    "conjunction chain": " & ".join(["P0(c0)"] * 1200),
    "implication chain": " -> ".join(["P0(c0)"] * 1200),
    "function term": "P0(" + "f0(" * 1200 + "c0" + ")" * 1201,
    # a function's arguments open a level, as a parenthesis does: 60 + 45 > 100
    "negations around a function term": "~" * 60 + "P0(" + "f0(" * 45 + "c0" + ")" * 46,
}


@pytest.fixture
def const_json(tmp_path):
    p = tmp_path / "const.json"
    p.write_text('{"domain_size": 2, "predicates": {"P0": [[0]]}, "functions": {"f0": [1, 0]}, '
                 '"constants": {"c0": 0}}', encoding="utf-8")
    return str(p)


@pytest.mark.parametrize("command", ["parse", "eval", "prove-check"])
@pytest.mark.parametrize("name", sorted(DEEP))
def test_deep_input_exits_2(tmp_path, capsys, const_json, command, name):
    text = DEEP[name]
    if command == "parse":
        args = ["parse", "--sentence", text]
    elif command == "eval":
        args = ["eval", "--structure", const_json, "--oracle", "all", "--sentence", text]
    else:
        proof = tmp_path / "deep.prf"
        proof.write_text(f"1. {text} ; ax P1\n", encoding="utf-8")
        args = ["prove-check", "--proof", str(proof)]
    code = main(args)
    err = capsys.readouterr().err
    # a formula read from a file's line is named by that line
    where = "line 1: " if command == "prove-check" else ""
    assert code == 2
    assert err.startswith(f"parse error: {where}formula nested deeper than")
    assert err.count("\n") == 1


@pytest.mark.parametrize("text", [
    "~" * (MAX_DEPTH - 1) + "P0(c0)",
    "(" * (MAX_DEPTH - 1) + "P0(c0)" + ")" * (MAX_DEPTH - 1),
    " & ".join(["P0(c0)"] * MAX_DEPTH),
    "P0(" + "f0(" * (MAX_DEPTH - 1) + "c0" + ")" * MAX_DEPTH,
], ids=["negations", "parentheses", "conjunction chain", "function term"])
def test_formula_at_the_depth_limit_parses_and_evaluates(const_json, text):
    assert run_cli(["parse", "--sentence", text])[0] == 0
    assert run_cli(["eval", "--structure", const_json, "--oracle", "all",
                    "--sentence", text])[0] == 0


def test_the_rank_oracle_on_a_signature_with_functions_exits_3(capsys, const_json):
    code = main(["eval", "--structure", const_json, "--oracle", "rank",
                 "--sentence", "exists X0 X0(f0(c0))"])
    assert (code, capsys.readouterr()) == (3, (
        "", "error: rank-bounded enumeration supports relational signatures only\n"))


def test_a_biconditional_chain_past_the_node_bound_exits_2_at_once(capsys):
    # 25 operands normalize to 10 * 2^24 - 9 = 167,772,151 nodes
    start = time.perf_counter()
    code = main(["parse", "--sentence", " <-> ".join(["P0(c0)"] * 25)])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert capsys.readouterr().err == (
        f"parse error: normal form has more than {MAX_NORMAL_NODES} nodes (at position 0)\n")


NO_ATOMS = ('{"domain_size": 2, "predicates": {}, "functions": {}, '
            '"constants": {}, "identity": false}')


@pytest.mark.parametrize("structure,args", [
    (PRED, ["ktheta", "--theta", "exists-n:-1", "--bound", "0"]),
    (PRED, ["ktheta", "--theta", "forall-n:-3", "--bound", "0"]),
    (NO_ATOMS, ["ktheta", "--theta", "dsl", "--bound", "0"]),
    (NO_ATOMS, ["ktheta", "--theta", "all-fo", "--bound", "0"]),
    (PRED, ["lemma-check", "--which", "iii", "--var-arity", "5", "--theta", "all-fo",
            "--bound", "0", "--body", "X0^5(x0,x0,x0,x0,x0)"]),
], ids=["exists-n:-1", "forall-n:-3", "dsl without atoms", "all-fo without atoms",
        "all-fo at arity 5"])
def test_families_without_members_exit_3(tmp_path, structure, args):
    # in a child process with a timeout, so that a search that never ends
    # fails the test instead of hanging the run
    path = tmp_path / "s.json"
    path.write_text(structure, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "rsol.cli", args[0], "--structure", str(path)] + args[1:],
        capture_output=True, text=True, env=_child_env(), timeout=20)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("algebra", ["powerset:3", "free:2"])
def test_atoms_entry_on_another_algebra_exits_3(tmp_path, capsys, algebra):
    entries = tmp_path / "entries.txt"
    entries.write_text("join : one : @atoms\n", encoding="utf-8")
    code = main(["rs", "--algebra", algebra, "--family", str(entries), "--avoid", "zero"])
    assert code == 3
    assert "finite-cofinite" in capsys.readouterr().err


def test_atoms_entry_on_fincof_is_the_atoms_family(tmp_path):
    entries = tmp_path / "entries.txt"
    entries.write_text("join : one : @atoms\n", encoding="utf-8")
    common = ["--format", "json", "rs", "--algebra", "fincof", "--avoid", "zero",
              "--steps", "10"]
    code, out = run_cli(common + ["--family", str(entries)])
    code_builtin, out_builtin = run_cli(common + ["--family", "atoms"])
    assert code == code_builtin == 0
    assert out == out_builtin.replace('"atoms"', '"entry1"')


@pytest.mark.parametrize("budget,code", [(None, 0), ("1", 0), ("0", 3)])
def test_rsol_budget_bounds_the_witness_search(monkeypatch, capsys, budget, code):
    if budget is None:
        monkeypatch.delenv("RSOL_BUDGET", raising=False)
    else:
        monkeypatch.setenv("RSOL_BUDGET", budget)
    assert main(["rs", "--algebra", "fincof", "--family", "atoms", "--avoid", "zero",
                 "--steps", "30"]) == code
    err = capsys.readouterr().err
    assert ("enumeration budget exhausted for entry 'atoms'" in err) == (code == 3)


@pytest.mark.parametrize("text, position", [
    ("X0^0(x0)", 0), ("Y^0(x)", 0), ("forall X0^00 X0(x0)", 7),
])
def test_relation_variable_of_arity_0_is_a_parse_error(capsys, text, position):
    code = main(["parse", "--sentence", text])
    assert code == 2
    assert capsys.readouterr() == ("", "parse error: second-order variable arity "
                                       f"must be >= 1 (at position {position})\n")


@pytest.mark.parametrize("fmt, out", [
    ("human", "entry entry1: bound violated at index 0\n"),
    ("json", '{"check": "entry", "name": "entry1", "status": "violation"}\n'),
], ids=["human", "json"])
def test_rs_entry_with_a_violated_bound_exits_3_with_one_report(tmp_path, fmt, out):
    entries = tmp_path / "entries.txt"
    entries.write_text("join : 0 : 1\n", encoding="utf-8")
    code, printed = run_cli(["--format", fmt, "rs", "--algebra", "powerset:2",
                             "--family", str(entries), "--avoid", "0"])
    assert (code, printed) == (3, out)


PREMISE_PROOF = ("1. P0(c0) ; premise 1\n"
                 "2. P0(c0) -> P0(c1) ; premise 2\n"
                 "3. P0(c1) ; mp 2 1\n")


@pytest.mark.parametrize("premises, code, out, err", [
    ("# two premises\nP0(c0)\n\n  P0(c0) -> P0(c1)\n", 0,
     "accepted (3 lines, 0 templates)\n", ""),
    ("P0(c0)\nP0(c0) -> P0(c1\n", 2, "", "parse error: line 2: expected rparen, "
                                         "found '' (at position 15)\n"),
    ("P0(x0)\nP0(c0) -> P0(c1)\n", 4, "rejected: premise 0 is not a sentence\n", ""),
], ids=["comment-and-blank-line", "malformed", "free-variable"])
def test_prove_check_reads_a_premise_file(tmp_path, capsys, premises, code, out, err):
    proof, sigma = tmp_path / "p.prf", tmp_path / "sigma.txt"
    proof.write_text(PREMISE_PROOF, encoding="utf-8")
    sigma.write_text(premises, encoding="utf-8")
    assert main(["prove-check", "--proof", str(proof), "--sigma", str(sigma)]) == code
    assert capsys.readouterr() == (out, err)


# canonical and bare names with arity suffixes 0-3, the demo signature's
# symbols, one unknown symbol, and every operator
NAME_TOKENS = [name + suffix for name in ("x0", "x1", "x", "y", "X0", "X1", "X", "Y", "Z1")
               for suffix in ("", "^0", "^1", "^2", "^3")]
TOKENS = NAME_TOKENS + ["P0", "P1", "f0", "c0", "c1", "Q9", "forall", "exists", "inst",
                        "~", "&", "|", "->", "<->", "(", ")", ",", "=", "∀", "¬"]


@settings(deadline=None)
@given(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=20).map(" ".join))
@example("X0^0(x0)")
@example("Y^0(x)")
@example("forall X0^00 X0(x0)")
def test_parse_exits_0_or_2_on_any_token_string(text):
    # one argument, so that argparse does not read a leading '-' as an option
    assert run_cli(["parse", f"--sentence={text}"])[0] in (0, 2)


# a one-line proof: a formula and a justification of a documented shape
LINE_FORMULAS = [
    "P0(c0)", "P0(c0) -> (P0(c1) -> P0(c0))", "c0 = c0", "forall x0 P0(x0) -> P0(c0)",
    "forall X0 X0(c0) -> X0(c0)",
    "forall X0 forall X1 ((forall x0 (X0(x0) <-> X1(x0))) <-> X0 = X1)",
]
_INT = st.integers(-3, 5).map(str)
_FO = st.integers(0, 3).map("x{}".format)
_SO = st.builds("X{}{}".format, st.integers(0, 3), st.sampled_from(["", "^1", "^2", "^3"]))
JUSTIFICATIONS = st.one_of(
    st.builds("{} {}".format, st.sampled_from(["premise", "A1", "A2", "A6"]), _INT),
    st.builds("ax {}".format, st.sampled_from(["P1", "P2", "P3", "C1", "C2", "C3",
                                               "Q1", "Q2"])),
    st.sampled_from(["eq refl", "eq subst", "A3", "A4", "A5", "R3 t"]),
    st.builds("mp {} {}".format, _INT, _INT),
    st.builds("gen {} {}".format, _FO, _INT),
    st.builds("genso {} {}".format, _SO, _INT),
)


@settings(deadline=None)
@given(st.sampled_from(LINE_FORMULAS), JUSTIFICATIONS)
@example("P0(c0)", "A2 0")
def test_prove_check_exits_0_or_4_on_any_documented_justification(
        tmp_path_factory, formula, justification):
    proof = tmp_path_factory.getbasetemp() / "line.prf"
    proof.write_text(f"1. {formula} ; {justification}\n", encoding="utf-8")
    code, out = run_cli(["prove-check", "--theta", "weak-so:1", "--proof", str(proof)])
    assert code in (0, 4)
    assert out.startswith("accepted" if code == 0 else "rejected at line 1: ")
