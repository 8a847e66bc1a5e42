import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rsol
from rsol.cli import main

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


def test_ktheta_lists_relations(two_json):
    code, out = run_cli(["ktheta", "--structure", two_json,
                         "--theta", "weak-so:1", "--bound", "1"])
    assert code == 0
    assert "total: {1: 3}" in out


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


def test_prove_check_cli(tmp_path):
    proof = tmp_path / "p.prf"
    proof.write_text(
        "template t1 over n {\n"
        "1. forall X0 X0(c0) -> inst(X0, X0(c0)) ; A6 n\n"
        "}\n"
        "1. forall X0 X0(c0) -> forall X0 X0(c0) ; R3 t1\n",
        encoding="utf-8")
    code, out = run_cli(["prove-check", "--proof", str(proof),
                         "--theta", "weak-so:1", "--spot", "3"])
    assert code == 0
    assert "accepted" in out and "evidence(3)" in out


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


def test_rs_cli_avoid_unit_precondition():
    code, _ = run_cli(["rs", "--algebra", "powerset:2", "--family", "complete",
                       "--avoid", "unit"])
    assert code == 3


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
