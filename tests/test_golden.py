"""Golden byte streams: the sha256 of `--format json` stdout and the exit
code of each README command on a fixed two.json, of the rank oracle on
two.json and on a 4-element star, of `reduce` on a 5-element structure
with predicates, functions and a constant, and of `suite all`.

A change that alters any of these bytes alters documented output; update
a digest only together with a note saying which output changed and why.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from rsol.cli import main

TWO = '{"domain_size": 2, "predicates": {}, "functions": {}, "constants": {}}'
STAR4 = ('{"domain_size": 4, "predicates": {"E": [[0, 1], [0, 2], [0, 3]]}, '
         '"functions": {}, "constants": {}}')
PROOF = ("template t1 over n {\n"
         "1. forall X0 X0(c0) -> inst(X0, X0(c0)) ; A6 n\n"
         "}\n"
         "1. forall X0 X0(c0) -> forall X0 X0(c0) ; R3 t1\n")
SENTENCE = "forall x exists X forall y (X(y) <-> x = y)"
CENTRE = "exists X forall y (X(y) <-> forall z ~E(z, y))"
# the pull-back of a 3-element structure along 0, 1 -> 0; 2, 3 -> 1; 4 -> 2,
# whose coarsest congruence is that map's kernel
FIVE = ('{"domain_size": 5, "predicates": {"P": [[0], [1]], "E": [[0, 2], [0, 3], '
        '[1, 2], [1, 3], [2, 4], [3, 4]]}, "functions": {"g": [2, 3, 4, 4, 4], '
        '"m": [0, 1, 2, 3, 4, 1, 0, 3, 2, 4, 2, 3, 2, 3, 4, 3, 2, 3, 2, 4, 4, 4, 4, 4, 4]}, '
        '"constants": {"c": 4}}')

GOLDEN = {
    "parse": (
        ["parse", "--sentence", SENTENCE], 0,
        "a7423fcc0476dc9d19487b42eef2a024e86c17c20cae5163c55b67727353bdfc"),
    "eval-dsl-orbits": (
        ["eval", "--structure", "{two}", "--theta", "dsl", "--oracle", "orbits",
         "--sentence", SENTENCE], 0,
        "f8ed922bdf06861349386d147cf9050adb92f4d70f1e78d9fed27735bf501040"),
    "eval-rank": (
        ["eval", "--structure", "{two}", "--oracle", "rank",
         "--sentence", SENTENCE], 0,
        "3a62a760abac5eb69fc0e7e6bb7cdf4b13b037430cce713a19ef92e682d7edb8"),
    "eval-rank-star4": (
        ["eval", "--structure", "{star4}", "--oracle", "rank",
         "--sentence", SENTENCE], 0,
        "4be73b1c3b37086168a476cd7a7a8779a82dfbaa0122f8f411bb264cc276bef3"),
    "eval-rank-star4-centre": (
        ["eval", "--structure", "{star4}", "--oracle", "rank",
         "--sentence", CENTRE], 0,
        "8bb416aeec2fa178b672fe34ef42c36eff371d8fbf0a07da0bbf47469cb7a4f8"),
    "eval-weak-so": (
        ["eval", "--structure", "{two}", "--theta", "weak-so:1", "--bound", "1",
         "--sentence", SENTENCE], 0,
        "a842fcbbf6f81a8a8fe610b4b5a2907acff902f308999da08c960dd14844fada"),
    "ktheta": (
        ["ktheta", "--structure", "{two}", "--theta", "weak-so:1",
         "--bound", "2"], 0,
        "ae9e10d13fc50277349c537584c51108241da66ad0894796217a69819ced7917"),
    "ktheta-dsl": (
        ["ktheta", "--structure", "{two}", "--theta", "dsl", "--bound", "60"], 0,
        "c2f7e0ab7f83c0cb710d8b39c7d887446c017cad020978459a91112ad5ce5d0a"),
    "ktheta-all-fo": (
        ["ktheta", "--structure", "{two}", "--theta", "all-fo", "--bound", "60"], 0,
        "283f87c6932dc25d1234868a8115b5aa8e8b4eb857de6ea190317653e148da4b"),
    "orbits": (
        ["orbits", "--structure", "{two}", "--arity", "1"], 0,
        "a2e2104fa78eca2394494cac7d57c5c6d95efaa3d0ccddd3bfe85fd66148a365"),
    "orbits-with-parameters": (
        ["orbits", "--structure", "{two}", "--arity", "2",
         "--with-parameters"], 0,
        "7a82d286f3ee890c9c682a2f092a18246e5500fda85e85e421ebf3ecf96234c5"),
    "orbits-past-guard": (
        ["orbits", "--structure", "{two}", "--arity", "5",
         "--with-parameters"], 5,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "orbits-rows-infeasible": (
        ["orbits", "--structure", "{two}", "--arity", "30",
         "--with-parameters"], 5,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "orbits-rows-infeasible-no-parameters": (
        ["orbits", "--structure", "{two}", "--arity", "30"], 5,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "compare-so": (
        ["compare-so", "--structure", "{two}", "--sentence", SENTENCE], 0,
        "46513423547f89eb6be27613f2d352446acabe97e0c9ed84cbb5f95d0322f64b"),
    "lemma-check": (
        ["lemma-check", "--structure", "{two}", "--which", "v",
         "--body", "X0(x0)", "--theta", "weak-so:1", "--bound", "1"], 0,
        "43fd83cf7b4429b7f2abc481c538c537f5b20896d4768b941bc68c731ecbb48a"),
    "reduce": (
        ["reduce", "--structure", "{two}"], 0,
        "d9aadfe68f2bebb99e2cfcf048360eb4919d02f99597a9bcf2670fc66ef19ace"),
    "reduce-five": (
        ["reduce", "--structure", "{five}"], 0,
        "4dee89a40a3adca706dac89804f827b2698177d0b683f1b536ec0d433a7d7f8d"),
    "prove-check": (
        ["prove-check", "--proof", "{proof}", "--theta", "weak-so:1",
         "--spot", "5"], 0,
        "de6c4b97bdb6b9b110a66324c56438fc3a49c44e45638cee5ede21a9f3ab9046"),
    "rs-powerset": (
        ["rs", "--algebra", "powerset:3", "--family", "complete",
         "--avoid", "2", "--steps", "10"], 0,
        "9eae766a007a6ca658dc885276847d5596f32361f51b0fbe77eb22874ce75a16"),
    "rs-fincof": (
        ["rs", "--algebra", "fincof", "--family", "atoms", "--avoid", "zero",
         "--steps", "30"], 0,
        "157494aa7e8fff2d5782511bff64adbf7bd8ec6e73d484cd5a37804c28d2eba7"),
    "suite-all": (
        ["suite", "all", "--seed", "0"], 0,
        "7ecb3bbdde2b289261601f23a598c31d7ce59c2ffa71d49de27124370433a9ed"),
}


@pytest.fixture
def paths(tmp_path):
    two = tmp_path / "two.json"
    two.write_text(TWO, encoding="utf-8")
    star4 = tmp_path / "star4.json"
    star4.write_text(STAR4, encoding="utf-8")
    five = tmp_path / "five.json"
    five.write_text(FIVE, encoding="utf-8")
    proof = tmp_path / "self.prf"
    proof.write_text(PROOF, encoding="utf-8")
    return {"two": str(two), "star4": str(star4), "five": str(five),
            "proof": str(proof)}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_json_stream(name, paths):
    args, want_code, want_digest = GOLDEN[name]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["--format", "json"] + [a.format(**paths) for a in args])
    digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    assert (code, digest) == (want_code, want_digest)
