"""Fixed corpora: checked proofs, collapse sentences, structure catalogs.

Everything here is deterministic; the randomized parts use private seeds
so the corpus is the same in every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .calculus import Proof, ProofBuilder
from .formulas import (
    And, Const, ForallSO, FOVar, Implies, PredApp, Signature, SOApp, SOVar,
    Var, parse,
)
from .sampling import random_sentence, random_structure
from .structures import FiniteStructure
from .theta import all_fo, dsl, weak_so

CORPUS_SIG = Signature(predicates={"P0": 1, "P1": 2}, constants=["c0", "c1"])

x0, x1 = FOVar(0), FOVar(1)
X0, X1 = SOVar(0, 1), SOVar(1, 1)


@dataclass
class CorpusProof:
    name: str
    proof: Proof
    uses_r3: bool = False


def _p(text: str):
    return parse(text, CORPUS_SIG)


def proof_corpus() -> list:
    """Accepted proofs exercising every justification kind."""
    out = []
    a, b, c, d = _p("P0(c0)"), _p("P1(c0, c1)"), _p("P0(c1)"), _p("P1(c1, c0)")

    pb = ProofBuilder(CORPUS_SIG)
    pb.imp_identity(a)
    out.append(CorpusProof("identity", pb.build()))

    pb = ProofBuilder(CORPUS_SIG, premises=[b])
    pb.weaken(pb.premise(0), a)
    out.append(CorpusProof("weaken", pb.build()))

    pb = ProofBuilder(CORPUS_SIG, premises=[Implies(a, b), Implies(b, c)])
    pb.syllogism(pb.premise(0), pb.premise(1))
    out.append(CorpusProof("syllogism", pb.build()))

    pb = ProofBuilder(CORPUS_SIG, premises=[Implies(a, b), Implies(b, c),
                                            Implies(c, d)])
    first = pb.syllogism(pb.premise(0), pb.premise(1))
    pb.syllogism(first, pb.premise(2))
    out.append(CorpusProof("chain", pb.build()))

    pb = ProofBuilder(CORPUS_SIG, premises=[a, b])
    pair = pb.schema("C3", a, b)
    step = pb.mp(pair, pb.premise(0))
    pb.mp(step, pb.premise(1))
    out.append(CorpusProof("conjunction-intro", pb.build()))

    pb = ProofBuilder(CORPUS_SIG, premises=[And(a, b)])
    pb.mp(pb.schema("C1", a, b), pb.premise(0))
    out.append(CorpusProof("conjunction-left", pb.build()))

    pb = ProofBuilder(CORPUS_SIG, premises=[And(a, b)])
    pb.mp(pb.schema("C2", a, b), pb.premise(0))
    out.append(CorpusProof("conjunction-right", pb.build()))

    pb = ProofBuilder(CORPUS_SIG, premises=[_p("forall x0 P0(x0)")])
    pb.mp(pb.q1(x0, PredApp("P0", (Var(x0),)), Const("c0")), pb.premise(0))
    out.append(CorpusProof("universal-instance", pb.build()))

    chi = _p("forall x0 (P0(x0) -> P0(x0))")
    pb = ProofBuilder(CORPUS_SIG, premises=[chi])
    pb.gen_fo(pb.premise(0), x1)
    out.append(CorpusProof("generalize-fo", pb.build()))

    pb = ProofBuilder(CORPUS_SIG, premises=[chi])
    pb.gen_so(pb.premise(0), X1)
    out.append(CorpusProof("generalize-so", pb.build()))

    pb = ProofBuilder(CORPUS_SIG, premises=[_p("c0 = c1"), a])
    ax = pb.eq_subst(Const("c0"), Const("c1"),
                     PredApp("P0", (Const("c0"),)), PredApp("P0", (Const("c1"),)))
    step = pb.mp(ax, pb.premise(0))
    pb.mp(step, pb.premise(1))
    out.append(CorpusProof("replace-equals", pb.build()))

    pb = ProofBuilder(CORPUS_SIG, premises=[_p("c0 = c1")])
    refl = pb.eq_refl(Const("c0"))
    ax = pb.eq_subst(Const("c0"), Const("c1"),
                     parse("c0 = c0", CORPUS_SIG), parse("c1 = c0", CORPUS_SIG))
    step = pb.mp(ax, pb.premise(0))
    pb.mp(step, refl)
    out.append(CorpusProof("symmetry", pb.build()))

    pb = ProofBuilder(CORPUS_SIG, premises=[_p("forall X0 X0(c0)")])
    pb.mp(pb.a4(X0, SOApp(X0, (Const("c0"),)), X0), pb.premise(0))
    out.append(CorpusProof("so-instance", pb.build()))

    pb = ProofBuilder(CORPUS_SIG, premises=[
        ForallSO(X0, Implies(a, SOApp(X0, (Const("c0"),))))])
    dist = pb.a5(X0, a, SOApp(X0, (Const("c0"),)))
    pb.mp(dist, pb.premise(0))
    out.append(CorpusProof("so-distribution", pb.build()))

    weak = weak_so(CORPUS_SIG, 1)
    pb = ProofBuilder(CORPUS_SIG, family=weak, premises=[_p("forall X0 X0(c0)")])
    inst = pb.a6(X0, SOApp(X0, (Const("c0"),)), 0)
    pb.mp(inst, pb.premise(0))
    out.append(CorpusProof("instantiate-weak", pb.build()))

    dfam = dsl(CORPUS_SIG)
    pb = ProofBuilder(CORPUS_SIG, family=dfam, premises=[_p("forall X0 X0(c0)")])
    inst = pb.a6(X0, SOApp(X0, (Const("c0"),)), 0)
    pb.mp(inst, pb.premise(0))
    out.append(CorpusProof("instantiate-dsl", pb.build()))

    pb = ProofBuilder(CORPUS_SIG, family=weak)
    pb.weaken(pb.a1(0), a)
    out.append(CorpusProof("comprehension-weak", pb.build()))

    pb = ProofBuilder(CORPUS_SIG)
    pb.weaken(pb.a2(1), a)
    out.append(CorpusProof("extensionality", pb.build()))

    phi_x = And(SOApp(X0, (Var(x0),)), SOApp(X0, (Const("c0"),)))
    phi_y = And(SOApp(X0, (Var(x0),)), SOApp(X1, (Const("c0"),)))
    pb = ProofBuilder(CORPUS_SIG)
    pb.weaken(pb.a3(X0, X1, phi_x, phi_y), a)
    out.append(CorpusProof("replacement", pb.build()))

    for fam, label, phi in (
            (weak, "weak", SOApp(X0, (Const("c0"),))),
            (dfam, "dsl", And(SOApp(X0, (Const("c0"),)), a)),
            (all_fo(CORPUS_SIG), "all-fo", SOApp(X0, (Var(x1),)))):
        pb = ProofBuilder(CORPUS_SIG, family=fam)
        tb = pb.template_builder()
        tb.a6_meta(X0, phi)
        pb.r3(tb.build("t-self"))
        out.append(CorpusProof(f"omega-self-{label}", pb.build(), uses_r3=True))

    pb = ProofBuilder(CORPUS_SIG, family=weak)
    tb = pb.template_builder()
    body = ForallSO(X0, SOApp(X0, (Const("c0"),)))
    start = tb.schema("C1", body, body)
    meta = tb.a6_meta(X0, SOApp(X0, (Const("c0"),)))
    tb.repeat_last(tb.syllogism(start, meta))
    pb.r3(tb.build("t-conj"))
    out.append(CorpusProof("omega-under-conjunction", pb.build(), uses_r3=True))

    pb = ProofBuilder(CORPUS_SIG, family=weak, premises=[a])
    tb = pb.template_builder()
    tb.a6_meta(X0, SOApp(X0, (Const("c0"),)))
    line = pb.r3(tb.build("t-prem"))
    pb.repeat_last(pb.weaken(line, a))
    out.append(CorpusProof("omega-with-premise", pb.build(), uses_r3=True))

    return out


# ---------------------------------------------------------------------------
# Collapse corpus
# ---------------------------------------------------------------------------

COLLAPSE_SIG = Signature(predicates={"P0": 1, "P1": 2}, constants=["c0"])


def collapse_catalog() -> list:
    """Fixed structures with at most three elements for the collapse check."""
    rng = random.Random(202)
    catalog = []
    for size in (1, 2, 3):
        catalog.append(FiniteStructure(
            COLLAPSE_SIG, size, predicates={"P0": [], "P1": []},
            constants={"c0": 0}))
    catalog.append(FiniteStructure(
        COLLAPSE_SIG, 2, predicates={"P0": [(0,)], "P1": [(0, 1)]},
        constants={"c0": 1}))
    catalog.append(FiniteStructure(
        COLLAPSE_SIG, 3,
        predicates={"P0": [(0,), (2,)], "P1": [(0, 1), (1, 2), (2, 0)]},
        constants={"c0": 0}))
    catalog.append(FiniteStructure(
        COLLAPSE_SIG, 3,
        predicates={"P0": [(1,)], "P1": [(i, i) for i in range(3)]},
        constants={"c0": 2}))
    while len(catalog) < 12:
        catalog.append(random_structure(rng, COLLAPSE_SIG, max_size=3))
    return catalog


def collapse_sentences() -> list:
    """Fifty sentences mixing relation quantifiers of arity one and two."""
    fixed = [
        "forall x exists X forall y (X(y) <-> x = y)",
        "exists X forall y ~X(y)",
        "forall X exists Y (X = Y)",
        "forall X forall x (X(x) | ~X(x))",
        "exists X forall x (X(x) <-> P0(x))",
        "forall X (forall x X(x) -> X(c0))",
        "exists X (X(c0) & forall y (X(y) -> X(y)))",
        "forall X^2 exists x exists y (X^2(x, y) -> X^2(y, x))",
        "exists X^2 forall x forall y (X^2(x, y) <-> P1(x, y))",
        "exists X^2 forall x X^2(x, x)",
        "forall X forall Y (forall x (X(x) <-> Y(x)) <-> X = Y)",
        "forall x exists X (X(x) & forall y (X(y) -> x = y))",
        "exists x forall X (X(x) -> exists y X(y))",
        "forall X exists x (X(x) | ~X(x))",
        "exists X (forall x (P0(x) -> X(x)) & forall x (X(x) -> P0(x)))",
        "forall x forall y (P1(x, y) -> exists X (X(x) & X(y)))",
        "exists X forall x (X(x) <-> exists y P1(x, y))",
        "forall X ((exists x X(x)) | forall x ~X(x))",
        "exists X exists Y forall x (X(x) -> Y(x))",
        "forall x (P0(x) -> exists X (X(x) & forall y (X(y) -> P0(y))))",
    ]
    out = [parse(t, COLLAPSE_SIG) for t in fixed]
    # generated tail sticks to unary relation quantifiers so the full
    # powerset range stays small even when quantifiers nest
    rng = random.Random(607)
    while len(out) < 50:
        out.append(random_sentence(rng, COLLAPSE_SIG, depth=2, so_arities=(1,)))
    return out


# ---------------------------------------------------------------------------
# Orbit-convergence catalog
# ---------------------------------------------------------------------------

def orbit_catalog() -> list:
    """At least twenty relational structures with at most four elements."""
    empty = Signature()
    punary = Signature(predicates={"P0": 1})
    pure2 = Signature(predicates={"P0": 1, "P1": 1})
    edge = Signature(predicates={"E": 2})
    pconst = Signature(predicates={"P0": 1}, constants=["c0"])
    catalog = []
    for size in (1, 2, 3, 4):
        catalog.append(FiniteStructure(empty, size))
    for size, ext in ((2, [(0,)]), (3, [(0,)]), (3, [(0,), (1,)]),
                      (4, [(0,), (1,)]), (4, [(3,)])):
        catalog.append(FiniteStructure(punary, size, predicates={"P0": ext}))
    catalog.append(FiniteStructure(
        pure2, 3, predicates={"P0": [(0,)], "P1": [(0,), (1,)]}))
    catalog.append(FiniteStructure(
        pure2, 4, predicates={"P0": [(0,), (1,)], "P1": [(1,), (2,)]}))
    edges = {
        "cycle3": (3, [(0, 1), (1, 2), (2, 0)]),
        "path3": (3, [(0, 1), (1, 2)]),
        "empty3": (3, []),
        "loopmix3": (3, [(0, 0), (1, 1)]),
        "complete3": (3, [(i, j) for i in range(3) for j in range(3) if i != j]),
        "cycle4": (4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        "pairs4": (4, [(0, 1), (1, 0), (2, 3), (3, 2)]),
        "star4": (4, [(0, 1), (0, 2), (0, 3)]),
        "tournament3": (3, [(0, 1), (1, 2), (0, 2)]),
    }
    for size, rows in edges.values():
        catalog.append(FiniteStructure(edge, size, predicates={"E": rows}))
    catalog.append(FiniteStructure(pconst, 3, predicates={"P0": [(1,)]},
                                   constants={"c0": 0}))
    catalog.append(FiniteStructure(pconst, 4, predicates={"P0": [(0,), (2,)]},
                                   constants={"c0": 2}))
    return catalog


# ---------------------------------------------------------------------------
# Lemma-sampling pools
# ---------------------------------------------------------------------------

LEMMA_SIG = Signature(predicates={"P0": 1}, constants=["c0"])


def lemma_bodies() -> list:
    """Bodies with x0 and X0 free, used for all six identity checks."""
    texts = [
        "X0(x0)",
        "X0(x0) & P0(x0)",
        "X0(x0) | X0(c0)",
        "X0(x0) -> P0(x0)",
        "exists x1 (X0(x1) & x0 = x1)",
        "forall x1 (X0(x1) -> X0(x0))",
        "~X0(x0)",
        "X0(c0) <-> X0(x0)",
    ]
    return [parse(t, LEMMA_SIG) for t in texts]
