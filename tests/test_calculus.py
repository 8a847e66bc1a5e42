import copy
import gc
import inspect
import operator
import random
import weakref
from types import SimpleNamespace

import pytest

from rsol import calculus
from rsol.calculus import (
    AXIOMS, SCHEMATA, Axiom, GenFO, GenSO, MP, OmegaTemplate, Premise, Proof,
    ProofBuilder, ProofLine, R3,
    TemplateBuilder, _match_distribution, _match_instance, _match_replacement,
    _match_schema, apply_deduction, build_instance,
    build_a1, build_a2, build_a3, build_a4, build_a5, build_a6,
    build_distribution, build_eq_refl, build_eq_subst, build_schema, check_proof,
    check_template, instantiate_template,
    load_premises_text, load_proof_text, recognize_axiom, spot_check_template,
)
from rsol.formulas import (
    And, Const, ExistsFO, ForallFO, ForallSO, FormulaError, FOVar, Implies, SOEq,
    InstAtom, Not, Or, PredApp, Signature, SOApp, SOVar, TermEq, Var, alpha_eq,
    a6_instantiate, as_implies, children, implies, nodes, normalize, parse,
    rebuild, term_fo_vars,
)
from rsol.corpus import proof_corpus
from rsol.sampling import random_formula
from rsol.theta import all_fo, dsl, weak_so

SIG = Signature(predicates={"P0": 1, "P1": 2}, constants=["c0", "c1"])
x0, x1 = FOVar(0), FOVar(1)
X0, X1 = SOVar(0, 1), SOVar(1, 1)
WEAK = weak_so(SIG, 1)

P0c = parse("P0(c0)", SIG)
P1c = parse("P1(c0, c1)", SIG)


def accepted(proof):
    v = check_proof(proof)
    assert v.ok, (v.line, v.reason)
    return v


def test_recognize_a1_weak_so():
    f = parse("forall y exists X forall x (X(x) <-> x = y)", SIG)
    got = recognize_axiom(f, WEAK)
    assert got == ("A1", {"theta_index": 0})


def test_recognize_a2():
    f = parse("forall X0, X1 (forall x (X0(x) <-> X1(x)) <-> X0 = X1)", SIG)
    assert recognize_axiom(f) == ("A2", {"arity": 1})


def test_recognize_a4_self_instance():
    f = parse("forall X0 X0(x0) -> X0(x0)", SIG)
    name, witness = recognize_axiom(f)
    assert name == "A4" and witness == {"vm": X0, "vn": X0}


def test_recognize_propositional():
    a, b = P0c, P1c
    assert recognize_axiom(build_schema("P1", a, b))[0] == "P1"
    assert recognize_axiom(normalize(Implies(And(a, b), a)))[0] == "C1"
    assert recognize_axiom(build_eq_refl(Const("c0")))[0] == "eq-refl"


def test_recognize_a6():
    phi = SOApp(X0, (Var(x0),))
    f = build_a6(X0, phi, WEAK.arity_member(1, 1))
    assert recognize_axiom(f, WEAK) == ("A6", {"theta_index": 1})


def test_recognize_none():
    assert recognize_axiom(parse("P0(c0)", SIG), WEAK) is None


def test_q1_capture_is_not_an_instance():
    # forall x0 exists x1 ~(x0 = x1) -> exists x1 ~(x1 = x1) is unsound
    phi = normalize(parse("exists x1 ~(x0 = x1)", SIG))
    bad = implies(ForallFO(x0, phi),
                  normalize(parse("exists x1 ~(x1 = x1)", SIG)))
    assert recognize_axiom(bad) is None
    with pytest.raises(FormulaError):
        build_instance(x0, phi, Var(x1))


def test_a3_partial_replacement():
    phi = And(SOApp(X0, (Var(x0),)), SOApp(X0, (Const("c0"),)))
    phi_prime = And(SOApp(X0, (Var(x0),)), SOApp(X1, (Const("c0"),)))
    f = build_a3(X0, X1, phi, phi_prime)
    assert recognize_axiom(f)[0] == "A3"
    # replacing inside a binder for the target variable is not allowed
    bad_inner = ForallSO(X1, SOApp(X0, (Var(x0),)))
    bad_outer = ForallSO(X1, SOApp(X1, (Var(x0),)))
    with pytest.raises(FormulaError):
        build_a3(X0, X1, bad_inner, bad_outer)


def test_eq_subst_instance():
    t0, t1 = Const("c0"), Const("c1")
    phi = PredApp("P0", (t0,))
    f = build_eq_subst(t0, t1, phi, PredApp("P0", (t1,)))
    assert recognize_axiom(f)[0] == "eq-subst"


def test_two_line_modus_ponens_proof():
    pb = ProofBuilder(SIG, premises=[P0c, Implies(P0c, P1c)])
    i = pb.premise(1)
    j = pb.premise(0)
    pb.mp(i, j)
    proof = pb.build()
    accepted(proof)
    assert proof.conclusion == normalize(P1c)


def test_forward_reference_rejected():
    lines = [
        ProofLine(normalize(P1c), MP(1, 2)),
        ProofLine(normalize(Implies(P0c, P1c)), Premise(1)),
        ProofLine(normalize(P0c), Premise(0)),
    ]
    proof = Proof(SIG, None, [P0c, Implies(P0c, P1c)], lines)
    v = check_proof(proof)
    assert not v.ok and v.line == 0 and "earlier" in v.reason


def test_check_proof_checks_a_subtree_shared_by_lines_once(monkeypatch):
    shared = normalize(And(P0c, P1c))
    bad = PredApp("P9", (Const("c0"),))

    def second_line(f):
        return check_proof(Proof(SIG, None, [shared], [
            ProofLine(shared, Premise(0)), ProofLine(And(shared, f), Premise(0))]))

    v = second_line(bad)
    assert (v.ok, v.line, v.reason) == (False, 1, "unknown predicate 'P9'")
    v = second_line(InstAtom(X0, SOApp(X0, (Const("c0"),))))
    assert (v.line, v.reason) == (1, "inst atoms are only allowed inside templates")
    # the leftmost invalid atom is the one reported
    v = second_line(And(PredApp("P0", (Const("c0"), Const("c1"))), bad))
    assert v.line == 1 and v.reason.startswith("predicate 'P0' expects 1 arguments")
    # the premise is validated whole, and each atom of the lines once
    validated, checked = [], []
    monkeypatch.setattr(calculus, "validate", lambda f, sig: validated.append(f))
    monkeypatch.setattr(calculus, "_validate_node", lambda g, sig: checked.append(g))
    assert not second_line(P0c).ok
    assert validated == [shared]
    assert checked == [P0c, P1c]


def test_premise_must_be_sentence():
    proof = Proof(SIG, None, [PredApp("P0", (Var(x0),))],
                  [ProofLine(normalize(PredApp("P0", (Var(x0),))), Premise(0))])
    v = check_proof(proof)
    assert not v.ok and "sentence" in v.reason


def self_implication_proof(fam, phi):
    """psi -> forall X0 phi via the one-line-per-member template."""
    pb = ProofBuilder(SIG, family=fam)
    tb = pb.template_builder()
    tb.a6_meta(X0, phi)
    template = tb.build("t1")
    pb.r3(template)
    return pb.build()


def test_r3_self_implication():
    phi = SOApp(X0, (Const("c0"),))
    proof = self_implication_proof(WEAK, phi)
    accepted(proof)
    want = implies(ForallSO(X0, normalize(phi)), ForallSO(X0, normalize(phi)))
    assert proof.conclusion == want


def test_template_uniformity_rejection():
    # a line that is only an axiom instance for a particular member is
    # inexpressible; the nearest attempt misuses a schema on the opaque atom
    phi = SOApp(X0, (Const("c0"),))
    inst = InstAtom(X0, normalize(phi))
    bad = OmegaTemplate("bad", (
        ProofLine(implies(inst, inst), Axiom("P1")),
        ProofLine(implies(ForallSO(X0, normalize(phi)), inst), Axiom("A6")),
    ))
    proof = Proof(SIG, WEAK, [], [ProofLine(
        implies(ForallSO(X0, normalize(phi)), ForallSO(X0, normalize(phi))),
        R3("bad"))], {"bad": bad})
    v = check_proof(proof)
    assert not v.ok and v.reason.startswith("cited template rejected: ")


def test_check_proof_checks_each_template_once(monkeypatch):
    import rsol.calculus as calculus
    calls = []

    def counting(t, proof):
        calls.append(t.name)
        return check_template(t, proof)

    monkeypatch.setattr(calculus, "check_template", counting)
    proof = self_implication_proof(WEAK, SOApp(X0, (Const("c0"),)))
    twice = Proof(SIG, WEAK, [], proof.lines * 2, proof.templates)
    accepted(twice)
    assert calls == ["t1"]


def test_template_arity_mismatch_rejected():
    # dsl has only unary members; a binary meta-atom cannot be certified
    X2 = SOVar(0, 2)
    phi = SOApp(X2, (Var(x0), Var(x1)))
    pb = ProofBuilder(SIG, family=dsl(SIG))
    tb = pb.template_builder()
    tb.a6_meta(X2, phi)
    pb.r3(tb.build("t"))
    v = check_proof(pb.build())
    assert not v.ok and "arity" in v.reason


def test_spot_check_template():
    phi = SOApp(X0, (Const("c0"),))
    proof = self_implication_proof(WEAK, phi)
    template = proof.templates["t1"]
    v = spot_check_template(template, proof, 10)
    assert v.ok and v.reason == "evidence(10)"
    degenerate = spot_check_template(template, proof, 0)
    assert degenerate.ok and degenerate.reason == "evidence(0)"


def test_spot_check_reports_witness():
    phi = normalize(SOApp(X0, (Const("c0"),)))
    # formula claims the meta-instantiation but the justification pins
    # member 2, so instances at other indices fail
    bad = OmegaTemplate("b", (
        ProofLine(implies(ForallSO(X0, phi), InstAtom(X0, phi)), Axiom("A6", 2)),))
    proof = Proof(SIG, WEAK, [], [ProofLine(
        implies(ForallSO(X0, phi), ForallSO(X0, phi)), R3("b"))], {"b": bad})
    v = spot_check_template(bad, proof, 5)
    assert not v.ok and "n=0" in v.reason


def test_instantiate_template_gives_concrete_a6():
    phi = SOApp(X0, (Const("c0"),))
    proof = self_implication_proof(WEAK, phi)
    inst = instantiate_template(proof.templates["t1"], proof, 3)
    accepted(inst)
    assert inst.lines[0].justification == Axiom("A6", 3)


def test_gen_and_quantifier_axioms():
    pb = ProofBuilder(SIG, premises=[parse("forall x0 P0(x0)", SIG)])
    univ = pb.premise(0)
    inst = pb.q1(x0, PredApp("P0", (Var(x0),)), Const("c0"))
    got = pb.mp(inst, univ)
    gen = pb.gen_fo(got, x1)
    pb.gen_so(gen, X0)
    proof = pb.build()
    accepted(proof)
    assert proof.conclusion == ForallSO(X0, ForallFO(x1, normalize(P0c)))


def test_builder_derived_rules_check_out():
    a, b, c = P0c, P1c, parse("P0(c1)", SIG)
    pb = ProofBuilder(SIG, premises=[Implies(a, b), Implies(b, c), a])
    ab = pb.premise(0)
    bc = pb.premise(1)
    ac = pb.syllogism(ab, bc)
    pa = pb.premise(2)
    pb.mp(ac, pa)
    proof = pb.build()
    accepted(proof)
    assert proof.conclusion == normalize(c)


def test_apply_deduction_identity():
    pb = ProofBuilder(SIG, premises=[P0c])
    pb.premise(0)
    out = apply_deduction(pb.build())
    accepted(out)
    assert out.premises == ()
    assert out.conclusion == implies(normalize(P0c), normalize(P0c))


def test_apply_deduction_mp():
    pb = ProofBuilder(SIG, premises=[Implies(P0c, P1c), P0c])
    i = pb.premise(0)
    j = pb.premise(1)
    pb.mp(i, j)
    out = apply_deduction(pb.build())  # discharge P0c
    accepted(out)
    assert out.premises == (normalize(Implies(P0c, P1c)),)
    assert out.conclusion == implies(normalize(P0c), normalize(P1c))


def test_apply_deduction_generalization():
    chi = parse("forall x0 (P0(x0) -> P0(x0))", SIG)
    pb = ProofBuilder(SIG, premises=[chi])
    base = pb.premise(0)
    pb.gen_fo(base, x1)
    out = apply_deduction(pb.build())
    accepted(out)
    assert out.conclusion == implies(normalize(chi),
                                     ForallFO(x1, normalize(chi)))


def test_apply_deduction_r3():
    phi = SOApp(X0, (Const("c0"),))
    chi = P0c
    pb = ProofBuilder(SIG, family=WEAK, premises=[chi])
    tb = pb.template_builder()
    tb.a6_meta(X0, phi)
    r3line = pb.r3(tb.build("t1"))
    weak_line = pb.weaken(r3line, chi)
    pb.repeat_last(weak_line)
    proof = pb.build()
    accepted(proof)
    out = apply_deduction(proof)
    accepted(out)
    assert out.premises == ()
    assert out.conclusion == implies(normalize(chi), proof.conclusion)
    assert len(out.templates) == 1


def test_apply_deduction_r3_with_premise_inside_template():
    chi = parse("forall X0 X0(c0)", SIG)
    a = P0c
    phi = SOApp(X0, (Const("c0"),))
    pb = ProofBuilder(SIG, family=WEAK, premises=[chi])
    tb = pb.template_builder()
    prem = tb.premise(0)
    meta = tb.a6_meta(X0, phi)
    got = tb.mp(meta, prem)
    tb.gen_fo(got, FOVar(5))
    lift = tb.schema("P1", tb.formula_at(got), normalize(a))
    tb.repeat_last(tb.mp(lift, got))
    template = tb.build("t-rich")
    pb.r3(template)
    proof = pb.build()
    accepted(proof)
    assert proof.conclusion == implies(normalize(a),
                                       ForallSO(X0, normalize(phi)))
    out = apply_deduction(proof)
    accepted(out)
    assert out.premises == ()
    assert out.conclusion == implies(normalize(chi), proof.conclusion)


def test_directed_checks_accept_alpha_variants():
    # the comprehension instance with a different bound relation variable
    f = build_a1(WEAK.member_at(0), so_index=7)
    proof = Proof(SIG, WEAK, [], [ProofLine(f, Axiom("A1", 0))])
    accepted(proof)
    member = WEAK.arity_member(1, 0)
    g = build_a6(SOVar(4, 1), SOApp(SOVar(4, 1), (Var(x0),)), member)
    proof = Proof(SIG, WEAK, [], [ProofLine(g, Axiom("A6", 0))])
    accepted(proof)


def test_apply_deduction_requires_accepted_input():
    bad = Proof(SIG, None, [P0c], [ProofLine(normalize(P1c), Premise(0))])
    with pytest.raises(FormulaError):
        apply_deduction(bad)


def test_apply_deduction_refuses_a_proof_without_premises():
    pb = ProofBuilder(SIG)
    pb.imp_identity(normalize(P0c))
    proof = pb.build()
    accepted(proof)
    with pytest.raises(FormulaError, match="no such premise"):
        apply_deduction(proof)


def test_proof_text_roundtrip():
    text = """
# tiny detachment proof
1. P0(c0) -> P1(c0, c1) ; premise 1
2. P0(c0) ; premise 2
3. P1(c0, c1) ; mp 1 2
"""
    premises = load_premises_text("P0(c0) -> P1(c0, c1)\nP0(c0)\n", SIG)
    proof = load_proof_text(text, SIG, None, premises)
    accepted(proof)
    assert proof.conclusion == normalize(P1c)


def test_proof_text_with_template():
    text = """
template t1 over n {
1. forall X0 X0(c0) -> inst(X0, X0(c0)) ; A6 n
}
1. forall X0 X0(c0) -> forall X0 X0(c0) ; R3 t1
"""
    proof = load_proof_text(text, SIG, WEAK)
    accepted(proof)


def test_proof_text_errors():
    with pytest.raises(FormulaError):
        load_proof_text("2. P0(c0) ; premise 1", SIG, None, [P0c])
    with pytest.raises(FormulaError):
        load_proof_text("1. P0(c0) ; banana", SIG, None, [P0c])
    with pytest.raises(FormulaError):
        load_proof_text("1. inst(X0, X0(c0)) ; A4", SIG, WEAK)


def test_axiom_builders_recognized_by_kernel():
    member = WEAK.member_at(1)
    pb = ProofBuilder(SIG, family=WEAK)
    pb.a1(1)
    pb.a2(2)
    pb.a4(X0, SOApp(X0, (Var(x0),)), X1)
    pb.a5(X0, P0c, SOApp(X0, (Var(x0),)))
    pb.a6(X0, SOApp(X0, (Var(x0),)), 0)
    pb.distribution(x0, P0c, PredApp("P0", (Var(x0),)))
    pb.eq_refl(Var(x0))
    pb.imp_identity(P0c)
    accepted(pb.build())
    del member


# an instance of each entry of AXIOMS made by its builder, and the index cited
PARTS = (P0c, P1c, normalize(parse("P0(c1)", SIG)))
INSTANCES = {
    **{name: (build_schema(name, *PARTS[:len(inspect.signature(schema).parameters)]),
              None) for name, schema in SCHEMATA.items()},
    "Q1": (build_instance(x0, PredApp("P0", (Var(x0),)), Const("c0")), None),
    "Q2": (build_distribution(x0, P0c, PredApp("P0", (Var(x0),))), None),
    "eq-refl": (build_eq_refl(Const("c0")), None),
    "eq-subst": (build_eq_subst(Const("c0"), Const("c1"), P0c, PARTS[2]), None),
    "A2": (build_a2(2), 2),
    "A3": (build_a3(X0, X1, SOApp(X0, (Var(x0),)), SOApp(X1, (Var(x0),))), None),
    "A4": (build_a4(X0, SOApp(X0, (Var(x0),)), X1), None),
    "A5": (build_a5(X0, P0c, SOApp(X0, (Var(x0),))), None),
    "A1": (build_a1(WEAK.member_at(1)), 1),
    "A6": (build_a6(X0, SOApp(X0, (Var(x0),)), WEAK.arity_member(1, 1)), 1),
}


@pytest.mark.parametrize("name", AXIOMS)
def test_each_axiom_schema_accepts_and_recognizes_its_builders_instance(name):
    f, index = INSTANCES[name]
    accepted(Proof(SIG, WEAK, [], [ProofLine(f, Axiom(name, index))]))
    got, witness = recognize_axiom(f, WEAK)
    assert got == name
    if index is not None:
        assert witness == dict.fromkeys(AXIOMS[name][1], index)


def test_a2_side_condition_arities():
    f = build_a2(2)
    assert recognize_axiom(f) == ("A2", {"arity": 2})


def test_check_proof_rejects_inst_in_main_lines():
    proof = Proof(SIG, WEAK, [], [
        ProofLine(InstAtom(X0, SOApp(X0, (Var(x0),))), Axiom("A4"))])
    v = check_proof(proof)
    assert not v.ok and "template" in v.reason


def test_an_inst_atom_is_reported_before_a_bad_atom_of_the_same_line():
    bad = PredApp("P9", (Const("c0"),))
    inst = InstAtom(X0, SOApp(X0, (Const("c0"),)))
    for f in (And(bad, inst), And(inst, bad)):
        v = check_proof(Proof(SIG, WEAK, [], [ProofLine(f, Axiom("A4"))]))
        assert (v.ok, v.line, v.reason) == (
            False, 0, "inst atoms are only allowed inside templates")


PHI = normalize(SOApp(X0, (Const("c0"),)))
TARGET = implies(ForallSO(X0, PHI), ForallSO(X0, PHI))
META = ProofLine(implies(ForallSO(X0, PHI), InstAtom(X0, PHI)), Axiom("A6"))
NO_IDENTITY = Signature(predicates={"P0": 1, "P1": 2}, constants=["c0", "c1"],
                        identity=False)


def _one_liner(j, sig=SIG, fam=None, premises=(), f=P0c):
    return Proof(sig, fam, premises, [ProofLine(f, j)])


def _read(justification, sig=SIG):
    """A one-line proof of P0(c0) read from the proof-file format."""
    return load_proof_text(f"1. P0(c0) ; {justification}", sig, None)


def _citing(template_lines, fam=WEAK, target=TARGET):
    """A proof of `target` by R3 from a template of these lines."""
    return Proof(SIG, fam, [], [ProofLine(target, R3("t"))],
                 {"t": OmegaTemplate("t", tuple(template_lines))})


X2 = SOVar(0, 2)
PHI2 = SOApp(X2, (Const("c0"), Const("c1")))

# (proof, line, reason, the cited template's (line, reason) or None)
REJECTIONS = {
    "premise-index": (_one_liner(Premise(1), premises=[P0c]),
                      0, "premise index 1 out of range", None),
    "unknown-schema": (_one_liner(Axiom("P9")), 0, "unknown schema P9", None),
    "unknown-schema-A4-after-ax": (_read("ax A4"), 0, "unknown schema A4", None),
    "unknown-schema-eq-refl-after-ax": (_read("ax eq-refl"), 0,
                                        "unknown schema eq-refl", None),
    "unknown-identity-schema": (_read("eq sym"), 0, "unknown identity schema sym", None),
    "unknown-identity-schema-without-identity": (
        _read("eq sym", sig=NO_IDENTITY), 0,
        "identity axioms are disabled for this signature", None),
    "identity-disabled": (_one_liner(Axiom("eq-refl"), sig=NO_IDENTITY),
                          0, "identity axioms are disabled for this signature", None),
    "extensionality-without-identity": (_one_liner(Axiom("A2", 1), sig=NO_IDENTITY),
                                        0, "extensionality needs identity", None),
    "extensionality-at-arity-0": (_one_liner(Axiom("A2", 0)), 0,
                                  "not the extensionality instance at arity 0", None),
    "extensionality-at-arity-minus-1": (_one_liner(Axiom("A2", -1)), 0,
                                        "not the extensionality instance at arity -1", None),
    "replacement-without-identity": (_one_liner(Axiom("A3"), sig=NO_IDENTITY),
                                     0, "replacement needs identity", None),
    "A1-without-family": (_one_liner(Axiom("A1", 0)), 0, "no family attached to the proof", None),
    "A6-without-family": (_one_liner(Axiom("A6", 0)), 0, "no family attached to the proof", None),
    "template-without-family": (
        _citing([META], fam=None), 0,
        "cited template rejected: no family attached to the proof",
        (None, "no family attached to the proof")),
    "meta-index-outside-template": (_one_liner(Axiom("A6")), 0,
                                    "meta-index instantiation outside a template", None),
    "nested-infinitary-rule": (
        _citing([ProofLine(P0c, R3("t")), META]), 0,
        "cited template rejected: nested infinitary rule", (0, "nested infinitary rule")),
    "unknown-template": (Proof(SIG, WEAK, [], [ProofLine(TARGET, R3("nope"))]),
                         0, "unknown template nope", None),
    "gen-fo-later-line": (
        Proof(SIG, None, [P0c], [ProofLine(ForallFO(x0, P0c), GenFO(1, x0)),
                                 ProofLine(P0c, Premise(0))]),
        0, "generalization cites a line that is not strictly earlier", None),
    "gen-so-own-line": (
        _one_liner(GenSO(0, X0), premises=[P0c], f=ForallSO(X0, P0c)),
        0, "generalization cites a line that is not strictly earlier", None),
    "conclusion-not-the-target": (
        _citing([META], target=implies(P0c, ForallSO(X0, PHI))),
        0, "conclusion does not match the template target", None),
    "premise-not-a-sentence": (_one_liner(Premise(0), premises=[PredApp("P0", (Var(x0),))]),
                               None, "premise 0 is not a sentence", None),
    "no-lines": (Proof(SIG, None, [], []), None, "no lines", None),
    "premise-invalid": (_one_liner(Premise(0), premises=[PredApp("P9", (Const("c0"),))]),
                        None, "premise 0: unknown predicate 'P9'", None),
    "premise-differs": (_one_liner(Premise(0), premises=[P1c]),
                        0, "formula differs from the cited premise", None),
    "unknown-justification": (_one_liner("axiom"), 0, "unknown justification 'axiom'", None),
    "not-a-distribution-axiom": (_one_liner(Axiom("A5")), 0, "not a distribution axiom", None),
    "mp-own-line": (_one_liner(MP(0, 0)),
                    0, "detachment cites a line that is not strictly earlier", None),
    "mp-mismatch": (
        Proof(SIG, None, [P0c, implies(P0c, P1c)], [
            ProofLine(P0c, Premise(0)), ProofLine(implies(P0c, P1c), Premise(1)),
            ProofLine(P0c, MP(1, 0))]),
        2, "implication line does not match antecedent and conclusion", None),
    "gen-mismatch": (
        Proof(SIG, None, [P0c], [ProofLine(P0c, Premise(0)),
                                 ProofLine(ForallFO(x1, P0c), GenFO(0, x0))]),
        1, "not the generalization of the cited line", None),
    "final-line-not-into-inst": (
        _citing([ProofLine(P0c, Axiom("P1"))]), 0,
        "cited template rejected: template t: final line must be an implication "
        "into an inst atom",
        (None, "template t: final line must be an implication into an inst atom")),
    "meta-line-not-schematic": (
        _citing([ProofLine(implies(P0c, InstAtom(X0, PHI)), Axiom("A6"))],
                target=implies(P0c, ForallSO(X0, PHI))), 0,
        "cited template rejected: not a schematic instantiation axiom",
        (0, "not a schematic instantiation axiom")),
    "meta-line-other-body": (
        _citing([ProofLine(implies(ForallSO(X0, PHI), InstAtom(X0, P0c)), Axiom("A6"))],
                target=implies(ForallSO(X0, PHI), ForallSO(X0, P0c))), 0,
        "cited template rejected: inst atom does not match the quantified formula",
        (0, "inst atom does not match the quantified formula")),
    "empty-template": (_citing([]), 0, "cited template rejected: empty template",
                       (None, "empty template")),
    "antecedent-mentions-meta-index": (
        _citing([ProofLine(implies(InstAtom(X0, PHI), InstAtom(X0, PHI)), Axiom("P1"))]),
        0, "cited template rejected: target antecedent mentions the meta-index",
        (None, "target antecedent mentions the meta-index")),
    "nested-inst-in-target": (
        _citing([ProofLine(implies(ForallSO(X0, PHI), InstAtom(X0, InstAtom(X0, PHI))),
                           Axiom("A6"))]),
        0, "cited template rejected: nested inst atoms are not supported",
        (None, "nested inst atoms are not supported")),
    "nested-inst-in-a-line": (
        _citing([ProofLine(InstAtom(X0, InstAtom(X0, PHI)), Axiom("A4")), META]),
        0, "cited template rejected: nested inst atoms are not supported",
        (None, "nested inst atoms are not supported")),
    "no-members-of-the-arity": (
        _citing([ProofLine(implies(ForallSO(X2, PHI2), InstAtom(X2, PHI2)), Axiom("A6"))],
                fam=dsl(SIG), target=implies(ForallSO(X2, PHI2), ForallSO(X2, PHI2))),
        0, "cited template rejected: family dsl has no members of arity 2",
        (None, "family dsl has no members of arity 2")),
}


@pytest.mark.parametrize("name", sorted(REJECTIONS))
def test_each_rejection_of_check_proof_names_its_line_and_reason(name):
    proof, line, reason, template = REJECTIONS[name]
    v = check_proof(proof)
    assert (v.ok, v.line, v.reason) == (False, line, reason)
    if template is not None:
        tv = v.template_verdicts["t"]
        assert (tv.ok, tv.line, tv.reason) == (False, *template)


def test_a_template_line_outside_the_signature_is_rejected_at_that_line():
    # a template line stands for every premise of R3, so its atoms are checked
    # against the signature as a proof line's are; instance 0 agrees
    q9c = PredApp("Q9", (Const("c0"),))
    pb = ProofBuilder(SIG, family=WEAK)
    tb = pb.template_builder()
    tb.schema("P1", q9c, ForallSO(X0, PHI))
    tb.a6_meta(X0, PHI)
    template = tb.build("t")
    assert template.lines[0].formula == normalize(
        parse("Q9(c0) -> (forall X0 X0(c0) -> Q9(c0))",
              Signature(predicates={"Q9": 1}, constants=["c0"])))
    pb.r3(template)
    proof = pb.build()
    v = check_proof(proof)
    assert (v.ok, v.line, v.reason) == (
        False, 0, "cited template rejected: unknown predicate 'Q9'")
    tv = v.template_verdicts["t"]
    assert (tv.ok, tv.line, tv.reason) == (False, 0, "unknown predicate 'Q9'")
    assert check_template(template, proof) == tv
    spot = spot_check_template(template, proof, 0)
    assert (spot.ok, spot.line, spot.reason) == (
        False, 0, "instance n=0 rejected: unknown predicate 'Q9'")


def test_instances_are_normal_copies_of_the_parent_without_templates():
    # instantiate_template does not normalize its lines: they are normal by
    # construction, and the verdict is that of a Proof built from them
    for item in proof_corpus():
        proof = item.proof
        for template in proof.templates.values():
            for n in range(41):
                inst = instantiate_template(template, proof, n)
                assert all(normalize(l.formula) is l.formula for l in inst.lines)
                assert inst is not proof and inst.templates == {} and proof.templates
                assert len(inst.premises) == len(proof.premises)
                assert all(map(operator.is_, inst.premises, proof.premises))
                v = check_proof(inst)
                w = check_proof(Proof(inst.sig, inst.family, inst.premises, inst.lines))
                assert (v.ok, v.line, v.reason) == (w.ok, w.line, w.reason), (item.name, n)


def test_check_proof_independent_of_template_table_order():
    phi = SOApp(X0, (Const("c0"),))
    psi = SOApp(X0, (Const("c1"),))
    pb = ProofBuilder(SIG, family=WEAK)
    ta = pb.template_builder()
    ta.a6_meta(X0, phi)
    tb = pb.template_builder()
    tb.a6_meta(X0, psi)
    t1, t2 = ta.build("t1"), tb.build("t2")
    first = pb.r3(t1)
    second = pb.r3(t2)
    base = pb.build()
    shuffled = Proof(SIG, WEAK, [], base.lines,
                     {"t2": base.templates["t2"], "t1": base.templates["t1"]})
    va, vb = check_proof(base), check_proof(shuffled)
    assert va.ok and vb.ok
    assert [va.template_verdicts[k].ok for k in sorted(va.template_verdicts)] == \
        [vb.template_verdicts[k].ok for k in sorted(vb.template_verdicts)]
    del first, second


@pytest.mark.parametrize("name, n", [
    ("omega-self-weak", 3000), ("omega-with-premise", 3000),
    ("omega-under-conjunction", 3000),
])
def test_deep_template_instances_check_within_the_recursion_limit(name, n, shallow_stack):
    # instances of the weak-so templates deepen with n, about 4n levels, so
    # with 100 frames to spare a walker that takes a frame per level fails
    proof = {item.name: item.proof for item in proof_corpus()}[name]
    (template,) = proof.templates.values()
    with shallow_stack(100):
        accepted(instantiate_template(template, proof, n))


def test_an_instance_and_its_deep_copy_get_the_same_verdict(monkeypatch):
    # the instance is checked right after instantiate_template built its A6
    # consequent, so the kernel's rebuild meets that object; the deep copy's
    # lines share no object with it, so its check builds the consequent again.
    # The family stays shared: copying its member cache would take cubic time
    templates = [(item.name, t, item.proof) for item in proof_corpus()
                 for t in item.proof.templates.values()]
    assert len(templates) == 5
    built = []
    monkeypatch.setattr(calculus, "a6_instantiate",
                        lambda *args: built.append(args) or a6_instantiate(*args))
    for name, template, proof in templates:
        for n in range(41):
            inst = instantiate_template(template, proof, n)
            del built[:]
            v = check_proof(inst)
            hits = not built
            w = check_proof(copy.deepcopy(inst, {id(inst.family): inst.family}))
            assert hits and len(built) == 1, (name, n)
            assert v.ok and (v.ok, v.line, v.reason) == (w.ok, w.line, w.reason), (name, n)


@pytest.mark.parametrize("n", [0, 1, 7, 40])
def test_a6_lines_that_misuse_the_instance_just_built_are_refused(n):
    # each line is checked right after instantiate_template built the
    # consequent of X0(c0) for member n; it cites member n + 1, or it puts
    # that consequent under a different quantified formula
    proof = {item.name: item.proof for item in proof_corpus()}["omega-self-weak"]
    (template,) = proof.templates.values()
    other = ForallSO(X0, SOApp(X0, (Const("c1"),)))
    for j, forall in ((Axiom("A6", n + 1), None), (Axiom("A6", n), other)):
        inst = instantiate_template(template, proof, n)
        forall_phi, consequent = as_implies(inst.lines[0].formula)
        assert calculus._LAST_A6[0][3] is consequent
        f = implies(forall or forall_phi, consequent)
        v = check_proof(Proof(inst.sig, inst.family, inst.premises, [ProofLine(f, j)]))
        assert not v.ok
        assert v.reason == f"not the instantiation axiom for member {j.index}"
        assert not calculus._LAST_A6[0]   # dropped when the check returns
    accepted(inst)


def test_the_a6_consequent_is_the_instance_a6_instantiate_built(monkeypatch):
    # a6_instantiate returns the normal form, so its prefix is built once:
    # _a6_consequent hands on that very object, with or without a spot
    # check's memo, and so does instantiate_template in the instance's A6 line
    built = []
    monkeypatch.setattr(calculus, "a6_instantiate",
                        lambda *args: built.append(a6_instantiate(*args)) or built[-1])
    monkeypatch.setattr(calculus, "_LAST_A6", [()])
    phi = SOApp(X0, (Var(x1),))
    for memo in (None, SimpleNamespace(tables={}, normal={}, seen={})):
        for n in range(8):
            assert calculus._a6_consequent(phi, X0, WEAK.arity_member(1, n), memo) is built[-1]
    proof = load_proof_text(SHIFTED, SIG, WEAK)
    (template,) = proof.templates.values()
    memo = SimpleNamespace(tables={}, normal={}, seen={})
    for n in range(8):
        inst = instantiate_template(template, proof, n, memo)
        assert as_implies(inst.lines[0].formula)[1] is built[-1]


@pytest.mark.parametrize("bound", [0, 6])
def test_a_spot_check_builds_each_instance_once(monkeypatch, bound):
    calls = []

    def counted(*args):
        calls.append(args[2].index)
        return a6_instantiate(*args)

    proof = {item.name: item.proof for item in proof_corpus()}["omega-self-weak"]
    (template,) = proof.templates.values()
    monkeypatch.setattr(calculus, "a6_instantiate", counted)
    assert spot_check_template(template, proof, bound).ok
    assert calls == list(range(bound + 1))
    # a second spot check builds every instance again: nothing carries over
    assert spot_check_template(template, proof, bound).ok
    assert calls == 2 * list(range(bound + 1))


class _OneWrongMember:
    """A view of a family whose member k is `wrong` (the rest its own)."""

    def __init__(self, family, k, wrong):
        self.family, self.k, self.wrong = family, k, wrong

    def arity_member(self, arity, n):
        return self.wrong if n == self.k else self.family.arity_member(arity, n)


def _instantiate_wrong_at(monkeypatch, k, seen_consequents):
    """Make spot checks build instance k from a member k of weak-so:1 whose
    block k names x(k + 2) in place of x(k + 1), on the member k - 1 of the
    family, with the same memo as the other instances; the instance keeps the
    proof's intact family.  Each consequent built goes to seen_consequents."""
    real = calculus.instantiate_template

    def instantiate(t, proof, n, memo=None):
        fam = proof.family
        if n == k:
            right = fam.member_at(k)
            block = TermEq(Var(x0), Var(FOVar(k + 2)))
            wrong = copy.copy(right)
            object.__setattr__(wrong, "formula", Or(fam.member_at(k - 1).formula, block)
                               if k else block)
            proof = copy.copy(proof)
            proof.family = _OneWrongMember(fam, k, wrong)
        inst = real(t, proof, n, memo)
        inst.family = fam
        seen_consequents.extend(as_implies(line.formula)[1] for line in inst.lines
                                if line.justification == Axiom("A6", n))
        return inst

    monkeypatch.setattr(calculus, "instantiate_template", instantiate)


@pytest.mark.parametrize("k", [0, 1, 37])
@pytest.mark.parametrize("name", ["omega-self-weak", "omega-under-conjunction",
                                  "omega-with-premise"])
def test_a_spot_check_refuses_one_wrong_instance_after_the_right_ones(monkeypatch, k, name):
    # instances 0..k-1 fill the memo, and instance k shares member k - 1's
    # nodes with them: it must still be refused at its A6 line, as a check
    # without a memo refuses it
    proof = {item.name: item.proof for item in proof_corpus()}[name]
    (template,) = proof.templates.values()
    consequents: list = []
    _instantiate_wrong_at(monkeypatch, k, consequents)
    alone = check_proof(calculus.instantiate_template(template, proof, k))
    assert not alone.ok and alone.reason == f"not the instantiation axiom for member {k}"
    assert template.lines[alone.line].justification == Axiom("A6")
    v = spot_check_template(template, proof, k + 3)
    assert (v.ok, v.line, v.reason) == (False, alone.line, f"instance n={k} rejected: "
                                                           f"{alone.reason}")
    assert len(consequents) == k + 2      # instance k alone, then instances 0..k
    assert calculus._LAST_A6[0] == ()


# the README's proof
SELF_PRF = ("template t1 over n {\n"
            "1. forall X0 X0(c0) -> inst(X0, X0(c0)) ; A6 n\n}\n"
            "1. forall X0 X0(c0) -> forall X0 X0(c0) ; R3 t1\n")

# its quantified formula reaches x1, so a6_instantiate renames weak-so's parameters
SHIFTED = ("template t1 over n {\n"
           "1. forall X0 forall x1 X0(x1) -> inst(X0, forall x1 X0(x1)) ; A6 n\n}\n"
           "1. forall X0 forall x1 X0(x1) -> forall X0 forall x1 X0(x1) ; R3 t1\n")


@pytest.mark.parametrize("bound", [100, 200])
@pytest.mark.parametrize("name, per_instance", [("omega-self-weak", 8), ("shifted", 9)])
def test_spot_check_instances_share_all_but_a_constant_number_of_nodes(bound, name,
                                                                       per_instance):
    # instance n's lines, past its A6 forall-prefix of n + 1 quantifiers, add
    # a constant number of node objects to those of instances 0..n-1 (25,656
    # and 101,306 distinct nodes for omega-self-weak at bounds 100 and 200,
    # 25,758 and 101,508 for the shifted template, when each instance was
    # built afresh)
    proof = (load_proof_text(SHIFTED, SIG, WEAK) if name == "shifted" else
             {item.name: item.proof for item in proof_corpus()}[name])
    (template,) = proof.templates.values()
    memo, seen, prefix = SimpleNamespace(tables={}, normal={}, seen={}), {}, set()
    for n in range(bound + 1):
        inst = instantiate_template(template, proof, n, memo)
        for line in inst.lines:
            nodes(line.formula, seen)
        g = as_implies(inst.lines[0].formula)[1]
        for _ in range(n + 1):
            assert type(g) is ForallFO
            prefix.add(id(g))
            g = g.body
    assert len(seen.keys() - prefix) <= per_instance * (bound + 1)



@pytest.mark.parametrize("phi", ["forall x0 forall x2 X0(x2)", "forall x2 X0(x2)",
                                 "forall x0 forall x2 X0(x0)", "X0(c0)"])
def test_spot_check_instances_under_all_fo_are_those_built_without_a_memo(phi):
    # all-fo's members share nodes, and a variable free in one member (a
    # parameter, renamed when phi reaches past it) is bound in another: member
    # 33, forall x0 P1(x0, x1), shares P1(x0, x1) with member 3, whose
    # parameter is x0.  Each instance is the one built without a memo
    fam = all_fo(SIG)
    proof = load_proof_text(f"template t1 over n {{\n"
                            f"1. forall X0 {phi} -> inst(X0, {phi}) ; A6 n\n}}\n"
                            f"1. forall X0 {phi} -> forall X0 {phi} ; R3 t1\n", SIG, fam)
    (template,) = proof.templates.values()
    memo = SimpleNamespace(tables={}, normal={}, seen={})
    for n in range(200):
        inst = instantiate_template(template, proof, n, memo)
        alone = normalize(a6_instantiate(parse(phi, SIG), X0, fam.arity_member(1, n)))
        assert as_implies(inst.lines[0].formula)[1] == alone, n
    assert spot_check_template(template, proof, 199).ok


@pytest.mark.parametrize("k", [2, 37])
def test_a_spot_check_of_a_proof_file_refuses_a_corrupt_memo_entry(monkeypatch, k):
    # instance k takes member k - 1's substituted nodes from the memo, where
    # they are replaced by member k - 2's: a proof file's A6 line has its own
    # copy of phi, so the kernel builds that instance again without the memo
    proof = load_proof_text(SELF_PRF, SIG, WEAK)
    (template,) = proof.templates.values()
    real = calculus.instantiate_template

    def instantiate(t, proof, n, memo=None):
        if n == k:
            (table,) = memo.tables.values()
            formulas = [WEAK.member_at(j).formula for j in (k - 1, k - 2)]
            table[id(formulas[0])] = (formulas[0], table[id(formulas[1])][1])
        return real(t, proof, n, memo)

    monkeypatch.setattr(calculus, "instantiate_template", instantiate)
    v = spot_check_template(template, proof, k + 3)
    assert (v.ok, v.line) == (False, 0)
    assert v.reason == f"instance n={k} rejected: not the instantiation axiom for member {k}"

@pytest.mark.parametrize("k", [None, 5])
def test_a_spot_check_keeps_no_instance(monkeypatch, k):
    # on success and on the refused instance k, nothing of the instances
    # outlives the spot check: its memo goes when it returns
    proof = {item.name: item.proof for item in proof_corpus()}["omega-self-weak"]
    (template,) = proof.templates.values()
    consequents: list = []
    _instantiate_wrong_at(monkeypatch, -1 if k is None else k, consequents)
    assert spot_check_template(template, proof, 8).ok is (k is None)
    assert calculus._LAST_A6[0] == ()
    refs = [weakref.ref(c) for c in consequents]
    del consequents[:]
    gc.collect()
    assert refs and all(r() is None for r in refs)


def _one_line(f, justification):
    return check_proof(Proof(SIG, None, [], [ProofLine(f, justification)]))


def _fill(pattern, parts, skew=None):
    """pattern with each placeholder ?p replaced by parts[p], except that
    occurrence number skew = (p, k) of ?p gets a different formula."""
    seen: dict = {}

    def walk(f):
        if isinstance(f, PredApp):
            p = f.name[1:]
            seen[p] = seen.get(p, 0) + 1
            return Not(parts[p]) if skew == (p, seen[p]) else parts[p]
        return rebuild(f, [walk(g) for g in children(f)])

    return walk(pattern), seen


@pytest.mark.parametrize("name", sorted(SCHEMATA))
def test_schema_round_trip(name):
    params = tuple(inspect.signature(SCHEMATA[name]).parameters)
    pattern = SCHEMATA[name](*(PredApp("?" + p, ()) for p in params))
    rng = random.Random(f"schema/{name}")
    for _ in range(20):
        parts = {p: normalize(random_formula(rng, SIG, rng.randrange(1, 4)))
                 for p in params}
        f = build_schema(name, *parts.values())
        assert _match_schema(name, f) == tuple(parts.values())
        assert _one_line(f, Axiom(name)).ok
        filled, occurrences = _fill(pattern, parts)
        assert filled == f
        repeated = [(p, k) for p, count in occurrences.items() if count > 1
                    for k in range(1, count + 1)]
        assert repeated
        for skew in repeated:
            skewed, _ = _fill(pattern, parts, skew)
            assert _match_schema(name, skewed) is None
            assert _one_line(skewed, Axiom(name)).reason == f"not an instance of {name}"


@pytest.mark.parametrize("v", [x0, X0], ids=["Q2", "A5"])
def test_distribution_round_trip(v):
    forall, other = (ForallFO, SOVar) if isinstance(v, FOVar) else (ForallSO, FOVar)
    name, justification, witness = (("Q2", Axiom("Q2"), {"x": v}) if forall is ForallFO
                                    else ("A5", Axiom("A5"), {"vm": v}))
    v_atom = PredApp("P0", (Var(v),)) if forall is ForallFO else SOApp(v, (Const("c0"),))
    rng = random.Random(f"distribution/{name}")
    for _ in range(20):
        # a is drawn without v; b may contain it
        a = normalize(random_formula(rng, SIG, rng.randrange(1, 4),
                                     fo_pool=[x1, FOVar(2)], so_pool=[X1]))
        b = normalize(random_formula(rng, SIG, rng.randrange(1, 4)))
        f = build_distribution(v, a, b)
        assert _match_distribution(f, type(v)) == (v, a, b)
        assert _match_distribution(f, other) is None
        assert recognize_axiom(f) == (name, witness)
        assert _one_line(f, justification).ok
        c = Not(a)
        for skewed in (implies(forall(v, implies(a, b)), implies(c, forall(v, b))),
                       implies(forall(v, implies(a, b)), implies(a, forall(v, c)))):
            assert _match_distribution(skewed, type(v)) is None
            assert not _one_line(skewed, justification).ok
        free = And(a, v_atom)
        with pytest.raises(FormulaError, match="must not be free"):
            build_distribution(v, free, b)
        bad = implies(forall(v, implies(free, b)), implies(free, forall(v, b)))
        assert _match_distribution(bad, type(v)) is None
        assert recognize_axiom(bad) is None
        assert not _one_line(bad, justification).ok


def _rebind(f):
    """f with its first binder, in preorder, binding a fresh variable."""
    if isinstance(f, (ForallFO, ForallSO)):
        fresh = FOVar(9) if isinstance(f.var, FOVar) else SOVar(9, f.var.arity)
        return type(f)(fresh, f.body)
    kids = list(children(f))
    for i, g in enumerate(kids):
        kids[i] = _rebind(g)
        if kids[i] is not g:
            return rebuild(f, kids)
    return f


@pytest.mark.parametrize("v", [x0, X0], ids=["Q1", "A4"])
def test_instance_round_trip(v):
    fo = isinstance(v, FOVar)
    forall, sort = (ForallFO, FOVar) if fo else (ForallSO, SOVar)
    name, justification, keys, reason = (
        ("Q1", Axiom("Q1"), ("x", "t"), "not an instance of Q1") if fo
        else ("A4", Axiom("A4"), ("vm", "vn"), "not a universal-instance axiom"))
    at = (lambda w: PredApp("P0", (Var(w),))) if fo else (lambda w: SOApp(w, (Const("c0"),)))
    rng = random.Random(f"instance/{name}")
    for _ in range(20):
        # phi has v free at two places and binds only x0, x1 (X0, X1); t is
        # drawn from outside those, so it is free for v
        inner = (random_formula(rng, SIG, rng.randrange(1, 4), fo_pool=[x0, x1])
                 if fo else random_formula(rng, SIG, rng.randrange(1, 4), so_pool=[X0, X1]))
        phi = normalize(And(at(v), And(at(v), forall(x1 if fo else X1, inner))))
        t = rng.choice([Var(FOVar(2)), Const("c0"), Const("c1")]) if fo else SOVar(2, 1)
        f = build_instance(v, phi, t)
        assert _match_instance(f, sort) == (v, t)
        assert _match_instance(f, SOVar if fo else FOVar) is None
        assert recognize_axiom(f) == (name, dict(zip(keys, (v, t))))
        assert _one_line(f, justification).ok
        psi = as_implies(f)[1]
        other = at(FOVar(5)) if fo else at(SOVar(5, 1))
        for bad in (implies(forall(v, phi), _rebind(psi)),   # binders differ
                    # the second place of v gets something other than t
                    implies(forall(v, phi), And(psi.left, And(other, psi.right.right)))):
            assert _match_instance(bad, sort) is None
            assert _one_line(bad, justification).reason == reason
    # a captured term, a relation variable that is not free for v
    w = x1 if fo else X1
    phi = normalize(forall(w, And(at(v), at(w))))
    with pytest.raises(FormulaError):
        build_instance(v, phi, Var(w) if fo else w)
    captured = implies(forall(v, phi), forall(w, And(at(w), at(w))))
    assert _match_instance(captured, sort) is None
    assert recognize_axiom(captured) is None
    assert _one_line(captured, justification).reason == reason


@pytest.mark.parametrize("sort", [FOVar, SOVar], ids=["eq-subst", "A3"])
def test_replacement_round_trip(sort):
    fo = sort is FOVar
    name, justification, keys, reason = (
        ("eq-subst", Axiom("eq-subst"), ("t1", "t2"), "not an instance of identity subst")
        if fo else ("A3", Axiom("A3"), ("vm", "vn"), "not a replacement instance"))
    if fo:
        places = (lambda u: PredApp("P0", (u,)), lambda u: PredApp("P1", (u, Const("c0"))),
                  lambda u: TermEq(Const("c1"), u))
        build, forall, eq = build_eq_subst, ForallFO, TermEq
        olds, new, stray = [Const("c0"), Var(x0)], Var(FOVar(3)), Var(FOVar(8))
    else:
        places = (lambda u: SOApp(u, (Const("c0"),)), lambda u: SOApp(u, (Var(x0),)),
                  lambda u: SOEq(SOVar(2, 1), u))
        build, forall, eq = build_a3, ForallSO, SOEq
        olds, new, stray = [X0], X1, SOVar(8, 1)
    blocker = new.var if fo else new
    rng = random.Random(f"replacement/{name}")
    for _ in range(20):
        old = rng.choice(olds)
        # the random part binds neither old's nor new's variables
        rest = normalize(random_formula(rng, SIG, rng.randrange(1, 4), fo_pool=[x1, FOVar(2)],
                                        so_pool=[SOVar(2, 1)]))
        picks = [rng.random() < 0.5 for _ in places]
        picks[rng.randrange(len(picks))] = True

        def side(chosen):
            out = rest
            for place, u in zip(places, chosen):
                out = And(place(u), out)
            return out

        phi = side([old] * len(places))
        phi_prime = side([new if p else old for p in picks])
        f = build(old, new, phi, phi_prime)
        assert _match_replacement(f, eq) == (old, new)
        assert _match_replacement(f, SOEq if fo else TermEq) is None
        assert recognize_axiom(f) == (name, dict(zip(keys, (old, new))))
        assert _one_line(f, justification).ok
        # a place rewritten to something other than new; binders of
        # different variables; replacements under a binder of a variable of
        # old or new
        bads = [(phi, side([stray if p else old for p in picks])),
                (And(forall(blocker, rest), phi), And(_rebind(forall(blocker, rest)), phi_prime))]
        bads += [(forall(w, phi), forall(w, phi_prime))
                 for w in ([blocker, *term_fo_vars(old)] if fo else [new, old])]
        for a, b in bads:
            with pytest.raises(FormulaError):
                build(old, new, a, b)
            line = implies(eq(old, new), implies(a, b))
            line = normalize(line if fo else ForallSO(old, ForallSO(new, line)))
            assert _match_replacement(line, eq) is None
            assert _one_line(line, justification).reason == reason
