import pytest

from rsol.calculus import (
    A1, A2, A3, A4, A5, A6, EqAxiom, FOAxiom, GenFO, GenSO, MP, OmegaTemplate,
    Premise, Proof, ProofBuilder, ProofLine, R3, TemplateBuilder,
    apply_deduction, build_a1, build_a2, build_a3, build_a4, build_a5,
    build_a6, build_eq_refl, build_eq_subst, build_p1, build_q1, build_q2,
    check_proof, check_template, instantiate_template, load_premises_text,
    load_proof_text, recognize_axiom, spot_check_template,
)
from rsol.formulas import (
    And, Const, ExistsFO, ForallFO, ForallSO, FormulaError, FOVar, Implies,
    InstAtom, Not, PredApp, Signature, SOApp, SOVar, TermEq, Var, alpha_eq,
    implies, normalize, parse,
)
from rsol.theta import dsl, weak_so

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
    assert recognize_axiom(build_p1(a, b))[0] == "P1"
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
        build_q1(x0, phi, Var(x1))


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
        ProofLine(implies(inst, inst), FOAxiom("P1")),
        ProofLine(implies(ForallSO(X0, normalize(phi)), inst), A6(None)),
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
        ProofLine(implies(ForallSO(X0, phi), InstAtom(X0, phi)), A6(2)),))
    proof = Proof(SIG, WEAK, [], [ProofLine(
        implies(ForallSO(X0, phi), ForallSO(X0, phi)), R3("b"))], {"b": bad})
    v = spot_check_template(bad, proof, 5)
    assert not v.ok and "n=0" in v.reason


def test_instantiate_template_gives_concrete_a6():
    phi = SOApp(X0, (Const("c0"),))
    proof = self_implication_proof(WEAK, phi)
    inst = instantiate_template(proof.templates["t1"], proof, 3)
    accepted(inst)
    assert inst.lines[0].justification == A6(3)


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
    lift = tb.p1(tb.formula_at(got), normalize(a))
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
    proof = Proof(SIG, WEAK, [], [ProofLine(f, A1(0))])
    accepted(proof)
    member = WEAK.arity_member(1, 0)
    g = build_a6(SOVar(4, 1), SOApp(SOVar(4, 1), (Var(x0),)), member)
    proof = Proof(SIG, WEAK, [], [ProofLine(g, A6(0))])
    accepted(proof)


def test_apply_deduction_requires_accepted_input():
    bad = Proof(SIG, None, [P0c], [ProofLine(normalize(P1c), Premise(0))])
    with pytest.raises(FormulaError):
        apply_deduction(bad)


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
    pb.q2(x0, P0c, PredApp("P0", (Var(x0),)))
    pb.eq_refl(Var(x0))
    pb.imp_identity(P0c)
    accepted(pb.build())
    del member


def test_a2_side_condition_arities():
    f = build_a2(2)
    assert recognize_axiom(f) == ("A2", {"arity": 2})


def test_check_proof_rejects_inst_in_main_lines():
    proof = Proof(SIG, WEAK, [], [
        ProofLine(InstAtom(X0, SOApp(X0, (Var(x0),))), A4())])
    v = check_proof(proof)
    assert not v.ok and "template" in v.reason


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
