import itertools
import json

import pytest

from rsol.formulas import (
    And, Const, ExistsFO, ExistsSO, ForallFO, ForallSO, FOVar, Iff, Implies,
    Not, PredApp, Signature, SOApp, SOEq, SOVar, TermEq, Var, parse,
)
from rsol.structures import (
    AllRelationsK, Assignment, DefinableFamily, EvalError, FeasibilityError,
    FiniteStructure, MaterializedK, OrbitK, RankBoundedDslK, StandardModel,
    WeakSOExactK, automorphisms, eval_fo, eval_full_so, eval_so,
    eval_so_closure, exact_provider_for, k_exact_orbits, leibniz_reduce,
    lemma_reg_check, load_structure, materialize_k, materialize_k_arity,
    rank_bounded_unary_family, structure_from_json, truth_algebra,
    truth_class_entries, tuple_orbits, verify_provenance,
)
from rsol.theta import all_fo, dsl, weak_so

EMPTY_SIG = Signature()
P_SIG = Signature(predicates={"P0": 1})
x0, x1 = FOVar(0), FOVar(1)
X0 = SOVar(0, 1)


def two_element(sig=EMPTY_SIG, **kw):
    return FiniteStructure(sig, 2, **kw)


def pred_structure():
    return FiniteStructure(P_SIG, 2, predicates={"P0": [(0,)]})


SENTENCE = "forall x exists X forall y (X(y) <-> x = y)"


def test_eval_fo_basics():
    s = pred_structure()
    assert eval_fo(s, parse("P0(x0)", P_SIG), {x0: 0})
    assert not eval_fo(s, parse("forall x0 P0(x0)", P_SIG))
    one = FiniteStructure(EMPTY_SIG, 1)
    assert eval_fo(one, parse("exists x0 forall x1 (x0 = x1)", EMPTY_SIG))
    assert not eval_fo(two_element(), parse("exists x0 forall x1 (x0 = x1)", EMPTY_SIG))


def test_eval_fo_unassigned_variable():
    with pytest.raises(EvalError):
        eval_fo(pred_structure(), parse("P0(x0)", P_SIG))


def test_structure_validation():
    with pytest.raises(EvalError):
        FiniteStructure(P_SIG, 2, predicates={"P0": [(2,)]})
    fsig = Signature(functions={"f0": 1})
    with pytest.raises(EvalError):
        FiniteStructure(fsig, 2, functions={"f0": {(0,): 0}})  # not total
    FiniteStructure(fsig, 2, functions={"f0": {(0,): 1, (1,): 0}})


def test_materialize_weak_so_three_elements():
    s = FiniteStructure(EMPTY_SIG, 3)
    fam = weak_so(EMPTY_SIG, 1)
    family = materialize_k(s, fam, 2)
    got = set(family.relations(1))
    # independent oracle: the powerset of a 3-set minus the empty set
    expected = set()
    for r in range(1, 4):
        for combo in itertools.combinations(range(3), r):
            expected.add(frozenset((e,) for e in combo))
    assert got == expected
    assert len(got) == 7


def test_materialize_monotone_in_bound():
    s = FiniteStructure(EMPTY_SIG, 3)
    fam = weak_so(EMPTY_SIG, 1)
    prev: set = set()
    for bound in range(3):
        cur = set(materialize_k(s, fam, bound).relations(1))
        assert prev <= cur
        prev = cur


def test_materialize_provenance_roundtrip():
    s = FiniteStructure(EMPTY_SIG, 3)
    fam = weak_so(EMPTY_SIG, 1)
    family = materialize_k(s, fam, 2)
    assert verify_provenance(s, fam, family)


def test_materialize_contains_every_defined_relation():
    """Independent membership echo: evaluate each member over each
    parameter tuple directly and check the result is in the family."""
    s = FiniteStructure(EMPTY_SIG, 3)
    fam = weak_so(EMPTY_SIG, 1)
    family = materialize_k(s, fam, 2)
    for n in range(3):
        m = fam.member_at(n)
        for params in itertools.product(range(3), repeat=len(m.params)):
            assignment = dict(zip(m.params, params))
            rel = frozenset(
                (d,) for d in range(3)
                if eval_fo(s, m.formula, {**assignment, m.slots[0]: d}))
            assert family.contains(1, rel)


def test_materialize_dsl_two_element_pure_identity():
    s = two_element()
    fam = dsl(EMPTY_SIG)
    family = materialize_k(s, fam, 40)
    oracle = k_exact_orbits(s, False, 1)
    # singletons are not invariant under the swap, so only two sets remain
    assert set(family.relations(1)) == set(oracle.relations(1)) == \
        {frozenset(), frozenset([(0,), (1,)])}


def test_automorphisms_examples():
    assert len(automorphisms(two_element())) == 2
    assert automorphisms(pred_structure()) == [(0, 1)]
    # directed 3-cycle: frozen expectation is the three rotations
    sig = Signature(predicates={"E": 2})
    cyc = FiniteStructure(sig, 3, predicates={"E": [(0, 1), (1, 2), (2, 0)]})
    assert sorted(automorphisms(cyc)) == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]


def test_k_exact_orbits_examples():
    s = two_element()
    assert set(k_exact_orbits(s, False, 1).relations(1)) == \
        {frozenset(), frozenset([(0,), (1,)])}
    assert len(k_exact_orbits(s, True, 1).relations(1)) == 4
    assert len(k_exact_orbits(pred_structure(), False, 1).relations(1)) == 4


def test_eval_so_paper_sentence():
    s = two_element()
    singleton_free = StandardModel(s, OrbitK(arities={1}))
    assert not eval_so(singleton_free, parse(SENTENCE, EMPTY_SIG))
    weak = StandardModel(s, MaterializedK(weak_so(EMPTY_SIG, 1), s.size - 1))
    assert eval_so(weak, parse(SENTENCE, EMPTY_SIG))


def test_eval_so_reflexive_identity():
    s = two_element()
    f = parse("forall X exists Y (X = Y)", EMPTY_SIG)
    for provider in (OrbitK(arities={1}), WeakSOExactK(1), AllRelationsK()):
        assert eval_so(StandardModel(s, provider), f)


def test_eval_so_rejects_out_of_family_assignment():
    s = two_element()
    m = StandardModel(s, OrbitK(arities={1}))
    f = SOApp(X0, (Var(x0),))
    with pytest.raises(EvalError):
        eval_so(m, f, Assignment.of(fo={x0: 0}, so={X0: {(0,)}}))
    assert eval_so(m, f, Assignment.of(fo={x0: 0}, so={X0: {(0,), (1,)}}))


def test_eval_full_so_basics():
    s = pred_structure()
    assert eval_full_so(s, parse("exists X forall y ~X(y)", P_SIG))
    assert eval_full_so(s, parse(SENTENCE, P_SIG))
    assert eval_full_so(two_element(), parse(SENTENCE, EMPTY_SIG))


def _full_so_past_guard():
    s = FiniteStructure(EMPTY_SIG, 3)
    f = ForallSO(SOVar(0, 20), SOApp(SOVar(0, 20), tuple(Var(FOVar(i)) for i in range(20))))
    eval_full_so(s, ExistsFO(x0, ForallFO(x1, f)))


RIGID_SIG = Signature(constants=["c0", "c1", "c2"])
RIGID = FiniteStructure(RIGID_SIG, 3, constants={"c0": 0, "c1": 1, "c2": 2})


@pytest.mark.parametrize("compute,message", [
    pytest.param(_full_so_past_guard, "full second-order range needs 2^",
                 id="eval_full_so"),
    pytest.param(lambda: k_exact_orbits(FiniteStructure(EMPTY_SIG, 3), True, 3),
                 "2^27 relations exceed the guard", id="orbits-with-parameters"),
    pytest.param(lambda: k_exact_orbits(RIGID, False, 3),
                 "2^27 orbit unions exceed the guard", id="orbits"),
    pytest.param(lambda: WeakSOExactK(3).relations(FiniteStructure(EMPTY_SIG, 3), 3),
                 "2^27 relations exceed the guard", id="weak-so-exact"),
    # 2^40 rows: the guard must refuse before any row is built
    pytest.param(lambda: k_exact_orbits(FiniteStructure(EMPTY_SIG, 2), True, 40),
                 "2^1099511627776 relations exceed the guard",
                 id="orbits-with-parameters-rows-infeasible"),
    pytest.param(lambda: WeakSOExactK(40).relations(FiniteStructure(EMPTY_SIG, 2), 40),
                 "2^1099511627776 relations exceed the guard",
                 id="weak-so-exact-rows-infeasible"),
])
def test_feasibility_guards(compute, message):
    # every range here has more than 2^20 relations
    with pytest.raises(FeasibilityError) as err:
        compute()
    assert str(err.value).startswith(message)


def test_guards_start_past_2_to_the_20():
    from rsol.structures import _all_relations, _unions
    singletons = [frozenset([(a,)]) for a in range(21)]
    assert next(_unions(singletons[:20])) == frozenset()
    with pytest.raises(FeasibilityError):
        next(_unions(singletons))
    assert next(_all_relations(FiniteStructure(EMPTY_SIG, 20), 1)) == frozenset()
    with pytest.raises(FeasibilityError):
        next(_all_relations(FiniteStructure(EMPTY_SIG, 21), 1))


def test_collapse_on_small_examples():
    s = pred_structure()
    model = StandardModel(s, AllRelationsK())
    for text in [SENTENCE,
                 "forall X (X(c?) | ~X(c?))".replace("c?", "x0"),
                 "exists X forall y (X(y) <-> P0(y))",
                 "forall X^2 exists x exists y (X^2(x, y) -> X^2(y, x))"]:
        f = parse(text, P_SIG)
        assert eval_so_closure(model, f) == eval_full_so(
            s, _closure_for_full(f))


def _closure_for_full(f):
    from rsol.formulas import free_variables, normalize
    nf = normalize(f)
    fo, so = free_variables(nf)
    for v in sorted(so):
        nf = ForallSO(v, nf)
    for v in sorted(fo):
        nf = ForallFO(v, nf)
    return nf


def test_a1_shape_true_under_full_semantics():
    # comprehension is valid with the full range: the defined set exists
    s = pred_structure()
    fam = weak_so(P_SIG, 1)
    for n in range(3):
        m = fam.member_at(n)
        inner = ForallFO(m.slots[0], Iff(SOApp(X0, (Var(m.slots[0]),)), m.formula))
        f = ExistsSO(X0, inner)
        for p in m.params:
            f = ForallFO(p, f)
        assert eval_full_so(s, f)


def test_truth_algebra_is_powerset_and_homomorphism():
    s = two_element()
    ta = truth_algebra(s, 1)
    assert len(ta.algebra.elements()) == 4
    f = parse("x0 = x0", EMPTY_SIG)
    g = parse("exists x1 ~(x0 = x1)", EMPTY_SIG)
    assert ta.class_of(And(f, g)) == ta.algebra.meet(ta.class_of(f), ta.class_of(g))
    assert ta.class_of(Not(f)) == ta.algebra.complement(ta.class_of(f))


def test_truth_algebra_order_matches_validity():
    s = pred_structure()
    ta = truth_algebra(s, 1)
    phi = parse("P0(x0)", P_SIG)
    psi = parse("P0(x0) | x0 = x0", P_SIG)
    assert ta.algebra.le(ta.class_of(phi), ta.class_of(psi))
    assert eval_fo(s, ForallFO(x0, Implies(phi, psi)))


def test_truth_algebra_budget_error():
    ta = truth_algebra(two_element(), 1)
    with pytest.raises(EvalError):
        ta.class_of(parse("x0 = x5", EMPTY_SIG))


def test_lemma_check_i_simple():
    s = pred_structure()
    assert lemma_reg_check(s, 1, parse("P0(x0)", P_SIG), "i", x0)
    assert lemma_reg_check(s, 1, parse("P0(x0)", P_SIG), "ii", x0)


def test_lemma_check_iii_through_vi():
    s = two_element()
    fam = weak_so(EMPTY_SIG, 1)
    body = SOApp(X0, (Var(x0),))
    for which in ("iii", "iv", "v", "vi"):
        assert lemma_reg_check(s, 1, body, which, X0, fam, s.size - 1), which


def test_lemma_check_with_dsl_and_all_fo():
    s = pred_structure()
    body = Implies(SOApp(X0, (Var(x0),)), SOApp(X0, (Var(x1),)))
    for fam in (dsl(P_SIG), all_fo(P_SIG)):
        for which in ("iii", "iv", "v", "vi"):
            assert lemma_reg_check(s, 2, body, which, X0, fam, 6), (fam.name, which)


def test_rank_bounded_family_matches_orbits():
    sig = Signature(predicates={"E": 2})
    structures = [
        two_element(),
        FiniteStructure(EMPTY_SIG, 3),
        pred_structure(),
        FiniteStructure(sig, 3, predicates={"E": [(0, 1), (1, 2), (2, 0)]}),
        FiniteStructure(sig, 3, predicates={"E": [(0, 1)]}),
        FiniteStructure(sig, 4, predicates={"E": [(0, 1), (1, 0), (2, 3), (3, 2)]}),
    ]
    for s in structures:
        fam = rank_bounded_unary_family(s, s.size + 1)
        oracle = k_exact_orbits(s, False, 1)
        assert set(fam.relations(1)) == set(oracle.relations(1))


def test_rank_bounded_family_rejects_functions():
    fsig = Signature(functions={"f0": 1})
    s = FiniteStructure(fsig, 2, functions={"f0": {(0,): 1, (1,): 0}})
    with pytest.raises(FeasibilityError):
        rank_bounded_unary_family(s, 3)


def test_rank_bounded_provider():
    s = two_element()
    model = StandardModel(s, RankBoundedDslK())
    assert not eval_so(model, parse(SENTENCE, EMPTY_SIG))


def test_leibniz_reduce_two_element_empty():
    s = two_element()
    for depth in (0, 1, 3, None):
        quotient, partition = leibniz_reduce(s, depth)
        assert partition == [[0, 1]]
        assert quotient.size == 1


def test_leibniz_reduce_separated_atoms():
    s = pred_structure()
    quotient, partition = leibniz_reduce(s)
    assert partition == [[0], [1]]
    assert quotient.size == 2


def test_leibniz_reduce_idempotent():
    sig = Signature(predicates={"P0": 1})
    s = FiniteStructure(sig, 4, predicates={"P0": [(0,), (1,)]})
    q1, p1 = leibniz_reduce(s)
    q2, p2 = leibniz_reduce(q1)
    assert q1.size == q2.size == 2
    assert all(len(b) == 1 for b in p2)
    assert q2.predicates == q1.predicates


def test_leibniz_reduce_with_functions():
    fsig = Signature(predicates={"P0": 1}, functions={"f0": 1})
    s = FiniteStructure(
        fsig, 3, predicates={"P0": [(0,)]},
        functions={"f0": {(0,): 0, (1,): 0, (2,): 1}})
    quotient, partition = leibniz_reduce(s)
    # 1 and 2 differ: f0 sends 1 into the P0 block but 2 outside it
    assert partition == [[0], [1], [2]]
    assert quotient.size == 3


def test_structure_json_roundtrip(tmp_path):
    data = {
        "domain_size": 3,
        "predicates": {"E": [[0, 1], [1, 2]]},
        "functions": {"s": [1, 2, 0]},
        "constants": {"zero": 0},
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    sig, s = load_structure(str(path))
    assert sig.predicates == {"E": 2}
    assert sig.functions == {"s": 1}
    assert s.functions["s"][(2,)] == 0
    assert s.constants["zero"] == 0


def test_exact_provider_selection():
    assert isinstance(exact_provider_for(weak_so(EMPTY_SIG, 1)), WeakSOExactK)
    assert isinstance(exact_provider_for(dsl(EMPTY_SIG)), OrbitK)
    assert isinstance(exact_provider_for(all_fo(EMPTY_SIG)), AllRelationsK)


def test_materialized_model_materializes_once(monkeypatch):
    import rsol.structures as st
    calls = []
    real = st.materialize_k

    def counting(s, fam, bound):
        calls.append(bound)
        return real(s, fam, bound)

    monkeypatch.setattr(st, "materialize_k", counting)
    model = StandardModel(pred_structure(), MaterializedK(all_fo(P_SIG), 20))
    model.relations(1)
    model.relations(2)
    assert calls == [20]


def test_idempotent_materialization():
    s = FiniteStructure(EMPTY_SIG, 3)
    fam = weak_so(EMPTY_SIG, 1)
    a = materialize_k(s, fam, 2)
    b = materialize_k(s, fam, 2)
    assert a == b


def test_substitution_lemma_semantically():
    """Independent oracle for capture avoidance: substituting a term and
    evaluating equals evaluating with the variable bound to the term's
    value, over random structures and formulas."""
    import random

    from rsol.formulas import FOVar, TermEq, substitute_fo
    from rsol.sampling import random_formula, random_structure, random_term

    rng = random.Random(9)
    sig = Signature(predicates={"P0": 1, "P1": 2}, functions={"f0": 1},
                    constants=["c0"])
    pool = [FOVar(0), FOVar(1), FOVar(2)]
    for _ in range(300):
        s = random_structure(rng, sig, max_size=3)
        f = random_formula(rng, sig, depth=2, fo_pool=pool, so_pool=[])
        t = random_term(rng, sig, pool, depth=1)
        var = rng.choice(pool)
        env = {v: rng.randrange(s.size) for v in pool}
        ext, consts = s.with_element_constants()
        tval = next(e for e in range(s.size)
                    if eval_fo(ext, TermEq(t, consts[e]), env))
        lhs = eval_fo(s, substitute_fo(f, var, t), env)
        rhs = eval_fo(s, f, {**env, var: tval})
        assert lhs == rhs


def test_truth_class_entries_are_exact():
    from rsol.boolean import verify_entry
    s = two_element()
    fam = weak_so(EMPTY_SIG, 1)
    body = SOApp(X0, (Var(x0),))
    fo_body = parse("x0 = x1", EMPTY_SIG)
    entries = truth_class_entries(s, 1, [(fo_body, x1), (body, X0)], fam, 1)
    ta = truth_algebra(s, 1)
    for e in entries:
        assert verify_entry(ta.algebra, e).status == "exact"
