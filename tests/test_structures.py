import itertools
import json
import random

import pytest

from rsol.corpus import collapse_catalog, collapse_sentences, orbit_catalog
from rsol.formulas import (
    And, Const, ExistsFO, ExistsSO, ForallFO, ForallSO, FOVar, Func, Iff,
    Implies, InstAtom, Not, Or, PredApp, Signature, SOApp, SOEq, SOVar, TermEq,
    Var, free_variables, normalize, parse,
)
from rsol.structures import (
    AllRelationsK, Assignment, DefinableFamily, EvalError, FeasibilityError,
    FiniteStructure, MaterializedK, OrbitK, RankBoundedDslK, StandardModel,
    WeakSOExactK, automorphisms, eval_fo, eval_full_so, eval_so,
    eval_so_closure, exact_provider_for, k_exact_orbits, leibniz_reduce,
    lemma_reg_check, load_structure, materialize_k,
    rank_bounded_unary_family, structure_from_json, truth_algebra,
    truth_class_entries, tuple_orbits,
)
from rsol.structures import (
    _FixedFamilyK, _all_relations, _compile, _definer, _masks,
)
from rsol.sampling import random_structure
from rsol.theta import (
    ThetaMember, _weak_member_parts, all_fo, dsl, prefix_family, weak_so,
)

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
    # each recorded witness, evaluated again, defines the stored relation
    for arity in family.arities():
        for rel in family.relations(arity):
            prov = family.provenance(arity, rel)
            assert prov.kind == "theta"
            assert _definer(s, fam.member_at(prov.theta_index))(prov.params) == rel


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
            assert rel in family.relations(1)


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


def brute_automorphisms(s):
    """Reference: every permutation that fixes the constants and maps each
    predicate row and function graph row to a row."""
    graphs = [{args + (value,) for args, value in table.items()}
              for table in s.functions.values()]
    rels = [set(rows) for rows in s.predicates.values()] + graphs
    return [perm for perm in itertools.permutations(range(s.size))
            if all(perm[v] == v for v in s.constants.values())
            and all(tuple(perm[v] for v in row) in rows for rows in rels for row in rows)]


def brute_orbits(s, arity, autos):
    """Reference: the images of each tuple not yet seen, in product order."""
    seen, orbits = set(), []
    for row in itertools.product(range(s.size), repeat=arity):
        if row not in seen:
            orbit = frozenset(tuple(perm[v] for v in row) for perm in autos)
            seen |= orbit
            orbits.append(orbit)
    return orbits


def random_mixed_structure(rng, size):
    """Predicates of arity 1-3, a unary and a binary function and two
    constants, which name one element in about half the draws.  Every
    relation is closed under a random permutation `sigma` that fixes the
    constants, so most draws keep some symmetry."""
    sig = Signature(predicates={"P0": 1, "E": 2, "T": 3},
                    functions={"f": 1, "g": 2}, constants=["c0", "c1"])
    c0 = rng.randrange(size)
    c1 = c0 if rng.random() < 0.5 else rng.randrange(size)
    free = [a for a in range(size) if a not in (c0, c1)]
    sigma = list(range(size))
    for a, b in zip(free, rng.sample(free, len(free))):
        sigma[a] = b

    def closed(rows):
        out = set()
        for row in rows:
            while row not in out:
                out.add(row)
                row = tuple(sigma[v] for v in row)
        return out

    preds = {name: closed(row for row in itertools.product(range(size), repeat=arity)
                          if rng.random() < density)
             for (name, arity), density in zip(sig.predicates.items(),
                                                (rng.random(), rng.random(), 0.1))}
    # the last choice, a random table, usually breaks the symmetry
    f = rng.choice([lambda a: sigma[a], lambda a: a, lambda a: c0,
                    lambda a: rng.randrange(size)])
    g = rng.choice([lambda a, b: a, lambda a, b: sigma[b], lambda a, b: c0,
                    lambda a, b: rng.randrange(size)])
    tables = {"f": {(a,): f(a) for a in range(size)},
              "g": {(a, b): g(a, b) for a in range(size) for b in range(size)}}
    return FiniteStructure(sig, size, preds, tables, {"c0": c0, "c1": c1})


def relabelled_cycle(rng, size, directed):
    labels = list(range(size))
    rng.shuffle(labels)
    rows = [(labels[i], labels[(i + 1) % size]) for i in range(size)]
    if not directed:
        rows += [(b, a) for a, b in rows]
    return FiniteStructure(Signature(predicates={"E": 2}), size, predicates={"E": rows})


def symmetry_cases():
    rng = random.Random(2024)
    cases = [(f"catalog{i}", s) for i, s in enumerate(orbit_catalog())]
    cases += [(f"mixed{i}", random_mixed_structure(rng, rng.randint(2, 6)))
              for i in range(60)]
    cases += [(f"{kind}-cycle{size}", relabelled_cycle(rng, size, kind == "directed"))
              for size in range(1, 8) for kind in ("directed", "undirected")]
    return cases


SYMMETRY_CASES = symmetry_cases()


@pytest.mark.parametrize("s", [s for _, s in SYMMETRY_CASES],
                         ids=[name for name, _ in SYMMETRY_CASES])
def test_automorphisms_and_orbits_match_brute_force(s):
    autos = brute_automorphisms(s)
    assert automorphisms(s) == autos
    for arity in (1, 2, 3):
        assert tuple_orbits(s, arity) == brute_orbits(s, arity, autos)


def test_two_directed_6_cycles_have_72_automorphisms():
    sig = Signature(predicates={"E": 2})
    s = FiniteStructure(sig, 12, predicates={"E": [(c + i, c + (i + 1) % 6)
                                                   for c in (0, 6) for i in range(6)]})
    # 12! permutations are too many to filter: rotate each cycle, then swap
    expected = []
    for r, t in itertools.product(range(6), repeat=2):
        rotate = [(i + r) % 6 for i in range(6)] + [6 + (i + t) % 6 for i in range(6)]
        expected.append(tuple(rotate))
        expected.append(tuple(rotate[6:] + rotate[:6]))
    expected.sort()
    assert len(expected) == 72
    assert automorphisms(s) == expected
    for arity in (1, 2, 3):
        assert tuple_orbits(s, arity) == brute_orbits(s, arity, expected)


def test_rigid_12_element_structure_has_only_the_identity():
    graph = Signature(predicates={"P0": 1, "E": 2})
    rng = random.Random(0)
    p0 = {(a,) for a in range(12) if rng.random() < 0.5}
    edges = {(a, b) for a in range(12) for b in range(12) if rng.random() < 0.5}
    s = FiniteStructure(graph, 12, predicates={"P0": p0, "E": edges})
    # rigid by an independent argument: these invariants differ on every element
    invariants = {((a,) in p0, (a, a) in edges, sum((a, b) in edges for b in range(12)),
                   sum((b, a) in edges for b in range(12))) for a in range(12)}
    assert len(invariants) == 12
    assert automorphisms(s) == [tuple(range(12))]
    assert tuple_orbits(s, 1) == [frozenset([(a,)]) for a in range(12)]


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
                 "2^(3^3) relations exceed the guard", id="orbits-with-parameters"),
    pytest.param(lambda: k_exact_orbits(RIGID, False, 3),
                 "2^27 orbit unions exceed the guard", id="orbits"),
    pytest.param(lambda: WeakSOExactK(3).relations(FiniteStructure(EMPTY_SIG, 3), 3),
                 "2^(3^3) relations exceed the guard", id="weak-so-exact"),
    pytest.param(lambda: AllRelationsK().masks(FiniteStructure(EMPTY_SIG, 3), 3),
                 "2^(3^3) relations exceed the guard", id="all-relations-masks"),
    pytest.param(lambda: OrbitK().masks(RIGID, 3),
                 "2^27 orbit unions exceed the guard", id="orbits-masks"),
    pytest.param(lambda: WeakSOExactK(3).masks(FiniteStructure(EMPTY_SIG, 3), 3),
                 "2^(3^3) relations exceed the guard", id="weak-so-exact-masks"),
    # 2^40 rows: the guard must refuse before any row is built
    pytest.param(lambda: k_exact_orbits(FiniteStructure(EMPTY_SIG, 2), True, 40),
                 "2^(2^40) relations exceed the guard",
                 id="orbits-with-parameters-rows-infeasible"),
    pytest.param(lambda: WeakSOExactK(40).relations(FiniteStructure(EMPTY_SIG, 2), 40),
                 "2^(2^40) relations exceed the guard",
                 id="weak-so-exact-rows-infeasible"),
    pytest.param(lambda: WeakSOExactK(40).masks(FiniteStructure(EMPTY_SIG, 2), 40),
                 "2^(2^40) relations exceed the guard",
                 id="weak-so-exact-masks-rows-infeasible"),
    # 3^10000 has more digits than an int may print: the message stays symbolic
    pytest.param(lambda: eval_full_so(FiniteStructure(EMPTY_SIG, 3), ForallSO(
                     SOVar(0, 10000), SOEq(SOVar(0, 10000), SOVar(0, 10000)))),
                 "full second-order range needs 2^(3^10000) relations",
                 id="eval_full_so-rows-infeasible"),
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


@pytest.mark.parametrize("k", [1, 2])
def test_every_relation_is_defined_by_a_weak_so_witness(k):
    # the claim AllRelationsK rests on: with parameters, every relation R is
    # defined by a weak-so:k-shaped disjunction whose parameters name R's
    # rows; the empty relation by ~(x0 = x0 & ... )
    slots = tuple(FOVar(j) for j in range(k))
    empty = TermEq(Var(x0), Var(x0))
    for v in slots[1:]:
        empty = And(empty, TermEq(Var(v), Var(v)))
    for size in (1, 2, 3):
        s = FiniteStructure(EMPTY_SIG, size)
        definers, defined = {}, []
        for rel in _all_relations(s, k):
            if len(rel) not in definers:
                formula, _, params = _weak_member_parts(k, len(rel) - 1) if rel \
                    else (Not(empty), slots, ())
                definers[len(rel)] = _definer(s, ThetaMember(0, formula, slots, params))
            defined.append(definers[len(rel)](sum(sorted(rel), ())))
            assert defined[-1] == rel
        assert _masks(s, k, defined) == list(AllRelationsK().masks(s, k))


class _Reversed:
    """A provider's range, listed backwards."""

    def __init__(self, provider):
        self.provider = provider

    def masks(self, s, arity):
        return list(self.provider.masks(s, arity))[::-1]


def test_every_provider_matches_an_independent_reference():
    # each provider writes one form of its range and derives the other, so
    # both forms are checked against a reference that is not the provider:
    # the orbit or rank family, every relation, or the materialized family
    sizes = set()
    for s in collapse_catalog() + orbit_catalog():
        fam = all_fo(s.sig)
        at_30, at_60 = materialize_k(s, fam, 30), materialize_k(s, fam, 60)
        rank = set(rank_bounded_unary_family(s, s.size + 1).relations(1))
        for k in (1, 2):
            orbits = set(k_exact_orbits(s, False, k).relations(k))
            cases = [
                (OrbitK(), orbits), (OrbitK({1}), orbits if k == 1 else set()),
                (RankBoundedDslK(), rank if k == 1 else set()),
                (MaterializedK(fam, 60), set(at_60.relations(k))),
                (_FixedFamilyK(at_30), set(at_30.relations(k)))]
            if (s.size, k) not in sizes:     # these ranges depend on |A| alone
                sizes.add((s.size, k))
                every = set(_all_relations(s, k))
                nonempty = every - {frozenset()}
                cases += [(AllRelationsK(), every),
                          (WeakSOExactK(1), nonempty if k == 1 else set()),
                          (WeakSOExactK(2), nonempty if k == 2 else set())]
            for provider, want in cases:
                relations = provider.relations(s, k)
                masks = list(provider.masks(s, k))
                assert len(set(relations)) == len(relations), (provider.name, k)
                assert len(set(masks)) == len(masks), (provider.name, k)
                assert set(relations) == want, (provider.name, k)
                assert set(masks) == set(_masks(s, k, want)), (provider.name, k)


def test_verdicts_do_not_depend_on_the_order_of_the_range():
    for s in collapse_catalog():
        forward = StandardModel(s, AllRelationsK())
        backward = StandardModel(s, _Reversed(AllRelationsK()))
        for f in collapse_sentences():
            assert eval_so_closure(forward, f) == eval_so_closure(backward, f), f


def test_collapse_suite_reports_a_range_that_misses_a_relation(monkeypatch):
    # a range without the full relation gives wrong verdicts, and the suite
    # must report them.  This shows only that the mismatch branch can run:
    # both sides still quantify over every relation on the unpatched code,
    # so ROADMAP item 2 (a real collapse check) stays open
    real = AllRelationsK.masks
    monkeypatch.setattr(AllRelationsK, "masks",
                        lambda self, s, arity: real(self, s, arity)[:-1])
    from rsol.suites import suite_collapse
    result = suite_collapse()
    assert not result.ok
    assert any(r["check"] == "collapse-mismatch" for r in result.records)


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


def directed_path(size):
    return FiniteStructure(Signature(predicates={"E": 2}), size,
                           predicates={"E": [(i, i + 1) for i in range(size - 1)]})


def test_rank_bounded_family_matches_orbits():
    sig = Signature(predicates={"E": 2})
    graph = Signature(predicates={"P0": 1, "E": 2})
    structures = [
        two_element(),
        FiniteStructure(EMPTY_SIG, 3),
        pred_structure(),
        FiniteStructure(sig, 3, predicates={"E": [(0, 1), (1, 2), (2, 0)]}),
        FiniteStructure(sig, 3, predicates={"E": [(0, 1)]}),
        FiniteStructure(sig, 4, predicates={"E": [(0, 1), (1, 0), (2, 3), (3, 2)]}),
    ]
    # without the early stop, the rank-(|A|+1) type tree alone takes 9 s at
    # |A| = 5 and 192 s at |A| = 6
    structures += [directed_path(size) for size in (5, 6, 7)]
    structures += [random_structure(random.Random(seed), graph, min_size=5, max_size=7)
                   for seed in range(12)]
    for s in structures:
        fam = rank_bounded_unary_family(s, s.size + 1)
        oracle = k_exact_orbits(s, False, 1)
        assert set(fam.relations(1)) == set(oracle.relations(1))


def test_rank_bounded_early_stop_returns_the_same_family(monkeypatch):
    # a random 9-element structure at rank 1: the stop test's orbits once
    # took a 9! permutation search there
    graph = Signature(predicates={"P0": 1, "E": 2})
    nine = random_structure(random.Random(0), graph, min_size=9, max_size=9)
    cases = [(s, rank) for s in orbit_catalog() for rank in range(s.size + 2)]
    cases.append((nine, 1))
    stopping = [rank_bounded_unary_family(s, rank) for s, rank in cases]
    # No partition of a nonempty domain equals an empty orbit list, so the
    # patched loop refines all the way to the requested rank.
    monkeypatch.setattr("rsol.structures.tuple_orbits", lambda s, arity: [])
    for (s, rank), stopped in zip(cases, stopping):
        full = rank_bounded_unary_family(s, rank)
        assert full == stopped, (s, rank)
        assert full.relations(1) == stopped.relations(1)


@pytest.mark.parametrize("size", [5, 6, 7])
def test_rank_bounded_directed_path_stops_at_rank_2(size):
    s = directed_path(size)
    orbits = set(k_exact_orbits(s, False, 1).relations(1))
    assert len(orbits) == 2 ** size          # rigid: every subset
    assert set(rank_bounded_unary_family(s, 1).relations(1)) != orbits
    assert set(rank_bounded_unary_family(s, 2).relations(1)) == orbits


def test_rank_bounded_family_rejects_functions():
    fsig = Signature(functions={"f0": 1})
    s = FiniteStructure(fsig, 2, functions={"f0": {(0,): 1, (1,): 0}})
    with pytest.raises(EvalError, match="relational signatures only"):
        rank_bounded_unary_family(s, 3)


def test_rank_bounded_provider():
    s = two_element()
    model = StandardModel(s, RankBoundedDslK())
    assert not eval_so(model, parse(SENTENCE, EMPTY_SIG))


def test_leibniz_reduce_two_element_empty():
    s = two_element()
    quotient, partition = leibniz_reduce(s)
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


def test_leibniz_reduce_runs_to_a_congruence():
    # the atomic facts alone leave 0 and 1 together although f0 sends
    # them to different blocks; the fixpoint separates them
    fsig = Signature(predicates={"P0": 1}, functions={"f0": 1})
    s = FiniteStructure(fsig, 3, predicates={"P0": [(0,), (1,)]},
                        functions={"f0": {(0,): 0, (1,): 2, (2,): 2}})
    quotient, partition = leibniz_reduce(s)
    assert partition == [[0], [1], [2]]


@pytest.mark.parametrize("size", [11, 12, 15])
def test_leibniz_reduce_terminates_past_ten_blocks(size):
    # a successor chain into a marked end splits one more block per round;
    # when colours were ordered by their repr, "10" sorted before "2", the
    # numbering never settled past ten blocks and the loop ran forever
    fsig = Signature(predicates={"P0": 1}, functions={"f0": 1})
    s = FiniteStructure(fsig, size, predicates={"P0": [(size - 1,)]},
                        functions={"f0": {(a,): min(a + 1, size - 1)
                                          for a in range(size)}})
    quotient, partition = leibniz_reduce(s)
    assert partition == [[a] for a in range(size)]
    assert quotient.size == size


def _random_reducible(rng):
    """A structure of size 1-5 with up to three predicates of arity 1-3, up
    to two functions of arity 1-2 and maybe a constant; a sparse draw
    leaves many block-mates."""
    n = rng.randint(1, 5)
    preds = {f"P{i}": rng.randint(1, 3) for i in range(rng.randint(0, 3))}
    funcs = {f"f{i}": rng.randint(1, 2) for i in range(rng.randint(0, 2))}
    consts = ["c0"] if rng.random() < 0.5 else []
    density = rng.random()
    rows = {p: [r for r in itertools.product(range(n), repeat=k) if rng.random() < density]
            for p, k in preds.items()}
    tables = {f: {a: rng.randrange(n) for a in itertools.product(range(n), repeat=k)}
              for f, k in funcs.items()}
    return FiniteStructure(Signature(predicates=preds, functions=funcs, constants=consts),
                           n, rows, tables, {c: rng.randrange(n) for c in consts})


def _is_congruence(s, label):
    """Whether the partition with block `label[a]` for each a is a
    congruence: replacing one entry of a row by a block-mate keeps the row
    in its predicate, and of a table entry keeps its value's block."""
    mates = [[b for b in s.elements if label[b] == label[a]] for a in s.elements]

    def swaps(row):
        return (row[:pos] + (b,) + row[pos + 1:] for pos, a in enumerate(row)
                for b in mates[a])
    return all(r in rows for rows in s.predicates.values() for row in rows
               for r in swaps(row)) and \
        all(label[table[r]] == label[v] for table in s.functions.values()
            for args, v in table.items() for r in swaps(args))


def test_leibniz_reduce_is_the_coarsest_congruence_by_brute_force():
    # every set partition of A, as restricted growth strings, is tested;
    # the answer must be a congruence that every congruence refines, and
    # the quotient must be the image of the structure under its blocks.  In
    # the path 0 -> 1 -> 2, 0 and 2 have the same neighbour in the other
    # position, which random draws seldom show
    rng = random.Random(30)
    path = FiniteStructure(Signature(predicates={"E": 2}), 3, {"E": [(0, 1), (1, 2)]})
    merged = 0
    for s in [path] + [_random_reducible(rng) for _ in range(300)]:
        quotient, partition = leibniz_reduce(s)
        index = {a: i for i, block in enumerate(partition) for a in block}
        assert sorted(a for block in partition for a in block) == list(s.elements)
        assert partition == sorted(partition) and all(b == sorted(b) for b in partition)
        assert _is_congruence(s, index)
        labels = [[]]
        for _ in s.elements:
            labels = [la + [b] for la in labels for b in range(max(la, default=-1) + 2)]
        for label in labels:
            if _is_congruence(s, label):
                assert all(index[a] == index[b] for a in s.elements for b in s.elements
                           if label[a] == label[b])

        def image(row):
            return tuple(index[a] for a in row)
        assert quotient.size == len(partition)
        assert quotient.predicates == {p: {image(r) for r in rows}
                                       for p, rows in s.predicates.items()}
        assert quotient.functions == {f: {image(args): index[v] for args, v in t.items()}
                                      for f, t in s.functions.items()}
        assert quotient.constants == {c: index[v] for c, v in s.constants.items()}
        merged += len(partition) < s.size
    assert merged > 50       # the draw exercises merging, not only discrete answers


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
    every = exact_provider_for(all_fo(EMPTY_SIG, parameters=False))
    assert type(every) is OrbitK and every.arities is None
    with pytest.raises(EvalError, match="no exact oracle for family 'exists-n:1'"):
        exact_provider_for(prefix_family(EMPTY_SIG, "exists", 1))


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


def test_lemma_check_fails_on_a_wrong_bound(monkeypatch):
    # the check decides on the entry, so an entry whose bound is the
    # complement of the true class must make every item fail
    import rsol.structures as st
    true_entry = st._quantifier_entry

    def complemented(s, v, *args):
        entry = true_entry(s, v, *args)
        entry.bound = truth_algebra(s, v).algebra.complement(entry.bound)
        return entry

    monkeypatch.setattr(st, "_quantifier_entry", complemented)
    s, fam = pred_structure(), weak_so(P_SIG, 1)
    assert not lemma_reg_check(s, 1, parse("P0(x0)", P_SIG), "i", x0)
    assert not lemma_reg_check(s, 1, parse("P0(x0)", P_SIG), "ii", x0)
    for which in ("iii", "iv", "v", "vi"):
        assert not lemma_reg_check(s, 1, SOApp(X0, (Var(x0),)), which, X0, fam, 1)


def test_truth_class_entries_on_the_chain_suite_input():
    # the input of `suite rs`: one entry per item, built by the same
    # builder that lemma_reg_check verifies
    from rsol.structures import _quantifier_entry
    s, fam = pred_structure(), weak_so(P_SIG, 1)
    body, fo_body = SOApp(X0, (Var(x0),)), parse("P0(x0)", P_SIG)
    entries = truth_class_entries(s, 1, [(fo_body, x1), (body, X0)], fam, 1)
    assert [(e.name, e.kind) for e in entries] == [
        ("fo-join0", "join"), ("fo-meet0", "meet"), ("so-join1", "join"),
        ("so-meet1", "meet"), ("inst-meet1", "meet")]
    items = [("ii", fo_body, x1), ("i", fo_body, x1), ("iv", body, X0),
             ("iii", body, X0), ("v", body, X0)]
    for e, (which, b, var), i in zip(entries, items, (0, 0, 1, 1, 1)):
        want = _quantifier_entry(s, 1, b, which, var, fam, 1)
        want.name += str(i)
        assert e == want
    # the classes themselves: P0 holds of 0 only and x1 is vacuous; X0
    # ranges over {0}, {1} and {0, 1}, the relations of members 0 and 1
    zero, one, both = frozenset({(0,)}), frozenset({(1,)}), frozenset({(0,), (1,)})
    assert [e.bound for e in entries] == [zero, zero, both, frozenset(), frozenset()]
    assert entries[0].members == (zero, zero)
    assert entries[2].members == (zero, one, both)


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


# ---------------------------------------------------------------------------
# The compiled evaluator: lazy errors, bitmask rows, and the reference
# ---------------------------------------------------------------------------

c0 = Const("c0")
C_SIG = Signature(predicates={"P0": 1, "E": 2}, constants=["c0"])


def c_structure(holds: bool):
    """Two elements, c0 = 0, P0(c0) iff holds, E = {(0, 1)}."""
    return FiniteStructure(C_SIG, 2, predicates={"P0": [(0,)] if holds else [],
                                                 "E": [(0, 1)]},
                           constants={"c0": 0})


def _raises(message, call, *args):
    with pytest.raises(EvalError) as err:
        call(*args)
    assert str(err.value) == message


def test_unassigned_variable_raises_only_where_reached():
    f = Or(PredApp("P0", (c0,)), PredApp("P0", (Var(FOVar(5)),)))
    assert eval_fo(c_structure(True), f) is True
    _raises("x5 is unassigned", eval_fo, c_structure(False), f)
    g = Or(PredApp("P0", (c0,)), TermEq(Var(FOVar(5)), c0))
    assert eval_fo(c_structure(True), g) is True
    _raises("x5 is unassigned", eval_fo, c_structure(False), g)


@pytest.mark.parametrize("node", [
    SOApp(X0, (c0,)),
    SOEq(X0, SOVar(1, 1)),
], ids=["SOApp", "SOEq"])
def test_unassigned_relation_raises_only_where_reached(node):
    f = Or(PredApp("P0", (c0,)), node)
    for holds in (True, False):
        model = StandardModel(c_structure(holds), AllRelationsK())
        if holds:
            assert eval_so(model, f) is True
        else:
            _raises("X0 is unassigned", eval_so, model, f)


FORALL_X0 = ForallSO(X0, SOApp(X0, (c0,)))


@pytest.mark.parametrize("node, reached", [
    (FORALL_X0, FORALL_X0),
    (ExistsSO(X0, SOApp(X0, (c0,))), ForallSO(X0, Not(SOApp(X0, (c0,))))),
], ids=["forall", "exists"])
def test_relation_quantifier_without_range_raises_only_where_reached(node, reached):
    # compiled with no range, as a first-order formula is; exists X is
    # reached as the forall X of its normal form ~forall X ~
    f = normalize(Or(PredApp("P0", (c0,)), node))
    assert _compile(c_structure(True), f)([]) is True
    _raises(f"unexpected node in evaluation: {reached!r}",
            _compile(c_structure(False), f), [])


def test_inst_atom_raises_only_where_reached():
    inst = InstAtom(X0, SOApp(X0, (c0,)))
    f = Or(PredApp("P0", (c0,)), inst)
    assert eval_so(StandardModel(c_structure(True), AllRelationsK()), f) is True
    _raises(f"unexpected node in evaluation: {inst!r}",
            eval_so, StandardModel(c_structure(False), AllRelationsK()), f)


def test_rows_outside_the_domain_never_alias():
    s = c_structure(True)
    # (0, 2) would be bit 0 * 2 + 2, the bit of (1, 0)
    _raises("row (0, 2) is outside A^2", _masks, s, 2, [{(0, 2)}])
    _raises("row (2,) is outside A^1", _masks, s, 1, [{(2,)}])
    _raises("row (0,) is outside A^2", _masks, s, 2, [{(0,)}])
    assert _masks(s, 2, [set(), {(1, 0)}, {(0, 0), (1, 1)}]) == [0, 4, 9]
    X2 = SOVar(2, 2)
    ta, model = truth_algebra(s, 1), StandardModel(s, AllRelationsK())
    f = SOApp(X2, (Var(x0), Var(x0)))
    _raises("row (0, 2) is outside A^2",
            ta.class_of, f, model, {X2: {(0, 2)}})
    assert ta.class_of(f, model, {X2: {(1, 1)}}) == {(1,)}
    with pytest.raises(EvalError):
        eval_so(StandardModel(s, AllRelationsK()), f,
                Assignment.of(fo={x0: 1}, so={X2: {(0, 2)}}))
    # a variable outside the domain would alias too: E(x0, x1) at (0, 2)
    # reads the bit of (1, 0)
    _raises("x1 is assigned 2, outside the domain",
            eval_fo, s, PredApp("E", (Var(x0), Var(x1))), {x0: 0, x1: 2})


def test_shadowed_binders_read_their_own_slot():
    s = FiniteStructure(P_SIG, 2, predicates={"P0": [(0,)]})
    # the inner x0 ends its loop at 1; the outer x0 must still be 0
    f = parse("exists x0 (~(forall x0 P0(x0)) & P0(x0))", P_SIG)
    assert eval_fo(s, f) and eval_full_so(s, f)
    g = parse("exists X0 (X0(c0) & ~(forall X0 X0(c0)) & X0(c0))",
              Signature(constants=["c0"]))
    t = FiniteStructure(Signature(constants=["c0"]), 2, constants={"c0": 0})
    assert eval_so(StandardModel(t, AllRelationsK()), g) and eval_full_so(t, g)


DIFF_SIG = Signature(predicates={"P": 1, "E": 2, "R": 3}, functions={"f": 1, "g": 2},
                     constants=["c0", "c1"])
DIFF_FO = [FOVar(0), FOVar(1)]
DIFF_SO = [SOVar(0, 1), SOVar(1, 1), SOVar(2, 2)]


def _diff_term(rng, depth):
    roll = rng.random()
    if depth > 0 and roll < 0.3:
        name = rng.choice(["f", "g"])
        return Func(name, tuple(_diff_term(rng, depth - 1)
                                for _ in range(DIFF_SIG.functions[name])))
    if roll < 0.5:
        return Const(rng.choice(["c0", "c1"]))
    return Var(rng.choice(DIFF_FO))


def _diff_formula(rng, depth, so_pool):
    """Random formula with function terms, relation identities, and binders
    drawn from two-variable pools, so that binders are often shadowed."""
    roll = rng.random()
    if depth <= 0 or roll < 0.2:
        kind = rng.choice(["P", "E", "R", "eq", "so", "soeq"] if so_pool
                          else ["P", "E", "R", "eq"])
        if kind in DIFF_SIG.predicates:
            return PredApp(kind, tuple(_diff_term(rng, 2)
                                       for _ in range(DIFF_SIG.predicates[kind])))
        if kind == "eq":
            return TermEq(_diff_term(rng, 2), _diff_term(rng, 2))
        v = rng.choice(so_pool)
        if kind == "so":
            return SOApp(v, tuple(_diff_term(rng, 1) for _ in range(v.arity)))
        return SOEq(v, rng.choice([w for w in so_pool if w.arity == v.arity]))
    sub = lambda: _diff_formula(rng, depth - 1, so_pool)  # noqa: E731
    if roll < 0.35:
        return Not(sub())
    if roll < 0.6:
        return rng.choice([And, Or, Implies, Iff])(sub(), sub())
    if roll < 0.85 or not so_pool:
        return rng.choice([ForallFO, ExistsFO])(rng.choice(DIFF_FO), sub())
    return rng.choice([ForallSO, ExistsSO])(rng.choice(so_pool), sub())


def test_compiled_evaluator_agrees_with_the_reference():
    rng = random.Random(8)
    for _ in range(400):
        binary = rng.random() < 0.25
        so_pool = DIFF_SO if binary else DIFF_SO[:2]
        s = random_structure(rng, DIFF_SIG, max_size=2 if binary else 3)
        f = _diff_formula(rng, 4, so_pool)
        assert eval_so_closure(StandardModel(s, AllRelationsK()), f) \
            == eval_full_so(s, _closure(f)), f


def _closure(f):
    fo, so = free_variables(f)
    for v in sorted(so):
        f = ForallSO(v, f)
    for v in sorted(fo):
        f = ForallFO(v, f)
    return f


def test_truth_classes_agree_with_per_row_evaluation():
    rng = random.Random(12)
    X = DIFF_SO[0]
    for _ in range(150):
        s = random_structure(rng, DIFF_SIG, max_size=3)
        ta = truth_algebra(s, 2)
        f = _diff_formula(rng, 3, [])
        assert ta.class_of(f) == {row for row in ta.tuples
                                  if eval_fo(s, f, dict(zip(DIFF_FO, row)))}, f
        g = _diff_formula(rng, 3, [X])
        rel = {(a,) for a in range(s.size) if rng.random() < 0.5}
        rows = {row for row in ta.tuples if eval_full_so(
            s, g, Assignment.of(fo=dict(zip(DIFF_FO, row)), so={X: rel}))}
        assert ta.class_of(g, StandardModel(s, AllRelationsK()), {X: rel}) == rows, g
