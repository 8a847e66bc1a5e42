import copy
import operator

import pytest
from hypothesis import given, settings, strategies as st

from rsol.formulas import (
    And, CaptureError, Const, ExistsFO, ExistsSO, ForallFO, ForallSO, FOVar,
    FormulaError, Func, Iff, Implies, InstAtom, Not, Or, ParseError, PredApp,
    Signature, SOApp, SOEq, SOVar, TermEq, Var, a6_instantiate, alpha_eq,
    alpha_key, format_formula, free_variables, is_sentence, max_index, normalize,
    parse, substitute, substitute_fo, validate,
)
import rsol.formulas as syntax

SIG = Signature(predicates={"P0": 1, "P1": 2}, functions={"f0": 1},
                constants=["c0", "c1"])
NO_IDENTITY = Signature(SIG.predicates, SIG.functions, SIG.constants, identity=False)
x0, x1, x2, x5 = FOVar(0), FOVar(1), FOVar(2), FOVar(5)
X0, X1 = SOVar(0, 1), SOVar(1, 1)


class FakeMember:
    def __init__(self, formula, slots, params):
        self.formula = formula
        self.slots = tuple(slots)
        self.params = tuple(params)


def test_signature_rejects_variable_like_names():
    with pytest.raises(FormulaError):
        Signature(predicates={"X0": 1})
    with pytest.raises(FormulaError):
        Signature(constants=["x3"])


def test_variables_refuse_a_negative_index():
    for make in (lambda: FOVar(-1), lambda: SOVar(-1), lambda: SOVar(-1, 2)):
        with pytest.raises(FormulaError, match="variable index must be >= 0"):
            make()


def test_signature_folds_zero_ary_functions():
    sig = Signature(functions={"g": 0})
    assert "g" in sig.constants and not sig.functions


def test_parse_paper_style_sentence():
    f = parse("∀x ∃X ∀y (X(y) <-> x = y)", SIG)
    assert f == ForallFO(x0, ExistsSO(X0, ForallFO(
        x1, Iff(SOApp(X0, (Var(x1),)), TermEq(Var(x0), Var(x1))))))
    assert is_sentence(f)


def test_parse_atomic():
    assert parse("P0(x0)", SIG) == PredApp("P0", (Var(x0),))


def test_parse_arity_mismatch():
    with pytest.raises(ParseError):
        parse("X2(x0, x1)", SIG)  # X2 has no caret, so arity 1


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("Q7(x0)", SIG)  # unknown symbol
    with pytest.raises(ParseError):
        parse("P0(x0", SIG)
    with pytest.raises(ParseError):
        parse("x0 = x1", NO_IDENTITY)
    with pytest.raises(ParseError):
        parse("X0 = X1", NO_IDENTITY)
    with pytest.raises(ParseError):
        parse("X0^1 = X1^2", SIG)


def test_parse_named_variables_fresh_interning():
    # explicit x1 forces the bare names around it onto other indices
    f = parse("P1(x1, y) & P0(z)", SIG)
    assert f == And(PredApp("P1", (Var(x1), Var(x0))), PredApp("P0", (Var(x2),)))


def test_parse_ascii_and_unicode_agree():
    a = parse("forall x0 ~(P0(x0) & P0(x1))", SIG)
    b = parse("∀x0 ¬(P0(x0) ∧ P0(x1))", SIG)
    assert a == b


def test_parse_functions_and_constants():
    f = parse("P0(f0(c0)) -> c1 = x4", SIG)
    assert f == Implies(PredApp("P0", (Func("f0", (Const("c0"),)),)),
                        TermEq(Const("c1"), Var(FOVar(4))))


def test_roundtrip_examples():
    for text in ["~(P0(x0) & P0(x1))",
                 "forall x0 forall x1 forall x2 P1(x0, x2)",
                 "exists X0 forall x0 (X0(x0) <-> P0(x0))",
                 "X0^2 = X1^2 | P0(c0)"]:
        f = parse(text, SIG)
        for unicode in (True, False):
            assert parse(format_formula(f, unicode=unicode), SIG) == f


def test_a_template_line_prints_and_parses_back():
    # an inst atom is printed as inst(V, body) and read back under allow_inst
    f = parse("forall X0 (X0(c0) & exists x1 X0(x1)) -> inst(X0, X0(c0) & exists x1 X0(x1))",
              SIG, allow_inst=True)
    assert type(f.right) is InstAtom
    for unicode in (True, False):
        text = format_formula(f, unicode=unicode)
        assert "inst(X0, " in text
        assert alpha_eq(parse(text, SIG, allow_inst=True), f)


def test_print_exists_both_ways():
    f = parse("exists X0 P0(c0)", SIG)
    plain = format_formula(normalize(f))
    assert alpha_eq(parse(plain, SIG), f)


def test_free_variables():
    f = ForallFO(x0, SOApp(X0, (Var(x0),)))
    assert free_variables(f) == (frozenset(), frozenset({X0}))
    assert free_variables(TermEq(Var(x0), Var(x1))) == (frozenset({x0, x1}), frozenset())
    g = ForallSO(X0, And(SOApp(X0, (Var(x0),)), SOApp(X1, (Var(x0),))))
    assert free_variables(g) == (frozenset({x0}), frozenset({X1}))


def test_is_sentence():
    assert not is_sentence(PredApp("P0", (Var(x0),)))
    assert is_sentence(ForallSO(X0, ForallFO(x0, SOApp(X0, (Var(x0),)))))


def test_substitute_fo_simple():
    assert substitute_fo(PredApp("P0", (Var(x0),)), x0, Var(x1)) == \
        PredApp("P0", (Var(x1),))


def test_substitute_fo_capture():
    f = ForallFO(x1, TermEq(Var(x0), Var(x1)))
    assert substitute_fo(f, x0, Var(x1)) == ForallFO(x2, TermEq(Var(x1), Var(x2)))


def test_substitute_fo_no_free_occurrence():
    f = ForallFO(x0, PredApp("P0", (Var(x0),)))
    assert substitute_fo(f, x0, Var(x5)) == f


def test_substitute_so():
    # relation variables for relation variables: a capture renames the
    # binder, or is refused under "fail"; arities must agree
    assert substitute(SOApp(X0, (Var(x0),)), {X0: X1}, "fail") == SOApp(X1, (Var(x0),))
    f = ForallSO(X1, SOEq(X0, X1))
    assert substitute(f, {X0: X1}) == ForallSO(SOVar(2, 1), SOEq(X1, SOVar(2, 1)))
    with pytest.raises(CaptureError):
        substitute(f, {X0: X1}, "fail")
    with pytest.raises(FormulaError):
        substitute(SOApp(X0, (Var(x0),)), {X0: SOVar(1, 2)})
    with pytest.raises(FormulaError, match="arities differ"):
        substitute(PredApp("P0", (Var(x0),)), {X0: SOVar(1, 2)})


def test_a_renamed_binder_is_past_every_value():
    # the fresh name passes the values of the keys free in the body as well
    # as the body, or the renamed binder would capture x3 / X3 in its turn
    x3, x4 = FOVar(3), FOVar(4)
    f = ForallFO(x1, And(PredApp("P1", (Var(x0), Var(x1))), PredApp("P0", (Var(x2),))))
    assert substitute(f, {x0: Var(x1), x2: Var(x3)}) == \
        ForallFO(x4, And(PredApp("P1", (Var(x1), Var(x4))), PredApp("P0", (Var(x3),))))
    X2, X3, X4 = SOVar(2, 1), SOVar(3, 1), SOVar(4, 1)
    g = ForallSO(X1, And(SOEq(X0, X1), SOEq(X2, X2)))
    assert substitute(g, {X0: X1, X2: X3}) == ForallSO(X4, And(SOEq(X1, X4), SOEq(X3, X3)))


def test_a6_instantiate_weak_so_shape():
    # member: x0 = x1 with slot x0 and parameter x1, which is already past
    # the x0 of f and keeps its name
    member = FakeMember(TermEq(Var(x0), Var(x1)), [x0], [x1])
    f = ForallFO(x0, SOApp(X0, (Var(x0),)))
    out = a6_instantiate(f, X0, member)
    assert out == ForallFO(x1, ForallFO(x0, TermEq(Var(x0), Var(x1))))
    assert alpha_eq(out, parse("forall y forall x (x = y)", SIG))


def test_a6_instantiate_no_parameters():
    member = FakeMember(PredApp("P0", (Var(x0),)), [x0], [])
    f = Implies(SOApp(X0, (Var(x0),)), SOApp(X0, (Var(x1),)))
    out = a6_instantiate(f, X0, member)
    assert out == normalize(Implies(PredApp("P0", (Var(x0),)), PredApp("P0", (Var(x1),))))


def test_a6_instantiate_bound_everywhere():
    member = FakeMember(TermEq(Var(x0), Var(x1)), [x0], [x1])
    f = ForallSO(X0, SOApp(X0, (Var(x0),)))
    out = a6_instantiate(f, X0, member)
    # prefix over the fresh parameter, body untouched
    assert isinstance(out, ForallFO) and out.body == f


def test_a6_instantiate_arity_mismatch():
    member = FakeMember(TermEq(Var(x0), Var(x1)), [x0], [x1])
    with pytest.raises(FormulaError):
        a6_instantiate(SOApp(SOVar(0, 2), (Var(x0), Var(x1))), SOVar(0, 2), member)


def test_a6_instantiate_rejects_so_identity_occurrence():
    member = FakeMember(TermEq(Var(x0), Var(x1)), [x0], [x1])
    with pytest.raises(FormulaError):
        a6_instantiate(SOEq(X0, X1), X0, member)


def test_a6_adds_no_free_variables():
    member = FakeMember(TermEq(Var(x0), Var(x1)), [x0], [x1])
    f = And(SOApp(X0, (Var(x0),)), SOApp(X0, (Const("c0"),)))
    out = a6_instantiate(f, X0, member)
    fo, so = free_variables(out)
    assert fo == {x0} and so == frozenset()


def test_a6_capture_inside_member():
    # member with its own quantifier must rename when slots collide
    member = FakeMember(ExistsFO(x1, PredApp("P1", (Var(x0), Var(x1)))), [x0], [])
    f = SOApp(X0, (Var(x1),))
    out = a6_instantiate(f, X0, member)
    fo, _ = free_variables(out)
    assert fo == {x1}
    # one quantifier, its x1 renamed past the argument
    assert out == normalize(ExistsFO(x2, PredApp("P1", (Var(x1), Var(x2)))))
    assert not alpha_eq(out, ExistsFO(x1, PredApp("P1", (Var(x1), Var(x1)))))


def test_normalize_shapes():
    f = Or(PredApp("P0", (Var(x0),)), PredApp("P0", (Var(x1),)))
    n = normalize(f)
    assert n == Not(And(Not(PredApp("P0", (Var(x0),))), Not(PredApp("P0", (Var(x1),)))))
    e = ExistsFO(x0, PredApp("P0", (Var(x0),)))
    assert normalize(e) == Not(ForallFO(x0, Not(PredApp("P0", (Var(x0),)))))


def test_alpha_equivalence_basics():
    f = ForallFO(x0, PredApp("P0", (Var(x0),)))
    g = ForallFO(x5, PredApp("P0", (Var(x5),)))
    assert alpha_eq(f, g)
    assert not alpha_eq(f, ForallFO(x0, PredApp("P0", (Var(x1),))))
    # sugar and primitive encodings are alpha-equal
    assert alpha_eq(ExistsSO(X0, SOApp(X0, (Var(x0),))),
                    Not(ForallSO(X1, Not(SOApp(X1, (Var(x0),))))))


def test_inst_atom_alpha_binds_its_variable():
    a = InstAtom(X0, SOApp(X0, (Var(x0),)))
    b = InstAtom(X1, SOApp(X1, (Var(x0),)))
    assert alpha_eq(a, b)
    assert not alpha_eq(a, InstAtom(X0, SOApp(X0, (Var(x1),))))


def test_validate_checks_identity_flag():
    f = TermEq(Var(x0), Var(x0))
    validate(f, SIG)
    with pytest.raises(FormulaError):
        validate(f, NO_IDENTITY)


# --- randomized properties ---------------------------------------------------

def terms(depth):
    base = st.one_of(
        st.integers(0, 3).map(lambda i: Var(FOVar(i))),
        st.sampled_from([Const("c0"), Const("c1")]))
    if depth <= 0:
        return base
    return st.one_of(base, st.tuples(terms(depth - 1)).map(lambda a: Func("f0", a)))


def formulas(depth):
    atoms = st.one_of(
        st.tuples(terms(1)).map(lambda a: PredApp("P0", a)),
        st.tuples(terms(0), terms(0)).map(lambda a: PredApp("P1", a)),
        st.tuples(terms(1), terms(1)).map(lambda p: TermEq(*p)),
        st.tuples(st.integers(0, 2), terms(0)).map(
            lambda p: SOApp(SOVar(p[0], 1), (p[1],))),
        st.tuples(st.integers(0, 2), st.integers(0, 2)).map(
            lambda p: SOEq(SOVar(p[0], 2), SOVar(p[1], 2))),
    )
    if depth <= 0:
        return atoms
    sub = formulas(depth - 1)
    return st.one_of(
        atoms,
        sub.map(Not),
        st.tuples(sub, sub).map(lambda p: And(*p)),
        st.tuples(sub, sub).map(lambda p: Or(*p)),
        st.tuples(sub, sub).map(lambda p: Implies(*p)),
        st.tuples(sub, sub).map(lambda p: Iff(*p)),
        st.tuples(st.integers(0, 3), sub).map(lambda p: ForallFO(FOVar(p[0]), p[1])),
        st.tuples(st.integers(0, 3), sub).map(lambda p: ExistsFO(FOVar(p[0]), p[1])),
        st.tuples(st.integers(0, 2), sub).map(lambda p: ForallSO(SOVar(p[0], 1), p[1])),
        st.tuples(st.integers(0, 2), sub).map(lambda p: ExistsSO(SOVar(p[0], 1), p[1])),
    )


@settings(max_examples=120, deadline=None)
@given(formulas(3))
def test_roundtrip_random(f):
    for unicode in (True, False):
        text = format_formula(f, unicode=unicode)
        assert parse(text, SIG) == f


@settings(max_examples=100, deadline=None)
@given(formulas(2), terms(1), terms(1))
def test_disjoint_substitutions_commute(f, t, s):
    va, vb = FOVar(7), FOVar(8)
    f = And(f, PredApp("P1", (Var(va), Var(vb))))
    if va in term_vars_of(t) or vb in term_vars_of(t):
        return
    if va in term_vars_of(s) or vb in term_vars_of(s):
        return
    one = substitute_fo(substitute_fo(f, va, t), vb, s)
    other = substitute_fo(substitute_fo(f, vb, s), va, t)
    both = substitute(f, {va: t, vb: s})
    assert alpha_eq(one, other)
    assert alpha_eq(one, both)


def term_vars_of(t):
    from rsol.formulas import term_fo_vars
    return term_fo_vars(t)


@settings(max_examples=80, deadline=None)
@given(formulas(2))
def test_alpha_key_reflexive_and_normalize_idempotent(f):
    assert alpha_key(f) == alpha_key(f)
    n = normalize(f)
    assert normalize(n) == n
    assert alpha_eq(f, n)


# one instance of every concrete node type, with distinct subformulas so
# that the order of children shows
_A, _B = PredApp("P0", (Var(x0),)), SOApp(X0, (Const("c0"),))
NODES = [
    PredApp("P1", (Var(x0), Const("c1"))), TermEq(Var(x0), Const("c0")),
    SOApp(X0, (Var(x1),)), SOEq(X0, X1),
    Not(_A), And(_A, _B), Or(_A, _B), Implies(_A, _B), Iff(_A, _B),
    ForallFO(x0, _A), ExistsFO(x0, _A), ForallSO(X0, _B), ExistsSO(X0, _B),
    InstAtom(X0, _B),
]


def test_shape_table_covers_every_node_type():
    concrete = {cls for cls in vars(syntax).values()
                if isinstance(cls, type) and issubclass(cls, syntax.Formula)
                and cls is not syntax.Formula}
    assert concrete == set(syntax.SUBFORMULAS) == {type(f) for f in NODES}


@pytest.mark.parametrize("f", NODES, ids=lambda f: type(f).__name__)
def test_rebuild_of_children_is_the_node(f):
    kids = syntax.children(f)
    assert kids == tuple(getattr(f, name) for name in syntax.SUBFORMULAS[type(f)])
    assert syntax.rebuild(f, kids) == f
    if len(kids) == 2:
        assert syntax.rebuild(f, kids[::-1]) == type(f)(_B, _A)


@pytest.mark.parametrize("thing", [Var(x0), X0, "P0(c0)", None, 3])
def test_children_of_a_non_formula_raise(thing):
    with pytest.raises(FormulaError, match="not a formula"):
        syntax.children(thing)


# ---------------------------------------------------------------------------
# The rebuild rule: a rewrite returns every subtree it does not change
# ---------------------------------------------------------------------------

_P = PredApp("P0", (Var(x0),))
_Q = SOApp(X0, (Var(x1),))
ONE_OF_EACH = [
    _P, TermEq(Var(x0), Const("c0")), _Q, SOEq(X0, X1), Not(_P),
    And(_P, _Q), Or(_P, _Q), Implies(_P, _Q), Iff(_P, _Q),
    ForallFO(x0, _P), ExistsFO(x0, _P), ForallSO(X0, _Q), ExistsSO(X0, _Q),
    InstAtom(X0, _Q),
]


@pytest.mark.parametrize("f", ONE_OF_EACH, ids=lambda f: type(f).__name__)
def test_rebuild_with_its_own_children_is_the_node(f):
    assert syntax.rebuild(f, syntax.children(f)) is f
    # equal but distinct kids are a change of object: the node is rebuilt
    copies = [copy.copy(k) for k in syntax.children(f)]
    if copies:
        g = syntax.rebuild(f, copies)
        assert g == f and g is not f
        assert all(map(operator.is_, syntax.children(g), copies))


def test_normalize_returns_every_corpus_line_itself():
    from rsol.corpus import proof_corpus
    checked = 0
    for item in proof_corpus():
        proof = item.proof
        lines = list(proof.lines)
        for t in proof.templates.values():
            lines.extend(t.lines)
        for g in list(proof.premises) + [line.formula for line in lines]:
            assert normalize(g) is g
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("spec", ["dsl", "all-fo"])
def test_normalize_returns_family_members_themselves(spec):
    from rsol.corpus import COLLAPSE_SIG
    from rsol.theta import family_from_cli
    for m in family_from_cli(spec, COLLAPSE_SIG).enumerate_up_to(199):
        assert normalize(m.formula) is m.formula


@settings(max_examples=120, deadline=None)
@given(formulas(3))
def test_normalize_of_a_normal_formula_is_that_formula(f):
    n = normalize(f)
    assert normalize(n) is n


def test_rewrites_share_the_subtrees_they_leave_alone():
    untouched = ForallSO(X1, SOEq(X1, SOVar(2, 1)))
    f = normalize(And(Or(_P, untouched), _Q))
    assert substitute(f, {X1: X0}, "fail") is f
    assert substitute(f, {x2: Const("c0")}) is f
    g = substitute(f, {x1: Const("c0")})
    assert g is not f and g.left is f.left


def test_a6_instantiate_keeps_an_identity_under_a_binder_of_the_variable():
    member = FakeMember(PredApp("P0", (Var(x0),)), [x0], [])
    bound = ForallSO(X0, SOEq(X0, X1))
    out = a6_instantiate(And(SOApp(X0, (Var(x1),)), bound), X0, member)
    assert out == And(PredApp("P0", (Var(x1),)), bound)
    assert out.right is bound


def test_a6_instantiate_refuses_an_identity_after_an_application():
    member = FakeMember(PredApp("P0", (Var(x0),)), [x0], [])
    for f in (And(SOApp(X0, (Var(x1),)), SOEq(X1, X0)),
              And(SOApp(X0, (Var(x1),)), Not(ForallFO(x1, SOEq(X0, X1))))):
        with pytest.raises(FormulaError, match="second-order identity"):
            a6_instantiate(f, X0, member)


# ---------------------------------------------------------------------------
# Deep formulas and the structural fast paths
# ---------------------------------------------------------------------------

def _renamed(f, shift):
    """f with each bound variable of either sort renamed to the variable of
    its index plus shift, which the formulas below never mention."""
    t = type(f)
    if t in (ForallFO, ExistsFO):
        w = FOVar(f.var.index + shift)
        return t(w, _renamed(substitute_fo(f.body, f.var, Var(w)), shift))
    if t in (ForallSO, ExistsSO):
        w = SOVar(f.var.index + shift, f.var.arity)
        return t(w, _renamed(substitute(f.body, {f.var: w}), shift))
    return syntax.rebuild(f, [_renamed(g, shift) for g in syntax.children(f)])


def test_alpha_eq_agrees_with_comparing_alpha_keys():
    # equal copies, renamed binders, renamed and normalized, and one-edit
    # mutations; the structural walk must decide exactly as the keys do
    import random
    from rsol.sampling import mutate_formula, random_formula
    rng = random.Random("alpha_eq/differential")
    pools = ([x0, x1, x2], [X0, SOVar(1, 1)])
    verdicts = []
    for i in range(5000):
        f = random_formula(rng, SIG, 4, *pools)
        kind = i % 4
        if kind == 0:
            g = copy.deepcopy(f)
        elif kind == 1:
            g = _renamed(f, 10)
        elif kind == 2:
            g = normalize(_renamed(f, 20))
        else:
            g = mutate_formula(rng, f, SIG) or f
        want = alpha_key(f) == alpha_key(g)
        assert alpha_eq(f, g) == want == alpha_eq(g, f), (f, g)
        verdicts.append(want)
    # the first three kinds are alpha-equal; a mutation seldom is
    assert 3750 <= sum(verdicts) < 4000


def test_normalize_and_alpha_eq_walk_a_5000_deep_chain():
    # exists x0 (P0(x0) | exists x0 (P0(x0) | ...)), one level per node:
    # far past the recursion limit, so only stack-free walks get through
    atom = PredApp("P0", (Var(x0),))
    f = atom
    for k in range(5000):
        f = Or(atom, f) if k % 2 else ExistsFO(x0, f)
    g = normalize(f)
    assert normalize(g) is g
    assert alpha_eq(g, normalize(f))
    # P | rest becomes ~(~P & ~rest), exists x0 rest ~forall x0 ~rest
    h = g
    for k in reversed(range(5000)):
        assert type(h) is Not
        h = h.body
        if k % 2:
            assert type(h) is And and h.left == Not(atom) and type(h.right) is Not
            h = h.right.body
        else:
            assert type(h) is ForallFO and h.var == x0 and type(h.body) is Not
            h = h.body.body
    assert h is atom


def _a6_rename_then_substitute(f, var, member, on_capture="rename", past_both=False):
    """a6_instantiate as two substitutions: the member's parameters renamed
    once, each p to x(p + s) with s = max(0, max_index(f, FOVar) + 1 - the lowest
    parameter index), then its slots replaced by each application's
    arguments.  With past_both, the i-th parameter is renamed past every
    index of f and of the member instead, the rule before s."""
    if past_both:
        base = max(max_index(f, FOVar), max_index(member.formula, FOVar)) + 1
        fresh = tuple(FOVar(base + i) for i in range(len(member.params)))
    else:
        low = min((p.index for p in member.params), default=0)
        shift = max(0, max_index(f, FOVar) + 1 - low)
        fresh = tuple(FOVar(p.index + shift) for p in member.params)
    # two steps are one simultaneous substitution while no new name is a slot
    assert not set(fresh) & set(member.slots)
    theta = substitute(member.formula, {p: Var(q) for p, q in zip(member.params, fresh)})

    def walk(g):
        if type(g) is SOApp and g.var == var:
            return substitute(theta, dict(zip(member.slots, g.args)), on_capture)
        if type(g) in syntax.BINDERS and g.var == var:
            return g
        return syntax.rebuild(g, [walk(k) for k in syntax.children(g)])

    out = walk(f)
    for p in reversed(fresh):
        out = ForallFO(p, out)
    return out


@pytest.mark.parametrize("spec, arity", [
    ("weak-so:1", 1), ("dsl", 1), ("all-fo", 1), ("all-fo", 2),
])
def test_a6_instantiate_substitutes_once_as_renaming_then_substituting(spec, arity):
    # the arguments x1..x3 are variables that members bind, so the
    # substitution must rename the member's binders on the way in
    from rsol.theta import family_from_cli
    bodies = {
        1: ["forall x0 (X0(x0) -> exists x1 X0(x0))",
            "forall x1 (X0(x1) & exists x2 (X0(x2) | X0(f0(x3))))"],
        2: ["forall x0 (X0^2(x0, x1) -> exists x1 X0^2(x1, x0))",
            "exists x2 (X0^2(x2, x3) & X0^2(c0, x2))"],
    }[arity]
    var = SOVar(0, arity)
    fam = family_from_cli(spec, SIG)
    captured = 0
    for n in range(40):
        member = fam.arity_member(arity, n)
        for text in bodies:
            body = normalize(parse(text, SIG))
            want = _a6_rename_then_substitute(body, var, member)
            got = a6_instantiate(body, var, member)
            assert got == normalize(want)
            assert alpha_eq(got, _a6_rename_then_substitute(body, var, member,
                                                            past_both=True))
            try:
                _a6_rename_then_substitute(body, var, member, on_capture="fail")
            except CaptureError:
                captured += 1
    # weak-so members bind no variable; each other family meets a capture
    assert captured or spec == "weak-so:1"


# members whose formulas use |, -> and exists, of arities 1 and 2
_SUGARED_FAMILY = ("x0 ; x1 ; x0 = x1 | P0(x1)\n"
                   "x0 ; ; exists x1 (P0(x1) -> x0 = x1)\n"
                   "x0 x1 ; x2 ; x0 = x2 -> exists x3 (P1(x3, x1) | x1 = x2)\n")


@pytest.mark.parametrize("spec, arity", [
    ("weak-so:1", 1), ("weak-so:2", 2), ("all-fo", 1), ("all-fo", 2), ("dsl", 1),
    ("file", 1), ("file", 2),
])
def test_a6_instantiate_returns_the_normal_form_with_or_without_caches(tmp_path, spec,
                                                                       arity):
    # the instance is normal, and it is the prefix over the normalized body
    # of the instance built as renaming then substituting, whether or not a
    # spot check's caches are passed (kept across n, as a spot check keeps them)
    from rsol.theta import family_from_cli
    if spec == "file":
        path = tmp_path / "sugared.fam"
        path.write_text(_SUGARED_FAMILY, encoding="utf-8")
        spec = f"file:{path}"
    phis = {
        1: ["forall x0 (X0(x0) -> exists x1 X0(x0))", "X0(c0) <-> exists x2 X0(f0(x2))",
            "forall x0 forall x2 X0(x2)"],
        2: ["forall x0 (X0^2(x0, x1) -> exists x1 X0^2(x1, x0))",
            "exists x2 (X0^2(x2, x3) | X0^2(c0, x2))"],
    }[arity]
    var = SOVar(0, arity)
    fam = family_from_cli(spec, SIG)
    tables, normal = {}, {}
    for n in range(61):
        member = fam.arity_member(arity, n)
        for text in phis:
            phi = parse(text, SIG)
            want = _a6_rename_then_substitute(phi, var, member)
            prefix = []
            for _ in member.params:
                prefix.append(want.var)
                want = want.body
            want = normalize(want)
            for q in reversed(prefix):
                want = ForallFO(q, want)
            for out in (a6_instantiate(phi, var, member),
                        a6_instantiate(phi, var, member, tables, normal)):
                assert normalize(out) is out, (spec, n, text)
                assert out == want, (spec, n, text)


def test_max_fo_index_walks_a_5000_deep_chain():
    # P0(x0) | (P0(x1) | ... exists x7000 P0(x4999)): past the recursion limit
    f = ExistsFO(FOVar(7000), PredApp("P0", (Var(FOVar(4999)),)))
    for k in reversed(range(4999)):
        f = Or(PredApp("P0", (Var(FOVar(k)),)), f)
    assert max_index(f, FOVar) == 7000
    assert max_index(f.right, FOVar) == 7000
    assert max_index(Or(TermEq(Var(x5), Const("c0")), SOApp(X0, (Var(x2),))), FOVar) == 5
    assert max_index(SOEq(X0, X1), FOVar) == -1


def _chain(leaf, levels=5000):
    """leaf under `levels` levels that cycle through ~, P0(x2) & _, exists x3
    and forall X2."""
    f = leaf
    for k in range(levels):
        f = (Not(f) if k % 4 == 0 else And(PredApp("P0", (Var(x2),)), f) if k % 4 == 1
             else ExistsFO(FOVar(3), f) if k % 4 == 2 else ForallSO(SOVar(2, 1), f))
    return f


def test_the_generic_walkers_take_a_5000_level_formula(shallow_stack):
    # with 100 frames to spare, a walker that takes a frame per level fails
    p0x1 = PredApp("P0", (Var(x1),))
    f = _chain(And(SOApp(X0, (Var(x0),)), p0x1))
    member = FakeMember(TermEq(Var(x0), Var(x1)), [x0], [x1])
    with shallow_stack(100):
        validate(f, SIG)
        with pytest.raises(FormulaError, match="unknown predicate 'Q9'"):
            validate(_chain(PredApp("Q9", (Var(x0),))), SIG)
        assert max_index(f, FOVar) == 3 and max_index(f, SOVar) == 2
        # x3 is bound at every fourth level: the mapping narrows at the first
        got = substitute(f, {x0: Var(x5), FOVar(3): Var(x5)})
        assert alpha_eq(got, _chain(And(SOApp(X0, (Var(x5),)), p0x1)))
        got = substitute(f, {X0: X1}, "fail")
        assert alpha_eq(got, _chain(And(SOApp(X1, (Var(x0),)), p0x1)))
        # the member's parameter x1 becomes x4, past x3, and is closed on top
        got = a6_instantiate(f, X0, member)
        want = _chain(And(TermEq(Var(x0), Var(FOVar(4))), p0x1))
        assert type(got) is ForallFO and got.var == FOVar(4)
        assert alpha_eq(got.body, normalize(want))


def _substitute_filtering_at_every_binder(f, mapping, on_capture="rename"):
    """First-order substitution as it was written before, reading the free
    variables of the body at every first-order quantifier."""
    def walk(g, mapping):
        t = type(g)
        if t in (PredApp, SOApp, TermEq):
            return substitute(g, mapping, on_capture)
        if t in (ForallFO, ExistsFO):
            live = {k: v for k, v in mapping.items()
                    if k != g.var and k in free_variables(g.body)[0]}
            if not live:
                return g
            if any(g.var in syntax.term_fo_vars(term) for term in live.values()):
                if on_capture == "fail":
                    raise CaptureError(f"{g.var} would be captured")
                top = max([g.var.index, max_index(g.body, FOVar)]
                          + [syntax._max_term_index(term) for term in live.values()])
                fresh = FOVar(top + 1)
                return t(fresh, walk(walk(g.body, {g.var: Var(fresh)}), live))
            return syntax.rebuild(g, (walk(g.body, live),))
        return syntax.rebuild(g, [walk(k, mapping) for k in syntax.children(g)])

    return walk(f, dict(mapping))


def test_substitute_fo_many_agrees_with_filtering_at_every_binder():
    # the same output, the same shared subtrees and the same captures as
    # the substitution that read each body's free variables
    import random
    from rsol.sampling import random_formula
    rng = random.Random("substitute_fo_many/differential")
    xs = [x0, x1, x2]
    terms = [Var(x0), Var(x1), Var(x2), Const("c0"), Func("f0", (Var(x1),))]
    # each formula also as generated, so the walk meets the sugared
    # two-child nodes (|, ->, <->) and exists as well as the primitives
    renamed = unchanged = captured = sugared = 0
    for _ in range(3000):
        raw = random_formula(rng, SIG, 4, xs, [X0])
        mapping = {v: rng.choice(terms) for v in rng.sample(xs, rng.randint(1, 3))}
        for f in (normalize(raw), raw):
            want = _substitute_filtering_at_every_binder(f, mapping)
            got = substitute(f, mapping)
            assert got == want and (got is f) == (want is f), (f, mapping)
            unchanged += got is f
            renamed += max_index(got, FOVar) > 2
            try:
                _substitute_filtering_at_every_binder(f, mapping, "fail")
            except CaptureError:
                captured += 1
                with pytest.raises(CaptureError):
                    substitute(f, mapping, "fail")
            else:
                assert substitute(f, mapping, "fail") == want
        sugared += normalize(raw) is not raw
    assert unchanged > 1000 and renamed > 100 and captured > 100 and sugared > 1000


def test_substitute_fo_many_reads_free_variables_only_where_a_capture_may_be(
        monkeypatch):
    # x0 := c0 under 400 nested binders: no term can be captured, so no
    # body's free variables are read and the walk stays linear
    read = []
    monkeypatch.setattr(syntax, "free_variables",
                        lambda g: read.append(g) or free_variables(g))
    f = PredApp("P1", (Var(x0), Var(x1)))
    for k in range(1, 401):
        f = ForallFO(FOVar(k), f)

    def innermost(g):
        for _ in range(400):
            g = g.body
        return g

    assert innermost(substitute(f, {x0: Const("c0")})) == \
        PredApp("P1", (Const("c0"), Var(x1)))
    assert read == []
    # x0 := x1 may be captured by forall x1, the innermost binder: only its
    # body is read, and that binder is renamed to x2
    assert innermost(substitute(f, {x0: Var(x1)})) == \
        PredApp("P1", (Var(x1), Var(x2)))
    assert len(read) == 1 and read[0] == PredApp("P1", (Var(x0), Var(x1)))



def test_substitute_fo_many_shares_a_memo_only_outside_binders():
    # P1(x0, x1) is free in x1 on its own and bound in x1 under forall x1; the
    # mappings agree on x0, the one variable free in both formulas, and the
    # second one must not reuse the first one's result for the shared node
    h = PredApp("P1", (Var(x0), Var(x1)))
    memo: dict = {}
    assert substitute(h, {x0: Const("c0"), x1: Var(x5)}, memo=memo) == \
        PredApp("P1", (Const("c0"), Var(x5)))
    assert substitute(ForallFO(x1, h), {x0: Const("c0")}, memo=memo) == \
        ForallFO(x1, PredApp("P1", (Const("c0"), Var(x1))))
    # outside binders the node is substituted once
    g = And(h, ForallFO(x1, h))
    assert substitute(g, {x0: Const("c0"), x1: Var(x5)}, memo=memo).left is \
        substitute(h, {x0: Const("c0"), x1: Var(x5)}, memo=memo)


def _so_indices(f):
    """The indices of the relation variables written anywhere in f."""
    return [v.index for g in syntax.nodes(f)
            for v in ((g.left, g.right) if type(g) is SOEq else (g.var,)
                      if type(g) in (SOApp, ForallSO, ExistsSO, InstAtom) else ())]


def _substitute_so_before(f, vm, vn):
    """Relation-variable substitution as it was written before: the formula
    with vn for the free vm, and whether vn was free for vm; a capturing
    binder is renamed by two walks of its body."""
    clean = True

    def step(g):
        nonlocal clean
        t = type(g)
        if t is SOApp:
            return SOApp(vn, g.args) if g.var == vm else g
        if t is SOEq and vm in (g.left, g.right):
            return SOEq(vn if g.left == vm else g.left, vn if g.right == vm else g.right)
        if t in syntax.BINDERS and g.var == vm:
            return g
        if t in (ForallSO, ExistsSO) and g.var == vn and vm in free_variables(g.body)[1]:
            clean = False
            fresh = SOVar(max([*_so_indices(g.body), vm.index, vn.index]) + 1, g.var.arity)
            body, _ = _substitute_so_before(g.body, g.var, fresh)
            return t(fresh, _substitute_so_before(body, vm, vn)[0])
        return None

    return syntax.rewrite(f, step), clean


_SO_POOL = [X0, X1, SOVar(2, 1)]


def _so_formula(rng):
    """A random formula over _SO_POOL, joined to one relation identity or
    `inst` atom, which random_formula does not write."""
    from rsol.sampling import random_formula
    f = random_formula(rng, SIG, 4, [x0, x1], _SO_POOL)
    a, b = rng.choice(_SO_POOL), rng.choice(_SO_POOL)
    extra = rng.choice([SOEq(a, b), ForallSO(a, SOEq(a, b)),
                        InstAtom(a, random_formula(rng, SIG, 2, [x0, x1], _SO_POOL))])
    return And(f, extra) if rng.random() < 0.5 else And(extra, f)


def test_substitute_agrees_with_the_relation_substitution_before():
    # the same output and shared subtrees as the two-walk renaming, and
    # "fail" refuses exactly the substitutions where vn was not free for vm
    import random
    rng = random.Random("substitute/so-differential")
    unchanged = renamed = captured = 0
    for _ in range(3000):
        f = _so_formula(rng)
        vm, vn = rng.sample(_SO_POOL, 2)
        f = normalize(f) if rng.random() < 0.5 else f
        want, clean = _substitute_so_before(f, vm, vn)
        got = substitute(f, {vm: vn})
        assert got == want and (got is f) == (want is f), (f, vm, vn)
        unchanged += got is f
        renamed += max(_so_indices(got), default=-1) > 2
        if clean:
            assert substitute(f, {vm: vn}, "fail") == want
        else:
            captured += 1
            with pytest.raises(CaptureError):
                substitute(f, {vm: vn}, "fail")
    assert unchanged > 300 and renamed > 100 and captured > 100


def test_a_mixed_substitution_is_its_two_halves_in_turn():
    # when no value mentions a key, terms for x-keys and relation variables
    # for X-keys at once are the first-order half, then the relation half
    import random
    rng = random.Random("substitute/mixed")
    terms = [Var(x0), Var(x1), Var(x2), Const("c0"), Func("f0", (Var(x1),))]
    captured = 0
    for _ in range(3000):
        f = _so_formula(rng)
        fo = {v: rng.choice(terms) for v in rng.sample([x0, x1], rng.randint(1, 2))}
        so = dict([rng.sample(_SO_POOL, 2)])
        if any(k in syntax.term_fo_vars(t) for k in fo for t in fo.values()) \
                or set(so) & set(so.values()):
            continue
        both = {**fo, **so}
        assert substitute(f, both) == substitute(substitute(f, fo), so), (f, both)
        try:
            want = substitute(substitute(f, fo, "fail"), so, "fail")
        except CaptureError:
            captured += 1
            with pytest.raises(CaptureError):
                substitute(f, both, "fail")
        else:
            assert substitute(f, both, "fail") == want
    assert captured > 100


def _normalize_before(f, memo=None):
    """normalize as it was written before, with a rebuild loop of its own."""
    stack = [f]
    while stack:
        g = stack.pop()
        t = type(g)
        if t is Not or t is ForallFO or t is ForallSO or t is InstAtom:
            stack.append(g.body)
        elif t is And:
            stack += (g.right, g.left)
        elif t not in (PredApp, TermEq, SOApp, SOEq):
            break
    else:
        return f
    stack, out = [f], []
    while stack:
        g = stack.pop()
        t = type(g)
        if t is tuple:
            g, b = g[0], out.pop()
            t = type(g)
            if t in (And, Or, Implies, Iff):
                a = out.pop()
                if t is And:
                    r = g if a is g.left and b is g.right else And(a, b)
                elif t is Iff:
                    r = And(Not(And(a, Not(b))), Not(And(b, Not(a))))
                else:
                    r = Not(And(Not(a) if t is Or else a, Not(b)))
            elif t is ExistsFO or t is ExistsSO:
                r = Not((ForallFO if t is ExistsFO else ForallSO)(g.var, Not(b)))
            else:
                r = g if b is g.body else Not(b) if t is Not else t(g.var, b)
        elif memo is not None and id(g) in memo:
            r = memo[id(g)][1]
        elif t in (PredApp, TermEq, SOApp, SOEq):
            r = g
        else:
            stack.append((g,))
            stack += (g.right, g.left) if t in (And, Or, Implies, Iff) else (g.body,)
            continue
        if memo is not None:
            memo[id(g)] = (g, r)
        out.append(r)
    return out[0]


def test_normalize_agrees_with_its_own_loop_before():
    # the same normal forms and shared subtrees, alone and with memos kept
    # across calls; a node object met twice gives one result object
    import random
    from rsol.sampling import random_formula
    rng = random.Random("normalize/differential")
    memo, memo_before = {}, {}
    normal = twice = 0
    for _ in range(3000):
        f = random_formula(rng, SIG, 4, [x0, x1, x2], [X0, X1])
        if rng.random() < 0.3:
            f = rng.choice([Or, Iff, And])(f, f)
        want = _normalize_before(f)
        got = normalize(f)
        assert got == want and (got is f) == (want is f), f
        assert normalize(got) is got
        normal += got is f
        got_memo = normalize(f, memo)
        assert got_memo == _normalize_before(f, memo_before) == want
        assert normalize(f, memo) is got_memo
        if type(f) is Or and f.left is f.right and got_memo is not f:
            twice += 1
            assert got_memo.body.left.body is got_memo.body.right.body
    assert memo.keys() == memo_before.keys()
    assert all(memo[k][1] == memo_before[k][1] for k in memo)
    assert normal > 300 and twice > 100


def _tree_size(f):
    """The nodes of f counted as a tree: a subtree two parents share counts twice."""
    size, stack = 0, [f]
    while stack:
        g = stack.pop()
        size += 1
        stack.extend(syntax.children(g))
    return size


def test_normal_size_counts_the_normal_form_without_building_it():
    import random
    from rsol.sampling import random_formula
    rng = random.Random("normal_size")
    with_iff = 0
    for _ in range(2000):
        f = random_formula(rng, SIG, 4, [x0, x1], [X0])
        assert syntax._normal_size(f) == _tree_size(normalize(f)), f
        with_iff += any(type(g) is Iff for g in syntax.nodes(f))
    assert with_iff > 200
    for n in range(1, 12):
        chain = parse(" <-> ".join(["P0(c0)"] * n), SIG)
        assert syntax._normal_size(chain) == _tree_size(normalize(chain)) \
            == 10 * 2 ** (n - 1) - 9


def test_parse_refuses_a_biconditional_whose_normal_form_passes_the_bound():
    # 17 operands: 655,351 nodes; 18: 1,310,711
    assert syntax._normal_size(parse(" <-> ".join(["P0(c0)"] * 17), SIG)) \
        == 655_351 <= syntax.MAX_NORMAL_NODES
    for text in (" <-> ".join(["P0(c0)"] * 18), " ↔ ".join(["P0(c0)"] * 25)):
        with pytest.raises(ParseError, match="normal form has more than 1048576 nodes"):
            parse(text, SIG)


# ---------------------------------------------------------------------------
# Nodes that keep their hash and a normal mark
# ---------------------------------------------------------------------------

def _deep_chain(leaf, levels=5000):
    """leaf under `levels` levels that cycle through ~, _ & P0(c0) and forall
    x0, every node built here, so two calls share no object but the variables."""
    f = leaf
    for k in range(levels):
        f = (Not(f) if k % 3 == 0 else And(f, PredApp("P0", (Const("c0"),))) if k % 3 == 1
             else ForallFO(x0, f))
    return f


def test_hashing_and_equality_take_no_recursion(shallow_stack):
    a = _deep_chain(PredApp("P1", (Var(x0), Var(x1))))
    b = _deep_chain(PredApp("P1", (Var(x0), Var(x1))))
    c = _deep_chain(PredApp("P1", (Var(x1), Var(x0))))
    with shallow_stack(100):
        # first with no hash stored, so equality walks to the bottom
        assert a == b and not a == c and a != c
        assert hash(a) == hash(b)
        hash(c)
        assert a == b and not a == c and b != c


_FIELDS = {
    PredApp: ["name", "args"], TermEq: ["left", "right"], SOApp: ["var", "args"],
    SOEq: ["left", "right"], Not: ["body"], And: ["left", "right"],
    Or: ["left", "right"], Implies: ["left", "right"], Iff: ["left", "right"],
    ForallFO: ["var", "body"], ExistsFO: ["var", "body"], ForallSO: ["var", "body"],
    ExistsSO: ["var", "body"], InstAtom: ["var", "body"],
}


@pytest.mark.parametrize("f", ONE_OF_EACH, ids=lambda f: type(f).__name__)
def test_the_caches_stay_out_of_a_nodes_fields(f):
    import dataclasses
    import weakref
    cls = type(f)
    assert [field.name for field in dataclasses.fields(cls)] == _FIELDS[cls]
    assert set(_FIELDS) == set(syntax.SUBFORMULAS)
    normalize(f)
    hash(f)
    assert weakref.ref(f)() is f
    shallow, deep = copy.copy(f), copy.deepcopy(f)
    assert shallow == f and deep == f and hash(deep) == hash(f)
    assert type(deep) is cls and deep is not f
    assert dataclasses.replace(f) == f and hash(dataclasses.replace(f)) == hash(f)


def test_equal_random_formulas_hash_alike():
    import random
    from rsol.sampling import random_formula
    rng = random.Random("hash/equal")
    groups: dict = {}
    for _ in range(2000):
        f = random_formula(rng, SIG, rng.randint(0, 2), [x0], [X0])
        groups.setdefault(repr(f), []).append(f)
    repeated = [g for g in groups.values() if len(g) > 1]
    assert len(repeated) > 50
    for g in repeated:
        assert len({hash(f) for f in g}) == 1 and all(f == g[0] for f in g)
    firsts = [g[0] for g in groups.values()]
    assert all(f != h for f, h in zip(firsts, firsts[1:]))


_SUGAR = (Or, Implies, Iff, ExistsFO, ExistsSO)


def test_normalize_with_and_without_marks_agrees():
    import random
    from rsol.sampling import random_formula
    rng = random.Random("normalize/marks")
    sugared = 0
    for _ in range(1500):
        raw = random_formula(rng, SIG, 4, [x0, x1], [X0, X1])
        for f in (raw, normalize(copy.deepcopy(raw))):
            fresh = copy.deepcopy(f)          # before f's first normalize: no marks
            n = normalize(f)
            assert normalize(n) is n and normalize(n) is n
            assert normalize(fresh) == n == normalize(f)
            if n is f:
                assert normalize(fresh) is fresh
            # a node with sugar is never marked, though all its parts may be
            assert not any(g._normal for g in syntax.nodes(f) if type(g) in _SUGAR)
            assert all(g._normal for g in syntax.nodes(n) if syntax.children(g))
        sugared += normalize(raw) is not raw
    assert sugared > 500


@pytest.mark.parametrize("t", _SUGAR, ids=lambda t: t.__name__)
def test_a_node_with_sugar_over_marked_parts_stays_unmarked(t):
    parts = [Not(_P), And(_P, _Q)]
    for part in parts:
        assert normalize(part) is part and part._normal
    f = t(*parts) if t in (Or, Implies, Iff) else t(x0 if t is ExistsFO else X0, parts[0])
    n = normalize(f)
    assert n is not f and not f._normal
    assert normalize(f) is not f and not f._normal
    assert normalize(n) is n and n._normal
