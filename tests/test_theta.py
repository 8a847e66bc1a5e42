import gc
import hashlib
import itertools
import weakref

import pytest

from rsol.cli import DEMO_SIG
from rsol.corpus import COLLAPSE_SIG
from rsol.formulas import (
    And, Const, ForallFO, FormulaError, FOVar, Not, PredApp, Signature, TermEq,
    Var, alpha_eq, alpha_key, format_formula, free_variables, normalize, parse,
)
from rsol.theta import (
    FormulaEnumerator, ThetaMember, _key, all_fo, classify_prefix, dsl,
    family_from_cli, in_prefix_class, load_family, prefix_family, weak_so,
)

SIG = Signature(predicates={"P0": 1}, constants=[])
SIG2 = Signature(predicates={"P0": 1, "P1": 2}, constants=["c0"])


def test_weak_so_member_two():
    fam = weak_so(SIG, 1)
    m = fam.member_at(2)
    assert m.formula == parse("x0 = x1 | x0 = x2 | x0 = x3", SIG)
    assert m.slots == (FOVar(0),)
    assert m.params == (FOVar(1), FOVar(2), FOVar(3))


def test_weak_so_enumerate_up_to():
    fam = weak_so(SIG, 1)
    got = fam.enumerate_up_to(1)
    assert [m.formula for m in got] == [parse("x0 = x1", SIG),
                                        parse("x0 = x1 | x0 = x2", SIG)]


def test_weak_so_needs_identity():
    with pytest.raises(FormulaError):
        weak_so(Signature(predicates={"P0": 1}, identity=False))


def test_weak_so_arity_two_shape():
    fam = weak_so(SIG, 2)
    m = fam.member_at(1)
    assert m.slots == (FOVar(0), FOVar(1))
    assert len(m.params) == 4
    assert m.formula == parse("x0 = x2 & x1 = x3 | x0 = x4 & x1 = x5", SIG)


def brute_force_smallest_single_free_var(sig):
    """Independent oracle: regenerate the size order with a fresh enumerator
    and scan for the first formula with exactly one free variable."""
    for f in FormulaEnumerator(sig):
        fo, _ = free_variables(f)
        if len(fo) == 1:
            return f
    raise AssertionError("unreachable")


def _struct_key(f):
    """Reference structural order, recomputed by a recursive walk: atoms,
    then negations, conjunctions and quantifiers, each by their parts."""
    if isinstance(f, PredApp):
        return (0, f.name, tuple(_term_key(t) for t in f.args))
    if isinstance(f, TermEq):
        return (1, _term_key(f.left), _term_key(f.right))
    if isinstance(f, Not):
        return (2, _struct_key(f.body))
    if isinstance(f, And):
        return (3, _struct_key(f.left), _struct_key(f.right))
    if isinstance(f, ForallFO):
        return (4, f.var.index, _struct_key(f.body))
    raise AssertionError(f"unexpected node {f!r}")


def _term_key(t):
    if isinstance(t, Var):
        return (0, t.var.index)
    if isinstance(t, Const):
        return (1, t.name)
    return (2, t.name, tuple(_term_key(a) for a in t.args))


@pytest.mark.parametrize("sig", [COLLAPSE_SIG, DEMO_SIG], ids=["collapse", "demo"])
def test_size_classes_follow_the_reference_order(sig):
    # each size class is its formulas sorted by the recursive key, and the
    # key and free variables stored with each formula are the ones a walk
    # over the formula gives (DEMO_SIG has a function symbol)
    enumerator = FormulaEnumerator(sig)
    for size in range(1, 7):
        triples = list(enumerator.size_class(size))
        formulas = [f for f, _, _ in triples]
        assert formulas == sorted(formulas, key=_struct_key)
        assert len(set(formulas)) == len(formulas)
        for f, key, fv in triples:
            assert key == _struct_key(f)
            assert fv == free_variables(f)[0]


@pytest.mark.parametrize("sig", [COLLAPSE_SIG, DEMO_SIG], ids=["collapse", "demo"])
def test_a_class_read_partway_is_continued(sig):
    # a class read partway and then read whole gives a fresh enumerator's
    # class, and the triples already read are kept, not built again; a cut
    # among the negations leaves the smaller class read partway too
    reference = FormulaEnumerator(sig)
    for size in range(1, 7):
        whole = list(reference.size_class(size))
        for cut in (1, len(whole) // 3, 2 * len(whole) // 3):
            enumerator = FormulaEnumerator(sig)
            reader = enumerator.size_class(size)
            read = list(itertools.islice(reader, cut))
            got = list(enumerator.size_class(size))
            assert got == whole
            assert all(a is b for a, b in zip(read, got))
            # a reader left partway goes on where it stopped
            assert read + list(reader) == whole
            if size > 1:
                smaller = {id(f) for f, _, _ in enumerator.size_class(size - 1)}
                assert all(id(f.body) in smaller for f, _, _ in got
                           if isinstance(f, (Not, ForallFO)))


def test_a_dropped_enumerator_is_freed_at_once():
    # the pending builders hold no reference back to the enumerator, so an
    # enumerator dropped with a class read partway is freed without the
    # cycle collector (whose garbage would wait for its next pass)
    enumerator = FormulaEnumerator(COLLAPSE_SIG)
    next(itertools.islice(enumerator.size_class(6), 2000, None))
    ref = weakref.ref(enumerator)
    gc.disable()
    try:
        del enumerator
        assert ref() is None
    finally:
        gc.enable()


def _member_key(m):
    """The key the enumerators dedupe members by: that of the normal form,
    with the member's slot/parameter split."""
    return _key(normalize(m.formula), m.slots, m.params)


def _old_member_key(m):
    """The member key by its definition: the alpha key of the formula under
    built binders for the slots, then the parameters."""
    f = m.formula
    for v in reversed(m.slots + m.params):
        f = ForallFO(v, f)
    return (len(m.slots), len(m.params), alpha_key(f))


@pytest.mark.parametrize("spec", ["dsl", "all-fo", "all-fo-noparams"])
def test_member_keys_keep_their_definition(spec):
    for m in family_from_cli(spec, COLLAPSE_SIG).enumerate_up_to(299):
        assert _member_key(m) == _old_member_key(m)


def test_member_keys_of_sugared_file_members(tmp_path):
    p = tmp_path / "sugar.txt"
    p.write_text("x0 ; x1 ; x0 = x1 | P0(x1)\n"
                 "x1 ; x0 ; P0(x0) -> exists x2 (x2 = x1 & P0(x2))\n"
                 "x0 x1 ; ; P0(x0) <-> ~P0(x1)\n"
                 "x0 ; ; exists x1 (x0 = x1 | ~(P0(x1) -> P0(x0)))\n",
                 encoding="utf-8")
    fam = load_family(str(p), SIG)
    for m in fam.enumerate_up_to(3):
        assert _member_key(m) == _old_member_key(m)
    # sugar and its normal form share a key
    assert _member_key(fam.member_at(0)) == _member_key(ThetaMember(
        0, parse("~(~x0 = x1 & ~P0(x1))", SIG), (FOVar(0),), (FOVar(1),)))


def test_dsl_first_member_matches_bruteforce():
    fam = dsl(SIG)
    expected = brute_force_smallest_single_free_var(SIG)
    assert fam.member_at(0).formula == expected
    # frozen value: the smallest one-free-variable formula over {P0} is the atom
    assert expected == PredApp("P0", (Var(FOVar(0)),))


def test_dsl_members_have_no_parameters():
    fam = dsl(SIG)
    for m in fam.enumerate_up_to(5):
        assert m.params == ()
        assert m.arity == 1
    keys = {_member_key(m) for m in fam.enumerate_up_to(5)}
    assert len(keys) == 6


def test_enumerators_injective_up_to_alpha():
    for fam in (weak_so(SIG, 1), dsl(SIG), all_fo(SIG)):
        keys = {_member_key(m) for m in fam.enumerate_up_to(50)}
        assert len(keys) == 51, fam.name


def test_theta_at_deterministic():
    fam = dsl(SIG)
    a = fam.member_at(7)
    b = fam.member_at(7)
    assert a is b
    fam2 = dsl(SIG)
    assert fam2.member_at(7).formula == a.formula


def test_all_fo_split_invariant():
    fam = all_fo(SIG2)
    for m in fam.enumerate_up_to(40):
        fo, so = free_variables(m.formula)
        assert not so
        assert fo == set(m.slots) | set(m.params)
        assert m.arity >= 1


def test_all_fo_contains_parameter_splits():
    fam = all_fo(SIG2)
    seen_param_split = False
    for m in fam.enumerate_up_to(80):
        if m.params:
            seen_param_split = True
            break
    assert seen_param_split


def test_all_fo_noparams():
    fam = all_fo(SIG2, parameters=False)
    for m in fam.enumerate_up_to(30):
        assert m.params == ()


def test_arity_member_view():
    fam = all_fo(SIG2)
    m0 = fam.arity_member(2, 0)
    assert m0.arity == 2
    m1 = fam.arity_member(1, 3)
    assert m1.arity == 1
    with pytest.raises(FormulaError):
        dsl(SIG).arity_member(2, 0)


def test_weak_so_member_is_built_alone(monkeypatch):
    # member n of weak-so is built without building members 0..n-1: only its
    # formula's left spine, whose left child is member n - 1's formula
    import rsol.theta as th
    built = []
    check = th.ThetaMember.__post_init__
    monkeypatch.setattr(th.ThetaMember, "__post_init__",
                        lambda m: built.append(m.index) or check(m))
    fam = weak_so(SIG, 1)
    assert fam.member_at(40).index == 40 and len(fam.member_at(40).params) == 41
    assert fam.arity_member(1, 40) is fam.member_at(40)
    assert built == [40]
    assert fam.member_at(40).formula.left is fam.member_at(39).formula


def test_weak_so_cardinality_property():
    """Member n defines, over any domain and parameters, a set of size 1..n+1."""
    fam = weak_so(SIG, 1)
    for n in range(3):
        m = fam.member_at(n)
        for size in (1, 2, 3, 4):
            for params in itertools.product(range(size), repeat=len(m.params)):
                value = {
                    d for d in range(size)
                    if eval_equality_disjunction(m, d, params)
                }
                assert 1 <= len(value) <= n + 1


def eval_equality_disjunction(member, d, params):
    env = {member.slots[0]: d}
    env.update(dict(zip(member.params, params)))

    def ev(f):
        if isinstance(f, TermEq):
            return env[f.left.var] == env[f.right.var]
        if isinstance(f, And):
            return ev(f.left) and ev(f.right)
        # Or is stored as sugar
        return ev(f.left) or ev(f.right)

    return ev(member.formula)


def test_classify_prefix_examples():
    f = parse("exists x0 forall x1 (P0(x0) & P0(x1))", SIG)
    assert classify_prefix(f) == ("exists", 2)
    g = parse("P0(x0) & P0(x1)", SIG)
    assert classify_prefix(g) == ("both", 0)
    h = parse("forall x0 exists x1 forall x2 (P1(x0, x1) & P0(x2))", SIG2)
    assert classify_prefix(h) == ("forall", 3)


def test_classify_prefix_through_negation():
    f = parse("~forall x0 ~P0(x0)", SIG)
    assert classify_prefix(f) == ("exists", 1)


def test_prefix_family_members_stay_in_class():
    fam = prefix_family(SIG2, "exists", 1)
    for m in fam.enumerate_up_to(15):
        assert in_prefix_class(m.formula, "exists", 1)


def test_member_invariants_enforced():
    with pytest.raises(FormulaError):
        ThetaMember(0, parse("P0(x0)", SIG), (FOVar(0), FOVar(1)), ())
    with pytest.raises(FormulaError, match="x0 appears twice"):
        ThetaMember(0, parse("P0(x0)", SIG), (FOVar(0),), (FOVar(0),))
    # a variable repeated within the slots, or within the parameters
    with pytest.raises(FormulaError, match="x0 appears twice"):
        ThetaMember(0, parse("x0 = x0", SIG), (FOVar(0), FOVar(0)), ())
    with pytest.raises(FormulaError, match="x1 appears twice"):
        ThetaMember(0, parse("x0 = x1", SIG), (FOVar(0),), (FOVar(1), FOVar(1)))


def test_load_family(tmp_path):
    p = tmp_path / "fam.txt"
    p.write_text("# custom\nx0 ; x1 ; x0 = x1\nx0 ; ; P0(x0)\n", encoding="utf-8")
    fam = load_family(str(p), SIG)
    assert fam.member_at(0).formula == parse("x0 = x1", SIG)
    assert fam.member_at(1).formula == parse("P0(x0)", SIG)
    # finite lists cycle so the enumerator stays total
    assert fam.member_at(2).formula == parse("x0 = x1", SIG)


def test_family_from_cli():
    assert family_from_cli("weak-so:2", SIG).name == "weak-so:2"
    assert family_from_cli("dsl", SIG).name == "dsl"
    assert family_from_cli("exists-n:2", SIG).name == "exists-n:2"
    with pytest.raises(FormulaError):
        family_from_cli("nope", SIG)


def member_sequence_digest(fam, count):
    """sha256 over the printed formula, slots and parameters of members
    0..count-1, in order."""
    h = hashlib.sha256()
    for m in fam.enumerate_up_to(count - 1):
        h.update(repr((format_formula(m.formula, unicode=False),
                       [v.index for v in m.slots],
                       [v.index for v in m.params])).encode("utf-8"))
    return h.hexdigest()


# frozen member sequences of the generated families: a change to the
# enumerator, the splits or the deduplication that reorders, drops or adds
# a member changes a digest (DEMO_SIG has a function symbol)
MEMBER_DIGESTS = {
    ("collapse", "dsl"):
        "c6bcd1cecc799fce81185a56e77754bae993f67a3d56a6d8a0dccd1038d66a6c",
    ("collapse", "all-fo"):
        "cd0c06c22e86686b40a19b854aeb74d0dbf1101e64dbe23d65941b7324c28929",
    ("collapse", "all-fo-noparams"):
        "829d67c6d82f69cf7a4ad5aa9d5ab66162d25562d8da324f5fc06df225345b4a",
    ("collapse", "exists-n:1"):
        "6a1527342ca710bc91905a849153d1fe3cefaf67059afda268d1c1fb3ee94b52",
    ("collapse", "forall-n:2"):
        "a79831a27881496bada0d93047b401aa0b7d230d132b17bf2d668f27c451bb74",
    ("demo", "dsl"):
        "4f25256cffaee28227f1c96182a6881da03bfd891829460b114ecf40026ec5f9",
    ("demo", "all-fo"):
        "5be0bd9660c6fa81b87b008927a8fe96baf58fbb1246088b61a5c487b04d680c",
    ("demo", "all-fo-noparams"):
        "785cdd3e1e065c101442618e99d86a43b72dff5ee6e6d489c9521947c8aaa9af",
    ("demo", "exists-n:1"):
        "83ee1d7533df9ba5b9b8e1062f0e0fc9c01067618ded7262e36d37bbef0c4fd2",
    ("demo", "forall-n:2"):
        "5be0bd9660c6fa81b87b008927a8fe96baf58fbb1246088b61a5c487b04d680c",
}


@pytest.mark.parametrize("sig_name, spec", sorted(MEMBER_DIGESTS))
def test_member_sequence_digest(sig_name, spec):
    sig = {"collapse": COLLAPSE_SIG, "demo": DEMO_SIG}[sig_name]
    got = member_sequence_digest(family_from_cli(spec, sig), 300)
    assert got == MEMBER_DIGESTS[sig_name, spec]


# deeper frozen sequences: dsl member 2000 lies inside class 8 (187,519
# formulas on COLLAPSE_SIG), which the enumerator reads only partway
DEEP_MEMBER_DIGESTS = {
    ("dsl", 2001):
        "3a6e07c8e80ab1a201278a004f4f47451d360f5d066ad94ff5a8a08738690c65",
    ("all-fo", 3001):
        "72e1639790af41b031dea11f499fd131b9f4f2f96893d3abea77040e73ef2600",
}


@pytest.mark.parametrize("spec, count", sorted(DEEP_MEMBER_DIGESTS))
def test_deep_member_sequence_digest(spec, count):
    got = member_sequence_digest(family_from_cli(spec, COLLAPSE_SIG), count)
    assert got == DEEP_MEMBER_DIGESTS[spec, count]
