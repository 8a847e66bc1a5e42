import functools
import hashlib
import itertools
import random
import tracemalloc

import pytest

from rsol.boolean import (
    AlgebraError, BoundRefuted, BudgetExhausted, FiniteCofiniteAlgebra,
    Membership, PowersetAlgebra, PrincipalCofiniteMembership, RegularEntry,
    check_f_compatible, check_ultrafilter_on_samples, builtin_algebras,
    fincof_atoms_entry, free_algebra, is_ultrafilter, powerset_algebra,
    powerset_full_family, rs_construct, verify_entry,
)
from rsol.formulas import Signature
from rsol.structures import FiniteStructure, truth_algebra


def sample_triples(alg, rng, count=60):
    els = alg.elements()
    return [(rng.choice(els), rng.choice(els), rng.choice(els)) for _ in range(count)]


def assert_laws(alg, triples):
    """Absorption, distributivity and complementation on samples."""
    meet, join, comp = alg.meet, alg.join, alg.complement
    for a, b, c in triples:
        assert meet(a, join(a, b)) == a
        assert join(a, meet(a, b)) == a
        assert meet(a, join(b, c)) == join(meet(a, b), meet(a, c))
        assert join(a, meet(b, c)) == meet(join(a, b), join(a, c))
        assert join(a, comp(a)) == alg.one
        assert meet(a, comp(a)) == alg.zero


def test_builtin_laws_on_samples():
    rng = random.Random(0)
    for alg in (powerset_algebra(3), free_algebra(2)):
        assert_laws(alg, sample_triples(alg, rng))
    fincof = FiniteCofiniteAlgebra()
    els = list(itertools.islice(fincof.enumerate_elements(), 24))
    assert_laws(fincof, [(rng.choice(els), rng.choice(els), rng.choice(els))
                         for _ in range(60)])


def test_free_two_has_sixteen_classes():
    alg = free_algebra(2)
    # independent count: distinct truth tables of two-variable functions
    tables = set()
    for fn in itertools.product([0, 1], repeat=4):
        tables.add(fn)
    assert len(alg.elements()) == len(tables) == 16
    a, b = alg.generator(0), alg.generator(1)
    reachable = {alg.zero, alg.one, a, b}
    for _ in range(4):
        new = set(reachable)
        for x in reachable:
            new.add(alg.complement(x))
            for y in reachable:
                new.add(alg.meet(x, y))
                new.add(alg.join(x, y))
        reachable = new
    assert reachable == set(alg.elements())


def test_powerset_basics():
    alg = powerset_algebra(3)
    assert len(alg.elements()) == 8
    atoms = [e for e in alg.elements() if len(e) == 1]
    assert len(atoms) == 3
    with pytest.raises(AlgebraError):
        powerset_algebra(9)


def test_powerset_le_is_the_meet_order():
    alg = powerset_algebra(3)
    for a, b in itertools.product(alg.elements(), repeat=2):
        assert alg.le(a, b) == (alg.meet(a, b) == a)


def test_fincof_closure():
    alg = FiniteCofiniteAlgebra()
    f12 = alg.fin([1, 2])
    assert alg.complement(f12) == alg.cof([1, 2])
    c1 = alg.cof([1])
    c2 = alg.cof([2])
    assert alg.meet(c1, c2) == alg.cof([1, 2])
    assert alg.join(alg.fin([0]), alg.fin([3])) == alg.fin([0, 3])
    assert alg.le(alg.fin([4]), alg.cof([1]))


def test_fincof_enumeration_is_fair_and_injective():
    alg = FiniteCofiniteAlgebra()
    els = list(itertools.islice(alg.enumerate_elements(), 40))
    assert len(set(els)) == 40
    assert alg.zero in els and alg.one in els
    assert alg.fin([0]) in els and alg.cof([0]) in els


def test_is_ultrafilter_principal():
    alg = powerset_algebra(3)
    u = [e for e in alg.elements() if 0 in e]
    assert is_ultrafilter(alg, u)


def test_is_ultrafilter_rejects_everything():
    alg = powerset_algebra(3)
    assert not is_ultrafilter(alg, alg.elements())
    assert not is_ultrafilter(alg, [alg.one, frozenset([0]), frozenset([1])])


@pytest.mark.parametrize("alg", [powerset_algebra(3), free_algebra(1)],
                         ids=["powerset3", "free1"])
def test_is_ultrafilter_exactly_the_principal_filters_at_atoms(alg):
    els = alg.elements()
    atoms = [a for a in els if a != alg.zero
             and not any(b != alg.zero and b != a and alg.meet(a, b) == b
                         for b in els)]
    principal = {frozenset(e for e in els if alg.meet(a, e) == a) for a in atoms}
    found = {frozenset(u) for r in range(len(els) + 1)
             for u in itertools.combinations(els, r) if is_ultrafilter(alg, u)}
    assert len(principal) == len(atoms) > 0
    assert found == principal


@pytest.mark.parametrize("u, samples", [
    ([], []),                                            # unit missing
    (list(powerset_algebra(3).elements()), []),          # zero present
    ([{0, 1, 2}], [{0}]),                                # neither {0} nor {1, 2}
    ([{0, 1, 2}, {0, 1}, {1, 2}], [{0, 1}, {1, 2}]),     # meet {1} missing
    ([{0, 1, 2}, {0}, {2}], [{0}, {0, 1}]),              # {0, 1} above {0} missing
], ids=["unit", "zero", "complement", "meet", "upward"])
def test_each_ultrafilter_clause_rejects_alone(u, samples):
    # on the full carrier the clauses imply one another; each of these
    # samples breaks exactly one of them
    alg = powerset_algebra(3)
    member = set(map(frozenset, u)).__contains__
    assert not check_ultrafilter_on_samples(alg, member, map(frozenset, samples))


def test_cofinite_filter_on_samples():
    alg = FiniteCofiniteAlgebra()
    member = PrincipalCofiniteMembership(alg)
    samples = list(itertools.islice(alg.enumerate_elements(), 30))
    assert check_ultrafilter_on_samples(alg, member, samples)


def test_verify_entry_exact():
    alg = powerset_algebra(2)
    e = RegularEntry("join", frozenset([0, 1]),
                     members=(frozenset([0]), frozenset([1])), name="pair")
    assert verify_entry(alg, e).status == "exact"


def test_verify_entry_prefix_for_atoms():
    alg = FiniteCofiniteAlgebra()
    entry = fincof_atoms_entry(alg)
    v = verify_entry(alg, entry, prefix=10)
    assert v.status == "prefix" and v.checked == 10


def test_verify_entry_violation():
    alg = powerset_algebra(2)
    e = RegularEntry("join", frozenset([0]),
                     members=(frozenset([0]), frozenset([1])), name="bad")
    v = verify_entry(alg, e)
    assert v.status == "violation" and v.violation_index == 1


def test_check_f_compatible_powerset_principal():
    alg = powerset_algebra(3)
    member = Membership(alg, frozenset([0]))
    singles = RegularEntry("join", alg.one,
                           members=tuple(frozenset([i]) for i in range(3)),
                           name="singletons")
    v = check_f_compatible(alg, member, singles)
    assert v.status == "true" and v.witness == frozenset([0])


def test_check_f_compatible_meet_zero_inspections():
    alg = powerset_algebra(3)
    member = Membership(alg, frozenset([0]))
    e = RegularEntry("meet", frozenset([0]),
                     members=(frozenset([0, 1]), frozenset([0, 2])), name="m")
    v = check_f_compatible(alg, member, e)
    assert v.status == "true" and v.inspected == 0


def test_check_f_compatible_cofinite_vs_atoms_definitive_false():
    alg = FiniteCofiniteAlgebra()
    member = PrincipalCofiniteMembership(alg)
    entry = fincof_atoms_entry(alg)
    v = check_f_compatible(alg, member, entry, budget=50)
    assert v.status == "false"


def test_check_f_compatible_budget_inconclusive_without_certificate():
    alg = FiniteCofiniteAlgebra()

    def member(x):  # bare procedure: no structural certificate attached
        return not alg.is_finite_element(x)

    v = check_f_compatible(alg, member, fincof_atoms_entry(alg), budget=50)
    assert v.status == "inconclusive"


def test_check_f_compatible_join_no_member_in_filter():
    alg = powerset_algebra(3)
    e = RegularEntry("join", frozenset([0, 1]),
                     members=(frozenset([0]), frozenset([1])), name="j")
    v = check_f_compatible(alg, Membership(alg, frozenset([0, 1])), e)
    assert (v.status, v.reason, v.inspected) == (
        "false", "bound in filter, no member is", 2)


def test_check_f_compatible_join_members_provably_out():
    alg = FiniteCofiniteAlgebra()
    v = check_f_compatible(alg, PrincipalCofiniteMembership(alg),
                           fincof_atoms_entry(alg), budget=50)
    assert (v.status, v.reason, v.inspected) == (
        "false", "bound in filter, members provably out", 50)


def test_check_f_compatible_join_member_in_filter_bound_not():
    # not a filter: the membership is handed in, and the checker must
    # catch a member inside while the join above it is outside
    alg = powerset_algebra(3)
    e = RegularEntry("join", frozenset([0, 1]),
                     members=(frozenset([0]), frozenset([1])), name="j")
    v = check_f_compatible(alg, {frozenset([1])}.__contains__, e)
    assert (v.status, v.reason, v.inspected) == (
        "false", "member in filter forces the join in", 2)
    assert v.witness == frozenset([1])


def test_check_f_compatible_meet_all_members_in_filter():
    # every member lies in the filter at {0, 1}, their meet {0} does not
    alg = powerset_algebra(3)
    e = RegularEntry("meet", frozenset([0]),
                     members=(frozenset([0, 1]), frozenset([0, 1, 2])), name="m")
    v = check_f_compatible(alg, Membership(alg, frozenset([0, 1])), e)
    assert (v.status, v.reason, v.inspected) == (
        "false", "all members in filter, meet is not", 2)


def test_check_f_compatible_meet_over_budget():
    # the cofinite sets above the atoms' complements all lie in the
    # cofinite filter, and their meet, zero, does not
    alg = FiniteCofiniteAlgebra()
    atoms = fincof_atoms_entry(alg)
    e = RegularEntry("meet", alg.zero, name="co-atoms", enumerator=lambda: (
        alg.complement(a) for a in atoms.enumerator()))
    v = check_f_compatible(alg, PrincipalCofiniteMembership(alg), e, budget=50)
    assert (v.status, v.reason, v.inspected) == ("inconclusive", "budget", 50)


def test_rs_construct_powerset_complete_family():
    alg = powerset_algebra(3)
    entries = powerset_full_family(alg)
    assert len(entries) == 512
    for avoid in alg.elements():
        if avoid == alg.one:
            continue
        approx = rs_construct(alg, entries, avoid)
        u = [e for e in alg.elements() if approx.membership(e)]
        assert is_ultrafilter(alg, u)
        assert approx.excludes(avoid)
        assert len(approx.final) == 1  # principal
        for entry in entries:
            assert check_f_compatible(alg, approx.membership, entry).status == "true"


def test_rs_construct_chain_invariants():
    alg = powerset_algebra(3)
    entries = powerset_full_family(alg)
    approx = rs_construct(alg, entries, frozenset([2]))
    prev = None
    for b in approx.chain:
        assert b != alg.zero
        if prev is not None:
            assert alg.le(b, prev)
        prev = b


def test_rs_construct_fincof_atoms_principal():
    alg = FiniteCofiniteAlgebra()
    entry = fincof_atoms_entry(alg)
    approx = rs_construct(alg, [entry], alg.zero, decide_steps=50)
    assert alg.is_finite_element(approx.final) and len(approx.final[1]) == 1
    v = check_f_compatible(alg, approx.membership, entry, budget=50)
    assert v.status == "true"
    # contrast: the cofinite ultrafilter is definitively incompatible
    bad = check_f_compatible(alg, PrincipalCofiniteMembership(alg), entry, budget=50)
    assert bad.status == "false"


def test_rs_construct_avoid_unit_rejected():
    alg = powerset_algebra(3)
    with pytest.raises(AlgebraError):
        rs_construct(alg, [], alg.one)


def test_rs_construct_budget_and_refutation_errors():
    alg = FiniteCofiniteAlgebra()

    def empties():
        return iter(())

    starving = RegularEntry("join", alg.one, enumerator=lambda: (
        alg.atom(n) for n in itertools.count()), name="atoms")
    # avoid 0 makes b = 1 <= bound, so a witness is required; with a tiny
    # budget the search gives up
    with pytest.raises(BudgetExhausted):
        rs_construct(alg, [RegularEntry("join", alg.one, enumerator=lambda: (
            alg.meet(alg.zero, alg.zero) for _ in itertools.count()),
            name="zeros")], alg.zero, witness_budget=5)
    # chain starts at fin{0}, which misses the only claimed member fin{1},
    # so the designated join of "short" cannot be the unit
    wrong = RegularEntry("join", alg.one, members=(alg.fin([1]),), name="short")
    with pytest.raises(BoundRefuted):
        rs_construct(alg, [wrong], alg.cof([0]))
    del starving, empties


def test_join_distributes_over_chain_exhaustively():
    """Whenever an element sits under a join, it overlaps some member."""
    alg = powerset_algebra(3)
    elements = alg.elements()
    for members in itertools.chain.from_iterable(
            itertools.combinations(elements, r) for r in range(1, 4)):
        bound = alg.join_all(members)
        for b in elements:
            if b == alg.zero or alg.meet(b, bound) != b:
                continue
            assert any(alg.meet(b, s) != alg.zero for s in members)


def test_rs_construct_principal_on_larger_powersets():
    for n in (4, 5):
        alg = powerset_algebra(n)
        atoms_entry = RegularEntry(
            "join", alg.one,
            members=tuple(frozenset([i]) for i in range(n)), name="atoms")
        for avoid in alg.elements():
            if avoid == alg.one:
                continue
            approx = rs_construct(alg, [atoms_entry], avoid)
            assert len(approx.final) == 1
            assert approx.excludes(avoid)


def test_rs_construct_on_a_carrier_too_large_to_list():
    alg = PowersetAlgebra(range(21))
    with pytest.raises(AlgebraError):
        alg.elements()
    atoms = RegularEntry("join", alg.one,
                         members=tuple(frozenset([i]) for i in range(21)),
                         name="atoms")
    avoid = frozenset(range(1, 21))
    approx = rs_construct(alg, [atoms], avoid)
    assert approx.excludes(avoid)
    assert approx.final == frozenset([0])
    assert [step.action for step in approx.steps] == ["witness"]


def test_rs_construct_witness_dichotomy():
    alg = powerset_algebra(3)
    entries = powerset_full_family(alg)
    approx = rs_construct(alg, entries, frozenset([1, 2]))
    by_name = {e.name: e for e in entries}
    # dichotomy: for joins, afterwards b <= complement(bound) or b <= witness;
    # for meets, b <= bound or b <= complement(witness)
    for step in approx.steps:
        if step.action == "bound-side":
            assert alg.le(approx.final, step.element)
        elif step.action == "witness":
            entry = by_name[step.entry_name]
            assert any(step.element == m for m in entry.members)
            if entry.kind == "join":
                assert alg.le(approx.final, step.element)
            else:
                assert alg.le(approx.final, alg.complement(step.element))


@functools.lru_cache(maxsize=None)
def _plain(x):
    """x with each frozenset as a sorted list, so its repr is fixed."""
    if isinstance(x, frozenset):
        return sorted(x)
    if isinstance(x, tuple):
        return [_plain(y) for y in x]
    return x


def _pairs_family(alg):
    """Every pair of elements as a join and a meet entry."""
    return [RegularEntry(kind, (alg.join if kind == "join" else alg.meet)(a, b),
                         members=(a, b), name=f"{kind}{i}")
            for i, (a, b) in enumerate(itertools.combinations(alg.elements(), 2))
            for kind in ("join", "meet")]


def _rs_case(name):
    """(algebra, entries, avoided elements, decide_steps) of one chain test."""
    if name == "fincof":
        alg = FiniteCofiniteAlgebra()
        return alg, [fincof_atoms_entry(alg)], [alg.zero, alg.fin([0, 2])], 50
    if name == "free:2":
        alg = free_algebra(2)
        return alg, _pairs_family(alg), [alg.zero, alg.generator(0)], None
    alg = powerset_algebra(int(name[-1]))
    avoids = ([e for e in alg.elements() if e != alg.one] if name == "powerset:3"
              else [frozenset(), frozenset({1, 3})])
    return alg, powerset_full_family(alg), avoids, None


@pytest.mark.parametrize("name, want", [
    ("powerset:3", "26bc8bb1f4a95bfb43d41ac6199fa141e92730eb1bd410feb8e56c5977ee6cec"),
    ("powerset:4", "902b6b2e3e54eec4a5821b93f5613b82e51774ef39c42c9805b8372b43c512c1"),
    ("free:2", "f8860388e41b33f670877544114959f344cc0a5f4c04b3c46e1f08f7e28eb50f"),
    ("fincof", "2142cd990f528cfd691a0ca59faad7c116034739ab34d2aca42506f5de542541"),
], ids=["powerset:3", "powerset:4", "free:2", "fincof"])
def test_rs_construct_keeps_its_output_and_one_object_per_chain_value(name, want):
    # the chain, steps, decisions and final element, as digested from a
    # construction that made a new chain element at every step; a step that
    # keeps the value keeps the object, so no two distinct chain objects are equal
    alg, entries, avoids, steps = _rs_case(name)
    h = hashlib.sha256()
    for avoid in avoids:
        approx = rs_construct(alg, entries, avoid, decide_steps=steps)
        h.update(repr((
            [_plain(b) for b in approx.chain],
            [(s.entry_name, s.action, _plain(s.element), s.value)
             for s in approx.steps],
            [(_plain(s.element), s.value) for s in approx.steps if s.action == "decide"],
            _plain(approx.final))).encode())
        assert len({id(b) for b in approx.chain}) == len(set(approx.chain)), avoid
    assert h.hexdigest() == want


def _compat_runs(name):
    """(algebra, membership, budget, entries) of one compatibility digest: each
    chain's membership over the case's entries; on the small finite cases
    also random sets of elements, which are no filters, so that every
    refuting verdict occurs; on fincof also the cofinite filter at budget
    50, over entries that can and cannot rule out their members."""
    alg, entries, avoids, steps = _rs_case(name)
    for avoid in avoids:
        yield (alg, rs_construct(alg, entries, avoid, decide_steps=steps).membership,
               10_000, entries)
    if name in ("powerset:3", "free:2"):
        rng = random.Random(0)
        elements = alg.elements()
        for _ in range(8):
            sample = set(rng.sample(elements, len(elements) // 2))
            yield alg, sample.__contains__, 10_000, entries
    if name == "fincof":
        atoms = entries[0]
        yield alg, PrincipalCofiniteMembership(alg), 50, [
            atoms,
            RegularEntry("join", alg.one, enumerator=atoms.enumerator, name="bare"),
            RegularEntry("meet", alg.zero, name="co-atoms", enumerator=lambda: (
                alg.complement(a) for a in atoms.enumerator()))]


@pytest.mark.parametrize("name, want", [
    ("powerset:3", "f9dc197422048d6f77bde1ff18489553e473c8b9c819b113c219a2c43f3db206"),
    ("powerset:4", "99dee0bb9a63ecedfb965375d89abd10543109d47728c215602725480f571d98"),
    ("free:2", "bd7d4b179b54cbd7c7b9713ee289c9c1c2a867edf438956af0de56744dd413d1"),
    ("fincof", "a13f47c944a56dd8939c7b425ff6533a26e404e45b67d4df64c325d3b76d771f"),
], ids=["powerset:3", "powerset:4", "free:2", "fincof"])
def test_check_f_compatible_keeps_every_verdict(name, want):
    # status, inspected count, witness and reason of every verdict, as
    # digested from a check that decided each member by a Python scan
    h = hashlib.sha256()
    for alg, member, budget, entries in _compat_runs(name):
        for e in entries:
            v = check_f_compatible(alg, member, e, budget=budget)
            h.update(repr((v.status, v.inspected, _plain(v.witness), v.reason)).encode())
    assert h.hexdigest() == want


def _refusal_by_meets(alg, entries, avoid, decide_steps, witness_budget):
    """The error and entry name at which a chain that tests each entry by a
    meet compared with zero stops, or None if it decides every entry."""
    b = alg.complement(avoid)
    carrier = iter(alg.elements()[:decide_steps])
    for entry in entries:
        up = entry.kind == "join"
        low = alg.meet(b, alg.complement(entry.bound) if up else entry.bound)
        if low == alg.zero:
            for i, s in enumerate(entry.members):
                if i >= witness_budget:
                    return BudgetExhausted, entry.name
                low = alg.meet(b, s if up else alg.complement(s))
                if low != alg.zero:
                    break
            else:
                return BoundRefuted, entry.name
        b = low
        for e in carrier:
            low = alg.meet(b, e)
            b = low if low != alg.zero else alg.meet(b, alg.complement(e))
            break
    return None


def _verdict_by_meets(alg, entry):
    """verify_entry's (status, checked, violation_index) on a finite entry,
    with each order test made by a meet compared with zero."""
    up = entry.kind == "join"
    acc = alg.zero if up else alg.one
    for i, s in enumerate(entry.members):
        outside = (alg.meet(s, alg.complement(entry.bound)) if up
                   else alg.meet(entry.bound, alg.complement(s)))
        if outside != alg.zero:
            return "violation", i, i
        acc = alg.join(acc, s) if up else alg.meet(acc, s)
    return ("exact" if acc == entry.bound else "violation"), len(entry.members), None


@pytest.mark.parametrize("name", ["powerset:3", "free:2"])
def test_refusals_match_a_chain_decided_by_meets(name):
    # families with some bounds replaced at random: the chain must refuse on
    # the entry, and run out of budget at the budget, that a chain deciding
    # by meets does, and verify_entry must flag the same member
    alg, entries, _, _ = _rs_case(name)
    elements = alg.elements()
    rng = random.Random(0)
    seen = set()
    for _ in range(300):
        family = list(entries)
        for i in rng.sample(range(len(family)), rng.randint(1, 3)):
            e = family[i]
            family[i] = RegularEntry(e.kind, rng.choice(elements), members=e.members,
                                     name=e.name)
            v = verify_entry(alg, family[i])
            assert (v.status, v.checked, v.violation_index) == _verdict_by_meets(
                alg, family[i])
        avoid = rng.choice(elements[:-1])
        steps = rng.choice([0, 2, None])
        budget = rng.choice([1, 2, 10_000])
        want = _refusal_by_meets(alg, family, avoid,
                                 len(elements) if steps is None else steps, budget)
        try:
            rs_construct(alg, family, avoid, decide_steps=steps, witness_budget=budget)
            got = None
        except (BoundRefuted, BudgetExhausted) as exc:
            got = type(exc), exc.entry_name
        assert got == want, (avoid, steps, budget)
        seen.add(got[0] if got else None)
    assert seen == {None, BoundRefuted, BudgetExhausted}


@pytest.fixture(scope="module")
def traced_full_family():
    """powerset:4's full family and the bytes its construction leaves
    allocated."""
    alg = powerset_algebra(4)
    tracemalloc.start()
    try:
        entries = powerset_full_family(alg)
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return alg, entries, traced


def test_full_family_keeps_one_object_per_bound_value(traced_full_family):
    # 131,072 entries over 16 bound values
    alg, entries, traced = traced_full_family
    assert len(entries) == 131_072
    assert traced < 40_000_000, traced
    # the singleton members are the carrier's own objects, one per value
    carrier = {id(m) for e in entries for m in e.members}
    assert len(carrier) == 16
    assert all(id(e.bound) in carrier for e in entries)
    approx = rs_construct(alg, entries, frozenset({1, 3}))
    blockers = [s.element for s in approx.steps if s.action == "bound-side"]
    assert blockers and len({id(x) for x in blockers}) <= 16


def _membership_cases():
    """(algebra, finals, elements) on which a membership is compared."""
    fincof = FiniteCofiniteAlgebra()
    samples = list(itertools.islice(fincof.enumerate_elements(), 40))
    truth = truth_algebra(FiniteStructure(Signature(predicates={"P0": 1}), 2,
                                          predicates={"P0": [(0,)]}), 2).algebra
    cases = [(fincof, samples[:12], samples)]
    for alg in (powerset_algebra(3), free_algebra(2), truth):
        cases.append((alg, alg.elements(), alg.elements()))
    return cases


def test_membership_is_the_order_above_its_final_element():
    for alg, finals, xs in _membership_cases():
        for f in finals:
            member = Membership(alg, f)
            assert (member.alg, member.final) == (alg, f)
            assert [member(x) for x in xs] == [alg.le(f, x) for x in xs], (alg, f)


def _verdicts(alg, member, entries):
    return [(v.status, v.inspected, v.witness, v.reason) for v in (
        check_f_compatible(alg, member, e) for e in entries)]


def test_membership_gives_the_verdicts_of_a_python_predicate(traced_full_family):
    small = powerset_algebra(3)
    family = powerset_full_family(small)
    for final in small.elements():
        assert _verdicts(small, Membership(small, final), family) == _verdicts(
            small, lambda x: small.le(final, x), family), final
    alg, entries, _ = traced_full_family
    final = rs_construct(alg, entries, frozenset({1, 3})).final
    assert _verdicts(alg, Membership(alg, final), entries) == _verdicts(
        alg, lambda x: alg.le(final, x), entries)
