"""Presented Boolean algebras, regular families, compatible ultrafilters.

The carriers are desk-scale: powersets, free algebras with truth-table
equality, and the finite-cofinite algebra over the naturals.  The chain
construction in `rs_construct` produces an ultrafilter approximation that
respects every designated join and meet of a regular family while
avoiding a chosen non-unit element.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional


class AlgebraError(ValueError):
    pass


class BudgetExhausted(AlgebraError):
    def __init__(self, entry_name: str):
        super().__init__(f"enumeration budget exhausted for entry {entry_name!r}")
        self.entry_name = entry_name


class BoundRefuted(AlgebraError):
    def __init__(self, entry_name: str):
        super().__init__(f"claimed bound refuted for entry {entry_name!r}")
        self.entry_name = entry_name


class BooleanAlgebra:
    """Operations on canonical elements, so that `==` is the algebra's
    equality; subclasses fix the element type."""

    zero = None
    one = None

    def meet(self, a, b):
        raise NotImplementedError

    def join(self, a, b):
        raise NotImplementedError

    def complement(self, a):
        raise NotImplementedError

    def le(self, a, b) -> bool:
        return self.meet(a, b) == a

    def elements(self) -> Optional[list]:
        """Full carrier for finite algebras, None otherwise."""
        return None

    def meet_all(self, items):
        out = self.one
        for a in items:
            out = self.meet(out, a)
        return out

    def join_all(self, items):
        out = self.zero
        for a in items:
            out = self.join(out, a)
        return out


class PowersetAlgebra(BooleanAlgebra):
    """Subsets of a finite atom set, as frozensets.  Each operation is the
    frozenset operator itself, one C call without a Python frame."""

    MAX_ATOMS_ENUMERATED = 20
    meet, join, le = operator.and_, operator.or_, operator.le

    def __init__(self, atoms: Iterable):
        self.atoms = tuple(atoms)
        if len(set(self.atoms)) != len(self.atoms):
            raise AlgebraError("duplicate atoms")
        self.zero = frozenset()
        self.one = frozenset(self.atoms)
        self.complement = self.one.__sub__

    def elements(self):
        if len(self.atoms) > self.MAX_ATOMS_ENUMERATED:
            raise AlgebraError(
                f"powerset over {len(self.atoms)} atoms is too large to enumerate")
        out = []
        for mask in range(1 << len(self.atoms)):
            out.append(frozenset(a for i, a in enumerate(self.atoms) if mask >> i & 1))
        return out

    def __repr__(self):
        return f"PowersetAlgebra({len(self.atoms)} atoms)"


def powerset_algebra(n: int) -> PowersetAlgebra:
    if not 0 < n <= 5:
        raise AlgebraError("powerset builtin supports 1..5 atoms")
    return PowersetAlgebra(range(n))


class FreeBooleanAlgebra(BooleanAlgebra):
    """Free algebra on g generators; an element is its truth table.

    The table is an int bitmask over the 2^g valuations, so equality is
    exhaustive valuation and the operations are bitwise.  `le` stays the
    inherited one: `<=` on ints is the numeric order, not inclusion.
    """

    meet, join = operator.and_, operator.or_

    def __init__(self, generators: int):
        if not 0 < generators <= 16:
            raise AlgebraError("free algebra builtin supports 1..16 generators")
        self.generators = generators
        self.width = 1 << generators
        self.zero = 0
        self.one = (1 << self.width) - 1
        self.complement = self.one.__xor__

    def generator(self, i: int) -> int:
        if not 0 <= i < self.generators:
            raise AlgebraError(f"no generator {i}")
        mask = 0
        for valuation in range(self.width):
            if valuation >> i & 1:
                mask |= 1 << valuation
        return mask

    def elements(self):
        if self.generators > 4:
            raise AlgebraError("free algebra carrier too large to enumerate")
        return list(range(self.one + 1))

    def __repr__(self):
        return f"FreeBooleanAlgebra({self.generators})"


def free_algebra(g: int) -> FreeBooleanAlgebra:
    return FreeBooleanAlgebra(g)


class FiniteCofiniteAlgebra(BooleanAlgebra):
    """Finite and cofinite subsets of the naturals.

    Elements are ('fin', S) or ('cof', S) with S a frozenset; ('cof', S)
    stands for the complement of S.  Countable, with a fair enumerator.
    """

    def __init__(self):
        self.zero = ("fin", frozenset())
        self.one = ("cof", frozenset())

    @staticmethod
    def fin(items) -> tuple:
        return ("fin", frozenset(items))

    @staticmethod
    def cof(items) -> tuple:
        return ("cof", frozenset(items))

    def atom(self, n: int) -> tuple:
        return ("fin", frozenset((n,)))

    def is_finite_element(self, a) -> bool:
        return a[0] == "fin"

    def meet(self, a, b):
        ka, sa = a
        kb, sb = b
        if ka == "fin" and kb == "fin":
            return ("fin", sa & sb)
        if ka == "fin":
            return ("fin", sa - sb)
        if kb == "fin":
            return ("fin", sb - sa)
        return ("cof", sa | sb)

    def join(self, a, b):
        return self.complement(self.meet(self.complement(a), self.complement(b)))

    def complement(self, a):
        kind, s = a
        return ("cof", s) if kind == "fin" else ("fin", s)

    def enumerate_elements(self) -> Iterator:
        yield self.zero
        yield self.one
        for bound in itertools.count(1):
            top = bound - 1
            for rest_mask in range(1 << top):
                body = frozenset(
                    [top] + [i for i in range(top) if rest_mask >> i & 1])
                yield ("fin", body)
                yield ("cof", body)

    def __repr__(self):
        return "FiniteCofiniteAlgebra()"


def builtin_algebras() -> dict:
    """Factories for the supported carriers, keyed by CLI name."""
    return {
        "powerset": powerset_algebra,
        "free": free_algebra,
        "fincof": FiniteCofiniteAlgebra,
    }


# ---------------------------------------------------------------------------
# Regular families
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class RegularEntry:
    """A subset with a designated join or meet.

    Finite entries carry their members; infinite ones an enumerator
    factory.  `members_all_finite` is a structural note used on the
    finite-cofinite carrier: it certifies that every member is a finite
    element, which makes some incompatibilities provable without
    exhausting the entry.
    """
    kind: str                     # 'join' | 'meet'
    bound: object
    members: Optional[tuple] = None
    enumerator: Optional[Callable[[], Iterator]] = None
    name: str = ""
    members_all_finite: bool = False

    def __post_init__(self):
        if self.kind not in ("join", "meet"):
            raise AlgebraError(f"entry kind must be join or meet, got {self.kind!r}")
        if (self.members is None) == (self.enumerator is None):
            raise AlgebraError("exactly one of members/enumerator must be given")
        if self.members is not None:
            self.members = tuple(self.members)


@dataclass
class EntryVerdict:
    status: str                   # 'exact' | 'prefix' | 'violation'
    checked: int
    violation_index: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status != "violation"


def verify_entry(alg: BooleanAlgebra, entry: RegularEntry, prefix: int = 64) -> EntryVerdict:
    """Check the claimed bound: exactly for finite entries, else on a prefix.

    Each member is tested against the bound by one `alg.le`.  For an
    infinite join entry the bound must dominate every inspected member; if
    the inspected members already join up to the bound the claim is exact
    after all.
    """
    up = entry.kind == "join"
    le, c, members = alg.le, entry.bound, entry.members
    step = alg.join if up else alg.meet
    acc = alg.zero if up else alg.one
    count = 0
    for s in entry.enumerator() if members is None else members:
        if members is None and count >= prefix:
            return EntryVerdict("prefix", count)
        if not (le(s, c) if up else le(c, s)):
            return EntryVerdict("violation", count, count)
        acc = step(acc, s)
        count += 1
        if members is None and acc == c:
            return EntryVerdict("exact", count)
    if acc == c:
        return EntryVerdict("exact", count)
    return EntryVerdict("violation", count, None)


# ---------------------------------------------------------------------------
# Ultrafilters
# ---------------------------------------------------------------------------

def is_ultrafilter(alg: BooleanAlgebra, u) -> bool:
    """Exhaustive check of the four clauses; the algebra must be finite."""
    elements = alg.elements()
    if elements is None:
        raise AlgebraError("exhaustive check needs a finite algebra")
    return check_ultrafilter_on_samples(alg, set(u).__contains__, elements)


def check_ultrafilter_on_samples(alg: BooleanAlgebra, member: Callable, samples) -> bool:
    """Clause check on a provided element sample (for countable carriers)."""
    if not member(alg.one) or member(alg.zero):
        return False
    samples = list(samples)
    for a in samples:
        if member(a) == member(alg.complement(a)):
            return False
        for b in samples:
            if member(a) and member(b) and not member(alg.meet(a, b)):
                return False
            if member(a) and alg.le(a, b) and not member(b):
                return False
    return True


@dataclass(slots=True)
class CompatVerdict:
    status: str                   # 'true' | 'false' | 'inconclusive'
    inspected: int
    witness: object = None
    reason: str = ""


def check_f_compatible(alg: BooleanAlgebra, member: Callable, entry: RegularEntry,
                       budget: int = 10_000) -> CompatVerdict:
    """Decide whether an ultrafilter (given by membership) respects an entry.

    Join entries: the bound is in the filter iff some member is.  A
    member in the filter while the bound is not is a definitive failure
    (members sit below the bound).  For an in-filter bound the search for
    a member witness is budgeted; running out is inconclusive unless the
    entry is finite or the membership procedure structurally rules out
    all members (`rules_out`).  Meet entries are dual.  With a `Membership`
    each test is one `alg.le` against the final chain element, and the
    members are scanned in one loop.
    """
    up = entry.kind == "join"
    bound_in = member(entry.bound)
    if bound_in and not up:
        # upward closure settles every member at once
        return CompatVerdict("true", 0, None, "meet in filter bounds all members")
    # a witness (a member in the filter for a join, out of it for a meet)
    # shows compatibility, except under a join whose bound is out
    proves = bound_in or not up
    members = entry.members
    seen = 0
    for s in entry.enumerator() if members is None else members:
        if seen >= budget:
            break
        seen += 1
        if member(s) == up:
            if proves:
                return CompatVerdict("true", seen, s, "")
            return CompatVerdict("false", seen, s, "member in filter forces the join in")
    else:
        if proves:
            return CompatVerdict("false", seen, None, "bound in filter, no member is"
                                 if up else "all members in filter, meet is not")
    if not proves:
        # no member can sit in an upward-closed filter missing the bound
        return CompatVerdict("true", seen, None, "upward closure")
    rules_out = getattr(member, "rules_out", None)
    if up and rules_out is not None and rules_out(entry):
        return CompatVerdict("false", seen, None, "bound in filter, members provably out")
    return CompatVerdict("inconclusive", seen, None, "budget")


# ---------------------------------------------------------------------------
# The decreasing-chain construction
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class ChainStep:
    entry_name: str
    action: str                   # 'bound-side' | 'witness' | 'decide'
    element: object
    value: object


class Membership(functools.partial):
    """Total membership procedure for the constructed ultrafilter: x is in
    it iff `final` <= x.  A partial of `alg.le`, so a carrier whose `le` is
    a builtin answers without a Python frame."""

    def __new__(cls, alg: BooleanAlgebra, final):
        self = super().__new__(cls, alg.le, final)
        self.alg, self.final = alg, final
        return self


class PrincipalCofiniteMembership:
    """The cofinite ultrafilter on the finite-cofinite algebra."""

    def __init__(self, alg: FiniteCofiniteAlgebra):
        self.alg = alg

    def __call__(self, x) -> bool:
        return not self.alg.is_finite_element(x)

    def rules_out(self, entry: RegularEntry) -> bool:
        # no finite element is cofinite, so an all-finite entry never meets U
        return entry.members_all_finite


@dataclass
class UltrafilterApprox:
    chain: list
    steps: list
    final: object
    membership: Membership

    def excludes(self, element) -> bool:
        return not self.membership(element)


class _Complements(dict):
    """Each element's complement, computed on its first lookup."""

    def __init__(self, complement):
        self.complement = complement

    def __missing__(self, x):
        y = self[x] = self.complement(x)
        return y


def rs_construct(alg: BooleanAlgebra, entries, avoid,
                 decide_steps: Optional[int] = None,
                 witness_budget: int = 10_000) -> UltrafilterApprox:
    """Build a decreasing chain deciding every entry and avoiding `avoid`.

    Starting from the complement of the avoided element, each join entry
    either forces the bound's complement into the chain or commits to a
    member witness (one must overlap the chain when the chain sits below
    the bound, because the bound distributes over the chain element);
    meet entries are dual.  Each choice is one `alg.le`, since b ∧ ¬c = 0
    exactly when b <= c, and the chain's next element is a meet only when
    it moves.  Element decisions, in the order of the carrier `alg.elements()`
    lists (of `alg.enumerate_elements()` when it lists none: the
    finite-cofinite algebra), are interleaved one per entry, then continued
    until `decide_steps` is exhausted.  Every chain element stays nonzero,
    so the emitted membership procedure is an ultrafilter on the decided
    fragment.
    """
    if avoid == alg.one:
        raise AlgebraError("cannot avoid the unit element")
    meet, le = alg.meet, alg.le
    comp = _Complements(alg.complement)     # one object per complement value
    b = comp[avoid]
    chain = [b]
    steps: list = []

    try:
        carrier = alg.elements()
        enum_iter = iter(carrier) if carrier is not None else alg.enumerate_elements()
    except AlgebraError:
        # a carrier too large to list gets no decide phase
        carrier, enum_iter = None, iter(())
    if decide_steps is None:
        decide_steps = len(carrier or ()) or 64
    decisions = itertools.islice(enum_iter, max(decide_steps, 0))

    def decide(b, e):
        inside = not le(b, comp[e])         # b overlaps e
        if inside and not le(b, e):
            b = meet(b, e)                  # one chain object per value
        steps.append(ChainStep("", "decide", e, inside))
        chain.append(b)
        return b

    for entry in entries:
        up = entry.kind == "join"
        c = entry.bound
        # a join goes to ¬c unless b <= c, a meet to c unless b <= ¬c
        if not le(b, c if up else comp[c]):
            x = comp[c] if up else c
            if not le(b, x):
                b = meet(b, x)
            steps.append(ChainStep(entry.name, "bound-side", x, None))
        else:
            members = entry.members
            count = 0
            for s in entry.enumerator() if members is None else members:
                if count >= witness_budget:
                    raise BudgetExhausted(entry.name)
                count += 1
                # a join's witness overlaps b, a meet's misses part of b
                if not le(b, comp[s] if up else s):
                    x = s if up else comp[s]
                    if not le(b, x):
                        b = meet(b, x)
                    steps.append(ChainStep(entry.name, "witness", s, None))
                    break
            else:
                # a finite entry ran dry although b sat under the claimed
                # bound; the designated join/meet cannot be correct
                raise BoundRefuted(entry.name)
        chain.append(b)
        for e in decisions:
            b = decide(b, e)
            break
    for e in decisions:
        b = decide(b, e)

    return UltrafilterApprox(chain=chain, steps=steps, final=b,
                             membership=Membership(alg, b))


def powerset_full_family(alg: PowersetAlgebra) -> list:
    """Every subset of the carrier as both a join and a meet entry."""
    elements = alg.elements()
    canonical = {e: e for e in elements}    # one bound object per value
    entries = []
    for i, subset in enumerate(_subsets(elements)):
        entries.append(RegularEntry("join", canonical[alg.join_all(subset)],
                                    members=subset, name=f"join{i}"))
        entries.append(RegularEntry("meet", canonical[alg.meet_all(subset)],
                                    members=subset, name=f"meet{i}"))
    return entries


def _subsets(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def fincof_atoms_entry(alg: FiniteCofiniteAlgebra) -> RegularEntry:
    """All singletons with their true join (the unit)."""
    def atoms():
        return (alg.atom(n) for n in itertools.count())

    return RegularEntry("join", alg.one, enumerator=atoms, name="atoms",
                        members_all_finite=True)
