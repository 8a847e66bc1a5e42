"""Countable families of first-order formulas, as deterministic enumerators.

A family member pairs a first-order formula with an ordered split of its
free variables into relation slots (the coordinates of the relation it
defines) and parameters.  Four built-ins are provided:

* ``weak_so(sig, k)``    finite disjunctions of slot/parameter equalities;
  quantification over nonempty finite subsets of the k-fold product.
* ``dsl(sig)``           all parameter-free formulas in one free variable,
  enumerated by size then by a canonical structural order.
* ``all_fo(sig)``        every formula with every slot/parameter split
  (or parameter-free splits only, with ``parameters=False``).
* ``prefix_family(sig, kind, n)``  the members of ``all_fo`` whose prenex
  class is within the n-th existential (resp. universal) level.

"Every formula" means every formula in x0..x3: ``FormulaEnumerator.POOL_CAP``
(4) limits ``dsl``, ``all_fo`` and the prefix families to these variables
until ROADMAP item 3 (rank and unrank without the cap) lands.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

from .formulas import (
    And, Const, ForallFO, FormulaError, FOVar, Func, Not, Or, PredApp,
    Formula, Signature, TermEq, Var, _alpha_walk, canonical_variable,
    content_lines, free_variables, is_first_order, normalize, parse_line,
)


@dataclass(frozen=True)
class ThetaMember:
    """One enumerated formula with its slot/parameter split."""
    index: int
    formula: Formula
    slots: tuple
    params: tuple

    def __post_init__(self):
        if len(self.slots) < 1:
            raise FormulaError("a member must define a relation of arity >= 1")
        split = self.slots + self.params
        if len(set(split)) < len(split):
            twice = next(v for i, v in enumerate(split) if v in split[:i])
            raise FormulaError(f"{twice} appears twice in the slot/parameter split")
        if not is_first_order(self.formula):
            raise FormulaError("members must be first-order")
        fo, _ = free_variables(self.formula)
        if fo != set(self.slots) | set(self.params):
            raise FormulaError(
                f"free variables {sorted(v.index for v in fo)} do not match the "
                f"declared slot/parameter split")

    @property
    def arity(self) -> int:
        return len(self.slots)


def _key(formula: Formula, slots: tuple, params: tuple):
    """Alpha key that also fixes the slot/parameter split: the alpha key of
    the normalized formula under binders for slots + params, outermost first,
    put in the walk's environment at depths 0, 1, ... instead of built."""
    bound = slots + params
    key = _alpha_walk(formula, {("fo", v): i for i, v in enumerate(bound)},
                      len(bound))
    for _ in bound:
        key = ("Ax", key)
    return (len(slots), len(params), key)


class ThetaFamily:
    """Deterministic total enumerator n -> member, built from `parts(n)` =
    (formula, slots, params) once and cached by index; `arities` is the set
    of arities that its members have."""

    def __init__(self, name: str, sig: Signature, parts, arities):
        self.name = name
        self.sig = sig
        self._parts = parts
        self._members: dict = {}
        self._arity_cache: dict = {}
        self.arities = arities

    def member_at(self, n: int) -> ThetaMember:
        if n not in self._members:
            if n < 0:
                raise FormulaError(f"family {self.name} has no member {n}")
            formula, slots, params = self._parts(n)
            self._members[n] = ThetaMember(n, formula, tuple(slots), tuple(params))
        return self._members[n]

    def enumerate_up_to(self, n: int) -> list:
        """Members 0..n (a negative bound holds no member and is refused)."""
        if n < 0:
            raise FormulaError(f"bound must be >= 0, got {n}")
        return [self.member_at(i) for i in range(n + 1)]

    def arity_supported(self, arity: int) -> bool:
        return arity in self.arities

    def arity_member(self, arity: int, n: int) -> ThetaMember:
        """n-th member of the given arity (the per-arity view of the family)."""
        if not self.arity_supported(arity):
            raise FormulaError(f"family {self.name} has no members of arity {arity}")
        if self.arities == {arity} or n < 0:     # member_at refuses n < 0
            return self.member_at(n)
        found = self._arity_cache.setdefault(arity, [])
        i = found[-1] + 1 if found else 0
        while len(found) <= n:
            m = self.member_at(i)
            if m.arity == arity:
                found.append(i)
            i += 1
        return self.member_at(found[n])

    def __repr__(self):
        return f"ThetaFamily({self.name!r})"


def _memo(it):
    """parts(n) for a family whose members come from one iterator: the
    first n + 1 items, kept."""
    seen = []

    def parts(n: int):
        while len(seen) <= n:
            seen.append(next(it))
        return seen[n]

    return parts


# ---------------------------------------------------------------------------
# weak second-order logic
# ---------------------------------------------------------------------------

def weak_so(sig: Signature, k: int = 1) -> ThetaFamily:
    """Member n: a disjunction of n+1 equality blocks, one per parameter tuple.

    For k = 1 this is the literal family x = y0 | ... | x = yn; the k > 1
    version conjoins coordinatewise equalities inside each disjunct.  Every
    member needs identity, and every defined relation is nonempty.  The
    formulas are built along one left spine: member n's is Or(member n - 1's,
    block n), with member n - 1's formula as that very object.
    """
    if not sig.identity:
        raise FormulaError("this family needs identity in the signature")
    if k < 1:
        raise FormulaError("relation arity must be >= 1")
    spine: list = []
    return ThetaFamily(f"weak-so:{k}", sig, lambda n: _weak_member_parts(k, n, spine),
                       arities={k})


def _weak_member_parts(k: int, n: int, spine: list | None = None):
    """(formula, slots, params) of member n; `spine` (kept across calls) holds
    the formulas of members 0, 1, ... built so far."""
    spine = [] if spine is None else spine
    slots = tuple(FOVar(j) for j in range(k))
    params = tuple(FOVar(k + i) for i in range(k * (n + 1)))
    while len(spine) <= n:
        i = len(spine)
        eqs = [TermEq(Var(slots[j]), Var(params[i * k + j])) for j in range(k)]
        block = eqs[0]
        for e in eqs[1:]:
            block = And(block, e)
        spine.append(Or(spine[-1], block) if spine else block)
    return spine[n], slots, params


# ---------------------------------------------------------------------------
# Formula enumeration by size
# ---------------------------------------------------------------------------

class FormulaEnumerator:
    """All first-order formulas over a signature in the variables x0..x3,
    by size then by a structural order.

    Size counts AST nodes (quantifiers count one, their variable none).
    A size class holds (formula, key, free variables) triples in key
    order, and each formula's key and free variables are built from those
    of its parts.  The key orders atoms before negations, conjunctions and
    quantifiers, in that order, then compares the parts.  A class is built
    in key order as it is read, and each triple is built once and kept.
    """

    #: the variable pool of size class s is x0..x(min(s, POOL_CAP) - 1), so
    #: every formula the enumerator yields lies within x0..x3 until ROADMAP
    #: item 3 lands; a formula of size s mentions at most s variables anyway.
    POOL_CAP = 4

    def __init__(self, sig: Signature):
        if not sig.predicates and not sig.identity:
            raise FormulaError("the signature has no atomic formula, so no "
                               "formula: no predicates and identity disabled")
        self.sig = sig
        self._terms: dict = {}
        self._classes: dict = {0: ([], iter(()))}     # no formula has size 0
        # one object per variable, so the sets of variables compare by identity
        self._vars = [FOVar(i) for i in range(self.POOL_CAP)]

    def _keyed_terms(self, size: int, pool) -> list:
        """(term, key, variables) for every term of the size over the pool."""
        if (size, len(pool)) in self._terms:
            return self._terms[size, len(pool)]
        out = []
        if size == 1:
            out.extend((Var(v), (0, v.index), frozenset((v,))) for v in pool)
            out.extend((Const(c), (1, c), frozenset())
                       for c in sorted(self.sig.constants))
        else:
            for name in sorted(self.sig.functions):
                arity = self.sig.functions[name]
                for args, keys, fv in self._keyed_args(size - 1, arity, pool):
                    out.append((Func(name, args), (2, name, keys), fv))
        self._terms[size, len(pool)] = out
        return out

    def _keyed_args(self, size: int, arity: int, pool):
        """(terms, keys, variables) for every argument tuple of the arity
        whose terms' sizes sum to `size`."""
        for split in _compositions(size, arity):
            for args in itertools.product(
                    *(self._keyed_terms(s, pool) for s in split)):
                yield (tuple(a[0] for a in args), tuple(a[1] for a in args),
                       frozenset().union(*(a[2] for a in args)))

    def size_class(self, size: int):
        """The triples of class `size` in key order, built as they are read."""
        return _read(*self._class(size))

    def _class(self, size: int) -> tuple:
        """Class `size` as (its triples built so far, a generator of the rest)."""
        if size not in self._classes:
            pool = self._vars[:size]
            atoms = []
            for name in sorted(self.sig.predicates):
                arity = self.sig.predicates[name]
                if arity < size:
                    for args, keys, fv in self._keyed_args(size - 1, arity, pool):
                        atoms.append((PredApp(name, args), (0, name, keys), fv))
            if self.sig.identity:
                for (left, right), keys, fv in self._keyed_args(size - 1, 2, pool):
                    atoms.append((TermEq(left, right), (1,) + keys, fv))
            smaller = {s: self._class(s) for s in range(size)}
            self._classes[size] = (sorted(atoms, key=itemgetter(1)),
                                   _build(size, pool, smaller))
        return self._classes[size]

    def __iter__(self):
        return (f for size in itertools.count(1) for f, _, _ in self.size_class(size))


def _read(done: list, rest):
    """The items of `done`, extended one at a time from `rest` as they are read."""
    i = 0
    while i < len(done) or done.extend(itertools.islice(rest, 1)) or i < len(done):
        yield done[i]
        i += 1


def _build(size: int, pool, smaller: dict):
    """Class `size` after its atoms, in key order: negations read class size - 1
    to the end (every smaller class is whole after them); conjunctions are
    sorted.  It holds no enumerator, so a dropped one is freed at once."""
    yield from ((Not(f), (2, k), fv) for f, k, fv in _read(*smaller[size - 1]))
    yield from sorted(((And(left, right), (3, lk, rk), lv | rv)
                       for ls in range(1, size - 1)
                       for left, lk, lv in smaller[ls][0]
                       for right, rk, rv in smaller[size - 1 - ls][0]),
                      key=itemgetter(1))
    for v in pool:
        drop = frozenset((v,))
        yield from ((ForallFO(v, f), (4, v.index, k), fv - drop)
                    for f, k, fv in smaller[size - 1][0])


def _compositions(total: int, parts: int):
    """Ordered compositions of `total` >= 1 into `parts` >= 1 positive
    summands, lexicographically: one per choice of parts - 1 cut points."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        ends = (0,) + cuts + (total,)
        yield tuple(b - a for a, b in zip(ends, ends[1:]))


# ---------------------------------------------------------------------------
# dsl / all_fo / prefix families
# ---------------------------------------------------------------------------

#: the arities all_fo and the prefix families reach: a member's slots are
#: among the variables x0..x3 of its formula
_POOL_ARITIES = frozenset(range(1, FormulaEnumerator.POOL_CAP + 1))


def _members(enumerator: FormulaEnumerator, splits):
    """(formula, slots, params) for every formula of the enumerator in order
    under each split that `splits(fv)` gives for its free variables `fv`
    (sorted), skipping those equal to an earlier one up to renaming."""
    seen = set()
    for size in itertools.count(1):
        # the enumerator builds only primitive nodes: f is already normalized
        for f, _, fo in enumerator.size_class(size):
            for slots, params in splits(tuple(sorted(fo))):
                key = _key(f, slots, params)
                if key not in seen:
                    seen.add(key)
                    yield f, slots, params


def dsl(sig: Signature) -> ThetaFamily:
    """All parameter-free formulas in x0..x3 (`FormulaEnumerator.POOL_CAP`)
    with exactly one free variable, deduplicated up to renaming."""
    return ThetaFamily("dsl", sig, _memo(_members(FormulaEnumerator(sig), lambda fv: (
        [(fv, ())] if len(fv) == 1 else []))), arities={1})


def all_fo(sig: Signature, parameters: bool = True) -> ThetaFamily:
    """Every first-order formula in the variables x0..x3 under every
    slot/parameter split (`FormulaEnumerator.POOL_CAP` = 4 sets that limit
    until ROADMAP item 3 lands).

    Slots are a nonempty subset of the free variables in increasing index
    order, parameters the rest, subsets by size and then lexicographically;
    with parameters=False only the full-slot split is emitted.  Converse
    relations are still covered because the enumeration contains every
    variable permutation of every formula.
    """

    def splits(fv):
        if not parameters:
            return [(fv, ())] if fv else []
        return [(slots, tuple(v for v in fv if v not in slots))
                for r in range(1, len(fv) + 1)
                for slots in itertools.combinations(fv, r)]

    name = "all-fo" if parameters else "all-fo-noparams"
    return ThetaFamily(name, sig, _memo(_members(FormulaEnumerator(sig), splits)),
                       arities=_POOL_ARITIES)


# ---------------------------------------------------------------------------
# Prenex classification
# ---------------------------------------------------------------------------

def prefix_levels(f: Formula) -> tuple:
    """Minimal (existential level, universal level) of the prenex class.

    Levels count quantifier blocks; a formula at existential level s can
    be prenexed into at most s blocks starting with an existential one.
    Quantifier-free formulas are (0, 0).
    """
    if not is_first_order(f):
        raise FormulaError("prenex classification is for first-order formulas")

    def walk(g):
        if isinstance(g, (PredApp, TermEq)):
            return (0, 0)
        if isinstance(g, Not):
            s, p = walk(g.body)
            return (p, s)
        if isinstance(g, And):
            sl, pl = walk(g.left)
            sr, pr = walk(g.right)
            return (max(sl, sr), max(pl, pr))
        if isinstance(g, ForallFO):
            s, p = walk(g.body)
            p2 = min(max(p, 1), s + 1)
            return (p2 + 1, p2)
        raise FormulaError(f"unexpected node {g!r}")

    return walk(normalize(f))


def classify_prefix(f: Formula):
    """Report the minimal prenex class: ('exists'|'forall'|'both', level)."""
    s, p = prefix_levels(f)
    if s == p:
        return ("both", s)
    if s < p:
        return ("exists", s)
    return ("forall", p)


def in_prefix_class(f: Formula, kind: str, level: int) -> bool:
    s, p = prefix_levels(f)
    if kind == "exists":
        return s <= level
    if kind == "forall":
        return p <= level
    raise FormulaError(f"unknown prefix kind {kind!r}")


def prefix_family(sig: Signature, kind: str, level: int) -> ThetaFamily:
    """all_fo filtered to the formulas within one prenex level (a negative
    level holds no formula and is refused)."""
    if level < 0:
        raise FormulaError(f"prefix level must be >= 0, got {level}")
    members = map(all_fo(sig).member_at, itertools.count())
    short = "exists-n" if kind == "exists" else "forall-n"
    return ThetaFamily(f"{short}:{level}", sig, _memo(
        (m.formula, m.slots, m.params) for m in members
        if in_prefix_class(m.formula, kind, level)), arities=_POOL_ARITIES)


# ---------------------------------------------------------------------------
# Custom families from text files
# ---------------------------------------------------------------------------

def load_family(path: str, sig: Signature) -> ThetaFamily:
    """Load a finite family: one `slots ; params ; formula` line per member.

    Slot and parameter fields list variables (params may be empty).  Each
    line is checked as a member when it is read.  The finite list is cycled
    so the enumerator stays total on the naturals.
    """
    members = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in content_lines(fh):
            parts = line.split(";")
            if len(parts) != 3:
                raise FormulaError(
                    f"{path}:{lineno}: expected 'slots ; params ; formula'")
            slots = _parse_vars(parts[0], path, lineno)
            params = _parse_vars(parts[1], path, lineno)
            formula = parse_line(f"{path}:{lineno}", parts[2].strip(), sig)
            try:
                ThetaMember(len(members), formula, slots, params)
            except FormulaError as exc:
                raise FormulaError(f"{path}:{lineno}: {exc}") from None
            members.append((formula, slots, params))
    if not members:
        raise FormulaError(f"{path}: no members")
    arities = {len(s) for _, s, _ in members}
    return ThetaFamily(f"file:{path}", sig,
                       lambda n: members[n % len(members)], arities=arities)


def _parse_vars(text: str, path, lineno) -> tuple:
    out = []
    for word in text.split():
        try:
            v = canonical_variable(word)
        except FormulaError:        # a relation variable of arity 0
            v = None
        if type(v) is not FOVar:
            raise FormulaError(
                f"{path}:{lineno}: {word!r} is not a canonical variable (use x<n>)")
        out.append(v)
    return tuple(out)


def family_from_cli(spec: str, sig: Signature) -> ThetaFamily:
    """Resolve a `--theta` option value into a family."""
    if spec.startswith("weak-so"):
        k = int(spec.split(":", 1)[1]) if ":" in spec else 1
        return weak_so(sig, k)
    if spec == "dsl":
        return dsl(sig)
    if spec == "all-fo":
        return all_fo(sig)
    if spec == "all-fo-noparams":
        return all_fo(sig, parameters=False)
    if spec.startswith("exists-n:"):
        return prefix_family(sig, "exists", int(spec.split(":", 1)[1]))
    if spec.startswith("forall-n:"):
        return prefix_family(sig, "forall", int(spec.split(":", 1)[1]))
    if spec.startswith("file:"):
        return load_family(spec.split(":", 1)[1], sig)
    raise FormulaError(f"unknown family spec {spec!r}")
