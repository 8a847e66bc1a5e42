"""Finite structures and evaluation over definable-relation ranges.

A standard model pairs a finite structure with a provider for the
relations its second-order quantifiers range over: either a bounded
materialization of a formula family, an exact oracle (automorphism
orbits for parameter-free definability, all relations for definability
with parameters), or the full powerset for collapse testing.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .boolean import PowersetAlgebra
from .formulas import (
    And, Const, ExistsFO, ExistsSO, ForallFO, ForallSO, Formula, FOVar, Func,
    Not, PredApp, Signature, SOApp, SOEq, SOVar, Term, TermEq, Var,
    a6_instantiate, free_variables, is_first_order, normalize, substitute_fo,
)
from .theta import ThetaFamily, ThetaMember


class EvalError(ValueError):
    pass


class FeasibilityError(RuntimeError):
    """A computation was refused because it exceeds the desk-scale guards."""


RELATION_GUARD = 20              # refuse ranges of more than 2^20 relations
MATERIALIZE_TUPLE_GUARD = 10 ** 7


# ---------------------------------------------------------------------------
# Structures and assignments
# ---------------------------------------------------------------------------

class FiniteStructure:
    """Domain 0..size-1 with predicate extensions, function tables, constants."""

    def __init__(self, sig: Signature, size: int,
                 predicates: Mapping[str, Iterable] | None = None,
                 functions: Mapping[str, Mapping] | None = None,
                 constants: Mapping[str, int] | None = None):
        if size < 1:
            raise EvalError("domain must be nonempty")
        self.sig = sig
        self.size = size
        self.predicates = {}
        for name, arity in sig.predicates.items():
            rows = frozenset(tuple(row) for row in (predicates or {}).get(name, ()))
            for row in rows:
                if len(row) != arity or not all(0 <= v < size for v in row):
                    raise EvalError(f"bad tuple {row} for predicate {name}")
            self.predicates[name] = rows
        self.functions = {}
        for name, arity in sig.functions.items():
            table = dict((functions or {}).get(name, {}))
            for args in itertools.product(range(size), repeat=arity):
                if args not in table:
                    raise EvalError(f"function {name} is missing value at {args}")
                if not 0 <= table[args] < size:
                    raise EvalError(f"function {name} maps {args} outside the domain")
            self.functions[name] = table
        self.constants = {}
        for name in sig.constants:
            if name not in (constants or {}):
                raise EvalError(f"constant {name} has no value")
            value = constants[name]
            if not 0 <= value < size:
                raise EvalError(f"constant {name} outside the domain")
            self.constants[name] = value

    @property
    def elements(self) -> range:
        return range(self.size)

    def with_element_constants(self):
        """Extended copy with one fresh constant per element; returns the
        constant terms in element order."""
        names = []
        for e in self.elements:
            name = f"e{e}"
            while name in self.sig.constants or name in self.sig.functions \
                    or name in self.sig.predicates:
                name = "e" + name
            names.append(name)
        sig = self.sig.with_constants(names)
        constants = dict(self.constants)
        constants.update({n: e for e, n in enumerate(names)})
        ext = FiniteStructure(sig, self.size,
                              {n: rows for n, rows in self.predicates.items()},
                              {n: t for n, t in self.functions.items()},
                              constants)
        return ext, [Const(n) for n in names]

    def __repr__(self):
        return f"FiniteStructure(size={self.size})"


@dataclass
class Assignment:
    fo: dict = field(default_factory=dict)     # FOVar -> element
    so: dict = field(default_factory=dict)     # SOVar -> frozenset of tuples

    @classmethod
    def of(cls, fo=None, so=None):
        return cls(dict(fo or {}), {k: frozenset(v) for k, v in (so or {}).items()})


def structure_from_json(data: dict):
    """Build (signature, structure) from the JSON structure format."""
    size = data["domain_size"]
    predicates = {name: [tuple(row) for row in rows]
                  for name, rows in data.get("predicates", {}).items()}
    declared_arities = data.get("arities", {})
    pred_arities = {}
    for name, rows in predicates.items():
        if name in declared_arities:
            pred_arities[name] = declared_arities[name]
        elif rows:
            pred_arities[name] = len(rows[0])
        else:
            raise EvalError(f"predicate {name}: empty extension needs an 'arities' entry")
    functions = {}
    fun_arities = {}
    for name, table in data.get("functions", {}).items():
        arity = declared_arities.get(name)
        if arity is None:
            arity = 1
            while size ** arity < len(table):
                arity += 1
        if size ** arity != len(table):
            raise EvalError(f"function {name}: table length {len(table)} does not "
                            f"match |A|^{arity}")
        fun_arities[name] = arity
        mapping = {}
        for i, args in enumerate(itertools.product(range(size), repeat=arity)):
            mapping[args] = table[i]
        functions[name] = mapping
    constants = dict(data.get("constants", {}))
    sig = Signature(predicates=pred_arities, functions=fun_arities,
                    constants=constants.keys(),
                    identity=data.get("identity", True))
    return sig, FiniteStructure(sig, size, predicates, functions, constants)


def load_structure(path: str):
    with open(path, encoding="utf-8") as fh:
        return structure_from_json(json.load(fh))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _term_value(s: FiniteStructure, t: Term, env: dict) -> int:
    if isinstance(t, Var):
        if t.var not in env:
            raise EvalError(f"{t.var} is unassigned")
        return env[t.var]
    if isinstance(t, Const):
        return s.constants[t.name]
    if isinstance(t, Func):
        return s.functions[t.name][tuple(_term_value(s, a, env) for a in t.args)]
    raise EvalError(f"not a term: {t!r}")


def _eval(s: FiniteStructure, f: Formula, env: dict, senv: dict,
          relations=None) -> bool:
    """Evaluation of a normalized formula.  `relations(arity)` is the range
    of the relation quantifiers; first-order formulas need none.  The
    first-order node types come first: they dominate materialization."""
    if isinstance(f, PredApp):
        return tuple(_term_value(s, t, env) for t in f.args) in s.predicates[f.name]
    if isinstance(f, TermEq):
        return _term_value(s, f.left, env) == _term_value(s, f.right, env)
    if isinstance(f, Not):
        return not _eval(s, f.body, env, senv, relations)
    if isinstance(f, And):
        return _eval(s, f.left, env, senv, relations) and \
            _eval(s, f.right, env, senv, relations)
    if isinstance(f, ForallFO):
        store, values = env, s.elements
    elif isinstance(f, SOApp):
        if f.var not in senv:
            raise EvalError(f"{f.var} is unassigned")
        return tuple(_term_value(s, t, env) for t in f.args) in senv[f.var]
    elif isinstance(f, SOEq):
        for v in (f.left, f.right):
            if v not in senv:
                raise EvalError(f"{v} is unassigned")
        return senv[f.left] == senv[f.right]
    elif isinstance(f, ForallSO) and relations is not None:
        store, values = senv, relations(f.var.arity)
    else:
        raise EvalError(f"unexpected node in evaluation: {f!r}")
    saved = store.get(f.var, _MISSING)
    try:
        for value in values:
            store[f.var] = value
            if not _eval(s, f.body, env, senv, relations):
                return False
        return True
    finally:
        if saved is _MISSING:
            store.pop(f.var, None)
        else:
            store[f.var] = saved


_MISSING = object()


def eval_fo(s: FiniteStructure, f: Formula, assignment: Mapping | None = None) -> bool:
    """Tarskian truth of a first-order formula under an assignment."""
    if not is_first_order(f):
        raise EvalError("eval_fo is for first-order formulas")
    return _eval(s, normalize(f), dict(assignment or {}), {})


# ---------------------------------------------------------------------------
# Definable families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Provenance:
    kind: str                     # 'theta' | 'orbit' | 'all' | 'weak-so' | 'rank-enum'
    theta_index: Optional[int] = None
    params: Optional[tuple] = None
    note: str = ""


class DefinableFamily:
    """Relations grouped by arity, each with the provenance of first discovery."""

    def __init__(self):
        self._by_arity: dict = {}

    def add(self, arity: int, relation: frozenset, prov: Provenance) -> bool:
        rels = self._by_arity.setdefault(arity, {})
        if relation in rels:
            return False
        rels[relation] = prov
        return True

    def arities(self):
        return sorted(self._by_arity)

    def relations(self, arity: int) -> list:
        rels = self._by_arity.get(arity, {})
        return sorted(rels, key=_relation_key)

    def provenance(self, arity: int, relation: frozenset) -> Provenance:
        return self._by_arity[arity][relation]

    def contains(self, arity: int, relation: frozenset) -> bool:
        return relation in self._by_arity.get(arity, {})

    def count(self, arity: int) -> int:
        return len(self._by_arity.get(arity, {}))

    def __eq__(self, other):
        return (isinstance(other, DefinableFamily)
                and {k: set(v) for k, v in self._by_arity.items()}
                == {k: set(v) for k, v in other._by_arity.items()})


def _relation_key(rel: frozenset):
    return (len(rel), sorted(rel))


def materialize_k(s: FiniteStructure, fam: ThetaFamily, bound: int) -> DefinableFamily:
    """All relations defined by members 0..bound over every parameter tuple."""
    total_tuples = 0
    members = fam.enumerate_up_to(bound)
    for m in members:
        total_tuples += s.size ** len(m.params)
    if total_tuples > MATERIALIZE_TUPLE_GUARD:
        raise FeasibilityError(
            f"materialization would scan {total_tuples} parameter tuples")
    family = DefinableFamily()
    for m in members:
        _materialize_member(s, m, family)
    return family


def materialize_k_arity(s: FiniteStructure, fam: ThetaFamily, arity: int,
                        bound: int) -> DefinableFamily:
    """Like materialize_k but over the per-arity member view."""
    family = DefinableFamily()
    if not fam.arity_supported(arity):
        return family
    for n in range(bound + 1):
        _materialize_member(s, fam.arity_member(arity, n), family)
    return family


def _materialize_member(s: FiniteStructure, m: ThetaMember,
                        family: DefinableFamily) -> None:
    body = normalize(m.formula)
    for params in itertools.product(range(s.size), repeat=len(m.params)):
        family.add(m.arity, _defined_relation(s, m, body, params),
                   Provenance("theta", theta_index=m.index, params=params))


def _defined_relation(s: FiniteStructure, m: ThetaMember, body: Formula,
                      params: tuple) -> frozenset:
    """The relation member m (normalized body) defines at the parameters."""
    env = dict(zip(m.params, params))
    rows = []
    for row in itertools.product(range(s.size), repeat=m.arity):
        env.update(zip(m.slots, row))
        if _eval(s, body, env, {}):
            rows.append(row)
    return frozenset(rows)


def verify_provenance(s: FiniteStructure, fam: ThetaFamily,
                      family: DefinableFamily) -> bool:
    """Re-evaluate every recorded witness and compare with the stored relation."""
    for arity in family.arities():
        for rel in family.relations(arity):
            prov = family.provenance(arity, rel)
            if prov.kind != "theta":
                return False
            m = fam.member_at(prov.theta_index)
            if _defined_relation(s, m, normalize(m.formula), prov.params) != rel:
                return False
    return True


# ---------------------------------------------------------------------------
# Automorphisms and exact oracles
# ---------------------------------------------------------------------------

def automorphisms(s: FiniteStructure) -> list:
    """All domain permutations preserving the interpretation, by brute force."""
    out = []
    for perm in itertools.permutations(range(s.size)):
        if all(perm[v] == v for n, v in s.constants.items()) \
                and _preserves_predicates(s, perm) and _preserves_functions(s, perm):
            out.append(perm)
    return out


def _preserves_predicates(s, perm) -> bool:
    for name, rows in s.predicates.items():
        for row in rows:
            if tuple(perm[v] for v in row) not in rows:
                return False
    return True


def _preserves_functions(s, perm) -> bool:
    for name, table in s.functions.items():
        for args, value in table.items():
            if table[tuple(perm[a] for a in args)] != perm[value]:
                return False
    return True


def tuple_orbits(s: FiniteStructure, arity: int) -> list:
    autos = automorphisms(s)
    seen = set()
    orbits = []
    for row in itertools.product(range(s.size), repeat=arity):
        if row in seen:
            continue
        orbit = {tuple(perm[v] for v in row) for perm in autos}
        seen |= orbit
        orbits.append(frozenset(orbit))
    return orbits


def k_exact_orbits(s: FiniteStructure, with_parameters: bool,
                   arity: int) -> DefinableFamily:
    """Exact oracle for first-order definability over a finite structure.

    Without parameters, the definable relations are exactly the unions of
    automorphism orbits of tuples.  With parameters every relation is
    definable (take one parameter per element and a disjunction of
    coordinatewise matches), so the family is the full powerset.
    """
    if with_parameters:
        if s.size ** arity > RELATION_GUARD:  # refuse before the rows exist
            raise FeasibilityError(f"2^{s.size ** arity} relations exceed the guard")
        blocks = [frozenset([row]) for row in
                  itertools.product(range(s.size), repeat=arity)]
        prov, what = Provenance("orbit", note="with-parameters"), "relations"
    else:
        blocks = tuple_orbits(s, arity)
        prov, what = Provenance("orbit"), "orbit unions"
    family = DefinableFamily()
    for rel in _unions(blocks, what):
        family.add(arity, rel, prov)
    return family


def _unions(blocks: list, what: str = "relations"):
    """Every union of the blocks, in mask order, the empty set first."""
    if len(blocks) > RELATION_GUARD:
        raise FeasibilityError(f"2^{len(blocks)} {what} exceed the guard")
    for mask in range(1 << len(blocks)):
        yield frozenset().union(*(b for i, b in enumerate(blocks) if mask >> i & 1))


def rank_bounded_unary_family(s: FiniteStructure, rank: int) -> DefinableFamily:
    """Subsets definable by parameter-free formulas of bounded quantifier
    rank in one free variable.

    Computed by back-and-forth type refinement: two elements satisfy the
    same such formulas up to the rank iff their iterated extension types
    agree, and every union of type classes is defined by a disjunction of
    the class-describing formulas at that rank.  Relational signatures
    only; identity atoms participate only when the signature has identity.
    """
    if s.functions:
        raise FeasibilityError(
            "rank-bounded enumeration supports relational signatures only")
    interned: dict = {}

    def intern(value):
        return interned.setdefault(value, len(interned))

    const_values = tuple(s.constants[n] for n in sorted(s.constants))

    def atomic_type(row):
        slots = row + const_values
        facts = []
        for name in sorted(s.predicates):
            arity = s.sig.predicates[name]
            rows = s.predicates[name]
            for idxs in itertools.product(range(len(slots)), repeat=arity):
                if tuple(slots[i] for i in idxs) in rows:
                    facts.append(("P", name, idxs))
        if s.sig.identity:
            for i in range(len(slots)):
                for j in range(i + 1, len(slots)):
                    if slots[i] == slots[j]:
                        facts.append(("=", i, j))
        return intern(("atomic", tuple(facts)))

    cache: dict = {}

    def tp(k, row):
        key = (k, row)
        if key in cache:
            return cache[key]
        if k == 0:
            out = atomic_type(row)
        else:
            ext = frozenset(tp(k - 1, row + (c,)) for c in s.elements)
            out = intern(("ext", tp(k - 1, row), ext))
        cache[key] = out
        return out

    classes: dict = {}
    for a in s.elements:
        classes.setdefault(tp(rank, (a,)), []).append(a)
    blocks = [frozenset((a,) for a in members) for members in classes.values()]
    family = DefinableFamily()
    prov = Provenance("rank-enum", note=f"rank<={rank}")
    for rel in _unions(blocks):
        family.add(1, rel, prov)
    return family


# ---------------------------------------------------------------------------
# Providers and standard models
# ---------------------------------------------------------------------------

class MaterializedK:
    """K from the first bound+1 members of a family."""

    def __init__(self, fam: ThetaFamily, bound: int):
        self.fam = fam
        self.bound = bound
        self.name = f"materialize({fam.name}, {bound})"
        self._last = (None, None)        # (structure, its materialized family)

    def relations(self, s: FiniteStructure, arity: int) -> list:
        if self._last[0] is not s:
            self._last = (s, materialize_k(s, self.fam, self.bound))
        return self._last[1].relations(arity)


class OrbitK:
    """Exact parameter-free oracle, optionally restricted to some arities."""

    def __init__(self, arities: Optional[set] = None):
        self.arities = arities
        self.name = "orbits"

    def relations(self, s: FiniteStructure, arity: int) -> list:
        if self.arities is not None and arity not in self.arities:
            return []
        return k_exact_orbits(s, False, arity).relations(arity)


class AllRelationsK:
    """Exact oracle for definability with parameters: every relation."""

    name = "all-relations"

    def relations(self, s: FiniteStructure, arity: int) -> list:
        return k_exact_orbits(s, True, arity).relations(arity)


class WeakSOExactK:
    """Exact range for the equality-disjunction family: nonempty relations
    of the family's arity."""

    def __init__(self, k: int = 1):
        self.k = k
        self.name = f"weak-so-exact:{k}"

    def relations(self, s: FiniteStructure, arity: int) -> list:
        if arity != self.k:
            return []
        return [rel for rel in AllRelationsK().relations(s, arity) if rel]


class RankBoundedDslK:
    """Bounded-enumeration range for the one-free-variable family."""

    def __init__(self, rank: Optional[int] = None):
        self.rank = rank
        self.name = f"dsl-rank:{rank if rank is not None else 'auto'}"

    def relations(self, s: FiniteStructure, arity: int) -> list:
        if arity != 1:
            return []
        rank = self.rank if self.rank is not None else s.size + 1
        return rank_bounded_unary_family(s, rank).relations(1)


class StandardModel:
    def __init__(self, structure: FiniteStructure, provider):
        self.structure = structure
        self.provider = provider
        self._cache: dict = {}
        self._sets: dict = {}

    def relations(self, arity: int) -> list:
        if arity not in self._cache:
            self._cache[arity] = list(self.provider.relations(self.structure, arity))
        return self._cache[arity]

    def contains(self, arity: int, relation: frozenset) -> bool:
        if arity not in self._sets:
            self._sets[arity] = frozenset(self.relations(arity))
        return relation in self._sets[arity]


def exact_provider_for(fam: ThetaFamily):
    """The exactness reference oracle for a built-in family."""
    name = fam.name
    if name.startswith("weak-so"):
        k = int(name.split(":")[1])
        return WeakSOExactK(k)
    if name == "dsl":
        return OrbitK(arities={1})
    if name == "all-fo":
        return AllRelationsK()
    if name == "all-fo-noparams":
        return OrbitK()
    raise EvalError(f"no exact oracle for family {name!r}")


# ---------------------------------------------------------------------------
# Second-order evaluation
# ---------------------------------------------------------------------------

def eval_so(m: StandardModel, f: Formula, assignment: Assignment | None = None) -> bool:
    """Truth over the standard model; relation quantifiers range over the
    provider's family, and free relation variables must be assigned inside it."""
    a = assignment or Assignment()
    for var, rel in a.so.items():
        if not m.contains(var.arity, frozenset(rel)):
            raise EvalError(
                f"assignment for {var} is outside the definable family")
    return _eval(m.structure, normalize(f), dict(a.fo),
                 {k: frozenset(v) for k, v in a.so.items()}, m.relations)


def eval_so_closure(m: StandardModel, f: Formula) -> bool:
    """Truth of the universal closure (both sorts) over the model."""
    nf = normalize(f)
    fo, so = free_variables(nf)
    for v in sorted(so):
        nf = ForallSO(v, nf)
    for v in sorted(fo):
        nf = ForallFO(v, nf)
    return eval_so(m, nf)


def _all_relations(s: FiniteStructure, arity: int):
    cells = s.size ** arity
    if cells > RELATION_GUARD:
        raise FeasibilityError(
            f"full second-order range needs 2^{cells} relations")
    rows = list(itertools.product(range(s.size), repeat=arity))
    for mask in range(1 << cells):
        yield frozenset(rows[i] for i in range(cells) if mask >> i & 1)


def _eval_full_prim(s: FiniteStructure, f: Formula, env: dict, senv: dict) -> bool:
    if isinstance(f, ForallSO):
        saved = senv.get(f.var, _MISSING)
        try:
            for rel in _all_relations(s, f.var.arity):
                senv[f.var] = rel
                if not _eval_full_prim(s, f.body, env, senv):
                    return False
            return True
        finally:
            if saved is _MISSING:
                senv.pop(f.var, None)
            else:
                senv[f.var] = saved
    if isinstance(f, (PredApp, TermEq)):
        return _eval(s, f, env, senv)
    if isinstance(f, SOApp):
        if f.var not in senv:
            raise EvalError(f"{f.var} is unassigned")
        return tuple(_term_value(s, t, env) for t in f.args) in senv[f.var]
    if isinstance(f, SOEq):
        return senv[f.left] == senv[f.right]
    if isinstance(f, Not):
        return not _eval_full_prim(s, f.body, env, senv)
    if isinstance(f, And):
        return _eval_full_prim(s, f.left, env, senv) and \
            _eval_full_prim(s, f.right, env, senv)
    if isinstance(f, ForallFO):
        saved = env.get(f.var, _MISSING)
        try:
            for e in s.elements:
                env[f.var] = e
                if not _eval_full_prim(s, f.body, env, senv):
                    return False
            return True
        finally:
            if saved is _MISSING:
                env.pop(f.var, None)
            else:
                env[f.var] = saved
    raise EvalError(f"unexpected node in evaluation: {f!r}")


def eval_full_so(s: FiniteStructure, f: Formula,
                 assignment: Assignment | None = None) -> bool:
    """Brute-force truth with relation quantifiers over all relations."""
    a = assignment or Assignment()
    return _eval_full_prim(s, normalize(f), dict(a.fo),
                           {k: frozenset(v) for k, v in a.so.items()})


# ---------------------------------------------------------------------------
# The truth algebra over assignment space
# ---------------------------------------------------------------------------

class TruthAlgebra:
    """Powerset algebra over A^v; formulas map to their satisfying tuples.

    The class map is a homomorphism from formulas-with-variables-below-v
    to the algebra, with the ordering matching validity of implications.
    """

    def __init__(self, s: FiniteStructure, v: int):
        self.structure = s
        self.v = v
        self.tuples = list(itertools.product(range(s.size), repeat=v))
        self.algebra = PowersetAlgebra(self.tuples)

    def class_of(self, f: Formula, model: StandardModel | None = None,
                 so_assignment: Mapping | None = None) -> frozenset:
        nf = normalize(f)
        fo, so = free_variables(nf)
        for var in fo:
            if var.index >= self.v:
                raise EvalError(
                    f"{var} is outside the variable budget v={self.v}")
        if model is None and not is_first_order(nf):
            raise EvalError("a model is needed for second-order classes")
        senv = {k: frozenset(rows) for k, rows in (so_assignment or {}).items()}
        relations = model.relations if model is not None else None
        variables = [FOVar(i) for i in range(self.v)]
        return frozenset(row for row in self.tuples
                         if _eval(self.structure, nf, dict(zip(variables, row)),
                                  senv, relations))


def truth_algebra(s: FiniteStructure, v: int) -> TruthAlgebra:
    return TruthAlgebra(s, v)


# ---------------------------------------------------------------------------
# Quantifiers as meets and joins, at finite scale
# ---------------------------------------------------------------------------

def lemma_reg_check(s: FiniteStructure, v: int, body: Formula, which: str,
                    var, fam: ThetaFamily | None = None,
                    bound: int | None = None) -> bool:
    """Finite analogs of the quantifier/meet identities in the truth algebra.

    i/ii:  the class of a first-order-quantified formula equals the
           meet/join of its element instantiations (via fresh constants).
    iii/iv: the class of a relation-quantified formula equals the
           meet/join over the materialized family.
    v/vi:  the same class equals the meet/join of the family-member
           instantiations with their parameter prefixes evaluated,
           using the per-arity member view up to the bound.
    """
    ta = truth_algebra(s, v)
    alg = ta.algebra
    if which in ("i", "ii"):
        if not isinstance(var, FOVar):
            raise EvalError("items i/ii quantify a first-order variable")
        ext, consts = s.with_element_constants()
        ta2 = truth_algebra(ext, v)
        model = None
        if not is_first_order(body):
            if fam is None or bound is None:
                raise EvalError("second-order bodies need a family and bound")
            model = StandardModel(ext, MaterializedK(fam, bound))
        quant = ForallFO(var, body) if which == "i" else ExistsFO(var, body)
        lhs = ta2.class_of(quant, model)
        sides = [ta2.class_of(substitute_fo(body, var, c), model) for c in consts]
        rhs = alg.meet_all(sides) if which == "i" else alg.join_all(sides)
        return lhs == rhs
    if not isinstance(var, SOVar):
        raise EvalError("items iii-vi quantify a relation variable")
    if fam is None or bound is None:
        raise EvalError("items iii-vi need a family and a bound")
    family = materialize_k_arity(s, fam, var.arity, bound)
    model = StandardModel(s, _FixedFamilyK(family))
    if which in ("iii", "iv"):
        quant = ForallSO(var, body) if which == "iii" else ExistsSO(var, body)
        lhs = ta.class_of(quant, model)
        sides = [ta.class_of(body, model, so_assignment={var: rel})
                 for rel in family.relations(var.arity)]
        rhs = alg.meet_all(sides) if which == "iii" else alg.join_all(sides)
        return lhs == rhs
    if which in ("v", "vi"):
        members = []
        if fam.arity_supported(var.arity):
            members = [fam.arity_member(var.arity, n) for n in range(bound + 1)]
        if which == "v":
            lhs = ta.class_of(ForallSO(var, body), model)
            sides = [ta.class_of(a6_instantiate(body, var, m), model)
                     for m in members]
            return lhs == alg.meet_all(sides)
        lhs = ta.class_of(ExistsSO(var, body), model)
        sides = [alg.complement(ta.class_of(a6_instantiate(Not(body), var, m), model))
                 for m in members]
        return lhs == alg.join_all(sides)
    raise EvalError(f"unknown item {which!r}")


class _FixedFamilyK:
    def __init__(self, family: DefinableFamily):
        self.family = family
        self.name = "fixed"

    def relations(self, s, arity):
        return self.family.relations(arity)


# ---------------------------------------------------------------------------
# Reduction by indistinguishability
# ---------------------------------------------------------------------------

def leibniz_reduce(s: FiniteStructure, depth: int | None = None):
    """Quotient by indistinguishability under identity-free formulas with
    parameters.

    Elements are first split by their atomic predicate facts in every
    parameter context, then repeatedly by the classes of their function
    images; quantified variables add nothing because every element is
    already available as a parameter.  `depth` caps the function-image
    rounds; by default refinement runs to a fixpoint, which keeps the
    quotient well-defined.
    """
    color = {}
    for a in s.elements:
        facts = []
        for name in sorted(s.predicates):
            arity = s.sig.predicates[name]
            rows = s.predicates[name]
            for pos in range(arity):
                for ctx in itertools.product(range(s.size), repeat=arity - 1):
                    row = ctx[:pos] + (a,) + ctx[pos:]
                    if row in rows:
                        facts.append((name, pos, ctx))
        color[a] = ("atoms", tuple(facts))
    color = _canon_colors(color)

    rounds = 0
    while depth is None or rounds < depth:
        new = {}
        for a in s.elements:
            images = []
            for name in sorted(s.functions):
                arity = s.sig.functions[name]
                table = s.functions[name]
                for pos in range(arity):
                    for ctx in itertools.product(range(s.size), repeat=arity - 1):
                        args = ctx[:pos] + (a,) + ctx[pos:]
                        images.append((name, pos, ctx, color[table[args]]))
            new[a] = (color[a], tuple(images))
        new = _canon_colors(new)
        rounds += 1
        if new == color:
            break
        color = new

    blocks: dict = {}
    for a in s.elements:
        blocks.setdefault(color[a], []).append(a)
    partition = sorted((sorted(b) for b in blocks.values()), key=lambda b: b[0])
    index = {}
    for i, block in enumerate(partition):
        for a in block:
            index[a] = i
    reps = [block[0] for block in partition]
    # interpret each block by its least representative
    predicates = {}
    for name, rows in s.predicates.items():
        arity = s.sig.predicates[name]
        out = set()
        for brow in itertools.product(range(len(partition)), repeat=arity):
            if tuple(reps[i] for i in brow) in rows:
                out.add(brow)
        predicates[name] = out
    functions = {}
    for name, table in s.functions.items():
        arity = s.sig.functions[name]
        ftab = {}
        for brow in itertools.product(range(len(partition)), repeat=arity):
            ftab[brow] = index[table[tuple(reps[i] for i in brow)]]
        functions[name] = ftab
    constants = {name: index[v] for name, v in s.constants.items()}
    quotient = FiniteStructure(s.sig, len(partition), predicates, functions, constants)
    return quotient, partition


def _canon_colors(color: dict) -> dict:
    values = sorted(set(color.values()), key=repr)
    rank = {v: i for i, v in enumerate(values)}
    return {a: rank[v] for a, v in color.items()}


# ---------------------------------------------------------------------------
# Regular-family bridge into the chain construction
# ---------------------------------------------------------------------------

def truth_class_entries(s: FiniteStructure, v: int, formulas, fam: ThetaFamily,
                        bound: int):
    """Regular entries over the truth algebra mirroring the three shapes of
    quantifier families: element instances, family relations, and member
    instantiations.  All bounds are exact by the finite quantifier
    identities, so the entries feed straight into the chain construction."""
    from .boolean import RegularEntry

    ta = truth_algebra(s, v)
    ext, consts = s.with_element_constants()
    ta2 = truth_algebra(ext, v)
    entries = []
    for i, (body, var) in enumerate(formulas):
        if isinstance(var, FOVar):
            members = tuple(ta2.class_of(substitute_fo(body, var, c)) for c in consts)
            entries.append(RegularEntry(
                "join", ta2.class_of(ExistsFO(var, body)), members=members,
                name=f"fo-join{i}"))
            entries.append(RegularEntry(
                "meet", ta2.class_of(ForallFO(var, body)), members=members,
                name=f"fo-meet{i}"))
        else:
            family = materialize_k_arity(s, fam, var.arity, bound)
            model = StandardModel(s, _FixedFamilyK(family))
            members = tuple(ta.class_of(body, model, so_assignment={var: rel})
                            for rel in family.relations(var.arity))
            entries.append(RegularEntry(
                "join", ta.class_of(ExistsSO(var, body), model), members=members,
                name=f"so-join{i}"))
            entries.append(RegularEntry(
                "meet", ta.class_of(ForallSO(var, body), model), members=members,
                name=f"so-meet{i}"))
            insts = tuple(
                ta.class_of(a6_instantiate(body, var, fam.arity_member(var.arity, n)),
                            model)
                for n in range(bound + 1))
            entries.append(RegularEntry(
                "meet", ta.class_of(ForallSO(var, body), model), members=insts,
                name=f"inst-meet{i}"))
    return entries
