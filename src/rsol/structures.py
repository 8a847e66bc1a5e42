"""Finite structures and evaluation over definable-relation ranges.

A standard model pairs a finite structure with a provider for the
relations its second-order quantifiers range over: either a bounded
materialization of a formula family, an exact oracle (automorphism
orbits for parameter-free definability, all relations for definability
with parameters), or the full powerset for collapse testing.

A provider writes its range once, and `_Provider` derives the other
form.  Evaluation quantifies over `masks(s, arity)`, each relation an int
whose bit i is set when row i of A^arity, in row-major order, is in it;
`relations(s, arity)` lists the same range as frozensets of rows, for
printing.  The block-union oracles (`OrbitK`, `AllRelationsK`,
`WeakSOExactK`, `RankBoundedDslK`) write masks, in mask order, and `_rows`
lists their relations; the family-backed providers (`MaterializedK`,
`_FixedFamilyK`) list their `DefinableFamily`'s, and `_masks` gives masks.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Iterable, Mapping, Optional

from .boolean import PowersetAlgebra, RegularEntry, verify_entry
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


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise EvalError(f"{what} must be a JSON object")
    return value


def _json_int(value, what: str) -> int:
    if type(value) is not int:            # JSON true/false load as bool
        raise EvalError(f"{what} must be an integer")
    return value


def _json_ints(values, what: str) -> list:
    if not isinstance(values, list) or any(type(v) is not int for v in values):
        raise EvalError(f"{what} must be a list of integers")
    return values


def structure_from_json(data: dict):
    """Build (signature, structure) from the JSON structure format.

    Malformed input raises EvalError, never a TypeError from deep inside."""
    data = _json_object(data, "structure")
    size = _json_int(data["domain_size"], "domain_size")
    if size < 1:
        raise EvalError("domain must be nonempty")
    predicates = {}
    for name, rows in _json_object(data.get("predicates", {}), "predicates").items():
        if not isinstance(rows, list):
            raise EvalError(f"predicate {name}: rows must be a list")
        predicates[name] = [tuple(_json_ints(row, f"predicate {name} row"))
                            for row in rows]
    declared_arities = {name: _json_int(arity, f"arity of {name}") for name, arity
                        in _json_object(data.get("arities", {}), "arities").items()}
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
    for name, table in _json_object(data.get("functions", {}), "functions").items():
        table = _json_ints(table, f"function {name} table")
        arity = declared_arities.get(name)
        if arity is None:
            arity = 1
            while size > 1 and size ** arity < len(table):
                arity += 1
        if size ** arity != len(table):
            raise EvalError(f"function {name}: table length {len(table)} does not "
                            f"match |A|^{arity}")
        fun_arities[name] = arity
        mapping = {}
        for i, args in enumerate(itertools.product(range(size), repeat=arity)):
            mapping[args] = table[i]
        functions[name] = mapping
    constants = {name: _json_int(value, f"constant {name}") for name, value
                 in _json_object(data.get("constants", {}), "constants").items()}
    identity = data.get("identity", True)
    if not isinstance(identity, bool):
        raise EvalError("identity must be true or false")
    sig = Signature(predicates=pred_arities, functions=fun_arities,
                    constants=constants.keys(), identity=identity)
    return sig, FiniteStructure(sig, size, predicates, functions, constants)


def load_structure(path: str):
    with open(path, encoding="utf-8") as fh:
        return structure_from_json(json.load(fh))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _masks(s: FiniteStructure, arity: int, relations) -> list:
    """Each relation (a set of rows) as an int whose bit i is set when the
    i-th row of A^arity, in row-major order, belongs to it."""
    bit = {row: 1 << i for i, row in
           enumerate(itertools.product(range(s.size), repeat=arity))}
    try:
        return [sum(map(bit.__getitem__, frozenset(rel))) for rel in relations]
    except KeyError as err:
        raise EvalError(f"row {err.args[0]} is outside A^{arity}") from None


def _rows(s: FiniteStructure, arity: int, masks) -> list:
    """Each mask as the frozenset of its rows: the inverse of `_masks`."""
    rows = list(itertools.product(range(s.size), repeat=arity))
    return [frozenset(row for i, row in enumerate(rows) if m >> i & 1)
            for m in masks]


def _elements(s: FiniteStructure, fo: Mapping) -> list:
    for var, value in fo.items():
        if value not in s.elements:
            raise EvalError(f"{var} is assigned {value!r}, outside the domain")
    return list(fo.values())


def _fail(message: str):
    """Code that raises EvalError(message) when it runs."""
    def fail(*_):
        raise EvalError(message)
    return fail


def _compile(s: FiniteStructure, f: Formula, fo_vars=(), rels=None, masks=None):
    """Normalized f as `run(values) -> bool`, values in the order of fo_vars;
    `rels` maps relation variables to masks, and `masks(arity)`, read when a
    relation quantifier runs, is its range (first-order f needs none).
    f becomes nested closures `code(e, r)` over lists of elements and of
    relations, with a slot for each free variable, predicate and binder: no
    binding is saved or restored, and a shadowed binder has its own slot.
    Unassigned variables and nodes outside the primitives compile to
    `_fail`, which raises only where evaluation reaches it."""
    n, domain = s.size, range(s.size)
    r0: list = []                    # the initial r
    width = len(fo_vars)             # e slots taken

    def r_slot(value=0):
        r0.append(value)
        return len(r0) - 1

    preds: dict = {}                 # predicate name -> its r slot
    senv = {var: r_slot(mask) for var, mask in (rels or {}).items()}

    def term(t, fenv):
        """The value of t, or of the row t lists in A^k: an int when it is
        fixed at compile time, else e -> int."""
        if type(t) is tuple:
            c, parts = 0, []
            for j, a in enumerate(t):
                w, v = n ** (len(t) - 1 - j), term(a, fenv)
                if type(v) is int:
                    c += w * v
                else:
                    parts.append((w, v))
            if not parts:
                return c
            if len(parts) == 1 and parts[0][0] == 1 and not c:
                return parts[0][1]
            if len(parts) == 2:
                (w, g), (v, h) = parts
                return lambda e: g(e) * w + h(e) * v + c
            return lambda e: c + sum(w * g(e) for w, g in parts)
        if type(t) is Var:
            return itemgetter(fenv[t.var]) if t.var in fenv \
                else _fail(f"{t.var} is unassigned")
        if type(t) is Const:
            return s.constants[t.name]
        if type(t) is Func and len(t.args) == s.sig.functions[t.name]:
            table = s.functions[t.name]
            image = [table[row] for row in itertools.product(domain, repeat=len(t.args))]
            i = term(t.args, fenv)
            return image[i] if type(i) is int else lambda e: image[i(e)]
        return _fail(f"not a term: {t!r}")

    def atom(j, args, fenv):
        i = term(args, fenv)
        if type(i) is int:
            return lambda e, r: r[j] >> i & 1
        return lambda e, r: r[j] >> i(e) & 1

    def quantifier(g, body, fenv, senv, exists):
        nonlocal width
        so = type(g) is ForallSO
        if not so:
            slot, width = width, width + 1
            fenv, values = {**fenv, g.var: slot}, lambda: domain
        elif masks is None:
            return _fail(f"unexpected node in evaluation: {g!r}")
        else:
            slot = r_slot()
            senv, values = {**senv, g.var: slot}, partial(masks, g.var.arity)
        code = comp(body, fenv, senv)

        def run(e, r):               # every code returns 0, 1, False or True
            store = r if so else e
            for store[slot] in values():
                if code(e, r) == exists:
                    return exists
            return not exists
        return run

    def comp(g, fenv, senv):
        t = type(g)
        if t is Not:
            b = g.body
            if type(b) in (ForallFO, ForallSO) and type(b.body) is Not:
                return quantifier(b, b.body.body, fenv, senv, True)
            code = comp(b, fenv, senv)
            return lambda e, r: not code(e, r)
        if t is And:
            left, right = comp(g.left, fenv, senv), comp(g.right, fenv, senv)
            return lambda e, r: left(e, r) and right(e, r)
        if t is ForallFO or t is ForallSO:
            return quantifier(g, g.body, fenv, senv, False)
        if t is PredApp and len(g.args) == s.sig.predicates[g.name]:
            if g.name not in preds:
                preds[g.name] = r_slot(*_masks(s, len(g.args), [s.predicates[g.name]]))
            return atom(preds[g.name], g.args, fenv)
        if t is SOApp:
            return atom(senv[g.var], g.args, fenv) if g.var in senv \
                else _fail(f"{g.var} is unassigned")
        if t is TermEq:
            a, b = (v if callable(v) else (lambda e, v=v: v)
                    for v in (term(g.left, fenv), term(g.right, fenv)))
            return lambda e, r: a(e) == b(e)
        if t is SOEq:
            for v in (g.left, g.right):
                if v not in senv:
                    return _fail(f"{v} is unassigned")
            i, k = senv[g.left], senv[g.right]
            return lambda e, r: r[i] == r[k]
        return _fail(f"unexpected node in evaluation: {g!r}")

    code = comp(f, {v: i for i, v in enumerate(fo_vars)}, senv)
    pad = [0] * (width - len(fo_vars))
    return lambda values: bool(code([*values, *pad], r0.copy()))


def eval_fo(s: FiniteStructure, f: Formula, assignment: Mapping | None = None) -> bool:
    """Tarskian truth of a first-order formula under an assignment."""
    if not is_first_order(f):
        raise EvalError("eval_fo is for first-order formulas")
    fo = dict(assignment or {})
    return _compile(s, normalize(f), fo)(_elements(s, fo))


# ---------------------------------------------------------------------------
# Definable families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Provenance:
    """Where a relation of a family came from; a θ-member's relation also
    records the member index and the parameter tuple that define it."""
    kind: str                     # 'theta' | 'orbit' | 'rank-enum'
    theta_index: Optional[int] = None
    params: Optional[tuple] = None


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
    return _materialize(s, fam.enumerate_up_to(bound))


def _materialize(s: FiniteStructure, members: list) -> DefinableFamily:
    """The relations the members define over every parameter tuple, refused
    before any is evaluated when the tuples would exceed the guard."""
    total_tuples = sum(s.size ** len(m.params) for m in members)
    if total_tuples > MATERIALIZE_TUPLE_GUARD:
        raise FeasibilityError(
            f"materialization would scan {total_tuples} parameter tuples")
    family = DefinableFamily()
    for m in members:
        define = _definer(s, m)
        for params in itertools.product(range(s.size), repeat=len(m.params)):
            family.add(m.arity, define(params),
                       Provenance("theta", theta_index=m.index, params=params))
    return family


def _definer(s: FiniteStructure, m: ThetaMember):
    """Member m, compiled once, as params -> the relation it defines there."""
    run = _compile(s, normalize(m.formula), m.params + m.slots)
    rows = list(itertools.product(range(s.size), repeat=m.arity))
    return lambda params: frozenset(row for row in rows if run(params + row))


# ---------------------------------------------------------------------------
# Automorphisms and exact oracles
# ---------------------------------------------------------------------------

def automorphisms(s: FiniteStructure) -> list:
    """All domain permutations preserving the interpretation, in
    lexicographic order."""
    colour, cells, autos = _symmetry(s)
    if autos is None:                # every colour-preserving permutation
        autos = list(itertools.permutations(range(s.size))) if len(cells) == 1 \
            else _search(colour, cells, [])
    return autos


def tuple_orbits(s: FiniteStructure, arity: int) -> list:
    """The orbits of the automorphisms on arity-tuples, least tuples first."""
    colour, cells, autos = _symmetry(s)
    rows = itertools.product(range(s.size), repeat=arity)
    if autos is None:                # orbit = colours plus which entries are equal
        classes: dict = {}
        for row in rows:
            key = (*map(colour.__getitem__, row), *map(row.index, row))
            classes.setdefault(key, []).append(row)
        return [frozenset(c) for c in classes.values()]
    seen = set()
    orbits = []
    for row in rows:
        if row in seen:
            continue
        orbit = {tuple(perm[v] for v in row) for perm in autos}
        seen |= orbit
        orbits.append(frozenset(orbit))
    return orbits


def _symmetry(s: FiniteStructure):
    """(colour, cells, autos): an automorphism-invariant colour for each
    element, the elements of each colour, and the sorted automorphisms, or
    None when they are all the colour-preserving permutations (colour
    refinement and search after McKay & Piperno 2014).

    Functions count as the relations of their graphs.  The first colour
    says which relations hold of (a, ..., a) and names a constant's
    element.  Until a transposition and a cycle of each cell, which
    generate the cell's symmetric group, preserve every relation, a colour
    is refined by the rows its element occurs in, the element marked and
    the other entries coloured; if that stops splitting, `_search` runs.
    """
    n, preds, funcs = s.size, sorted(s.predicates), sorted(s.functions)
    rels = [s.predicates[p] for p in preds] + [
        frozenset(args + (v,) for args, v in s.functions[f].items()) for f in funcs]
    named = set(s.constants.values())     # automorphisms fix these elements
    colour = _ranks([(a if a in named else -1,     # then: which R hold of (a, ..., a)
                      tuple((a,) * len(next(iter(rows), ())) in rows for rows in rels))
                     for a in range(n)])
    while True:
        cells = [[] for _ in range(max(colour) + 1)]
        for a, c in enumerate(colour):
            cells[c].append(a)
        moves = [dict(zip(cell, images)) for cell in cells if len(cell) > 1
                 for images in (cell[1::-1] + cell[2:], cell[1:] + cell[:1])]
        if all(tuple(m.get(v, v) for v in row) in rows
               for m in moves for rows in rels for row in rows):
            return colour, cells, None
        occurs: list = [[] for _ in range(n)]
        for i, rows in enumerate(rels):
            for row in rows:
                cols = tuple(map(colour.__getitem__, row))
                for a in set(row):
                    occurs[a].append((i, cols, tuple(map(a.__eq__, row))))
        new = _ranks([(colour[a], tuple(sorted(occurs[a]))) for a in range(n)])
        if len(cells) == max(new) + 1:
            return colour, cells, _search(colour, cells, rels)
        colour = new


def _search(colour: list, cells: list, rels: list) -> list:
    """Every colour-preserving permutation that maps each relation into
    itself, sorted.  Elements are visited breadth-first through shared
    rows, and each row is tested once its last element has an image."""
    n = len(colour)
    linked = [set() for _ in range(n)]
    for row in itertools.chain(*rels):
        for v in row:
            linked[v].update(row)
    order = []
    for root in sorted(range(n), key=lambda a: len(cells[colour[a]])):
        if root not in order:
            order.append(root)
            for a in itertools.islice(order, len(order) - 1, None):   # grows as read
                order += sorted(linked[a].difference(order))
    position = {a: i for i, a in enumerate(order)}
    checks = [[] for _ in range(n)]
    for rows in rels:
        for row in rows:
            checks[max(map(position.__getitem__, row))].append((rows, row))
    perm, used, out = [None] * n, [False] * n, []
    image = perm.__getitem__
    stack = [iter(cells[colour[order[0]]])]
    while stack:
        level = len(stack) - 1
        a = order[level]
        if perm[a] is not None:                   # undo the previous choice
            used[perm[a]] = False
        for b in stack[-1]:
            if used[b]:
                continue
            perm[a] = b
            for rows, row in checks[level]:
                if tuple(map(image, row)) not in rows:
                    break
            else:
                break                             # b passes every check
        else:
            perm[a] = None
            stack.pop()
            continue
        used[b] = True
        if level + 1 == n:
            out.append(tuple(perm))
        else:
            stack.append(iter(cells[colour[order[level + 1]]]))
    return sorted(out)


def _ranks(values: list) -> list:
    """Each value replaced by its rank among the distinct values."""
    rank = {v: i for i, v in enumerate(sorted(set(values)))}
    return [rank[v] for v in values]


def k_exact_orbits(s: FiniteStructure, with_parameters: bool,
                   arity: int) -> DefinableFamily:
    """Exact oracle for first-order definability over a finite structure.

    Without parameters, the definable relations are exactly the unions of
    automorphism orbits of tuples.  With parameters every relation is
    definable (take one parameter per element and a disjunction of
    coordinatewise matches), so the family is the full powerset.
    """
    family, prov = DefinableFamily(), Provenance("orbit")
    for rel in _unions(*_exact_blocks(s, with_parameters, arity)):
        family.add(arity, rel, prov)
    return family


def _exact_blocks(s: FiniteStructure, with_parameters: bool, arity: int):
    """(blocks, what): the blocks whose unions are the exact range, the
    singleton rows of A^arity with parameters and the orbits without,
    refused before any row exists when the rows or orbits pass the guard."""
    if with_parameters:
        # the cap skips the power of a hostile arity
        if s.size ** min(arity, 64) > RELATION_GUARD:
            raise FeasibilityError(f"2^({s.size}^{arity}) relations exceed the guard")
        rows = itertools.product(range(s.size), repeat=arity)
        return [frozenset([row]) for row in rows], "relations"
    # tuples with different equality patterns lie in different orbits, so
    # |A| >= 2 gives at least 2^(arity-1) of them: refuse before the rows
    # exist once that count passes the guard
    if s.size >= 2 and arity > RELATION_GUARD.bit_length():
        raise FeasibilityError(
            f"2^(2^{arity - 1}) or more orbit unions exceed the guard")
    return tuple_orbits(s, arity), "orbit unions"


def _unions(blocks: list, what: str = "relations", empty=frozenset()):
    """Every union of the blocks (frozensets of rows, or masks with empty
    0), in mask order, the empty one first; the union at mask m + 2^i is
    the one at m plus block i."""
    if len(blocks) > RELATION_GUARD:
        raise FeasibilityError(f"2^{len(blocks)} {what} exceed the guard")
    out = [empty]
    yield empty
    for b in blocks:
        for i in range(len(out)):
            out.append(out[i] | b)
            yield out[-1]


def rank_bounded_unary_family(s: FiniteStructure, rank: int) -> DefinableFamily:
    """Subsets definable by parameter-free formulas of bounded quantifier
    rank in one free variable.

    Computed by back-and-forth type refinement: two elements satisfy the
    same such formulas up to the rank iff their iterated extension types
    agree, and every union of type classes is defined by a disjunction of
    the class-describing formulas at that rank.  Relational signatures
    only; identity atoms participate only when the signature has identity.

    The types are refined for k = 0, 1, ..., rank, and the loop stops at
    the first k whose element partition equals the automorphism-orbit
    partition.  The result is the rank-`rank` family all the same: the
    rank-k type embeds the rank-(k-1) type, so partitions only refine as
    k grows, and automorphisms preserve types, so no partition splits an
    orbit; once equal to the orbits, the partition stays equal.  A rank
    that never reaches the orbits returns its own, coarser partition.
    The orbits come from `tuple_orbits` (colour refinement, then a search
    pruned by the colours only where they leave the group open); the type
    tree at rank k has |A|^(k+1) rows.
    """
    family, prov = DefinableFamily(), Provenance("rank-enum")
    for rel in _unions(_rank_classes(s, rank)):
        family.add(1, rel, prov)
    return family


def _rank_classes(s: FiniteStructure, rank: int) -> list:
    """The element classes whose unions `rank_bounded_unary_family` lists,
    as sets of 1-tuples."""
    if s.functions:
        raise EvalError("rank-bounded enumeration supports relational signatures only")
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

    orbits = set(tuple_orbits(s, 1))
    for k in range(rank + 1):
        classes: dict = {}
        for a in s.elements:
            classes.setdefault(tp(k, (a,)), []).append(a)
        blocks = [frozenset((a,) for a in members) for members in classes.values()]
        if set(blocks) == orbits:
            break
    return blocks


# ---------------------------------------------------------------------------
# Providers and standard models
# ---------------------------------------------------------------------------

class _Provider:
    """A range: each provider overrides one form, and the other is derived here."""

    def relations(self, s: FiniteStructure, arity: int) -> list:
        return _rows(s, arity, self.masks(s, arity))

    def masks(self, s: FiniteStructure, arity: int) -> list:
        return _masks(s, arity, self.relations(s, arity))


class MaterializedK(_Provider):
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


class OrbitK(_Provider):
    """Exact parameter-free oracle, optionally restricted to some arities."""

    def __init__(self, arities: Optional[set] = None):
        self.arities = arities
        self.name = "orbits"

    def masks(self, s: FiniteStructure, arity: int) -> list:
        if self.arities is not None and arity not in self.arities:
            return []
        orbits, what = _exact_blocks(s, False, arity)
        return list(_unions(_masks(s, arity, orbits), what, 0))


class AllRelationsK(_Provider):
    """Exact oracle for definability with parameters: every relation."""

    name = "all-relations"

    def masks(self, s: FiniteStructure, arity: int) -> range:
        # the unions of the singleton rows, in mask order, are every int below
        return range(1 << len(_exact_blocks(s, True, arity)[0]))


class WeakSOExactK(_Provider):
    """Exact range for the equality-disjunction family: nonempty relations
    of the family's arity."""

    def __init__(self, k: int = 1):
        self.k = k
        self.name = f"weak-so-exact:{k}"

    def masks(self, s: FiniteStructure, arity: int):
        return AllRelationsK().masks(s, arity)[1:] if arity == self.k else []


class RankBoundedDslK(_Provider):
    """Bounded-enumeration range for the one-free-variable family, at rank
    |A| + 1."""

    name = "dsl-rank:auto"

    def masks(self, s: FiniteStructure, arity: int) -> list:
        if arity != 1:
            return []
        return list(_unions(_masks(s, 1, _rank_classes(s, s.size + 1)), "relations", 0))


class StandardModel:
    def __init__(self, structure: FiniteStructure, provider):
        self.structure = structure
        self.provider = provider
        self._masks: dict = {}

    def relations(self, arity: int) -> list:
        return self.provider.relations(self.structure, arity)

    def masks(self, arity: int):
        """The provider's range as bitmasks, asked once per model."""
        if arity not in self._masks:
            self._masks[arity] = self.provider.masks(self.structure, arity)
        return self._masks[arity]


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
    s, rels = m.structure, {}
    for var, rel in a.so.items():
        rels[var], = _masks(s, var.arity, [rel])
        if rels[var] not in m.masks(var.arity):
            raise EvalError(
                f"assignment for {var} is outside the definable family")
    return _compile(s, normalize(f), list(a.fo), rels, m.masks)(_elements(s, a.fo))


def eval_so_closure(m: StandardModel, f: Formula) -> bool:
    """Truth of the universal closure (both sorts) over the model."""
    fo, so = free_variables(f)
    for v in sorted(so):
        f = ForallSO(v, f)
    for v in sorted(fo):
        f = ForallFO(v, f)
    return eval_so(m, f)


def _all_relations(s: FiniteStructure, arity: int):
    if s.size ** min(arity, 64) > RELATION_GUARD:
        raise FeasibilityError(
            f"full second-order range needs 2^({s.size}^{arity}) relations")
    cells = s.size ** arity
    rows = list(itertools.product(range(s.size), repeat=arity))
    for mask in range(1 << cells):
        yield frozenset(rows[i] for i in range(cells) if mask >> i & 1)


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


def _eval_full_prim(s: FiniteStructure, f: Formula, env: dict, senv: dict) -> bool:
    """The reference: a tree walk over dict environments that shares no code
    with `_compile`."""
    if isinstance(f, ForallSO):
        return all(_eval_full_prim(s, f.body, env, {**senv, f.var: rel})
                   for rel in _all_relations(s, f.var.arity))
    if isinstance(f, PredApp):
        return tuple(_term_value(s, t, env) for t in f.args) in s.predicates[f.name]
    if isinstance(f, TermEq):
        return _term_value(s, f.left, env) == _term_value(s, f.right, env)
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
        for e in s.elements:
            if not _eval_full_prim(s, f.body, {**env, f.var: e}, senv):
                return False
        return True
    raise EvalError(f"unexpected node in evaluation: {f!r}")


def eval_full_so(s: FiniteStructure, f: Formula,
                 assignment: Assignment | None = None) -> bool:
    """Brute-force truth with relation quantifiers over all relations."""
    a = assignment or Assignment()
    return _eval_full_prim(s, normalize(f), a.fo, a.so)


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
        # |A|^v tuples of v entries each; the cap keeps a hostile v from
        # building a huge power
        if s.size ** min(v, 64) * v > MATERIALIZE_TUPLE_GUARD:
            raise FeasibilityError(f"the truth algebra on A^{v} would list "
                                   f"more than {MATERIALIZE_TUPLE_GUARD} tuple entries")
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
        rels = {var: _masks(self.structure, var.arity, [rows])[0]
                for var, rows in (so_assignment or {}).items()}
        run = _compile(self.structure, nf, [FOVar(i) for i in range(self.v)],
                       rels, model.masks if model is not None else None)
        return frozenset(row for row in self.tuples if run(row))


def truth_algebra(s: FiniteStructure, v: int) -> TruthAlgebra:
    return TruthAlgebra(s, v)


# ---------------------------------------------------------------------------
# Quantifiers as meets and joins, at finite scale
# ---------------------------------------------------------------------------

# item -> (kind of the designated bound, quantifier, entry name)
_ITEMS = {
    "i": ("meet", ForallFO, "fo-meet"), "ii": ("join", ExistsFO, "fo-join"),
    "iii": ("meet", ForallSO, "so-meet"), "iv": ("join", ExistsSO, "so-join"),
    "v": ("meet", ForallSO, "inst-meet"), "vi": ("join", ExistsSO, "inst-join"),
}


def _quantifier_entry(s: FiniteStructure, v: int, body: Formula, which: str,
                      var, fam: ThetaFamily | None = None,
                      bound: int | None = None,
                      ta: TruthAlgebra | None = None) -> RegularEntry:
    """Item `which` of the quantifier identities as a regular entry over the
    truth algebra on A^v: the bound is the class of the quantified formula,
    the members are the classes of its instances.

    i/ii:  the element instantiations, via fresh constants;
    iii/iv: the body under each relation of the materialized family;
    v/vi:  the family-member instantiations with their parameter prefixes
           evaluated (vi through the complement of the instances of ¬body).
    Items iii-vi read members 0..bound of the per-arity view of the family,
    which refuses an arity that the family has no members of.  A negative
    bound holds no member and is refused for every item.
    `ta`, if given, is the truth algebra on A^v to build the classes of
    items iii-vi in; items i/ii build theirs over s with the constants, on
    the same tuples.
    """
    if which not in _ITEMS:
        raise EvalError(f"unknown item {which!r}")
    if bound is not None and bound < 0:
        raise EvalError(f"bound must be >= 0, got {bound}")
    kind, quantifier, name = _ITEMS[which]
    model = None
    if which in ("i", "ii"):
        if not isinstance(var, FOVar):
            raise EvalError("items i/ii quantify a first-order variable")
        # the algebra over s expanded by one constant per element
        s, consts = s.with_element_constants()
        ta = truth_algebra(s, v)
        if not is_first_order(body):
            if fam is None or bound is None:
                raise EvalError("second-order bodies need a family and bound")
            model = StandardModel(s, MaterializedK(fam, bound))
    else:
        if not isinstance(var, SOVar):
            raise EvalError("items iii-vi quantify a relation variable")
        if fam is None or bound is None:
            raise EvalError("items iii-vi need a family and a bound")
        ta = ta or truth_algebra(s, v)
        thetas = [fam.arity_member(var.arity, n) for n in range(bound + 1)]
        family = _materialize(s, thetas)
        model = StandardModel(s, _FixedFamilyK(family))
    top = ta.class_of(quantifier(var, body), model)
    if which in ("i", "ii"):
        members = [ta.class_of(substitute_fo(body, var, c), model) for c in consts]
    elif which in ("iii", "iv"):
        members = [ta.class_of(body, model, so_assignment={var: rel})
                   for rel in family.relations(var.arity)]
    elif which == "v":
        members = [ta.class_of(a6_instantiate(body, var, m), model) for m in thetas]
    else:
        members = [ta.algebra.complement(
                       ta.class_of(a6_instantiate(Not(body), var, m), model))
                   for m in thetas]
    return RegularEntry(kind, top, members=members, name=name)


def lemma_reg_check(s: FiniteStructure, v: int, body: Formula, which: str,
                    var, fam: ThetaFamily | None = None,
                    bound: int | None = None) -> bool:
    """Finite analogs of the quantifier/meet identities in the truth algebra:
    the class of the quantified formula is exactly the meet (items i, iii,
    v) or join (ii, iv, vi) of the classes of its instances, checked on the
    entry `_quantifier_entry` builds."""
    ta = truth_algebra(s, v)
    entry = _quantifier_entry(s, v, body, which, var, fam, bound, ta)
    return verify_entry(ta.algebra, entry).status == "exact"


class _FixedFamilyK(_Provider):
    def __init__(self, family: DefinableFamily):
        self.family = family
        self.name = "fixed"

    def relations(self, s, arity):
        return self.family.relations(arity)


# ---------------------------------------------------------------------------
# Reduction by indistinguishability
# ---------------------------------------------------------------------------

def leibniz_reduce(s: FiniteStructure):
    """Quotient by indistinguishability under identity-free formulas with
    parameters: the coarsest congruence, read off the rows and tables.

    Every element is available as a parameter, so what tells an element
    apart is its contexts: (symbol, position, the other entries, value)
    for each predicate row and each function-table entry it occurs in.  A
    row's value is fixed and an entry's is the colour of its image.  The
    colours start from the predicate contexts and are refined by the
    function contexts until no colour splits; quantified variables add
    nothing.  Only the fixpoint is a congruence, and there the images of
    the rows, entries and constants form a well-defined quotient.
    """
    def contexts(entries):
        occurs: list = [[] for _ in s.elements]
        for name, row, value in entries:
            for pos, a in enumerate(row):
                occurs[a].append((name, pos, row[:pos] + row[pos + 1:], value))
        return [tuple(sorted(c)) for c in occurs]

    colour = _ranks(contexts((name, row, True) for name, rows in s.predicates.items()
                             for row in rows))
    entries = [(name, args, v) for name, table in s.functions.items()
               for args, v in table.items()]
    while True:
        new = _ranks(list(zip(colour, contexts(
            (name, args, colour[v]) for name, args, v in entries))))
        if max(new) == max(colour):
            break
        colour = new

    blocks: dict = {}
    for a, c in enumerate(colour):
        blocks.setdefault(c, []).append(a)
    partition = sorted(blocks.values())
    index = {a: i for i, block in enumerate(partition) for a in block}

    def image(row):
        return tuple(map(index.__getitem__, row))
    predicates = {name: {image(row) for row in rows}
                  for name, rows in s.predicates.items()}
    functions = {name: {image(args): index[v] for args, v in table.items()}
                 for name, table in s.functions.items()}
    constants = {name: index[v] for name, v in s.constants.items()}
    quotient = FiniteStructure(s.sig, len(partition), predicates, functions, constants)
    return quotient, partition


# ---------------------------------------------------------------------------
# Regular-family bridge into the chain construction
# ---------------------------------------------------------------------------

def truth_class_entries(s: FiniteStructure, v: int, formulas, fam: ThetaFamily,
                        bound: int):
    """Regular entries over the truth algebra mirroring the three shapes of
    quantifier families: element instances, family relations, and member
    instantiations.  All bounds are exact by the finite quantifier
    identities, so the entries feed straight into the chain construction."""
    entries = []
    for i, (body, var) in enumerate(formulas):
        for which in ("ii", "i") if isinstance(var, FOVar) else ("iv", "iii", "v"):
            entry = _quantifier_entry(s, v, body, which, var, fam, bound)
            entry.name += str(i)
            entries.append(entry)
    return entries
