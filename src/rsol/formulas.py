"""Two-sorted syntax: terms, formulas, parsing, printing, substitution.

First-order variables are index-based (x0, x1, ...).  Second-order
variables carry an index and a relation arity (X0^1, X3^2, ...).
Negation, conjunction and the two universal quantifiers are primitive;
disjunction, implication, biconditional and the existentials are kept in
the AST as sugar and removed by `normalize`.  Semantic and proof-level
code operates on normalized formulas only.  A node keeps two facts once
computed, its hash and a mark that it is normal, neither a dataclass field.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass, fields, replace
from typing import Iterable, Mapping


class FormulaError(ValueError):
    """Ill-formed term or formula (arity clash, bad sort, ...)."""


class ParseError(FormulaError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NestingError(ParseError):
    """A formula nested deeper than MAX_DEPTH, refused as a whole."""


class CaptureError(FormulaError):
    """Substitution would capture a variable and renaming was disallowed."""


# ---------------------------------------------------------------------------
# Signature
# ---------------------------------------------------------------------------

_VAR_LIKE = re.compile(r"^[uvwxyz]\d*$|^[XYZVW]\d*$")


class Signature:
    """Predicate, function and constant symbols plus the identity flag.

    Zero-ary functions are folded into the constants.  Symbol names must
    be distinct across kinds and must not look like variables.
    """

    def __init__(self, predicates: Mapping[str, int] | None = None,
                 functions: Mapping[str, int] | None = None,
                 constants: Iterable[str] = (), identity: bool = True):
        self.predicates = dict(predicates or {})
        self.functions = {}
        self.constants = set(constants)
        self.identity = bool(identity)
        for name, arity in (functions or {}).items():
            if arity == 0:
                self.constants.add(name)
            else:
                self.functions[name] = arity
        seen = set()
        for name in list(self.predicates) + list(self.functions) + list(self.constants):
            if name in seen:
                raise FormulaError(f"duplicate symbol name {name!r}")
            if _VAR_LIKE.match(name):
                raise FormulaError(f"symbol name {name!r} clashes with variable syntax")
            seen.add(name)
        for name, arity in self.predicates.items():
            if arity < 1:
                raise FormulaError(f"predicate {name!r} must have arity >= 1")
        for name, arity in self.functions.items():
            if arity < 1:
                raise FormulaError(f"function {name!r} must have arity >= 1")

    def with_constants(self, names: Iterable[str]) -> "Signature":
        return Signature(self.predicates, self.functions,
                         set(self.constants) | set(names), self.identity)

    def __eq__(self, other):
        return (isinstance(other, Signature)
                and self.predicates == other.predicates
                and self.functions == other.functions
                and self.constants == other.constants
                and self.identity == other.identity)

    def __repr__(self):
        return (f"Signature(predicates={self.predicates!r}, functions={self.functions!r}, "
                f"constants={sorted(self.constants)!r}, identity={self.identity})")


# ---------------------------------------------------------------------------
# Variables and terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class FOVar:
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise FormulaError("variable index must be >= 0")

    def __str__(self):
        return f"x{self.index}"


@dataclass(frozen=True, order=True)
class SOVar:
    index: int
    arity: int = 1

    def __post_init__(self):
        if self.index < 0:
            raise FormulaError("variable index must be >= 0")
        if self.arity < 1:
            raise FormulaError("second-order variable arity must be >= 1")

    def __str__(self):
        return f"X{self.index}" if self.arity == 1 else f"X{self.index}^{self.arity}"


class Term:
    __slots__ = ()

    def __str__(self):
        return format_term(self)


@dataclass(frozen=True)
class Var(Term):
    var: FOVar


@dataclass(frozen=True)
class Const(Term):
    name: str


@dataclass(frozen=True)
class Func(Term):
    name: str
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


class Formula:
    __slots__ = ()
    # two facts a node keeps once computed, set by object.__setattr__, since
    # reading a node's __dict__ would build a dict object for it
    _hash = None            # the structural hash, stored by `__hash__`
    _normal = False         # set by `normalize` on a node it found normal

    def __str__(self):
        return format_formula(self)

    def __hash__(self):
        """Store the hash of `_KEY`'s key in each part without one, post-order, on a stack."""
        stack = [self]
        while self._hash is None:
            g = stack[-1]
            key = _KEY[type(g)](g)
            if key[-1] is None or key[-2] is None:     # a part has none: the last first
                stack.append(getattr(g, SUBFORMULAS[type(g)][-1]) if key[-1] is None else g.left)
            else:
                object.__setattr__(stack.pop(), "_hash", hash(key))
        return self._hash

    def __eq__(self, other):
        """Structure on an explicit stack, skipping shared parts; unequal stored hashes: False."""
        if self is other or type(other) is not type(self):
            return self is other or NotImplemented
        stack = [self, other]
        while stack:
            b, a = stack.pop(), stack.pop()
            while a is not b:                 # down the left parts, the right ones stacked
                t, ha, hb = type(a), a._hash, b._hash
                if type(b) is not t or ha is not None and hb is not None and ha != hb:
                    return False
                if t in _BINARY:
                    stack += (a.right, b.right)
                    a, b = a.left, b.left
                elif t in _ATOMS:
                    if _KEY[t](a) != _KEY[t](b):
                        return False
                    break
                elif t is not Not and a.var != b.var:
                    return False
                else:
                    a, b = a.body, b.body
        return True


@dataclass(frozen=True, eq=False)
class PredApp(Formula):
    name: str
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True, eq=False)
class TermEq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True, eq=False)
class SOApp(Formula):
    var: SOVar
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        if len(self.args) != self.var.arity:
            raise FormulaError(
                f"{self.var} applied to {len(self.args)} arguments, arity is {self.var.arity}")


@dataclass(frozen=True, eq=False)
class SOEq(Formula):
    left: SOVar
    right: SOVar

    def __post_init__(self):
        if self.left.arity != self.right.arity:
            raise FormulaError(
                f"identity between {self.left} and {self.right}: arities differ")


@dataclass(frozen=True, eq=False)
class Not(Formula):
    body: Formula


@dataclass(frozen=True, eq=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class ForallFO(Formula):
    var: FOVar
    body: Formula


@dataclass(frozen=True, eq=False)
class ExistsFO(Formula):
    var: FOVar
    body: Formula


@dataclass(frozen=True, eq=False)
class ForallSO(Formula):
    var: SOVar
    body: Formula


@dataclass(frozen=True, eq=False)
class ExistsSO(Formula):
    var: SOVar
    body: Formula


@dataclass(frozen=True, eq=False)
class InstAtom(Formula):
    """Schematic atom used by proof templates.

    Stands for the n-th instantiation of `body` at `var` (the meta-index n
    is shared across a template).  Treated as opaque by every structural
    operation; the proof layer replaces it when instantiating a template.
    """
    var: SOVar
    body: Formula


FO_QUANT = (ForallFO, ExistsFO)
SO_QUANT = (ForallSO, ExistsSO)
BINDERS = FO_QUANT + SO_QUANT + (InstAtom,)
_SECOND_ORDER = (SOApp, SOEq, InstAtom) + SO_QUANT
_ATOMS = frozenset((PredApp, TermEq, SOApp, SOEq))
_BINARY = frozenset((And, Or, Implies, Iff))


# ---------------------------------------------------------------------------
# The shape table
# ---------------------------------------------------------------------------

class _ShapeTable(dict):
    def __missing__(self, node_type):
        raise FormulaError(f"not a formula: {node_type.__name__} object")


# Node type -> the names of the fields that hold its immediate subformulas,
# left to right.  A binder (BINDERS) takes its variable, then its body; every
# other node takes exactly its subformulas.  `nodes`, `rewrite` and the hot
# loops read it inline; the rest use `children` and `rebuild`.
SUBFORMULAS = _ShapeTable({
    PredApp: (), TermEq: (), SOApp: (), SOEq: (),
    Not: ("body",),
    And: ("left", "right"), Or: ("left", "right"),
    Implies: ("left", "right"), Iff: ("left", "right"),
    ForallFO: ("body",), ExistsFO: ("body",),
    ForallSO: ("body",), ExistsSO: ("body",), InstAtom: ("body",),
})
# node type -> the key of its hash: a number for the type, then each field,
# a subformula by its stored hash (None when it has none), so parts come last
for _tag, _t in enumerate(SUBFORMULAS):
    _t._tag = _tag
_KEY = {t: operator.attrgetter("_tag", *(f.name + "._hash" if f.name in names else f.name
                                         for f in fields(t)))
        for t, names in SUBFORMULAS.items()}


def children(f: Formula) -> tuple:
    """The immediate subformulas of f, left to right (FormulaError if f is not
    a formula)."""
    return tuple(map(f.__getattribute__, SUBFORMULAS[type(f)]))


def rebuild(f: Formula, kids) -> Formula:
    """The node f with its immediate subformulas replaced by the sequence
    kids: f itself when each kid is the subformula it replaces, so that a
    rewrite through rebuild returns every subtree it does not change."""
    t = type(f)
    for kid, name in zip(kids, SUBFORMULAS[t]):
        if kid is not getattr(f, name):
            return t(f.var, *kids) if t in BINDERS else t(*kids)
    return f


def nodes(f: Formula, seen: dict | None = None) -> list:
    """The subformulas of f in pre-order, each object once, on an explicit stack,
    skipping those in `seen` (id -> node, kept across calls), where each is added."""
    seen = {} if seen is None else seen
    out, stack = [], [f]
    pop, push, emit = stack.pop, stack.append, out.append
    while stack:
        g = pop()
        if (i := id(g)) not in seen:
            seen[i] = g
            emit(g)
            names = SUBFORMULAS[type(g)]      # the right part goes on first
            if names:
                push(getattr(g, names[-1]))
                if len(names) == 2:
                    push(g.left)
    return out


def rewrite(f: Formula, step, memo: dict | None = None, build=None) -> Formula:
    """f with each outermost part g whose step(g) is not None replaced by it, and
    the nodes above rebuilt leaves first by build(node, new parts), `rebuild` if
    None, on explicit stacks; step meets the parts in pre-order, left to right.
    With a `memo` (id -> (node, result), kept across calls), each node object is
    rewritten once."""
    stack, out = [f], []
    pop, push, emit = stack.pop, stack.append, out.append
    while stack:
        g = pop()
        if type(g) is tuple:                  # the parts of g[0] are on out
            g, b = g[0], out.pop()
            t = type(g)
            if build is not None:
                r = build(g, (out.pop(), b) if t in _BINARY else (b,))
            elif t in _BINARY:                # rebuild, written out for speed
                a = out.pop()
                r = g if a is g.left and b is g.right else t(a, b)
            else:
                r = g if b is g.body else Not(b) if t is Not else t(g.var, b)
        elif memo is not None and id(g) in memo:
            r = memo[id(g)][1]
        elif (r := step(g)) is None:
            names = SUBFORMULAS[type(g)]
            if names:
                push((g,))
                push(getattr(g, names[-1]))
                if len(names) == 2:
                    push(g.left)
                continue
            r = g
        if memo is not None:
            memo[id(g)] = (g, r)
        emit(r)
    return out[0]


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------

def term_fo_vars(t: Term) -> frozenset:
    if isinstance(t, Var):
        return frozenset((t.var,))
    if isinstance(t, Const):
        return frozenset()
    if isinstance(t, Func):
        out = frozenset()
        for a in t.args:
            out |= term_fo_vars(a)
        return out
    raise FormulaError(f"not a term: {t!r}")


def free_variables(f: Formula) -> tuple:
    """Free first-order and second-order variables, as a pair of frozensets.
    The walk keeps its own stack, so a deep formula needs no recursion."""
    fo: set = set()
    so: set = set()
    stack = [(f, frozenset(), frozenset())]
    while stack:
        g, bound_fo, bound_so = stack.pop()
        t = type(g)
        if t is PredApp:
            for a in g.args:
                fo.update(term_fo_vars(a) - bound_fo)
        elif t is TermEq:
            fo.update((term_fo_vars(g.left) | term_fo_vars(g.right)) - bound_fo)
        elif t is SOApp:
            if g.var not in bound_so:
                so.add(g.var)
            for a in g.args:
                fo.update(term_fo_vars(a) - bound_fo)
        elif t is SOEq:
            for v in (g.left, g.right):
                if v not in bound_so:
                    so.add(v)
        else:
            if t in FO_QUANT:
                bound_fo = bound_fo | {g.var}
            elif t in BINDERS:
                bound_so = bound_so | {g.var}
            for name in SUBFORMULAS[t]:
                stack.append((getattr(g, name), bound_fo, bound_so))
    return frozenset(fo), frozenset(so)


def _depth(f: Formula, limit: float = float("inf")) -> int:
    """The number of levels of f, counted without recursion up to limit + 1."""
    level, levels = [f], 0
    while level and levels <= limit:
        level, levels = [k for g in level for k in children(g)], levels + 1
    return levels


def is_sentence(f: Formula) -> bool:
    fo, so = free_variables(f)
    return not fo and not so


def is_first_order(f: Formula) -> bool:
    """Whether f has no relation variable, on an explicit stack."""
    stack = [f]
    while stack:
        g = stack.pop()
        t = type(g)
        if t in _SECOND_ORDER:
            return False
        for name in SUBFORMULAS[t]:
            stack.append(getattr(g, name))
    return True


def _max_term_index(t: Term) -> int:
    if isinstance(t, Var):
        return t.var.index
    if isinstance(t, Const):
        return -1
    return max((_max_term_index(a) for a in t.args), default=-1)


def max_index(f: Formula, sort: type) -> int:
    """Largest index of a variable of type sort (FOVar or SOVar) occurring
    anywhere in f, bound or free; -1 if none."""
    top = -1
    for g in nodes(f):
        t = type(g)
        if t in BINDERS or t is SOApp or t is SOEq:
            for v in (g.left, g.right) if t is SOEq else (g.var,):
                if type(v) is sort:
                    top = max(top, v.index)
        if sort is FOVar and (t is PredApp or t is SOApp or t is TermEq):
            top = max([top, *map(_max_term_index, (g.left, g.right) if t is TermEq else g.args)])
    return top


def validate(f: Formula, sig: Signature) -> None:
    """Check f against a signature: known symbols, arities, identity use."""
    for g in nodes(f):
        _validate_node(g, sig)


def _validate_node(g: Formula, sig: Signature) -> None:
    """Check one node against a signature, its parts left out."""
    t = type(g)
    if t is PredApp and g.name not in sig.predicates:
        raise FormulaError(f"unknown predicate {g.name!r}")
    if t is PredApp and len(g.args) != sig.predicates[g.name]:
        raise FormulaError(
            f"predicate {g.name!r} expects {sig.predicates[g.name]} arguments, got {len(g.args)}")
    if (t is TermEq or t is SOEq) and not sig.identity:
        raise FormulaError("identity atom with identity disabled")
    terms = (g.left, g.right) if t is TermEq else g.args if t is PredApp or t is SOApp else ()
    for a in terms:
        _validate_term(a, sig)


def _validate_term(t: Term, sig: Signature) -> None:
    if isinstance(t, Var):
        return
    if isinstance(t, Const):
        if t.name not in sig.constants:
            raise FormulaError(f"unknown constant {t.name!r}")
        return
    if isinstance(t, Func):
        if t.name not in sig.functions:
            raise FormulaError(f"unknown function {t.name!r}")
        if len(t.args) != sig.functions[t.name]:
            raise FormulaError(
                f"function {t.name!r} expects {sig.functions[t.name]} arguments, got {len(t.args)}")
        for a in t.args:
            _validate_term(a, sig)
        return
    raise FormulaError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Normalization and alpha-equivalence
# ---------------------------------------------------------------------------

def normalize(f: Formula, memo: dict | None = None) -> Formula:
    """Rewrite sugar (|, ->, <->, exists) into the ~ /\\ forall primitives, on
    explicit stacks.  A scan returns a normal f itself, marking each node it walked
    for later scans to stop at; `rewrite` rebuilds f with sugar, sharing unchanged parts.
    A `memo` (id -> (node, normal form), kept across calls) only caches: each
    node object it holds is normalized once."""
    stack, walked = [f], []
    while stack:
        g = stack.pop()
        t = type(g)
        if t is Not or t is And or t is ForallFO or t is ForallSO or t is InstAtom:
            if not g._normal:
                walked.append(g)
                stack += (g.right, g.left) if t is And else (g.body,)
        elif t not in _ATOMS:
            break
    else:
        for g in walked:
            object.__setattr__(g, "_normal", True)
        return f
    return rewrite(f, lambda g: None, memo, _primitive)


def _primitive(g: Formula, kids) -> Formula:
    """g over its normalized parts kids, sugar written in the primitives."""
    t = type(g)
    if t is Or or t is Implies:
        a, b = kids
        return Not(And(Not(a) if t is Or else a, Not(b)))
    if t is Iff:
        a, b = kids
        return And(Not(And(a, Not(b))), Not(And(b, Not(a))))
    if t is ExistsFO or t is ExistsSO:
        return Not((ForallFO if t is ExistsFO else ForallSO)(g.var, Not(kids[0])))
    return rebuild(g, kids)


def as_implies(f: Formula):
    """Destructure a normalized implication ~(a /\\ ~b) into (a, b), else None."""
    if isinstance(f, Not) and isinstance(f.body, And) and isinstance(f.body.right, Not):
        return f.body.left, f.body.right.body
    return None


def implies(a: Formula, b: Formula) -> Formula:
    """Normalized implication over already normalized operands."""
    return Not(And(a, Not(b)))


def _term_alpha(t: Term, env: dict):
    if isinstance(t, Var):
        b = env.get(("fo", t.var))
        return ("b", b) if b is not None else ("f", t.var.index)
    if isinstance(t, Const):
        return ("c", t.name)
    return ("t", t.name, tuple(_term_alpha(a, env) for a in t.args))


def _alpha_walk(g: Formula, env: dict, depth: int):
    """The alpha key of a normalized formula under `env`, which maps
    ("fo", v) / ("so", V) to the depth of the binder that binds v / V;
    `depth` binders enclose g."""
    if isinstance(g, PredApp):
        return ("P", g.name, tuple(_term_alpha(t, env) for t in g.args))
    if isinstance(g, TermEq):
        return ("=", _term_alpha(g.left, env), _term_alpha(g.right, env))
    if isinstance(g, SOApp):
        b = env.get(("so", g.var))
        head = ("b", b) if b is not None else ("f", g.var.index, g.var.arity)
        return ("S", head, tuple(_term_alpha(t, env) for t in g.args))
    if isinstance(g, SOEq):
        sides = []
        for v in (g.left, g.right):
            b = env.get(("so", v))
            sides.append(("b", b) if b is not None else ("f", v.index, v.arity))
        return ("E", tuple(sides))
    if isinstance(g, Not):
        return ("~", _alpha_walk(g.body, env, depth))
    if isinstance(g, And):
        return ("&", _alpha_walk(g.left, env, depth), _alpha_walk(g.right, env, depth))
    if isinstance(g, ForallFO):
        return ("Ax", _alpha_walk(g.body, {**env, ("fo", g.var): depth}, depth + 1))
    if isinstance(g, ForallSO):
        return ("AX", g.var.arity,
                _alpha_walk(g.body, {**env, ("so", g.var): depth}, depth + 1))
    if isinstance(g, InstAtom):
        return ("I", g.var.arity,
                _alpha_walk(g.body, {**env, ("so", g.var): depth}, depth + 1))
    raise FormulaError(f"unexpected node in normalized formula: {g!r}")


def alpha_key(f: Formula):
    """Canonical de Bruijn-style key; equal keys mean alpha-equivalent.

    Computed on the normalized form, so sugared variants of the same
    formula compare equal.
    """
    return _alpha_walk(normalize(f), {}, 0)


def alpha_eq(f: Formula, g: Formula) -> bool:
    """Whether f and g are alpha-equivalent: equal, or else of equal keys."""
    return f == g or alpha_key(f) == alpha_key(g)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def _subst_term(t: Term, mapping: Mapping[FOVar, Term]) -> Term:
    if isinstance(t, Var):
        return mapping.get(t.var, t)
    if isinstance(t, Const):
        return t
    args = _subst_args(t.args, mapping)
    return t if args is t.args else Func(t.name, args)


def _subst_args(args: tuple, mapping: Mapping[FOVar, Term]) -> tuple:
    """args under the mapping: args itself when no term changes."""
    new = tuple(_subst_term(a, mapping) for a in args)
    return args if all(map(operator.is_, new, args)) else new


def _value_variables(value) -> frozenset:
    """The variables of a substitution's value: a term, or a relation variable."""
    return frozenset((value,)) if type(value) is SOVar else term_fo_vars(value)


def substitute(f: Formula, mapping: Mapping, on_capture: str = "rename",
               memo: dict | None = None) -> Formula:
    """Simultaneous capture-avoiding substitution of terms for first-order
    variables and relation variables for relation variables of equal arity.

    A quantifier that would capture a value's variable is renamed to the
    successor of the largest index of its sort in sight, by one call under
    the mapping plus old -> fresh; on_capture='fail' raises CaptureError
    instead (the free-for side conditions of Q1 and A4).  An `inst` atom
    binds its variable but is never renamed.  A `memo` (`rewrite`'s) may be
    shared by calls whose mappings agree on every variable free in both
    formulas: with one, each binder's body gets a call of its own, so the
    memo holds only nodes free in no variable but f's.
    """
    for k, v in mapping.items():
        if type(k) is SOVar and k.arity != v.arity:
            raise FormulaError(f"arities differ: {k} vs {v}")
    # a binder can capture only a variable some value mentions, never a fresh one
    reach = frozenset().union(*map(_value_variables, mapping.values()))

    def under(f, mapping, memo=None):
        def step(g):
            t = type(g)
            if t is PredApp:
                args = _subst_args(g.args, mapping)
                return g if args is g.args else PredApp(g.name, args)
            if t is SOApp:
                var, args = mapping.get(g.var, g.var), _subst_args(g.args, mapping)
                return g if var is g.var and args is g.args else SOApp(var, args)
            if t is TermEq:
                left, right = _subst_term(g.left, mapping), _subst_term(g.right, mapping)
                return g if left is g.left and right is g.right else TermEq(left, right)
            if t is SOEq:
                left, right = mapping.get(g.left, g.left), mapping.get(g.right, g.right)
                return g if left is g.left and right is g.right else SOEq(left, right)
            if t in BINDERS:
                # the body gets a call of its own when g drops a key or renames g.var
                live = mapping
                if g.var in mapping:
                    live = {k: v for k, v in mapping.items() if k != g.var}
                # a capture needs a value that mentions g.var, for a key free in the body
                if g.var in reach and t is not InstAtom:
                    free_fo, free_so = free_variables(g.body)
                    live = {k: v for k, v in live.items() if k in free_fo or k in free_so}
                    mentioned = [w for v in live.values() for w in _value_variables(v)]
                    if g.var in mentioned:
                        if on_capture == "fail":
                            raise CaptureError(f"{g.var} would be captured")
                        sort = type(g.var)
                        top = max([g.var.index, max_index(g.body, sort)]
                                  + [w.index for w in mentioned if type(w) is sort])
                        fresh = replace(g.var, index=top + 1)
                        old = Var(fresh) if sort is FOVar else fresh
                        return t(fresh, under(g.body, {**live, g.var: old}))
                if memo is not None or len(live) < len(mapping):
                    return rebuild(g, (under(g.body, live),))
            return None

        return rewrite(f, step, memo) if mapping else f

    return under(f, mapping, memo)


def substitute_fo(f: Formula, var: FOVar, term: Term, on_capture: str = "rename") -> Formula:
    """Capture-avoiding substitution of one term for one FO variable."""
    return substitute(f, {var: term}, on_capture)


def a6_instantiate(f: Formula, var: SOVar, member, tables: dict | None = None,
                   normal: dict | None = None) -> Formula:
    """The normal form of f with every free application var(t...) replaced by
    the member formula.

    `member` supplies a first-order formula with designated slot variables
    (the relation coordinates) and parameter variables.  Each parameter p is
    renamed x(p + s), s = max(0, max_index(f, FOVar) + 1 - the lowest parameter
    index), past every variable of f (s = 0 for weak-so under f in x0: no
    walk of the member), and the normalized body is prefixed with one
    universal quantifier per parameter, so no new free variables appear.  The
    two caches change nothing in the result: `tables` maps a shift and slot
    arguments to the memo of the member substitutions made with them (weak-so
    member n then costs its last block, the rest shared), and `normal` is
    normalize's memo for the bodies.
    """
    arity = len(member.slots)
    if var.arity != arity:
        raise FormulaError(
            f"{var} has arity {var.arity} but the instantiating formula defines arity {arity}")
    low = min(map(operator.attrgetter("index"), member.params), default=0)
    shift = max(0, max_index(f, FOVar) + 1 - low)
    renamed = {p: Var(FOVar(p.index + shift)) for p in member.params} if shift else {}

    def step(g):
        t = type(g)
        if t is SOApp and g.var == var:
            # one simultaneous substitution, so a new name that is also an old one is no
            # clash; a member's free variables are its slots and parameters, so members
            # with the same shift and slot arguments map those free in both alike
            slots = tuple(zip(member.slots, g.args))
            table = None if tables is None else tables.setdefault((shift, slots), {})
            return substitute(member.formula, {**renamed, **dict(slots)}, memo=table)
        if t is SOEq and var in (g.left, g.right):
            raise FormulaError(
                f"{var} occurs free in a second-order identity; instantiation is undefined")
        if t in BINDERS and g.var == var:
            return g
        return None

    out = normalize(rewrite(f, step), normal)
    for p in reversed(member.params):
        out = ForallFO(renamed[p].var if shift else p, out)
    return out


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_UNI = {"not": "¬", "and": "∧", "or": "∨", "imp": "→",
        "iff": "↔", "forall": "∀", "exists": "∃"}
_ASC = {"not": "~", "and": "&", "or": "|", "imp": "->", "iff": "<->",
        "forall": "forall ", "exists": "exists "}

_PREC_IFF, _PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3, 4, 5


def format_term(t: Term) -> str:
    if isinstance(t, Var):
        return str(t.var)
    if isinstance(t, Const):
        return t.name
    if isinstance(t, Func):
        return f"{t.name}({', '.join(format_term(a) for a in t.args)})"
    raise FormulaError(f"not a term: {t!r}")


def format_formula(f: Formula, unicode: bool = True) -> str:
    """Render a formula; parse(format_formula(f)) is alpha-equivalent to f."""
    sym = _UNI if unicode else _ASC

    def go(g, ctx):
        if isinstance(g, PredApp):
            return f"{g.name}({', '.join(format_term(t) for t in g.args)})"
        if isinstance(g, TermEq):
            return f"{format_term(g.left)} = {format_term(g.right)}"
        if isinstance(g, SOApp):
            return f"{g.var}({', '.join(format_term(t) for t in g.args)})"
        if isinstance(g, SOEq):
            return f"{g.left} = {g.right}"
        if isinstance(g, Not):
            return f"{sym['not']}{go(g.body, _PREC_UNARY)}"
        if isinstance(g, And):
            s = f"{go(g.left, _PREC_AND)} {sym['and']} {go(g.right, _PREC_AND + 1)}"
            return s if ctx <= _PREC_AND else f"({s})"
        if isinstance(g, Or):
            s = f"{go(g.left, _PREC_OR)} {sym['or']} {go(g.right, _PREC_OR + 1)}"
            return s if ctx <= _PREC_OR else f"({s})"
        if isinstance(g, Implies):
            s = f"{go(g.left, _PREC_IMP + 1)} {sym['imp']} {go(g.right, _PREC_IMP)}"
            return s if ctx <= _PREC_IMP else f"({s})"
        if isinstance(g, Iff):
            s = f"{go(g.left, _PREC_IFF)} {sym['iff']} {go(g.right, _PREC_IFF + 1)}"
            return s if ctx <= _PREC_IFF else f"({s})"
        if isinstance(g, FO_QUANT) or isinstance(g, SO_QUANT):
            word = "forall" if isinstance(g, (ForallFO, ForallSO)) else "exists"
            s = f"{sym[word]}{g.var} {go(g.body, _PREC_UNARY)}"
            return s if ctx <= _PREC_UNARY else f"({s})"
        if isinstance(g, InstAtom):
            return f"inst({g.var}, {go(g.body, 0)})"
        raise FormulaError(f"not a formula: {g!r}")

    return go(f, 0)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<iff><->|↔)
  | (?P<imp>->|→)
  | (?P<and>&|∧)
  | (?P<or>\||∨)
  | (?P<not>~|¬)
  | (?P<forall>∀)
  | (?P<exists>∃)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<eq>=)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*(\^\d+)?)
""", re.VERBOSE)

# The deepest nesting `parse` accepts, while parsing (parentheses, prefix
# operators and implication chains each open a level) and in the formula it
# returns, with a margin under the default recursion limit: the parser,
# format, alpha_key and eval recurse.  Called 60 frames deep, parentheses fail
# past 131 levels (seven parser frames each), and |, -> and exists chains past
# 309 (alpha_key and eval walk the normal form, three levels per source level).
MAX_DEPTH = 100

# The most nodes `parse` accepts in the normal form of a formula with a
# biconditional: `normalize` writes both operands of <-> twice, so an
# n-operand chain has 10 * 2^(n-1) - 9 nodes, and 18 or more are refused.
MAX_NORMAL_NODES = 2 ** 20

# the nodes `normalize` writes for one node of each type with sugar
_SUGAR_NODES = {Or: 4, Implies: 3, Iff: 7, ExistsFO: 3, ExistsSO: 3}


def _normal_size(f: Formula) -> int:
    """The nodes of normalize(f) counted as a tree, without building it: a
    node under k biconditionals is written 2^k times."""
    total, stack = 0, [(f, 1)]
    while stack:
        g, copies = stack.pop()
        total += copies * _SUGAR_NODES.get(type(g), 1)
        if type(g) is Iff:
            copies *= 2
        stack.extend((h, copies) for h in children(g))
    return total


_CANON_FO = re.compile(r"x(\d+)")
_CANON_SO = re.compile(r"X(\d+)(?:\^(\d+))?")
_BARE_FO = re.compile(r"[uvwyz]\d*|x")
_BARE_SO = re.compile(r"([YZVW]\d*|X)(?:\^(\d+))?")


def canonical_variable(word: str):
    """The variable a canonical name denotes (x3, X0, X2^3; X0 is X0^1), or
    None when word is no canonical name; FormulaError for a relation
    variable of arity 0."""
    m = _CANON_FO.fullmatch(word)
    if m:
        return FOVar(int(m.group(1)))
    m = _CANON_SO.fullmatch(word)
    if m:
        return SOVar(int(m.group(1)), int(m.group(2) or 1))
    return None


def content_lines(lines):
    """(line number from 1, stripped line) for each line of `lines` that is
    neither blank nor a `#` comment."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


@dataclass
class _Tok:
    kind: str
    text: str
    pos: int


def _lex(text: str) -> list:
    out = []
    i = 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if not m:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        kind = m.lastgroup
        if kind != "ws":
            word = m.group(0)
            if kind == "ident" and word in ("forall", "exists"):
                kind = word
            out.append(_Tok(kind, word, i))
        i = m.end()
    out.append(_Tok("eof", "", len(text)))
    return out


class _Parser:
    def __init__(self, tokens, sig: Signature, allow_inst: bool = False):
        self.toks = tokens
        self.sig = sig
        self.pos = 0
        self.allow_inst = allow_inst
        self.depth = 1                  # the top level, as `_depth` counts it
        self._name_variables()

    def _name_variables(self):
        """Map each variable word of the text to its variable, once.  A
        canonical name denotes itself; bare names (x, y1, X, Y^2) take, in
        order of first occurrence, the lowest indices of their sort and
        arity that no other name takes."""
        sig, words, bare = self.sig, {}, {}     # bare: word -> (sort, name, token)
        try:
            for t in self.toks:
                w = t.text
                if t.kind != "ident" or w in words or w in bare or w in sig.predicates \
                        or w in sig.functions or w in sig.constants:
                    continue
                v = canonical_variable(w)
                if v is not None:
                    words[w] = v
                elif _BARE_FO.fullmatch(w):
                    bare[w] = (None, w, t)
                elif m := _BARE_SO.fullmatch(w):
                    bare[w] = (int(m.group(2) or 1), m.group(1), t)
            taken: dict = {}            # sort (None, or an arity) -> indices taken
            for v in words.values():
                taken.setdefault(v.arity if type(v) is SOVar else None, set()).add(v.index)
            named: dict = {}
            for w, (sort, name, t) in bare.items():
                if (sort, name) not in named:
                    used = taken.setdefault(sort, set())
                    n = next(i for i in itertools.count() if i not in used)
                    used.add(n)
                    named[sort, name] = FOVar(n) if sort is None else SOVar(n, sort)
                words[w] = named[sort, name]
        except FormulaError as exc:     # t is the token of the name that failed
            raise ParseError(str(exc), t.pos) from None
        self.variables = words

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def nested(self, parse) -> Formula:
        """Run one nested parse, refusing nesting deeper than MAX_DEPTH."""
        if self.depth == MAX_DEPTH:
            raise NestingError(f"formula nested deeper than {MAX_DEPTH} levels",
                               self.peek().pos)
        self.depth += 1
        f = parse()
        self.depth -= 1
        return f

    def take(self, kind=None) -> _Tok:
        t = self.toks[self.pos]
        if kind is not None and t.kind != kind:
            raise ParseError(f"expected {kind}, found {t.text!r}", t.pos)
        self.pos += 1
        return t

    def parse_formula(self) -> Formula:
        f = self.parse_iff()
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"unexpected {t.text!r}", t.pos)
        return f

    def parse_iff(self) -> Formula:
        f = self.parse_imp()
        while self.peek().kind == "iff":
            self.take()
            f = Iff(f, self.parse_imp())
        return f

    def parse_imp(self) -> Formula:
        f = self.parse_or()
        if self.peek().kind == "imp":
            self.take()
            return Implies(f, self.nested(self.parse_imp))
        return f

    def parse_or(self) -> Formula:
        f = self.parse_and()
        while self.peek().kind == "or":
            self.take()
            f = Or(f, self.parse_and())
        return f

    def parse_and(self) -> Formula:
        f = self.parse_unary()
        while self.peek().kind == "and":
            self.take()
            f = And(f, self.parse_unary())
        return f

    def parse_unary(self) -> Formula:
        t = self.peek()
        if t.kind == "not":
            self.take()
            return Not(self.nested(self.parse_unary))
        if t.kind in ("forall", "exists"):
            self.take()
            post = t.kind
            variables = [self._parse_quant_var()]
            while self.peek().kind == "comma":
                self.take()
                variables.append(self._parse_quant_var())
            body = self.nested(self.parse_unary)
            for v in reversed(variables):
                if isinstance(v, FOVar):
                    body = ForallFO(v, body) if post == "forall" else ExistsFO(v, body)
                else:
                    body = ForallSO(v, body) if post == "forall" else ExistsSO(v, body)
            return body
        return self.parse_atom()

    def _classify(self, tok: _Tok):
        word = tok.text
        if word in self.sig.predicates:
            return ("pred", word)
        if word in self.sig.functions:
            return ("func", word)
        if word in self.sig.constants:
            return ("const", word)
        v = self.variables.get(word)
        if v is not None:
            return ("fovar" if type(v) is FOVar else "sovar", v)
        raise ParseError(f"unknown symbol {word!r}", tok.pos)

    def _parse_quant_var(self):
        tok = self.take("ident")
        kind, value = self._classify(tok)
        if kind not in ("fovar", "sovar"):
            raise ParseError(f"{tok.text!r} is not a variable", tok.pos)
        return value

    def parse_term(self) -> Term:
        tok = self.take("ident")
        kind, value = self._classify(tok)
        if kind == "fovar":
            return Var(value)
        if kind == "const":
            return Const(value)
        if kind == "func":
            args = self._parse_args()
            if len(args) != self.sig.functions[value]:
                raise ParseError(
                    f"function {value!r} expects {self.sig.functions[value]} arguments",
                    tok.pos)
            return Func(value, tuple(args))
        raise ParseError(f"{tok.text!r} cannot start a term", tok.pos)

    def _parse_args(self) -> list:
        self.take("lparen")
        args = [self.parse_term()]
        while self.peek().kind == "comma":
            self.take()
            args.append(self.parse_term())
        self.take("rparen")
        return args

    def parse_atom(self) -> Formula:
        t = self.peek()
        if t.kind == "lparen":
            self.take()
            f = self.nested(self.parse_iff)
            self.take("rparen")
            return f
        if t.kind != "ident":
            raise ParseError(f"unexpected {t.text!r}", t.pos)
        if self.allow_inst and t.text == "inst":
            return self._parse_inst()
        kind, value = self._classify(t)
        if kind == "pred":
            self.take()
            args = self._parse_args()
            if len(args) != self.sig.predicates[value]:
                raise ParseError(
                    f"predicate {value!r} expects {self.sig.predicates[value]} arguments, "
                    f"got {len(args)}", t.pos)
            return PredApp(value, tuple(args))
        if kind == "sovar":
            self.take()
            if self.peek().kind == "lparen":
                args = self._parse_args()
                if len(args) != value.arity:
                    raise ParseError(
                        f"{value} expects {value.arity} arguments, got {len(args)}", t.pos)
                return SOApp(value, tuple(args))
            if self.peek().kind == "eq":
                if not self.sig.identity:
                    raise ParseError("identity atom with identity disabled",
                                     self.peek().pos)
                self.take()
                rtok = self.take("ident")
                rkind, rvalue = self._classify(rtok)
                if rkind != "sovar":
                    raise ParseError("second-order identity needs a relation variable "
                                     "on both sides", rtok.pos)
                if rvalue.arity != value.arity:
                    raise ParseError(
                        f"identity between {value} and {rvalue}: arities differ", rtok.pos)
                return SOEq(value, rvalue)
            raise ParseError(f"{value} must be applied or compared", t.pos)
        left = self.parse_term()
        if self.peek().kind != "eq":
            raise ParseError("a term is not a formula; expected '='", self.peek().pos)
        if not self.sig.identity:
            raise ParseError("identity atom with identity disabled", self.peek().pos)
        self.take("eq")
        right = self.parse_term()
        return TermEq(left, right)

    def _parse_inst(self) -> Formula:
        tok = self.take("ident")
        self.take("lparen")
        vtok = self.take("ident")
        kind, value = self._classify(vtok)
        if kind != "sovar":
            raise ParseError("inst() needs a relation variable first", vtok.pos)
        self.take("comma")
        body = self.nested(self.parse_iff)
        self.take("rparen")
        return InstAtom(value, body)


def parse(text: str, sig: Signature, allow_inst: bool = False) -> Formula:
    """Parse the concrete syntax into a (possibly sugared) formula."""
    tokens = _lex(text)
    f = _Parser(tokens, sig, allow_inst=allow_inst).parse_formula()
    # a formula is no deeper than its number of tokens; long operator chains
    # nest without nesting the parse
    if len(tokens) > MAX_DEPTH and _depth(f, MAX_DEPTH) > MAX_DEPTH:
        raise NestingError(f"formula nested deeper than {MAX_DEPTH} levels", 0)
    if ("<->" in text or "↔" in text) and _normal_size(f) > MAX_NORMAL_NODES:
        raise ParseError(f"normal form has more than {MAX_NORMAL_NODES} nodes", 0)
    validate(f, sig)
    return f


def parse_line(where: str, text: str, sig: Signature, allow_inst: bool = False) -> Formula:
    """`parse` for the formula on one line of a file: a parse error,
    nesting included, starts with `where`, the line's label, since its
    position counts from the formula's start."""
    try:
        return parse(text, sig, allow_inst)
    except ParseError as exc:
        exc.args = (f"{where}: {exc}",)
        raise
