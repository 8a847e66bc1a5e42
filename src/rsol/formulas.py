"""Two-sorted syntax: terms, formulas, parsing, printing, substitution.

First-order variables are index-based (x0, x1, ...).  Second-order
variables carry an index and a relation arity (X0^1, X3^2, ...).
Negation, conjunction and the two universal quantifiers are primitive;
disjunction, implication, biconditional and the existentials are kept in
the AST as sugar and removed by `normalize`.  Semantic and proof-level
code operates on normalized formulas only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping


class FormulaError(ValueError):
    """Ill-formed term or formula (arity clash, bad sort, ...)."""


class ParseError(FormulaError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


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

    def without_identity(self) -> "Signature":
        return Signature(self.predicates, self.functions, self.constants, identity=False)

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

    def __str__(self):
        return format_formula(self)


@dataclass(frozen=True)
class PredApp(Formula):
    name: str
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class TermEq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class SOApp(Formula):
    var: SOVar
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        if len(self.args) != self.var.arity:
            raise FormulaError(
                f"{self.var} applied to {len(self.args)} arguments, arity is {self.var.arity}")


@dataclass(frozen=True)
class SOEq(Formula):
    left: SOVar
    right: SOVar

    def __post_init__(self):
        if self.left.arity != self.right.arity:
            raise FormulaError(
                f"identity between {self.left} and {self.right}: arities differ")


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class ForallFO(Formula):
    var: FOVar
    body: Formula


@dataclass(frozen=True)
class ExistsFO(Formula):
    var: FOVar
    body: Formula


@dataclass(frozen=True)
class ForallSO(Formula):
    var: SOVar
    body: Formula


@dataclass(frozen=True)
class ExistsSO(Formula):
    var: SOVar
    body: Formula


@dataclass(frozen=True)
class InstAtom(Formula):
    """Schematic atom used by proof templates.

    Stands for the n-th instantiation of `body` at `var` (the meta-index n
    is shared across a template).  Treated as opaque by every structural
    operation; the proof layer replaces it when instantiating a template.
    """
    var: SOVar
    body: Formula


BINARY = (And, Or, Implies, Iff)
FO_QUANT = (ForallFO, ExistsFO)
SO_QUANT = (ForallSO, ExistsSO)


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
    """Free first-order and second-order variables, as a pair of frozensets."""
    fo: set = set()
    so: set = set()

    def walk(g, bound_fo, bound_so):
        if isinstance(g, PredApp):
            for t in g.args:
                fo.update(term_fo_vars(t) - bound_fo)
        elif isinstance(g, TermEq):
            fo.update((term_fo_vars(g.left) | term_fo_vars(g.right)) - bound_fo)
        elif isinstance(g, SOApp):
            if g.var not in bound_so:
                so.add(g.var)
            for t in g.args:
                fo.update(term_fo_vars(t) - bound_fo)
        elif isinstance(g, SOEq):
            for v in (g.left, g.right):
                if v not in bound_so:
                    so.add(v)
        elif isinstance(g, Not):
            walk(g.body, bound_fo, bound_so)
        elif isinstance(g, BINARY):
            walk(g.left, bound_fo, bound_so)
            walk(g.right, bound_fo, bound_so)
        elif isinstance(g, FO_QUANT):
            walk(g.body, bound_fo | {g.var}, bound_so)
        elif isinstance(g, SO_QUANT):
            walk(g.body, bound_fo, bound_so | {g.var})
        elif isinstance(g, InstAtom):
            walk(g.body, bound_fo, bound_so | {g.var})
        else:
            raise FormulaError(f"not a formula: {g!r}")

    walk(f, frozenset(), frozenset())
    return frozenset(fo), frozenset(so)


def is_sentence(f: Formula) -> bool:
    fo, so = free_variables(f)
    return not fo and not so


def is_first_order(f: Formula) -> bool:
    if isinstance(f, (SOApp, SOEq, InstAtom)) or isinstance(f, SO_QUANT):
        return False
    if isinstance(f, (PredApp, TermEq)):
        return True
    if isinstance(f, Not):
        return is_first_order(f.body)
    if isinstance(f, BINARY):
        return is_first_order(f.left) and is_first_order(f.right)
    if isinstance(f, FO_QUANT):
        return is_first_order(f.body)
    raise FormulaError(f"not a formula: {f!r}")


def _max_term_index(t: Term) -> int:
    if isinstance(t, Var):
        return t.var.index
    if isinstance(t, Const):
        return -1
    return max((_max_term_index(a) for a in t.args), default=-1)


def max_fo_index(f: Formula) -> int:
    """Largest first-order variable index occurring anywhere in f, -1 if none."""
    if isinstance(f, PredApp):
        return max((_max_term_index(t) for t in f.args), default=-1)
    if isinstance(f, TermEq):
        return max(_max_term_index(f.left), _max_term_index(f.right))
    if isinstance(f, SOApp):
        return max((_max_term_index(t) for t in f.args), default=-1)
    if isinstance(f, SOEq):
        return -1
    if isinstance(f, Not):
        return max_fo_index(f.body)
    if isinstance(f, BINARY):
        return max(max_fo_index(f.left), max_fo_index(f.right))
    if isinstance(f, FO_QUANT):
        return max(f.var.index, max_fo_index(f.body))
    if isinstance(f, SO_QUANT) or isinstance(f, InstAtom):
        return max_fo_index(f.body)
    raise FormulaError(f"not a formula: {f!r}")


def max_so_index(f: Formula) -> int:
    """Largest second-order variable index occurring anywhere in f, -1 if none."""
    if isinstance(f, (PredApp, TermEq)):
        return -1
    if isinstance(f, SOApp):
        return f.var.index
    if isinstance(f, SOEq):
        return max(f.left.index, f.right.index)
    if isinstance(f, Not):
        return max_so_index(f.body)
    if isinstance(f, BINARY):
        return max(max_so_index(f.left), max_so_index(f.right))
    if isinstance(f, FO_QUANT):
        return max_so_index(f.body)
    if isinstance(f, SO_QUANT) or isinstance(f, InstAtom):
        return max(f.var.index, max_so_index(f.body))
    raise FormulaError(f"not a formula: {f!r}")


def quantifier_rank(f: Formula) -> int:
    if isinstance(f, (PredApp, TermEq, SOApp, SOEq, InstAtom)):
        return 0
    if isinstance(f, Not):
        return quantifier_rank(f.body)
    if isinstance(f, BINARY):
        return max(quantifier_rank(f.left), quantifier_rank(f.right))
    if isinstance(f, FO_QUANT) or isinstance(f, SO_QUANT):
        return 1 + quantifier_rank(f.body)
    raise FormulaError(f"not a formula: {f!r}")


def validate(f: Formula, sig: Signature) -> None:
    """Check f against a signature: known symbols, arities, identity use."""
    if isinstance(f, PredApp):
        if f.name not in sig.predicates:
            raise FormulaError(f"unknown predicate {f.name!r}")
        if len(f.args) != sig.predicates[f.name]:
            raise FormulaError(
                f"predicate {f.name!r} expects {sig.predicates[f.name]} arguments, got {len(f.args)}")
        for t in f.args:
            _validate_term(t, sig)
    elif isinstance(f, TermEq):
        if not sig.identity:
            raise FormulaError("identity atom with identity disabled")
        _validate_term(f.left, sig)
        _validate_term(f.right, sig)
    elif isinstance(f, SOApp):
        for t in f.args:
            _validate_term(t, sig)
    elif isinstance(f, SOEq):
        if not sig.identity:
            raise FormulaError("identity atom with identity disabled")
    elif isinstance(f, Not):
        validate(f.body, sig)
    elif isinstance(f, BINARY):
        validate(f.left, sig)
        validate(f.right, sig)
    elif isinstance(f, FO_QUANT) or isinstance(f, SO_QUANT) or isinstance(f, InstAtom):
        validate(f.body, sig)
    else:
        raise FormulaError(f"not a formula: {f!r}")


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

def normalize(f: Formula) -> Formula:
    """Rewrite sugar (|, ->, <->, exists) into the ~ /\\ forall primitives."""
    if isinstance(f, (PredApp, TermEq, SOApp, SOEq)):
        return f
    if isinstance(f, Not):
        return Not(normalize(f.body))
    if isinstance(f, And):
        return And(normalize(f.left), normalize(f.right))
    if isinstance(f, Or):
        return Not(And(Not(normalize(f.left)), Not(normalize(f.right))))
    if isinstance(f, Implies):
        return Not(And(normalize(f.left), Not(normalize(f.right))))
    if isinstance(f, Iff):
        a, b = normalize(f.left), normalize(f.right)
        return And(Not(And(a, Not(b))), Not(And(b, Not(a))))
    if isinstance(f, ForallFO):
        return ForallFO(f.var, normalize(f.body))
    if isinstance(f, ExistsFO):
        return Not(ForallFO(f.var, Not(normalize(f.body))))
    if isinstance(f, ForallSO):
        return ForallSO(f.var, normalize(f.body))
    if isinstance(f, ExistsSO):
        return Not(ForallSO(f.var, Not(normalize(f.body))))
    if isinstance(f, InstAtom):
        return InstAtom(f.var, normalize(f.body))
    raise FormulaError(f"not a formula: {f!r}")


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


def alpha_key(f: Formula):
    """Canonical de Bruijn-style key; equal keys mean alpha-equivalent.

    Computed on the normalized form, so sugared variants of the same
    formula compare equal.
    """
    def walk(g, env, depth):
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
            return ("~", walk(g.body, env, depth))
        if isinstance(g, And):
            return ("&", walk(g.left, env, depth), walk(g.right, env, depth))
        if isinstance(g, ForallFO):
            env2 = dict(env)
            env2[("fo", g.var)] = depth
            return ("Ax", walk(g.body, env2, depth + 1))
        if isinstance(g, ForallSO):
            env2 = dict(env)
            env2[("so", g.var)] = depth
            return ("AX", g.var.arity, walk(g.body, env2, depth + 1))
        if isinstance(g, InstAtom):
            env2 = dict(env)
            env2[("so", g.var)] = depth
            return ("I", g.var.arity, walk(g.body, env2, depth + 1))
        raise FormulaError(f"unexpected node in normalized formula: {g!r}")

    return walk(normalize(f), {}, 0)


def alpha_eq(f: Formula, g: Formula) -> bool:
    return alpha_key(f) == alpha_key(g)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def _subst_term(t: Term, mapping: Mapping[FOVar, Term]) -> Term:
    if isinstance(t, Var):
        return mapping.get(t.var, t)
    if isinstance(t, Const):
        return t
    return Func(t.name, tuple(_subst_term(a, mapping) for a in t.args))


def substitute_fo_many(f: Formula, mapping: Mapping[FOVar, Term],
                       on_capture: str = "rename") -> Formula:
    """Simultaneous capture-avoiding substitution of terms for FO variables.

    on_capture='rename' renames clashing binders to the successor of the
    largest index in sight; 'fail' raises CaptureError instead (used by
    axiom recognizers to enforce free-for side conditions).
    """
    if not mapping:
        return f

    def walk(g, mapping):
        if isinstance(g, PredApp):
            return PredApp(g.name, tuple(_subst_term(t, mapping) for t in g.args))
        if isinstance(g, TermEq):
            return TermEq(_subst_term(g.left, mapping), _subst_term(g.right, mapping))
        if isinstance(g, SOApp):
            return SOApp(g.var, tuple(_subst_term(t, mapping) for t in g.args))
        if isinstance(g, SOEq):
            return g
        if isinstance(g, Not):
            return Not(walk(g.body, mapping))
        if isinstance(g, BINARY):
            return type(g)(walk(g.left, mapping), walk(g.right, mapping))
        if isinstance(g, FO_QUANT):
            live = {k: v for k, v in mapping.items() if k != g.var}
            free_body, _ = free_variables(g.body)
            live = {k: v for k, v in live.items() if k in free_body}
            if not live:
                return g
            incoming = set()
            for t in live.values():
                incoming |= term_fo_vars(t)
            if g.var in incoming:
                if on_capture == "fail":
                    raise CaptureError(f"{g.var} would be captured")
                top = max([g.var.index, max_fo_index(g.body)]
                          + [_max_term_index(t) for t in live.values()])
                fresh = FOVar(top + 1)
                body = walk(g.body, {g.var: Var(fresh)})
                return type(g)(fresh, walk(body, live))
            return type(g)(g.var, walk(g.body, live))
        if isinstance(g, SO_QUANT):
            return type(g)(g.var, walk(g.body, mapping))
        if isinstance(g, InstAtom):
            return InstAtom(g.var, walk(g.body, mapping))
        raise FormulaError(f"not a formula: {g!r}")

    return walk(f, dict(mapping))


def substitute_fo(f: Formula, var: FOVar, term: Term, on_capture: str = "rename") -> Formula:
    """Capture-avoiding substitution of one term for one FO variable."""
    return substitute_fo_many(f, {var: term}, on_capture)


def substitute_so(f: Formula, vm: SOVar, vn: SOVar) -> tuple:
    """Replace free occurrences of vm by vn in applications and identities.

    Returns (formula, free_for_held).  When a binder on vn would capture
    the incoming variable the binder is renamed and free_for_held is
    False, mirroring the side condition of the universal-instance schema.
    """
    if vm.arity != vn.arity:
        raise FormulaError(f"arities differ: {vm} vs {vn}")
    clean = True

    def walk(g, vm):
        nonlocal clean
        if isinstance(g, (PredApp, TermEq)):
            return g
        if isinstance(g, SOApp):
            return SOApp(vn, g.args) if g.var == vm else g
        if isinstance(g, SOEq):
            left = vn if g.left == vm else g.left
            right = vn if g.right == vm else g.right
            return SOEq(left, right)
        if isinstance(g, Not):
            return Not(walk(g.body, vm))
        if isinstance(g, BINARY):
            return type(g)(walk(g.left, vm), walk(g.right, vm))
        if isinstance(g, FO_QUANT):
            return type(g)(g.var, walk(g.body, vm))
        if isinstance(g, SO_QUANT):
            if g.var == vm:
                return g
            _, free_so = free_variables(g.body)
            if g.var == vn and vm in free_so:
                clean = False
                fresh = SOVar(max(max_so_index(g.body), vm.index, vn.index) + 1, g.var.arity)
                body, _ = substitute_so(g.body, g.var, fresh)
                return type(g)(fresh, walk(body, vm))
            return type(g)(g.var, walk(g.body, vm))
        if isinstance(g, InstAtom):
            if g.var == vm:
                return g
            return InstAtom(g.var, walk(g.body, vm))
        raise FormulaError(f"not a formula: {g!r}")

    return walk(f, vm), clean


def a6_instantiate(f: Formula, var: SOVar, member) -> Formula:
    """Replace every free application var(t...) in f by the member formula.

    `member` supplies a first-order formula with designated slot variables
    (the relation coordinates) and parameter variables.  Parameters are
    renamed fresh with respect to f and the result is prefixed with one
    universal quantifier per parameter, so no new free variables appear.
    """
    arity = len(member.slots)
    if var.arity != arity:
        raise FormulaError(
            f"{var} has arity {var.arity} but the instantiating formula defines arity {arity}")
    base = max(max_fo_index(f), max_fo_index(member.formula)) + 1
    fresh_params = tuple(FOVar(base + i) for i in range(len(member.params)))
    theta = substitute_fo_many(
        member.formula, {p: Var(q) for p, q in zip(member.params, fresh_params)})

    def occurs_in_soeq(g):
        if isinstance(g, SOEq):
            return var in (g.left, g.right)
        if isinstance(g, Not):
            return occurs_in_soeq(g.body)
        if isinstance(g, BINARY):
            return occurs_in_soeq(g.left) or occurs_in_soeq(g.right)
        if isinstance(g, FO_QUANT):
            return occurs_in_soeq(g.body)
        if isinstance(g, SO_QUANT) or isinstance(g, InstAtom):
            return False if g.var == var else occurs_in_soeq(g.body)
        return False

    if occurs_in_soeq(f):
        raise FormulaError(
            f"{var} occurs free in a second-order identity; instantiation is undefined")

    def walk(g):
        if isinstance(g, (PredApp, TermEq, SOEq)):
            return g
        if isinstance(g, SOApp):
            if g.var != var:
                return g
            return substitute_fo_many(theta, dict(zip(member.slots, g.args)))
        if isinstance(g, Not):
            return Not(walk(g.body))
        if isinstance(g, BINARY):
            return type(g)(walk(g.left), walk(g.right))
        if isinstance(g, FO_QUANT):
            return type(g)(g.var, walk(g.body))
        if isinstance(g, SO_QUANT):
            return g if g.var == var else type(g)(g.var, walk(g.body))
        if isinstance(g, InstAtom):
            return g if g.var == var else InstAtom(g.var, walk(g.body))
        raise FormulaError(f"not a formula: {g!r}")

    out = walk(f)
    for p in reversed(fresh_params):
        out = ForallFO(p, out)
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


def format_formula(f: Formula, unicode: bool = True, resugar: bool = False) -> str:
    """Render a formula; parse(format_formula(f)) is alpha-equivalent to f.

    With resugar=True, primitive patterns that encode sugar (implication,
    disjunction, existentials, biconditionals) are displayed as sugar.
    """
    sym = _UNI if unicode else _ASC
    if resugar:
        f = resugar_formula(f)

    def quant(sylab, varstr, body):
        return f"{sym[sylab]}{varstr} {go(body, _PREC_UNARY)}"

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
        if isinstance(g, ForallFO):
            s = quant("forall", str(g.var), g.body)
            return s if ctx <= _PREC_UNARY else f"({s})"
        if isinstance(g, ExistsFO):
            s = quant("exists", str(g.var), g.body)
            return s if ctx <= _PREC_UNARY else f"({s})"
        if isinstance(g, ForallSO):
            s = quant("forall", str(g.var), g.body)
            return s if ctx <= _PREC_UNARY else f"({s})"
        if isinstance(g, ExistsSO):
            s = quant("exists", str(g.var), g.body)
            return s if ctx <= _PREC_UNARY else f"({s})"
        if isinstance(g, InstAtom):
            return f"inst({g.var}, {go(g.body, 0)})"
        raise FormulaError(f"not a formula: {g!r}")

    return go(f, 0)


def resugar_formula(f: Formula) -> Formula:
    """Fold primitive encodings back into sugar nodes, for display only."""
    if isinstance(f, (PredApp, TermEq, SOApp, SOEq)):
        return f
    if isinstance(f, BINARY):
        g = type(f)(resugar_formula(f.left), resugar_formula(f.right))
        if isinstance(g, And) and isinstance(g.left, Implies) and isinstance(g.right, Implies) \
                and g.left.left == g.right.right and g.left.right == g.right.left:
            return Iff(g.left.left, g.left.right)
        return g
    if isinstance(f, FO_QUANT) or isinstance(f, SO_QUANT):
        return type(f)(f.var, resugar_formula(f.body))
    if isinstance(f, InstAtom):
        return InstAtom(f.var, resugar_formula(f.body))
    if isinstance(f, Not):
        body = resugar_formula(f.body)
        if isinstance(body, ForallFO) and isinstance(body.body, Not):
            return ExistsFO(body.var, body.body.body)
        if isinstance(body, ForallSO) and isinstance(body.body, Not):
            return ExistsSO(body.var, body.body.body)
        if isinstance(body, And):
            if isinstance(body.left, Not) and isinstance(body.right, Not):
                return resugar_formula(Or(body.left.body, body.right.body))
            if isinstance(body.right, Not):
                return resugar_formula(Implies(body.left, body.right.body))
        return Not(body)
    raise FormulaError(f"not a formula: {f!r}")


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

_CANON_FO = re.compile(r"^x(\d+)$")
_NAMED_FO = re.compile(r"^[uvwyz]\d*$|^x$")
_CANON_SO = re.compile(r"^X(\d+)(\^(\d+))?$")
_NAMED_SO = re.compile(r"^([YZVW]\d*|X)(\^(\d+))?$")


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
        if kind == "ident" and m.group("ident") is None:
            kind = None
        if kind != "ws":
            tok_kind = kind
            word = m.group(0)
            if kind == "ident" and word in ("forall", "exists"):
                tok_kind = word
            out.append(_Tok(tok_kind, word, i))
        i = m.end()
    out.append(_Tok("eof", "", len(text)))
    return out


class _Parser:
    def __init__(self, tokens, sig: Signature, allow_inst: bool = False):
        self.toks = tokens
        self.sig = sig
        self.pos = 0
        self.allow_inst = allow_inst
        self._intern_named()

    def _intern_named(self):
        used_fo = set()
        used_so = {}
        named_fo = []
        named_so = []
        for t in self.toks:
            if t.kind != "ident" or t.text in self.sig.constants \
                    or t.text in self.sig.functions or t.text in self.sig.predicates \
                    or t.text in ("forall", "exists", "inst"):
                continue
            m = _CANON_FO.match(t.text)
            if m:
                used_fo.add(int(m.group(1)))
                continue
            m = _CANON_SO.match(t.text)
            if m:
                arity = int(m.group(3)) if m.group(3) else 1
                used_so.setdefault(arity, set()).add(int(m.group(1)))
                continue
            if _NAMED_FO.match(t.text):
                if t.text not in named_fo:
                    named_fo.append(t.text)
            elif _NAMED_SO.match(t.text):
                m2 = _NAMED_SO.match(t.text)
                arity = int(m2.group(3)) if m2.group(3) else 1
                key = (m2.group(1), arity)
                if key not in named_so:
                    named_so.append(key)
        self.fo_names = {}
        nxt = 0
        for name in named_fo:
            while nxt in used_fo:
                nxt += 1
            self.fo_names[name] = FOVar(nxt)
            nxt += 1
        self.so_names = {}
        counters = {}
        for name, arity in named_so:
            nxt = counters.get(arity, 0)
            while nxt in used_so.get(arity, set()):
                nxt += 1
            counters[arity] = nxt + 1
            self.so_names[(name, arity)] = SOVar(nxt, arity)

    def peek(self) -> _Tok:
        return self.toks[self.pos]

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
            return Implies(f, self.parse_imp())
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
            return Not(self.parse_unary())
        if t.kind in ("forall", "exists"):
            self.take()
            post = t.kind
            variables = [self._parse_quant_var()]
            while self.peek().kind == "comma":
                self.take()
                variables.append(self._parse_quant_var())
            body = self.parse_unary()
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
        m = _CANON_FO.match(word)
        if m:
            return ("fovar", FOVar(int(m.group(1))))
        if word in self.fo_names:
            return ("fovar", self.fo_names[word])
        m = _CANON_SO.match(word)
        if m:
            arity = int(m.group(3)) if m.group(3) else 1
            return ("sovar", SOVar(int(m.group(1)), arity))
        m = _NAMED_SO.match(word)
        if m:
            arity = int(m.group(3)) if m.group(3) else 1
            return ("sovar", self.so_names[(m.group(1), arity)])
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
            f = self.parse_iff()
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
        body = self.parse_iff()
        self.take("rparen")
        return InstAtom(value, body)


def parse(text: str, sig: Signature, allow_inst: bool = False) -> Formula:
    """Parse the concrete syntax into a (possibly sugared) formula."""
    p = _Parser(_lex(text), sig, allow_inst=allow_inst)
    f = p.parse_formula()
    validate(f, sig)
    return f
