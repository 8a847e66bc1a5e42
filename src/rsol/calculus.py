"""Proof objects and the checking kernel for the Hilbert system.

The base is a fixed complete axiom set for first-order logic with
conjunction primitive (P1-P3, C1-C3, the two quantifier schemata, and
identity reflexivity plus term replacement), extended by the six
relation-variable schemata and three rules: detachment, generalization
for both sorts, and the infinitary rule.  The infinite premise family of
the infinitary rule is certified finitely by a schematic template whose
lines treat the member instantiation as an opaque atom; instantiating an
accepted template at any index yields an ordinary checkable proof.

Proof construction helpers (ProofBuilder) are untrusted; `check_proof`
revalidates everything from scratch.
"""

from __future__ import annotations

import copy
import inspect
import re
from dataclasses import dataclass, field
from itertools import repeat
from types import SimpleNamespace
from typing import Iterable, Optional

from .formulas import (
    BINDERS, SUBFORMULAS, And, ExistsSO, ForallFO, ForallSO, Formula,
    FormulaError, FOVar, Func, Iff, InstAtom, Not, Signature, SOApp, SOEq,
    PredApp, SOVar, Term, TermEq, Var, _depth, _validate_node, a6_instantiate,
    alpha_eq, as_implies, canonical_variable, children, content_lines,
    free_variables, implies, is_sentence, nodes, normalize, parse_line,
    rewrite, substitute, term_fo_vars, validate,
)
from .theta import ThetaFamily


# ---------------------------------------------------------------------------
# Justifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Premise:
    index: int


@dataclass(frozen=True)
class Axiom:
    """An instance of the schema AXIOMS[schema].  index is the member for A1
    and A6 (None for A6 at a template's meta-index) and the arity for A2."""
    schema: str
    index: Optional[int] = None


_META = Axiom("A6")


@dataclass(frozen=True)
class MP:
    implication: int
    antecedent: int


@dataclass(frozen=True)
class GenFO:
    line: int
    var: FOVar


@dataclass(frozen=True)
class GenSO:
    line: int
    var: SOVar


@dataclass(frozen=True)
class R3:
    template: str


@dataclass(frozen=True)
class ProofLine:
    formula: Formula
    justification: object


@dataclass(frozen=True)
class OmegaTemplate:
    """Schematic certificate for the infinite premise family of R3.

    The final line must be an implication into an `inst` atom; the proof
    concluded by R3 replaces that atom with the universally quantified
    formula.  Line justifications must hold uniformly in the meta-index,
    which the checker enforces by treating `inst` atoms as opaque.
    """
    name: str
    lines: tuple

    def target_parts(self):
        if not self.lines:
            raise FormulaError(f"template {self.name}: empty")
        d = as_implies(self.lines[-1].formula)
        if d is None or not isinstance(d[1], InstAtom):
            raise FormulaError(
                f"template {self.name}: final line must be an implication "
                f"into an inst atom")
        psi, inst = d
        return psi, inst.var, inst.body

    def target_formula(self) -> Formula:
        psi, var, body = self.target_parts()
        return implies(psi, ForallSO(var, body))


class Proof:
    """Premise list, justified lines, and the table of cited templates."""

    def __init__(self, sig: Signature, family: Optional[ThetaFamily],
                 premises: Iterable[Formula], lines: Iterable[ProofLine],
                 templates: Optional[dict] = None):
        self.sig = sig
        self.family = family
        self.premises = tuple(normalize(p) for p in premises)
        self.lines = tuple(ProofLine(normalize(l.formula), l.justification)
                           for l in lines)
        self.templates = {
            name: OmegaTemplate(t.name, tuple(
                ProofLine(normalize(l.formula), l.justification) for l in t.lines))
            for name, t in (templates or {}).items()}

    @property
    def conclusion(self) -> Formula:
        return self.lines[-1].formula


@dataclass
class Verdict:
    ok: bool
    line: Optional[int] = None          # 0-based failing line
    reason: str = ""
    template_verdicts: dict = field(default_factory=dict)

    def __bool__(self):
        return self.ok


# ---------------------------------------------------------------------------
# Axiom builders (normalized output)
# ---------------------------------------------------------------------------

# The propositional schemata of the first-order base, in the notation of the
# README's "Hilbert base" note.  Each entry is a function of its metavariables
# and is the one definition of its schema: `build_schema` applies it to
# normalized parts, and `_match_schema` unifies a line with it applied to
# placeholder atoms.
SCHEMATA = {
    "P1": lambda a, b: implies(a, implies(b, a)),
    "P2": lambda a, b, c: implies(implies(a, implies(b, c)),
                                  implies(implies(a, b), implies(a, c))),
    "P3": lambda a, b: implies(implies(Not(b), Not(a)), implies(a, b)),
    "C1": lambda a, b: implies(And(a, b), a),
    "C2": lambda a, b: implies(And(a, b), b),
    "C3": lambda a, b: implies(a, implies(b, And(a, b))),
}


def build_schema(name: str, *parts):
    return SCHEMATA[name](*map(normalize, parts))


_FORALL = {FOVar: ForallFO, SOVar: ForallSO}


def build_instance(v, phi, t):
    """Universal instance, forall v phi -> phi[t/v]: Q1 when v is a
    first-order variable and t a term, A4 when v is a relation variable and
    t one of the same arity; CaptureError, a FormulaError, unless t is free
    for v in phi."""
    phi = normalize(phi)
    return implies(_FORALL[type(v)](v, phi), substitute(phi, {v: t}, "fail"))


build_a4 = build_instance


def _distribution(v, a, b):
    forall = _FORALL[type(v)]
    return implies(forall(v, implies(a, b)), implies(a, forall(v, b)))


def _free_in(v, f) -> bool:
    return any(v in vs for vs in free_variables(f))


def build_distribution(v, a, b):
    """Distribution over the universal quantifier on v: Q2 when v is a
    first-order variable, A5 when it is a relation variable."""
    a, b = normalize(a), normalize(b)
    if _free_in(v, a):
        raise FormulaError(f"{v} must not be free in the antecedent")
    return _distribution(v, a, b)


build_a5 = build_distribution


def build_eq_refl(t: Term):
    return TermEq(t, t)


def _replacement(eq, phi, phi_prime, what: str):
    """eq -> (phi -> phi'), where phi' replaces eq.left by eq.right in phi."""
    phi, phi_prime = normalize(phi), normalize(phi_prime)
    if not _replaces(phi, phi_prime, eq.left, eq.right):
        raise FormulaError(f"not a {what}")
    return implies(eq, implies(phi, phi_prime))


def build_eq_subst(t1: Term, t2: Term, phi, phi_prime):
    return _replacement(TermEq(t1, t2), phi, phi_prime, "term replacement instance")


def build_a1(member, so_index: int = 0):
    v = SOVar(so_index, member.arity)
    core = Iff(SOApp(v, tuple(Var(s) for s in member.slots)), member.formula)
    for s in reversed(member.slots):
        core = ForallFO(s, core)
    core = ExistsSO(v, core)
    out: Formula = core
    for p in reversed(member.params):
        out = ForallFO(p, out)
    return normalize(out)


def build_a2(arity: int):
    vm, vn = SOVar(0, arity), SOVar(1, arity)
    xs = tuple(FOVar(i) for i in range(arity))
    both = Iff(SOApp(vm, tuple(Var(x) for x in xs)),
               SOApp(vn, tuple(Var(x) for x in xs)))
    for x in reversed(xs):
        both = ForallFO(x, both)
    return normalize(ForallSO(vm, ForallSO(vn, Iff(both, SOEq(vm, vn)))))


def build_a3(vm: SOVar, vn: SOVar, phi, phi_prime):
    if vm.arity != vn.arity or vm == vn:
        raise FormulaError("needs two distinct variables of equal arity")
    return ForallSO(vm, ForallSO(vn, _replacement(SOEq(vm, vn), phi, phi_prime,
                                                  "replacement instance")))


def build_a6(v: SOVar, phi, member):
    phi = normalize(phi)
    return implies(ForallSO(v, phi), _a6_consequent(phi, v, member))


# (phi, v, member, consequent) of the last A6 instance built, read and replaced
# whole: the kernel's rebuild of a line instantiate_template just made gets the
# same object (a proof file's line, with its own phi, gets a build without the
# memo).  It holds its keys, so their ids stay taken; check_proof empties it.
_LAST_A6: list = [()]


def _a6_consequent(phi, v: SOVar, member, memo=None):
    """a6_instantiate(phi, v, member), through a spot check's `memo`."""
    last = _LAST_A6[0]
    if not (last and last[0] is phi and last[1] == v and last[2] is member):
        out = a6_instantiate(phi, v, member, memo and memo.tables, memo and memo.normal)
        last = _LAST_A6[0] = (phi, v, member, out)
    return last[3]


# ---------------------------------------------------------------------------
# Recognizers
# ---------------------------------------------------------------------------

def _unify(pattern, f, binding: dict) -> bool:
    """Whether f is pattern with each metavariable replaced by one formula,
    recording the replacements in binding.  The atoms of a pattern are its
    metavariables; a pattern is not itself one, and it has no binders."""
    t = type(pattern)
    if type(f) is not t:
        return False
    for name in SUBFORMULAS[t]:
        p, g = getattr(pattern, name), getattr(f, name)
        if type(p) is PredApp:
            bound = binding.setdefault(p.name, g)
            if bound is not g and bound != g:
                return False
        elif not _unify(p, g, binding):
            return False
    return True


def _pattern(schema):
    """The metavariable names of a SCHEMATA entry, and the entry applied to
    placeholder atoms "?a", "?b", ..., which no parse can produce."""
    params = tuple(inspect.signature(schema).parameters)
    return params, schema(*(PredApp("?" + p, ()) for p in params))


_PATTERNS = {name: _pattern(schema) for name, schema in SCHEMATA.items()}


def _match_schema(name: str, f):
    """The parts, in SCHEMATA[name]'s parameter order, that build f from it,
    else None."""
    params, pattern = _PATTERNS[name]
    binding: dict = {}
    if not _unify(pattern, f, binding):
        return None
    return tuple(binding["?" + p] for p in params)


def _split(u):
    """The head of a formula or term, and the parts of it that a lockstep
    walk enters; a variable or a constant is its own head and has no parts."""
    t = type(u)
    if t is PredApp or t is Func:
        return (t, u.name), u.args
    if t is TermEq or t is SOEq:
        return t, (u.left, u.right)
    if t is SOApp:
        return t, (u.var, *u.args)
    if t in SUBFORMULAS:
        return ((t, u.var) if t in BINDERS else t), children(u)
    return u, ()


def _diffs(a, b, old):
    """The outermost places where a and b differ, left to right, as triples:
    the part of a, the part of b, and the variables of both sorts bound above
    them.  An occurrence of old in a, and binders of different variables,
    are each one whole difference and are not entered."""
    stack = [(a, b, frozenset())]
    while stack:
        a, b, bound = stack.pop()
        if a == b:
            continue
        if a != old:
            (ha, pa), (hb, pb) = _split(a), _split(b)
            if ha == hb and len(pa) == len(pb):
                if type(a) in BINDERS:
                    bound = bound | {a.var}
                stack.extend(zip(reversed(pa), reversed(pb), repeat(bound)))
                continue
        yield a, b, bound


def _match_instance(f, sort):
    """The parts (v, t) that build f by `build_instance`, where v is of type
    sort (FOVar for Q1, SOVar for A4), else None."""
    d = as_implies(f)
    if d is None or type(d[0]) is not _FORALL[sort]:
        return None
    v, phi, psi = d[0].var, d[0].body, d[1]
    old = Var(v) if sort is FOVar else v
    if psi == phi:
        return v, old
    # t is what psi has at the first place where phi has v
    t = next((b for a, b, _ in _diffs(phi, psi, old) if a == old), None)
    try:
        return (v, t) if t is not None and substitute(phi, {v: t}, "fail") == psi else None
    except FormulaError:
        return None


def _match_distribution(f, sort):
    """The parts (v, a, b) that build f by `build_distribution`, where v is
    of type sort (FOVar for Q2, SOVar for A5), else None."""
    d = as_implies(f)
    if d is None or type(d[0]) is not _FORALL[sort]:
        return None
    v, ab = d[0].var, as_implies(d[0].body)
    if ab is None or f != _distribution(v, *ab) or _free_in(v, ab[0]):
        return None
    return (v, *ab)


def _replaces(a, b, old, new) -> bool:
    """Whether b is a with some occurrences of old (a term or a relation
    variable) replaced by new, none of them under a binder of a variable of
    old or new."""
    blocking = ({old, new} if isinstance(old, SOVar)
                else term_fo_vars(old) | term_fo_vars(new))
    return all(u == old and v == new and not blocking & bound
               for u, v, bound in _diffs(a, b, old))


def _match_replacement(f, eq):
    """The parts (old, new) of f = (old = new) -> (phi -> phi'), where phi'
    replaces old by new in phi, else None.  eq is the type of the identity:
    TermEq for eq-subst, SOEq for A3, whose line closes it by forall old
    forall new with old and new distinct."""
    if eq is SOEq:
        if type(f) is not ForallSO or type(f.body) is not ForallSO:
            return None
        closure, f = (f.var, f.body.var), f.body.body
    d = as_implies(f)
    if d is None or type(d[0]) is not eq:
        return None
    old, new = d[0].left, d[0].right
    if eq is SOEq and (closure != (old, new) or old == new):
        return None
    d = as_implies(d[1])
    return (old, new) if d is not None and _replaces(*d, old, new) else None


def _match_a2(f, arity: int, fam):
    """(arity,) when f is the extensionality instance at arity, up to the
    names of bound variables.  That instance has more than arity levels, so a
    larger arity, and one below 1, is refused before the instance is built."""
    ok = 0 < arity < _depth(f, arity) and alpha_eq(f, build_a2(arity))
    return (arity,) if ok else None


def _match_a1(f, n: int, fam: ThetaFamily):
    """(n,) when f is the comprehension instance for member n.  That instance
    contains the member's formula, so a member at least as deep as f is
    refused before the instance is built."""
    try:
        member = fam.member_at(n)
        levels = _depth(member.formula)
        ok = levels < _depth(f, levels) and alpha_eq(f, build_a1(member))
    except FormulaError:
        return None
    return (n,) if ok else None


def _match_a6(f, n: int, fam: ThetaFamily):
    """(n,) when f is the instantiation axiom for member n.  That instance's
    right side starts with one forall per member parameter, so a member with
    more is refused before the instance is built."""
    d = as_implies(f)
    if d is None or not isinstance(d[0], ForallSO):
        return None
    v, phi, right = d[0].var, d[0].body, d[1]
    try:
        member = fam.arity_member(v.arity, n)
        for _ in member.params:           # None past the leading foralls
            right = right.body if type(right) is ForallFO else None
        ok = right is not None and alpha_eq(f, build_a6(v, phi, member))
    except FormulaError:
        return None
    return (n,) if ok else None


_NO_IDENTITY = "identity axioms are disabled for this signature"
_MEMBER = ("theta_index",)

# Every axiom schema, by the name that `recognize_axiom` reports, in the order
# it tries them: the matcher (f, index, family) -> the witness values or None,
# the witness keys, the reason a signature without identity refuses it (or
# None), and the reason a line that is no instance is refused, with {} for the
# index.  A witness that is the index alone makes the schema indexed: by the
# arity (A2) or by a member of the family (A1, A6), which needs a family.
AXIOMS = {
    **{name: (lambda f, n, fam, name=name: _match_schema(name, f), _PATTERNS[name][0],
              None, f"not an instance of {name}") for name in SCHEMATA},
    "Q1": (lambda f, n, fam: _match_instance(f, FOVar), ("x", "t"), None,
           "not an instance of Q1"),
    "Q2": (lambda f, n, fam: _match_distribution(f, FOVar), ("x",), None,
           "not an instance of Q2"),
    "eq-refl": (lambda f, n, fam: (f.left,) if type(f) is TermEq and f.left == f.right
                else None, ("t",), _NO_IDENTITY, "not an instance of identity refl"),
    "eq-subst": (lambda f, n, fam: _match_replacement(f, TermEq), ("t1", "t2"),
                 _NO_IDENTITY, "not an instance of identity subst"),
    "A2": (_match_a2, ("arity",), "extensionality needs identity",
           "not the extensionality instance at arity {}"),
    "A3": (lambda f, n, fam: _match_replacement(f, SOEq), ("vm", "vn"),
           "replacement needs identity", "not a replacement instance"),
    "A4": (lambda f, n, fam: _match_instance(f, SOVar), ("vm", "vn"), None,
           "not a universal-instance axiom"),
    "A5": (lambda f, n, fam: _match_distribution(f, SOVar), ("vm",), None,
           "not a distribution axiom"),
    "A1": (_match_a1, _MEMBER, None, "not the comprehension instance for member {}"),
    "A6": (_match_a6, _MEMBER, None, "not the instantiation axiom for member {}"),
}

# The schema that each word after "ax" and after "eq" names in a proof file.
# The text reader names any other such pair by both words, "ax A4" or "eq
# sym", which are no key of AXIOMS, and the kernel refuses it by the word.
_WORDS = {"ax": {name: name for name in (*SCHEMATA, "Q1", "Q2")},
          "eq": {"refl": "eq-refl", "subst": "eq-subst"}}

# Family-indexed schemata (A1, A6) are searched up to this member index.
SEARCH_BOUND = 32


def recognize_axiom(f: Formula, fam: Optional[ThetaFamily] = None):
    """Identify f as an axiom instance; returns (name, witness) or None.  A2
    is tried at the arity of f's first quantified variable, and A1 and A6 at
    the members 0..SEARCH_BOUND of fam."""
    f = normalize(f)
    for name, (match, keys, _, _) in AXIOMS.items():
        if keys == ("arity",):
            indices = (f.var.arity,) if type(f) is ForallSO else ()
        elif keys == _MEMBER:
            indices = range(SEARCH_BOUND + 1) if fam is not None else ()
        else:
            indices = (None,)
        for n in indices:
            got = match(f, n, fam)
            if got is not None:
                return (name, dict(zip(keys, got)))
    return None


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------

def _check_justified_line(proof: Proof, lines, i: int, line: ProofLine,
                          in_template: bool, template_verdicts):
    """Reason string when line i does not check, else None.  Outside a
    template, `template_verdicts` holds check_template's verdict for every
    template of the proof."""
    f = line.formula
    j = line.justification
    if isinstance(j, Premise):
        if not 0 <= j.index < len(proof.premises):
            return f"premise index {j.index} out of range"
        if f != proof.premises[j.index]:
            return "formula differs from the cited premise"
        return None
    if isinstance(j, Axiom):
        if j.schema == "A6" and j.index is None:
            if not in_template:
                return "meta-index instantiation outside a template"
            d = as_implies(f)
            if d is None or not isinstance(d[0], ForallSO) \
                    or not isinstance(d[1], InstAtom):
                return "not a schematic instantiation axiom"
            if d[1].var != d[0].var or d[1].body != d[0].body:
                return "inst atom does not match the quantified formula"
            return None
        if j.schema not in AXIOMS:
            group, _, word = j.schema.rpartition(" ")
            if group == "eq" and not proof.sig.identity:
                return _NO_IDENTITY
            return f"unknown {'identity ' if group == 'eq' else ''}schema {word}"
        match, keys, identity, refusal = AXIOMS[j.schema]
        if identity is not None and not proof.sig.identity:
            return identity
        if keys == _MEMBER and proof.family is None:
            return "no family attached to the proof"
        return refusal.format(j.index) if match(f, j.index, proof.family) is None else None
    if isinstance(j, MP):
        if not (0 <= j.implication < i and 0 <= j.antecedent < i):
            return "detachment cites a line that is not strictly earlier"
        if as_implies(lines[j.implication].formula) != (lines[j.antecedent].formula, f):
            return "implication line does not match antecedent and conclusion"
        return None
    if isinstance(j, (GenFO, GenSO)):
        if not 0 <= j.line < i:
            return "generalization cites a line that is not strictly earlier"
        forall = ForallFO if isinstance(j, GenFO) else ForallSO
        if f != forall(j.var, lines[j.line].formula):
            return "not the generalization of the cited line"
        return None
    if isinstance(j, R3):
        if in_template:
            return "nested infinitary rule"
        if j.template not in proof.templates:
            return f"unknown template {j.template}"
        template = proof.templates[j.template]
        tv = template_verdicts[j.template]
        if not tv.ok:
            return f"cited template rejected: {tv.reason}"
        if f != normalize(template.target_formula()):
            return "conclusion does not match the template target"
        return None
    return f"unknown justification {j!r}"


def check_template(t: OmegaTemplate, proof: Proof) -> Verdict:
    """Validate a template's lines with the inst atoms treated as opaque."""
    if not t.lines:
        return Verdict(False, reason="empty template")
    try:
        psi, var, body = t.target_parts()
    except FormulaError as exc:
        return Verdict(False, reason=str(exc))
    if any(_inst_atoms(psi)):
        return Verdict(False, reason="target antecedent mentions the meta-index")
    if any(_inst_atoms(body)):
        return Verdict(False, reason="nested inst atoms are not supported")
    if proof.family is None:
        return Verdict(False, reason="no family attached to the proof")
    for line in t.lines:
        for atom in _inst_atoms(line.formula):
            if any(_inst_atoms(atom.body)):
                return Verdict(False, reason="nested inst atoms are not supported")
            if not proof.family.arity_supported(atom.var.arity):
                return Verdict(
                    False,
                    reason=f"family {proof.family.name} has no members of "
                           f"arity {atom.var.arity}")
    return _check_lines(proof, t.lines, True, {}, {})


def _inst_atoms(f: Formula) -> list:
    return [g for g in nodes(f) if type(g) is InstAtom]


def instantiate_template(t: OmegaTemplate, proof: Proof, n: int, memo=None) -> Proof:
    """Turn a template into the concrete proof of its n-th premise.  Its lines
    must be normal, as those of `proof.templates` are.  A spot check's `memo`
    keeps the A6 instances' work for the next call."""
    fam = proof.family

    def step(f):
        if type(f) is InstAtom:
            return _a6_consequent(f.body, f.var, fam.arity_member(f.var.arity, n), memo)
        return None

    # one table for all lines: a node shared between lines is replaced once, so
    # the lines share the result and the kernel's comparisons meet the same object
    replaced: dict = {}
    lines = []
    for line in t.lines:
        j = Axiom("A6", n) if line.justification == _META else line.justification
        lines.append(ProofLine(rewrite(line.formula, step, replaced), j))
    # the lines are normal (template lines, A6 consequents and rebuilds of
    # normal parts), so the copy skips Proof's normalizing scan of each line
    inst = copy.copy(proof)
    inst.lines, inst.templates = tuple(lines), {}
    return inst


def spot_check_template(t: OmegaTemplate, proof: Proof, bound: int) -> Verdict:
    """Bounded evidence: instantiate at 0..bound and check each instance.  One
    memo, dropped on return, keeps a6_instantiate's substitution tables,
    normalize's memo for the instance bodies and the line nodes checked, so
    instance n redoes no work on those of instance n - 1."""
    memo = SimpleNamespace(tables={}, normal={}, seen={})
    for n in range(bound + 1):
        v = check_proof(instantiate_template(t, proof, n, memo), memo.seen)
        if not v.ok:
            return Verdict(False, line=v.line,
                           reason=f"instance n={n} rejected: {v.reason}")
    return Verdict(True, reason=f"evidence({bound})")


def check_proof(proof: Proof, seen: dict | None = None) -> Verdict:
    """Validate premises, templates cited by R3, and every line.  `seen`
    (id -> node) holds line nodes an earlier check of a proof over the same
    signature checked: this check skips them and adds its own."""
    try:
        return _check_proof(proof, {} if seen is None else seen)
    finally:
        _LAST_A6[0] = ()     # no instance outlives the check that used it


def _check_proof(proof: Proof, seen: dict) -> Verdict:
    for k, p in enumerate(proof.premises):
        if not is_sentence(p):
            return Verdict(False, reason=f"premise {k} is not a sentence")
        try:
            validate(p, proof.sig)
        except FormulaError as exc:
            return Verdict(False, reason=f"premise {k}: {exc}")
    if not proof.lines:
        return Verdict(False, reason="no lines")
    template_verdicts = {name: check_template(t, proof)
                         for name, t in sorted(proof.templates.items())}
    return _check_lines(proof, proof.lines, False, template_verdicts, seen)


def _check_lines(proof: Proof, lines, in_template: bool, template_verdicts, seen) -> Verdict:
    """The verdict on the lines of a proof or a template: the first line
    whose new atoms do not fit the signature (an inst atom outside a
    template comes first), or whose justification does not check.  `seen`
    maps id -> node for the subformulas already checked, so that a subtree
    several lines share (template instances) is checked once."""
    for i, line in enumerate(lines):
        why = None
        for g in nodes(line.formula, seen):
            if type(g) is InstAtom and not in_template:
                why = "inst atoms are only allowed inside templates"
                break
            if why is None and not SUBFORMULAS[type(g)]:
                try:
                    _validate_node(g, proof.sig)
                except FormulaError as exc:
                    why = str(exc)
        if why is None:
            why = _check_justified_line(proof, lines, i, line, in_template,
                                        template_verdicts)
        if why is not None:
            return Verdict(False, line=i, reason=why,
                           template_verdicts=template_verdicts)
    return Verdict(True, template_verdicts=template_verdicts)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

class _LineBuilder:
    """Shared line-emitting machinery; everything lands normalized."""

    def __init__(self, sig: Signature, family, premises):
        self.sig = sig
        self.family = family
        self.premises = tuple(normalize(p) for p in premises)
        self.lines: list = []
        self._index: dict = {}

    def formula_at(self, i: int) -> Formula:
        return self.lines[i].formula

    def _emit(self, formula: Formula, justification) -> int:
        formula = normalize(formula)
        idx = self._index.get(formula)
        if idx is None:
            idx = self._index[formula] = len(self.lines)
            self.lines.append(ProofLine(formula, justification))
        return idx

    def repeat_last(self, i: int) -> int:
        """Re-emit line i verbatim so it becomes the final line."""
        if i == len(self.lines) - 1:
            return i
        self.lines.append(self.lines[i])
        return len(self.lines) - 1

    def premise(self, k: int) -> int:
        return self._emit(self.premises[k], Premise(k))

    def schema(self, name: str, *parts) -> int:
        return self._emit(build_schema(name, *parts), Axiom(name))

    def instance(self, v, phi, t) -> int:
        j = Axiom("Q1" if isinstance(v, FOVar) else "A4")
        return self._emit(build_instance(v, phi, t), j)

    q1 = a4 = instance

    def distribution(self, v, a, b) -> int:
        j = Axiom("Q2" if isinstance(v, FOVar) else "A5")
        return self._emit(build_distribution(v, a, b), j)

    a5 = distribution

    def eq_refl(self, t) -> int:
        return self._emit(build_eq_refl(t), Axiom("eq-refl"))

    def eq_subst(self, t1, t2, phi, phi_prime) -> int:
        return self._emit(build_eq_subst(t1, t2, phi, phi_prime), Axiom("eq-subst"))

    def a1(self, theta_index: int) -> int:
        return self._emit(build_a1(self.family.member_at(theta_index)),
                          Axiom("A1", theta_index))

    def a2(self, arity: int) -> int:
        return self._emit(build_a2(arity), Axiom("A2", arity))

    def a3(self, vm, vn, phi, phi_prime) -> int:
        return self._emit(build_a3(vm, vn, phi, phi_prime), Axiom("A3"))

    def a6(self, v, phi, theta_index: int) -> int:
        member = self.family.arity_member(v.arity, theta_index)
        return self._emit(build_a6(v, phi, member), Axiom("A6", theta_index))

    def mp(self, implication: int, antecedent: int) -> int:
        d = as_implies(self.formula_at(implication))
        if d is None or d[0] != self.formula_at(antecedent):
            raise FormulaError("detachment does not apply")
        return self._emit(d[1], MP(implication, antecedent))

    # -- derived rules, expanded into axiom and detachment lines ------------

    def imp_identity(self, a) -> int:
        a = normalize(a)
        aa = implies(a, a)
        first = self.schema("P1", a, aa)
        second = self.schema("P2", a, aa, a)
        third = self.mp(second, first)
        fourth = self.schema("P1", a, a)
        return self.mp(third, fourth)

    def weaken(self, b_line: int, a) -> int:
        b = self.formula_at(b_line)
        k = self.schema("P1", b, a)
        return self.mp(k, b_line)

    def syllogism(self, ab_line: int, bc_line: int) -> int:
        a, b = as_implies(self.formula_at(ab_line))
        b2, c = as_implies(self.formula_at(bc_line))
        if b != b2:
            raise FormulaError("syllogism middle terms differ")
        abc = self.weaken(bc_line, a)
        dist = self.schema("P2", a, b, c)
        step = self.mp(dist, abc)
        return self.mp(step, ab_line)

    def under(self, x_bc_line: int, x_b_line: int) -> int:
        x, bc = as_implies(self.formula_at(x_bc_line))
        b, c = as_implies(bc)
        x2, b2 = as_implies(self.formula_at(x_b_line))
        if x2 != x or b2 != b:
            raise FormulaError("contexts differ")
        dist = self.schema("P2", x, b, c)
        step = self.mp(dist, x_bc_line)
        return self.mp(step, x_b_line)

    def compose_inner(self, a_bc_line: int, cd_line: int) -> int:
        """From A -> (B -> C) and C -> D conclude A -> (B -> D)."""
        a, bc = as_implies(self.formula_at(a_bc_line))
        b, c = as_implies(bc)
        c2, d = as_implies(self.formula_at(cd_line))
        if c2 != c:
            raise FormulaError("middle terms differ")
        lifted = self.weaken(cd_line, b)
        dist = self.schema("P2", b, c, d)
        bridge = self.mp(dist, lifted)
        return self.syllogism(a_bc_line, bridge)

    def gen_fo(self, line: int, x: FOVar) -> int:
        return self._emit(ForallFO(x, self.formula_at(line)), GenFO(line, x))

    def gen_so(self, line: int, v: SOVar) -> int:
        return self._emit(ForallSO(v, self.formula_at(line)), GenSO(line, v))


class TemplateBuilder(_LineBuilder):
    def a6_meta(self, v: SOVar, phi) -> int:
        phi = normalize(phi)
        return self._emit(implies(ForallSO(v, phi), InstAtom(v, phi)), _META)

    def build(self, name: str) -> OmegaTemplate:
        return OmegaTemplate(name, tuple(self.lines))


class ProofBuilder(_LineBuilder):
    def __init__(self, sig: Signature, family=None, premises=()):
        super().__init__(sig, family, premises)
        self.templates: dict = {}

    def template_builder(self) -> TemplateBuilder:
        return TemplateBuilder(self.sig, self.family, self.premises)

    def r3(self, template: OmegaTemplate) -> int:
        self.templates[template.name] = template
        return self._emit(template.target_formula(), R3(template.name))

    def build(self) -> Proof:
        return Proof(self.sig, self.family, self.premises, self.lines,
                     self.templates)


# ---------------------------------------------------------------------------
# The deduction transformation
# ---------------------------------------------------------------------------

def apply_deduction(proof: Proof) -> Proof:
    """Discharge the last premise: from premises+phi |- psi build premises |- phi->psi.

    Standard line-by-line transformation; lines concluded by the
    infinitary rule follow the conjunction route: the cited template is
    transformed, its target strengthened from psi -> inst to
    (phi /\\ psi) -> inst, the rule is reapplied, and the detour is
    repackaged into phi -> (psi -> forall V sigma).
    """
    verdict = check_proof(proof)
    if not verdict.ok:
        raise FormulaError(f"input proof rejected: {verdict.reason}")
    if not proof.premises:
        raise FormulaError("no such premise")
    new_premises, phi = proof.premises[:-1], proof.premises[-1]
    out = ProofBuilder(proof.sig, proof.family, new_premises)
    counter = [0]

    def transform(builder, lines, mapping, i, line):
        j = line.justification
        if isinstance(j, Premise) and j.index == len(new_premises):
            return builder.imp_identity(phi)
        # the other premises keep their indices
        if isinstance(j, (Premise, Axiom)):
            return builder.weaken(builder._emit(line.formula, j), phi)
        if isinstance(j, MP):
            return builder.under(mapping[j.implication], mapping[j.antecedent])
        if isinstance(j, (GenFO, GenSO)):
            gen = builder.gen_fo if isinstance(j, GenFO) else builder.gen_so
            seed = gen(mapping[j.line], j.var)
            dist = builder.distribution(j.var, phi, lines[j.line].formula)
            return builder.mp(dist, seed)
        if isinstance(j, R3):
            template = proof.templates[j.template]
            psi, var, sigma = template.target_parts()
            tb = TemplateBuilder(proof.sig, proof.family, new_premises)
            tmap: dict = {}
            for ti, tline in enumerate(template.lines):
                tmap[ti] = transform(tb, template.lines, tmap, ti, tline)
            # strengthen phi -> (psi -> inst) into (phi /\ psi) -> inst
            first = tb.schema("C1", phi, psi)
            second = tb.schema("C2", phi, psi)
            chained = tb.syllogism(first, tmap[len(template.lines) - 1])
            final = tb.under(chained, second)
            tb.repeat_last(final)
            counter[0] += 1
            new_template = tb.build(f"{j.template}@ded{counter[0]}")
            r3_line = builder.r3(new_template)
            pack = builder.schema("C3", phi, psi)
            return builder.compose_inner(pack, r3_line)
        raise FormulaError(f"cannot transform justification {j!r}")

    mapping: dict = {}
    for i, line in enumerate(proof.lines):
        mapping[i] = transform(out, proof.lines, mapping, i, line)
    out.repeat_last(mapping[len(proof.lines) - 1])
    return out.build()


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------

_LINE_RX = re.compile(r"^\s*(\d+)\s*\.\s*(.+?)\s*;\s*(.+?)\s*$")


def load_premises_text(text: str, sig: Signature) -> list:
    return [parse_line(f"line {lineno}", line, sig)
            for lineno, line in content_lines(text.splitlines())]


def _parse_justification(text: str, in_template: bool):
    words = text.split()
    kind = words[0]
    if kind == "premise":
        return Premise(int(words[1]) - 1)
    if kind in _WORDS:
        return Axiom(_WORDS[kind].get(words[1], f"{kind} {words[1]}"))
    if kind in ("A1", "A2", "A6"):
        if kind == "A6" and words[1] == "n":
            if not in_template:
                raise FormulaError("the meta-index belongs inside templates")
            return _META
        return Axiom(kind, int(words[1]))
    if kind in ("A3", "A4", "A5"):
        return Axiom(kind)
    if kind == "mp":
        return MP(int(words[1]) - 1, int(words[2]) - 1)
    if kind in ("gen", "genso"):
        rule, sort = (GenFO, FOVar) if kind == "gen" else (GenSO, SOVar)
        v = canonical_variable(words[1])
        if type(v) is not sort:
            raise FormulaError(f"bad variable {words[1]!r}")
        return rule(int(words[2]) - 1, v)
    if kind == "R3":
        return R3(words[1])
    raise FormulaError(f"unknown justification {text!r}")


def load_proof_text(text: str, sig: Signature, fam: Optional[ThetaFamily],
                    premises=()) -> Proof:
    """Parse the line-oriented proof format with optional template blocks."""
    lines: list = []
    templates: dict = {}
    current_template: Optional[str] = None
    template_lines: list = []
    for lineno, stripped in content_lines(text.splitlines()):
        if stripped.startswith("template "):
            head = stripped[len("template "):].strip()
            if not head.endswith("{"):
                raise FormulaError(f"line {lineno}: expected '{{' ending the header")
            parts = head[:-1].split()
            if len(parts) != 3 or parts[1] != "over":
                raise FormulaError(
                    f"line {lineno}: expected 'template <id> over n {{'")
            current_template = parts[0]
            template_lines = []
            continue
        if stripped == "}":
            if current_template is None:
                raise FormulaError(f"line {lineno}: stray '}}'")
            templates[current_template] = OmegaTemplate(
                current_template, tuple(template_lines))
            current_template = None
            continue
        m = _LINE_RX.match(stripped)
        if not m:
            raise FormulaError(f"line {lineno}: expected '<n>. <formula> ; <just>'")
        expected_index = len(template_lines if current_template else lines) + 1
        if int(m.group(1)) != expected_index:
            raise FormulaError(
                f"line {lineno}: index {m.group(1)} out of order "
                f"(expected {expected_index})")
        formula = parse_line(f"line {lineno}", m.group(2), sig, current_template is not None)
        try:
            just = _parse_justification(m.group(3), current_template is not None)
        except (IndexError, ValueError) as exc:     # a FormulaError is a ValueError
            j = f"justification {m.group(3)!r}"
            why = {IndexError: f"{j} is missing an argument",
                   ValueError: f"{j} has an argument that is not an integer"}  # int() of a word
            raise FormulaError(f"line {lineno}: {why.get(type(exc), exc)}") from None
        target = template_lines if current_template else lines
        target.append(ProofLine(formula, just))
    if current_template is not None:
        raise FormulaError(f"template {current_template} is not closed")
    return Proof(sig, fam, premises, lines, templates)


def load_proof(path: str, sig: Signature, fam: Optional[ThetaFamily],
               premises=()) -> Proof:
    with open(path, encoding="utf-8") as fh:
        return load_proof_text(fh.read(), sig, fam, premises)
