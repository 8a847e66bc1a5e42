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

import re
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .formulas import (
    And, ExistsSO, ForallFO, ForallSO, Formula, FormulaError, FOVar, Iff,
    InstAtom, Not, PredApp, Signature, SOApp, SOEq, SOVar, Term, TermEq, Var,
    a6_instantiate, alpha_eq, as_implies, free_variables, implies,
    is_sentence, normalize, parse, substitute_fo, substitute_so, term_fo_vars,
    validate, CaptureError,
)
from .theta import ThetaFamily


# ---------------------------------------------------------------------------
# Justifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Premise:
    index: int


@dataclass(frozen=True)
class FOAxiom:
    schema: str                   # P1 P2 P3 C1 C2 C3 Q1 Q2


@dataclass(frozen=True)
class EqAxiom:
    schema: str                   # refl | subst


@dataclass(frozen=True)
class A1:
    theta_index: int


@dataclass(frozen=True)
class A2:
    arity: int


@dataclass(frozen=True)
class A3:
    pass


@dataclass(frozen=True)
class A4:
    pass


@dataclass(frozen=True)
class A5:
    pass


@dataclass(frozen=True)
class A6:
    theta_index: Optional[int]    # None = the template meta-index


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

def build_p1(a, b):
    a, b = normalize(a), normalize(b)
    return implies(a, implies(b, a))


def build_p2(a, b, c):
    a, b, c = normalize(a), normalize(b), normalize(c)
    return implies(implies(a, implies(b, c)),
                   implies(implies(a, b), implies(a, c)))


def build_p3(a, b):
    a, b = normalize(a), normalize(b)
    return implies(implies(Not(b), Not(a)), implies(a, b))


def build_c1(a, b):
    a, b = normalize(a), normalize(b)
    return implies(And(a, b), a)


def build_c2(a, b):
    a, b = normalize(a), normalize(b)
    return implies(And(a, b), b)


def build_c3(a, b):
    a, b = normalize(a), normalize(b)
    return implies(a, implies(b, And(a, b)))


def build_q1(x: FOVar, phi, t: Term):
    phi = normalize(phi)
    inst = substitute_fo(phi, x, t, on_capture="fail")
    return implies(ForallFO(x, phi), inst)


def build_q2(x: FOVar, a, b):
    a, b = normalize(a), normalize(b)
    fo, _ = free_variables(a)
    if x in fo:
        raise FormulaError(f"{x} must not be free in the antecedent")
    return implies(ForallFO(x, implies(a, b)), implies(a, ForallFO(x, b)))


def build_eq_refl(t: Term):
    return TermEq(t, t)


def build_eq_subst(t1: Term, t2: Term, phi, phi_prime):
    phi, phi_prime = normalize(phi), normalize(phi_prime)
    if not _is_term_replacement(phi, phi_prime, t1, t2):
        raise FormulaError("not a term replacement instance")
    return implies(TermEq(t1, t2), implies(phi, phi_prime))


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
    phi, phi_prime = normalize(phi), normalize(phi_prime)
    if vm.arity != vn.arity or vm == vn:
        raise FormulaError("needs two distinct variables of equal arity")
    if not _is_so_replacement(phi, phi_prime, vm, vn):
        raise FormulaError("not a replacement instance")
    return ForallSO(vm, ForallSO(vn, implies(SOEq(vm, vn),
                                             implies(phi, phi_prime))))


def build_a4(vm: SOVar, phi, vn: SOVar):
    phi = normalize(phi)
    inst, clean = substitute_so(phi, vm, vn)
    if not clean:
        raise FormulaError(f"{vn} is not free for {vm}")
    return implies(ForallSO(vm, phi), inst)


def build_a5(vm: SOVar, a, b):
    a, b = normalize(a), normalize(b)
    _, so = free_variables(a)
    if vm in so:
        raise FormulaError(f"{vm} must not be free in the antecedent")
    return implies(ForallSO(vm, implies(a, b)), implies(a, ForallSO(vm, b)))


def build_a6(v: SOVar, phi, member):
    phi = normalize(phi)
    return implies(ForallSO(v, phi), normalize(a6_instantiate(phi, v, member)))


# ---------------------------------------------------------------------------
# Recognizers
# ---------------------------------------------------------------------------

def _match_p1(f):
    d = as_implies(f)
    if d is None:
        return None
    a, rest = d
    d2 = as_implies(rest)
    if d2 is None or d2[1] != a:
        return None
    return {"a": a, "b": d2[0]}


def _match_p2(f):
    d = as_implies(f)
    if d is None:
        return None
    lhs, rhs = d
    dl = as_implies(lhs)
    dr = as_implies(rhs)
    if dl is None or dr is None:
        return None
    a, bc = dl
    d_bc = as_implies(bc)
    if d_bc is None:
        return None
    b, c = d_bc
    d_ab = as_implies(dr[0])
    d_ac = as_implies(dr[1])
    if d_ab != (a, b) or d_ac != (a, c):
        return None
    return {"a": a, "b": b, "c": c}


def _match_p3(f):
    d = as_implies(f)
    if d is None:
        return None
    lhs, rhs = d
    dl = as_implies(lhs)
    dr = as_implies(rhs)
    if dl is None or dr is None:
        return None
    nb, na = dl
    if not (isinstance(nb, Not) and isinstance(na, Not)):
        return None
    a, b = dr
    if nb.body != b or na.body != a:
        return None
    return {"a": a, "b": b}


def _match_c1(f):
    d = as_implies(f)
    if d is None or not isinstance(d[0], And) or d[0].left != d[1]:
        return None
    return {"a": d[0].left, "b": d[0].right}


def _match_c2(f):
    d = as_implies(f)
    if d is None or not isinstance(d[0], And) or d[0].right != d[1]:
        return None
    return {"a": d[0].left, "b": d[0].right}


def _match_c3(f):
    d = as_implies(f)
    if d is None:
        return None
    a, rest = d
    d2 = as_implies(rest)
    if d2 is None:
        return None
    b, ab = d2
    if not isinstance(ab, And) or ab.left != a or ab.right != b:
        return None
    return {"a": a, "b": b}


def _first_term_diff(phi, psi, x: FOVar):
    """Candidate substituted term: the psi-side of the first difference at a
    position where phi has the variable x."""
    out = []

    def terms(u, v):
        if out:
            return
        if u == v:
            return
        if isinstance(u, Var) and u.var == x:
            out.append(v)
            return
        if isinstance(u, type(v)) and hasattr(u, "args") and hasattr(v, "args") \
                and getattr(u, "name", None) == getattr(v, "name", None):
            for uu, vv in zip(u.args, v.args):
                terms(uu, vv)

    def walk(a, b):
        if out or a == b or type(a) is not type(b):
            return
        if isinstance(a, (PredApp, SOApp)):
            for u, v in zip(a.args, b.args):
                terms(u, v)
        elif isinstance(a, TermEq):
            terms(a.left, b.left)
            terms(a.right, b.right)
        elif isinstance(a, Not):
            walk(a.body, b.body)
        elif isinstance(a, And):
            walk(a.left, b.left)
            walk(a.right, b.right)
        elif isinstance(a, (ForallFO, ForallSO, InstAtom)):
            walk(a.body, b.body)

    walk(phi, psi)
    return out[0] if out else None


def _match_q1(f):
    d = as_implies(f)
    if d is None or not isinstance(d[0], ForallFO):
        return None
    x, phi = d[0].var, d[0].body
    psi = d[1]
    if psi == phi:
        return {"x": x, "t": Var(x)}
    t = _first_term_diff(phi, psi, x)
    if t is None:
        return None
    try:
        if substitute_fo(phi, x, t, on_capture="fail") == psi:
            return {"x": x, "t": t}
    except CaptureError:
        return None
    return None


def _match_q2(f):
    d = as_implies(f)
    if d is None or not isinstance(d[0], ForallFO):
        return None
    x, body = d[0].var, d[0].body
    db = as_implies(body)
    dr = as_implies(d[1])
    if db is None or dr is None:
        return None
    a, b = db
    if dr[0] != a or not isinstance(dr[1], ForallFO):
        return None
    if dr[1].var != x or dr[1].body != b:
        return None
    fo, _ = free_variables(a)
    if x in fo:
        return None
    return {"x": x}


def _match_eq_refl(f):
    if isinstance(f, TermEq) and f.left == f.right:
        return {"t": f.left}
    return None


def _is_term_replacement(a, b, t1, t2, bound=frozenset()):
    if a == b:
        return True
    if type(a) is not type(b):
        return False
    blocked = (term_fo_vars(t1) | term_fo_vars(t2)) & bound

    def term_ok(u, v):
        if u == v:
            return True
        if u == t1 and v == t2:
            return not blocked
        if isinstance(u, type(v)) and hasattr(u, "args") \
                and getattr(u, "name", None) == getattr(v, "name", None) \
                and not isinstance(u, Var):
            return all(term_ok(uu, vv) for uu, vv in zip(u.args, v.args))
        return False

    if isinstance(a, (PredApp, SOApp)):
        if getattr(a, "name", None) != getattr(b, "name", None) \
                or getattr(a, "var", None) != getattr(b, "var", None):
            return False
        return all(term_ok(u, v) for u, v in zip(a.args, b.args))
    if isinstance(a, TermEq):
        return term_ok(a.left, b.left) and term_ok(a.right, b.right)
    if isinstance(a, Not):
        return _is_term_replacement(a.body, b.body, t1, t2, bound)
    if isinstance(a, And):
        return _is_term_replacement(a.left, b.left, t1, t2, bound) and \
            _is_term_replacement(a.right, b.right, t1, t2, bound)
    if isinstance(a, ForallFO):
        if a.var != b.var:
            return False
        return _is_term_replacement(a.body, b.body, t1, t2, bound | {a.var})
    if isinstance(a, (ForallSO, InstAtom)):
        if a.var != b.var:
            return False
        return _is_term_replacement(a.body, b.body, t1, t2, bound)
    return False


def _match_eq_subst(f):
    d = as_implies(f)
    if d is None or not isinstance(d[0], TermEq):
        return None
    t1, t2 = d[0].left, d[0].right
    d2 = as_implies(d[1])
    if d2 is None:
        return None
    phi, phi_prime = d2
    if _is_term_replacement(phi, phi_prime, t1, t2):
        return {"t1": t1, "t2": t2}
    return None


def _is_so_replacement(a, b, vm, vn, bound=frozenset()):
    if a == b:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, SOApp):
        return (a.var == vm and b.var == vn and a.args == b.args
                and vm not in bound and vn not in bound)
    if isinstance(a, SOEq):
        def side(u, v):
            if u == v:
                return True
            return u == vm and v == vn and vm not in bound and vn not in bound
        return side(a.left, b.left) and side(a.right, b.right)
    if isinstance(a, Not):
        return _is_so_replacement(a.body, b.body, vm, vn, bound)
    if isinstance(a, And):
        return _is_so_replacement(a.left, b.left, vm, vn, bound) and \
            _is_so_replacement(a.right, b.right, vm, vn, bound)
    if isinstance(a, ForallFO):
        return a.var == b.var and _is_so_replacement(a.body, b.body, vm, vn, bound)
    if isinstance(a, (ForallSO, InstAtom)):
        if a.var != b.var:
            return False
        return _is_so_replacement(a.body, b.body, vm, vn, bound | {a.var})
    return False


def _match_a3(f):
    if not isinstance(f, ForallSO) or not isinstance(f.body, ForallSO):
        return None
    vm, vn = f.var, f.body.var
    d = as_implies(f.body.body)
    if d is None or not isinstance(d[0], SOEq):
        return None
    if (d[0].left, d[0].right) != (vm, vn) or vm.arity != vn.arity or vm == vn:
        return None
    d2 = as_implies(d[1])
    if d2 is None:
        return None
    phi, phi_prime = d2
    if _is_so_replacement(phi, phi_prime, vm, vn):
        return {"vm": vm, "vn": vn}
    return None


def _first_so_diff(phi, psi, vm: SOVar):
    out = []

    def walk(a, b):
        if out or a == b or type(a) is not type(b):
            return
        if isinstance(a, SOApp):
            if a.var == vm and b.var != vm and a.args == b.args:
                out.append(b.var)
        elif isinstance(a, SOEq):
            for u, v in ((a.left, b.left), (a.right, b.right)):
                if u == vm and v != vm:
                    out.append(v)
                    return
        elif isinstance(a, Not):
            walk(a.body, b.body)
        elif isinstance(a, And):
            walk(a.left, b.left)
            walk(a.right, b.right)
        elif isinstance(a, (ForallFO, ForallSO, InstAtom)):
            walk(a.body, b.body)

    walk(phi, psi)
    return out[0] if out else None


def _match_a4(f):
    d = as_implies(f)
    if d is None or not isinstance(d[0], ForallSO):
        return None
    vm, phi = d[0].var, d[0].body
    psi = d[1]
    if psi == phi:
        return {"vm": vm, "vn": vm}
    vn = _first_so_diff(phi, psi, vm)
    if vn is None or not isinstance(vn, SOVar) or vn.arity != vm.arity:
        return None
    inst, clean = substitute_so(phi, vm, vn)
    if clean and inst == psi:
        return {"vm": vm, "vn": vn}
    return None


def _match_a5(f):
    d = as_implies(f)
    if d is None or not isinstance(d[0], ForallSO):
        return None
    vm, body = d[0].var, d[0].body
    db = as_implies(body)
    dr = as_implies(d[1])
    if db is None or dr is None:
        return None
    a, b = db
    if dr[0] != a or not isinstance(dr[1], ForallSO):
        return None
    if dr[1].var != vm or dr[1].body != b:
        return None
    _, so = free_variables(a)
    if vm in so:
        return None
    return {"vm": vm}


_FO_MATCHERS = {
    "P1": _match_p1, "P2": _match_p2, "P3": _match_p3,
    "C1": _match_c1, "C2": _match_c2, "C3": _match_c3,
    "Q1": _match_q1, "Q2": _match_q2,
}
_EQ_MATCHERS = {"refl": _match_eq_refl, "subst": _match_eq_subst}


def _match_a1(f, fam: ThetaFamily, n: int):
    try:
        return alpha_eq(f, build_a1(fam.member_at(n)))
    except FormulaError:
        return False


def _match_a6(f, fam: ThetaFamily, n: int):
    d = as_implies(f)
    if d is None or not isinstance(d[0], ForallSO):
        return False
    v, phi = d[0].var, d[0].body
    if not fam.arity_supported(v.arity):
        return False
    try:
        return alpha_eq(f, build_a6(v, phi, fam.arity_member(v.arity, n)))
    except FormulaError:
        return False


def recognize_axiom(f: Formula, fam: Optional[ThetaFamily] = None,
                    search_bound: int = 32):
    """Identify f as an axiom instance; returns (name, witness) or None.

    Family-indexed schemata are searched up to `search_bound` members.
    """
    f = normalize(f)
    for name, matcher in _FO_MATCHERS.items():
        got = matcher(f)
        if got is not None:
            return (name, got)
    for name, matcher in _EQ_MATCHERS.items():
        got = matcher(f)
        if got is not None:
            return ("eq-" + name, got)
    if isinstance(f, ForallSO) and isinstance(f.body, ForallSO):
        arity = f.var.arity
        if alpha_eq(f, build_a2(arity)):
            return ("A2", {"arity": arity})
        got = _match_a3(f)
        if got is not None:
            return ("A3", got)
    got = _match_a4(f)
    if got is not None:
        return ("A4", got)
    got = _match_a5(f)
    if got is not None:
        return ("A5", got)
    if fam is not None:
        for n in range(search_bound + 1):
            if _match_a1(f, fam, n):
                return ("A1", {"theta_index": n})
        d = as_implies(f)
        if d is not None and isinstance(d[0], ForallSO) \
                and fam.arity_supported(d[0].var.arity):
            for n in range(search_bound + 1):
                if _match_a6(f, fam, n):
                    return ("A6", {"theta_index": n})
    return None


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------

def _contains_inst(f: Formula) -> bool:
    if isinstance(f, InstAtom):
        return True
    if isinstance(f, (Not,)):
        return _contains_inst(f.body)
    if isinstance(f, And):
        return _contains_inst(f.left) or _contains_inst(f.right)
    if isinstance(f, (ForallFO, ForallSO)):
        return _contains_inst(f.body)
    return False


def _check_justified_line(proof: Proof, lines, i: int, line: ProofLine,
                          in_template: bool, template_verdicts=None):
    """Reason string when line i does not check, else None.  Outside a
    template, `template_verdicts` holds check_template's verdict for every
    template of the proof."""
    f = line.formula
    j = line.justification
    fam = proof.family
    if isinstance(j, Premise):
        if not 0 <= j.index < len(proof.premises):
            return f"premise index {j.index} out of range"
        if f != proof.premises[j.index]:
            return "formula differs from the cited premise"
        return None
    if isinstance(j, FOAxiom):
        matcher = _FO_MATCHERS.get(j.schema)
        if matcher is None:
            return f"unknown schema {j.schema}"
        if matcher(f) is None:
            return f"not an instance of {j.schema}"
        return None
    if isinstance(j, EqAxiom):
        if not proof.sig.identity:
            return "identity axioms are disabled for this signature"
        matcher = _EQ_MATCHERS.get(j.schema)
        if matcher is None:
            return f"unknown identity schema {j.schema}"
        if matcher(f) is None:
            return f"not an instance of identity {j.schema}"
        return None
    if isinstance(j, A1):
        if fam is None:
            return "no family attached to the proof"
        if not _match_a1(f, fam, j.theta_index):
            return f"not the comprehension instance for member {j.theta_index}"
        return None
    if isinstance(j, A2):
        if not proof.sig.identity:
            return "extensionality needs identity"
        if not alpha_eq(f, build_a2(j.arity)):
            return f"not the extensionality instance at arity {j.arity}"
        return None
    if isinstance(j, A3):
        if not proof.sig.identity:
            return "replacement needs identity"
        if _match_a3(f) is None:
            return "not a replacement instance"
        return None
    if isinstance(j, A4):
        if _match_a4(f) is None:
            return "not a universal-instance axiom"
        return None
    if isinstance(j, A5):
        if _match_a5(f) is None:
            return "not a distribution axiom"
        return None
    if isinstance(j, A6):
        if j.theta_index is None:
            if not in_template:
                return "meta-index instantiation outside a template"
            d = as_implies(f)
            if d is None or not isinstance(d[0], ForallSO) \
                    or not isinstance(d[1], InstAtom):
                return "not a schematic instantiation axiom"
            if d[1].var != d[0].var or d[1].body != d[0].body:
                return "inst atom does not match the quantified formula"
            return None
        if fam is None:
            return "no family attached to the proof"
        if not _match_a6(f, fam, j.theta_index):
            return f"not the instantiation axiom for member {j.theta_index}"
        return None
    if isinstance(j, MP):
        if not (0 <= j.implication < i and 0 <= j.antecedent < i):
            return "detachment cites a line that is not strictly earlier"
        if lines[j.implication].formula != implies(lines[j.antecedent].formula, f):
            return "implication line does not match antecedent and conclusion"
        return None
    if isinstance(j, GenFO):
        if not 0 <= j.line < i:
            return "generalization cites a line that is not strictly earlier"
        if f != ForallFO(j.var, lines[j.line].formula):
            return "not the generalization of the cited line"
        return None
    if isinstance(j, GenSO):
        if not 0 <= j.line < i:
            return "generalization cites a line that is not strictly earlier"
        if f != ForallSO(j.var, lines[j.line].formula):
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
    if _contains_inst(psi):
        return Verdict(False, reason="target antecedent mentions the meta-index")
    if _contains_inst(body):
        return Verdict(False, reason="nested inst atoms are not supported")
    if proof.family is None:
        return Verdict(False, reason="no family attached to the proof")
    for line in t.lines:
        for atom in _inst_atoms(line.formula):
            if _contains_inst(atom.body):
                return Verdict(False, reason="nested inst atoms are not supported")
            if not proof.family.arity_supported(atom.var.arity):
                return Verdict(
                    False,
                    reason=f"family {proof.family.name} has no members of "
                           f"arity {atom.var.arity}")
    for i, line in enumerate(t.lines):
        why = _check_justified_line(proof, t.lines, i, line, in_template=True)
        if why is not None:
            return Verdict(False, line=i, reason=why)
    return Verdict(True)


def _inst_atoms(f: Formula):
    if isinstance(f, InstAtom):
        yield f
        return
    if isinstance(f, Not):
        yield from _inst_atoms(f.body)
    elif isinstance(f, And):
        yield from _inst_atoms(f.left)
        yield from _inst_atoms(f.right)
    elif isinstance(f, (ForallFO, ForallSO)):
        yield from _inst_atoms(f.body)


def instantiate_template(t: OmegaTemplate, proof: Proof, n: int) -> Proof:
    """Turn a template into the concrete proof of its n-th premise."""
    fam = proof.family

    def replace(f):
        if isinstance(f, InstAtom):
            member = fam.arity_member(f.var.arity, n)
            return normalize(a6_instantiate(f.body, f.var, member))
        if isinstance(f, Not):
            return Not(replace(f.body))
        if isinstance(f, And):
            return And(replace(f.left), replace(f.right))
        if isinstance(f, ForallFO):
            return ForallFO(f.var, replace(f.body))
        if isinstance(f, ForallSO):
            return ForallSO(f.var, replace(f.body))
        return f

    lines = []
    for line in t.lines:
        j = line.justification
        if isinstance(j, A6) and j.theta_index is None:
            j = A6(n)
        lines.append(ProofLine(replace(line.formula), j))
    return Proof(proof.sig, fam, proof.premises, lines)


def spot_check_template(t: OmegaTemplate, proof: Proof, bound: int) -> Verdict:
    """Bounded evidence: instantiate at 0..bound and check each instance."""
    for n in range(bound + 1):
        v = check_proof(instantiate_template(t, proof, n))
        if not v.ok:
            return Verdict(False, line=v.line,
                           reason=f"instance n={n} rejected: {v.reason}")
    return Verdict(True, reason=f"evidence({bound})")


def check_proof(proof: Proof) -> Verdict:
    """Validate premises, templates cited by R3, and every line."""
    template_verdicts = {}
    for k, p in enumerate(proof.premises):
        if not is_sentence(p):
            return Verdict(False, reason=f"premise {k} is not a sentence")
        try:
            validate(p, proof.sig)
        except FormulaError as exc:
            return Verdict(False, reason=f"premise {k}: {exc}")
    if not proof.lines:
        return Verdict(False, reason="no lines")
    for name, t in sorted(proof.templates.items()):
        template_verdicts[name] = check_template(t, proof)
    for i, line in enumerate(proof.lines):
        if _contains_inst(line.formula):
            return Verdict(False, line=i,
                           reason="inst atoms are only allowed inside templates",
                           template_verdicts=template_verdicts)
        try:
            validate(line.formula, proof.sig)
        except FormulaError as exc:
            return Verdict(False, line=i, reason=str(exc),
                           template_verdicts=template_verdicts)
        why = _check_justified_line(proof, proof.lines, i, line, in_template=False,
                                    template_verdicts=template_verdicts)
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
        key = formula
        if key in self._index:
            return self._index[key]
        self.lines.append(ProofLine(formula, justification))
        idx = len(self.lines) - 1
        self._index[key] = idx
        return idx

    def repeat_last(self, i: int) -> int:
        """Re-emit line i verbatim so it becomes the final line."""
        if i == len(self.lines) - 1:
            return i
        line = self.lines[i]
        self.lines.append(line)
        return len(self.lines) - 1

    def premise(self, k: int) -> int:
        return self._emit(self.premises[k], Premise(k))

    def p1(self, a, b) -> int:
        return self._emit(build_p1(a, b), FOAxiom("P1"))

    def p2(self, a, b, c) -> int:
        return self._emit(build_p2(a, b, c), FOAxiom("P2"))

    def p3(self, a, b) -> int:
        return self._emit(build_p3(a, b), FOAxiom("P3"))

    def c1(self, a, b) -> int:
        return self._emit(build_c1(a, b), FOAxiom("C1"))

    def c2(self, a, b) -> int:
        return self._emit(build_c2(a, b), FOAxiom("C2"))

    def c3(self, a, b) -> int:
        return self._emit(build_c3(a, b), FOAxiom("C3"))

    def q1(self, x, phi, t) -> int:
        return self._emit(build_q1(x, phi, t), FOAxiom("Q1"))

    def q2(self, x, a, b) -> int:
        return self._emit(build_q2(x, a, b), FOAxiom("Q2"))

    def eq_refl(self, t) -> int:
        return self._emit(build_eq_refl(t), EqAxiom("refl"))

    def eq_subst(self, t1, t2, phi, phi_prime) -> int:
        return self._emit(build_eq_subst(t1, t2, phi, phi_prime), EqAxiom("subst"))

    def a1(self, theta_index: int) -> int:
        return self._emit(build_a1(self.family.member_at(theta_index)),
                          A1(theta_index))

    def a2(self, arity: int) -> int:
        return self._emit(build_a2(arity), A2(arity))

    def a3(self, vm, vn, phi, phi_prime) -> int:
        return self._emit(build_a3(vm, vn, phi, phi_prime), A3())

    def a4(self, vm, phi, vn) -> int:
        return self._emit(build_a4(vm, phi, vn), A4())

    def a5(self, vm, a, b) -> int:
        return self._emit(build_a5(vm, a, b), A5())

    def a6(self, v, phi, theta_index: int) -> int:
        member = self.family.arity_member(v.arity, theta_index)
        return self._emit(build_a6(v, phi, member), A6(theta_index))

    def mp(self, implication: int, antecedent: int) -> int:
        d = as_implies(self.formula_at(implication))
        if d is None or d[0] != self.formula_at(antecedent):
            raise FormulaError("detachment does not apply")
        return self._emit(d[1], MP(implication, antecedent))

    # -- derived rules, expanded into axiom and detachment lines ------------

    def imp_identity(self, a) -> int:
        a = normalize(a)
        aa = implies(a, a)
        first = self.p1(a, aa)
        second = self.p2(a, aa, a)
        third = self.mp(second, first)
        fourth = self.p1(a, a)
        return self.mp(third, fourth)

    def weaken(self, b_line: int, a) -> int:
        b = self.formula_at(b_line)
        k = self.p1(b, a)
        return self.mp(k, b_line)

    def syllogism(self, ab_line: int, bc_line: int) -> int:
        a, b = as_implies(self.formula_at(ab_line))
        b2, c = as_implies(self.formula_at(bc_line))
        if b != b2:
            raise FormulaError("syllogism middle terms differ")
        abc = self.weaken(bc_line, a)
        dist = self.p2(a, b, c)
        step = self.mp(dist, abc)
        return self.mp(step, ab_line)

    def under(self, x_bc_line: int, x_b_line: int) -> int:
        x, bc = as_implies(self.formula_at(x_bc_line))
        b, c = as_implies(bc)
        x2, b2 = as_implies(self.formula_at(x_b_line))
        if x2 != x or b2 != b:
            raise FormulaError("contexts differ")
        dist = self.p2(x, b, c)
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
        dist = self.p2(b, c, d)
        bridge = self.mp(dist, lifted)
        return self.syllogism(a_bc_line, bridge)

    def gen_fo(self, line: int, x: FOVar) -> int:
        return self._emit(ForallFO(x, self.formula_at(line)), GenFO(line, x))

    def gen_so(self, line: int, v: SOVar) -> int:
        return self._emit(ForallSO(v, self.formula_at(line)), GenSO(line, v))


class TemplateBuilder(_LineBuilder):
    def a6_meta(self, v: SOVar, phi) -> int:
        phi = normalize(phi)
        return self._emit(implies(ForallSO(v, phi), InstAtom(v, phi)), A6(None))

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

def apply_deduction(proof: Proof, premise_index: Optional[int] = None) -> Proof:
    """Discharge one premise: from premises+phi |- psi build premises |- phi->psi.

    Standard line-by-line transformation; lines concluded by the
    infinitary rule follow the conjunction route: the cited template is
    transformed, its target strengthened from psi -> inst to
    (phi /\\ psi) -> inst, the rule is reapplied, and the detour is
    repackaged into phi -> (psi -> forall V sigma).
    """
    verdict = check_proof(proof)
    if not verdict.ok:
        raise FormulaError(f"input proof rejected: {verdict.reason}")
    if premise_index is None:
        premise_index = len(proof.premises) - 1
    if not 0 <= premise_index < len(proof.premises):
        raise FormulaError("no such premise")
    phi = proof.premises[premise_index]
    new_premises = tuple(p for k, p in enumerate(proof.premises)
                         if k != premise_index)

    def remap_premise(k: int) -> int:
        return k if k < premise_index else k - 1

    out = ProofBuilder(proof.sig, proof.family, new_premises)
    counter = [0]

    def transform(builder, lines, mapping, i, line):
        j = line.justification
        if isinstance(j, Premise) and j.index == premise_index:
            return builder.imp_identity(phi)
        if isinstance(j, Premise):
            base = builder._emit(line.formula, Premise(remap_premise(j.index)))
            return builder.weaken(base, phi)
        if isinstance(j, (FOAxiom, EqAxiom, A1, A2, A3, A4, A5, A6)):
            base = builder._emit(line.formula, j)
            return builder.weaken(base, phi)
        if isinstance(j, MP):
            return builder.under(mapping[j.implication], mapping[j.antecedent])
        if isinstance(j, GenFO):
            seed = builder.gen_fo(mapping[j.line], j.var)
            body = lines[j.line].formula
            dist = builder.q2(j.var, phi, body)
            return builder.mp(dist, seed)
        if isinstance(j, GenSO):
            seed = builder.gen_so(mapping[j.line], j.var)
            body = lines[j.line].formula
            dist = builder.a5(j.var, phi, body)
            return builder.mp(dist, seed)
        if isinstance(j, R3):
            template = proof.templates[j.template]
            psi, var, sigma = template.target_parts()
            tb = TemplateBuilder(proof.sig, proof.family, new_premises)
            tmap: dict = {}
            for ti, tline in enumerate(template.lines):
                tmap[ti] = transform(tb, template.lines, tmap, ti, tline)
            # strengthen phi -> (psi -> inst) into (phi /\ psi) -> inst
            first = tb.c1(phi, psi)
            second = tb.c2(phi, psi)
            chained = tb.syllogism(first, tmap[len(template.lines) - 1])
            final = tb.under(chained, second)
            tb.repeat_last(final)
            counter[0] += 1
            new_template = tb.build(f"{j.template}@ded{counter[0]}")
            r3_line = builder.r3(new_template)
            pack = builder.c3(phi, psi)
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
_FOVAR_RX = re.compile(r"^x(\d+)$")
_SOVAR_RX = re.compile(r"^X(\d+)(\^(\d+))?$")


def load_premises_text(text: str, sig: Signature) -> list:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append(parse(line, sig))
    return out


def _parse_justification(text: str, in_template: bool):
    words = text.split()
    kind = words[0]
    if kind == "premise":
        return Premise(int(words[1]) - 1)
    if kind == "ax":
        return FOAxiom(words[1])
    if kind == "eq":
        return EqAxiom(words[1])
    if kind == "A1":
        return A1(int(words[1]))
    if kind == "A2":
        return A2(int(words[1]))
    if kind == "A3":
        return A3()
    if kind == "A4":
        return A4()
    if kind == "A5":
        return A5()
    if kind == "A6":
        if words[1] == "n":
            if not in_template:
                raise FormulaError("the meta-index belongs inside templates")
            return A6(None)
        return A6(int(words[1]))
    if kind == "mp":
        return MP(int(words[1]) - 1, int(words[2]) - 1)
    if kind == "gen":
        m = _FOVAR_RX.match(words[1])
        if not m:
            raise FormulaError(f"bad variable {words[1]!r}")
        return GenFO(int(words[2]) - 1, FOVar(int(m.group(1))))
    if kind == "genso":
        m = _SOVAR_RX.match(words[1])
        if not m:
            raise FormulaError(f"bad variable {words[1]!r}")
        arity = int(m.group(3)) if m.group(3) else 1
        return GenSO(int(words[2]) - 1, SOVar(int(m.group(1)), arity))
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
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
        formula = parse(m.group(2), sig, allow_inst=current_template is not None)
        just = _parse_justification(m.group(3), current_template is not None)
        target = template_lines if current_template else lines
        target.append(ProofLine(formula, just))
    if current_template is not None:
        raise FormulaError(f"template {current_template} is not closed")
    return Proof(sig, fam, premises, lines, templates)


def load_proof(path: str, sig: Signature, fam: Optional[ThetaFamily],
               premises=()) -> Proof:
    with open(path, encoding="utf-8") as fh:
        return load_proof_text(fh.read(), sig, fam, premises)
