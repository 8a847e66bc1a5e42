"""Named check suites: randomized soundness runs and exhaustive checks.

Each suite returns a SuiteResult with one record per executed check; the
CLI renders them in human or line-delimited JSON form.  Suites are
deterministic given the seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from . import boolean as ba
from .calculus import (
    MP, R3, GenFO, GenSO, Premise, Proof, ProofLine, apply_deduction,
    build_a1, build_a2, build_a3, build_a4, build_a5, build_a6, check_proof,
    spot_check_template,
)
from .corpus import (
    CORPUS_SIG, LEMMA_SIG, collapse_catalog, collapse_sentences, lemma_bodies,
    orbit_catalog, proof_corpus,
)
from .formulas import (
    BINDERS, ForallSO, Formula, FormulaError, FOVar, Implies, SOApp, SOVar,
    Var, alpha_eq, format_formula, free_variables, normalize, rewrite,
)
from .sampling import mutate_formula, random_formula, random_structure
from .structures import (
    AllRelationsK, MaterializedK, OrbitK, StandardModel, eval_full_so,
    eval_so_closure, exact_provider_for, k_exact_orbits, lemma_reg_check,
    materialize_k, rank_bounded_unary_family, truth_class_entries,
    truth_algebra,
)
from .theta import ThetaFamily, all_fo, dsl, weak_so


@dataclass
class SuiteResult:
    name: str
    seed: int
    passed: int = 0
    failed: int = 0
    records: list = field(default_factory=list)
    elapsed: float = 0.0           # set by run_suite

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def add(self, check: str, ok: bool, **detail):
        rec = {"check": check, "status": "pass" if ok else "fail"}
        rec.update(detail)
        self.records.append(rec)
        if ok:
            self.passed += 1
        else:
            self.failed += 1

    def summary(self) -> str:
        return (f"suite {self.name}: {self.passed}/{self.passed + self.failed} "
                f"checks passed ({self.elapsed:.1f}s, seed {self.seed})")


def _families(sig):
    return {"weak-so:1": weak_so(sig, 1), "dsl": dsl(sig), "all-fo": all_fo(sig)}


def _exact_model(rng, fam: ThetaFamily, sig):
    """Random structure with the family's exactness oracle, of at most 4
    elements (3 for all-fo, whose range is every relation)."""
    s = random_structure(rng, sig, max_size=3 if fam.name == "all-fo" else 4)
    return StandardModel(s, exact_provider_for(fam))


# ---------------------------------------------------------------------------
# Criterion 1 and 2: axiom and rule soundness
# ---------------------------------------------------------------------------

AXIOM_SIG = CORPUS_SIG


def _random_so_body(rng, sig, so_var):
    return random_formula(rng, sig, depth=2, fo_pool=[FOVar(0), FOVar(1)],
                          so_pool=[so_var])


def _axiom_instance(rng, schema: str, fam: ThetaFamily, sig) -> Formula:
    v1 = SOVar(0, 1)
    if schema == "A1":
        fam_bound = 2 if fam.name.startswith("weak-so") else 5
        return build_a1(fam.member_at(rng.randint(0, fam_bound)))
    if schema == "A2":
        return build_a2(1)
    if schema == "A3":
        vm, vn = SOVar(0, 1), SOVar(1, 1)
        for _ in range(50):
            phi = _random_so_body(rng, sig, vm)
            _, so = free_variables(phi)
            if vm not in so:
                continue
            phi2, clean = _replace_some(rng, phi, vm, vn)
            if phi2 is not None and clean:
                return build_a3(vm, vn, phi, phi2)
        return build_a3(vm, vn, SOApp(vm, (Var(FOVar(0)),)),
                        SOApp(vn, (Var(FOVar(0)),)))
    if schema == "A4":
        phi = _random_so_body(rng, sig, v1)
        vn = rng.choice([v1, SOVar(1, 1)])
        try:
            return build_a4(v1, phi, vn)
        except FormulaError:
            return build_a4(v1, phi, v1)
    if schema == "A5":
        a = random_formula(rng, sig, depth=1, so_pool=[])
        b = _random_so_body(rng, sig, v1)
        return build_a5(v1, a, b)
    if schema == "A6":
        phi = _random_so_body(rng, sig, v1)
        if not fam.arity_supported(1):
            raise FormulaError(f"{fam.name} lacks unary members")
        bound = 2 if fam.name.startswith("weak-so") else 5
        member = fam.arity_member(1, rng.randint(0, bound))
        return build_a6(v1, phi, member)
    raise ValueError(schema)


def _replace_some(rng, phi, vm, vn):
    """Replace a random nonempty subset of the free vm-applications by vn,
    skipping sites where either variable is bound."""
    def step(g):
        t = type(g)
        if t is SOApp:
            return SOApp(vn, g.args) if g.var == vm and rng.random() < 0.6 else g
        if t in BINDERS and g.var in (vm, vn):
            return g
        return None

    phi = normalize(phi)
    out = rewrite(phi, step)
    return (out, True) if out is not phi else (None, False)


def suite_soundness(seed: int = 0) -> SuiteResult:
    """Criteria 1 and 2: schema instances and whole proofs hold in models."""
    result = SuiteResult("soundness", seed)
    rng = random.Random(seed)
    families = _families(AXIOM_SIG)
    fam_list = list(families.values())
    for schema in ("A1", "A2", "A3", "A4", "A5", "A6"):
        bad = 0
        tried = 0
        while tried < 200:
            fam = fam_list[tried % len(fam_list)]
            try:
                axiom = _axiom_instance(rng, schema, fam, AXIOM_SIG)
            except FormulaError:
                continue
            model = _exact_model(rng, fam, AXIOM_SIG)
            tried += 1
            if not eval_so_closure(model, axiom):
                bad += 1
                result.add(f"axiom-{schema}", False, family=fam.name,
                           formula=format_formula(axiom, unicode=False),
                           size=model.structure.size)
        result.add(f"axiom-{schema}-total", bad == 0, instances=tried,
               failures=bad)
    for item in proof_corpus():
        verdict = check_proof(item.proof)
        result.add(f"proof-{item.name}-accepted", verdict.ok,
                   reason=verdict.reason)
        if not verdict.ok:
            continue
        held = 0
        line_failures = 0
        for _ in range(20):
            fam = item.proof.family
            provider = exact_provider_for(fam) if fam is not None \
                else AllRelationsK()
            s = random_structure(rng, item.proof.sig, max_size=3)
            model = StandardModel(s, provider)
            if not all(eval_so_closure(model, p) for p in item.proof.premises):
                continue
            held += 1
            for line in item.proof.lines:
                if not eval_so_closure(model, line.formula):
                    line_failures += 1
        result.add(f"proof-{item.name}-lines-true", line_failures == 0,
                   models_with_premises=held, failures=line_failures)
    return result


# ---------------------------------------------------------------------------
# Criterion 3: collapse
# ---------------------------------------------------------------------------

def suite_collapse(seed: int = 0) -> SuiteResult:
    result = SuiteResult("collapse", seed)
    sentences = collapse_sentences()
    catalog = collapse_catalog()
    mismatches = 0
    compared = 0
    for si, s in enumerate(catalog):
        model = StandardModel(s, AllRelationsK())
        for fi, f in enumerate(sentences):
            a = eval_so_closure(model, f)
            b = eval_full_so(s, f)
            compared += 1
            if a != b:
                mismatches += 1
                result.add("collapse-mismatch", False, structure=si, sentence=fi,
                           text=format_formula(f, unicode=False))
    result.add("collapse-total", mismatches == 0, compared=compared,
               structures=len(catalog), sentences=len(sentences))
    return result


# ---------------------------------------------------------------------------
# Criterion 4: weak second-order materialization
# ---------------------------------------------------------------------------

def suite_weakso(seed: int = 0) -> SuiteResult:
    from .formulas import Signature, parse
    from .structures import FiniteStructure

    result = SuiteResult("weakso", seed)
    empty = Signature()
    fam = weak_so(empty, 1)
    for size in (1, 2, 3, 4, 5):
        s = FiniteStructure(empty, size)
        family = materialize_k(s, fam, size - 1)
        want = 2 ** size - 1
        got = family.count(1)
        result.add(f"weakso-count-size{size}", got == want, got=got, want=want)
    s2 = FiniteStructure(empty, 2)
    sentence = parse("forall x exists X forall y (X(y) <-> x = y)", empty)
    under_weak = eval_so_closure(StandardModel(s2, MaterializedK(fam, 1)), sentence)
    under_dsl = eval_so_closure(StandardModel(s2, OrbitK(arities={1})), sentence)
    result.add("weakso-singleton-sentence", under_weak is True, value=under_weak)
    result.add("dsl-singleton-sentence", under_dsl is False, value=under_dsl)
    return result


# ---------------------------------------------------------------------------
# Criterion 5: rank-bounded enumeration equals the orbit oracle
# ---------------------------------------------------------------------------

def suite_dsl_orbits(seed: int = 0) -> SuiteResult:
    result = SuiteResult("dsl-orbits", seed)
    catalog = orbit_catalog()
    for i, s in enumerate(catalog):
        enum_family = rank_bounded_unary_family(s, s.size + 1)
        oracle = k_exact_orbits(s, False, 1)
        same = set(enum_family.relations(1)) == set(oracle.relations(1))
        result.add(f"orbit-convergence-{i}", same, size=s.size,
                   enumerated=enum_family.count(1), orbits=oracle.count(1))
    result.add("orbit-catalog-size", len(catalog) >= 20, count=len(catalog))
    return result


# ---------------------------------------------------------------------------
# Criterion 6: quantifier/meet identities
# ---------------------------------------------------------------------------

def suite_lemma_reg(seed: int = 0) -> SuiteResult:
    samples = 50
    result = SuiteResult("lemma-reg", seed)
    rng = random.Random(seed)
    bodies = lemma_bodies()
    families = [weak_so(LEMMA_SIG, 1), dsl(LEMMA_SIG), all_fo(LEMMA_SIG)]
    x0, X0 = FOVar(0), SOVar(0, 1)
    failures = 0
    for i in range(samples):
        s = random_structure(rng, LEMMA_SIG, max_size=3)
        body = rng.choice(bodies)
        fam = rng.choice(families)
        bound = rng.randint(1, 3 if fam.name.startswith("weak-so") else 5)
        ok = True
        # items i/ii take the class of the body itself, so its relation
        # variable must be closed; items iii-vi quantify it themselves
        closed = ForallSO(X0, body)
        for which, var in (("i", x0), ("ii", x0), ("iii", X0), ("iv", X0),
                           ("v", X0), ("vi", X0)):
            probe = closed if which in ("i", "ii") else body
            if not lemma_reg_check(s, 1, probe, which, var, fam, bound):
                ok = False
                result.add(f"lemma-{which}-sample{i}", False, family=fam.name,
                           size=s.size, bound=bound,
                           body=format_formula(body, unicode=False))
        if not ok:
            failures += 1
    result.add("lemma-total", failures == 0, samples=samples, failures=failures)
    return result


# ---------------------------------------------------------------------------
# Criterion 7: the chain construction
# ---------------------------------------------------------------------------

def suite_rs(seed: int = 0) -> SuiteResult:
    result = SuiteResult("rs", seed)
    alg = ba.powerset_algebra(3)
    entries = ba.powerset_full_family(alg)
    result.add("rs-entry-count", len(entries) == 512, count=len(entries))
    for avoid in alg.elements():
        if avoid == alg.one:
            continue
        approx = ba.rs_construct(alg, entries, avoid)
        u = [e for e in alg.elements() if approx.membership(e)]
        ok = ba.is_ultrafilter(alg, u) and approx.excludes(avoid)
        compatible = all(
            ba.check_f_compatible(alg, approx.membership, e).status == "true"
            for e in entries)
        result.add(f"rs-avoid-{sorted(avoid)}", ok and compatible,
                   ultrafilter=ok, compatible=compatible,
                   principal=len(approx.final) == 1)
    fincof = ba.FiniteCofiniteAlgebra()
    atoms = ba.fincof_atoms_entry(fincof)
    approx = ba.rs_construct(fincof, [atoms], fincof.zero, decide_steps=40)
    principal = fincof.is_finite_element(approx.final) and len(approx.final[1]) == 1
    good = ba.check_f_compatible(fincof, approx.membership, atoms, budget=100)
    cof = ba.check_f_compatible(
        fincof, ba.PrincipalCofiniteMembership(fincof), atoms, budget=100)
    result.add("rs-fincof-principal", principal and good.status == "true",
               final=str(approx.final))
    result.add("rs-fincof-cofinite-incompatible", cof.status == "false",
               status=cof.status)
    # the truth-algebra family built from quantifier classes is regular and
    # feeds the same construction
    from .structures import FiniteStructure
    from .formulas import Signature, parse as _parse
    s = FiniteStructure(Signature(predicates={"P0": 1}), 2,
                        predicates={"P0": [(0,)]})
    fam = weak_so(Signature(predicates={"P0": 1}), 1)
    body = SOApp(SOVar(0, 1), (Var(FOVar(0)),))
    fo_body = _parse("P0(x0)", Signature(predicates={"P0": 1}))
    entries2 = truth_class_entries(s, 1, [(fo_body, FOVar(1)), (body, SOVar(0, 1))],
                                   fam, 1)
    ta = truth_algebra(s, 1)
    exact = all(ba.verify_entry(ta.algebra, e).status == "exact" for e in entries2)
    avoid = ta.class_of(fo_body)
    approx2 = ba.rs_construct(ta.algebra, entries2, avoid)
    compat = all(ba.check_f_compatible(ta.algebra, approx2.membership, e).status
                 == "true" for e in entries2)
    result.add("rs-truth-classes", exact and compat
               and not approx2.membership(avoid))
    return result


# ---------------------------------------------------------------------------
# Criterion 8: kernel robustness
# ---------------------------------------------------------------------------

def _load_bearing_lines(proof: Proof):
    cited = set()
    for line in proof.lines:
        j = line.justification
        for attr in ("implication", "antecedent", "line"):
            if hasattr(j, attr):
                cited.add(getattr(j, attr))
    out = sorted(cited)
    if isinstance(proof.lines[-1].justification, (MP, GenFO, GenSO, R3, Premise)):
        out.append(len(proof.lines) - 1)
    return out


def suite_kernel(seed: int = 0) -> SuiteResult:
    result = SuiteResult("kernel", seed)
    rng = random.Random(seed)
    corpus = [c for c in proof_corpus()]
    targets = [(c, _load_bearing_lines(c.proof)) for c in corpus
               if len(c.proof.lines) > 1 and _load_bearing_lines(c.proof)]
    survived = 0
    alpha_survivors = 0
    done = 0
    while done < 500:
        item, candidates = rng.choice(targets)
        li = rng.choice(candidates)
        original = item.proof.lines[li].formula
        mutated = mutate_formula(rng, original, item.proof.sig)
        if mutated is None or mutated == original:
            continue
        done += 1
        lines = list(item.proof.lines)
        lines[li] = ProofLine(mutated, lines[li].justification)
        hacked = Proof(item.proof.sig, item.proof.family, item.proof.premises,
                       lines, item.proof.templates)
        verdict = check_proof(hacked)
        if verdict.ok:
            if alpha_eq(mutated, original):
                alpha_survivors += 1
            else:
                survived += 1
                result.add("mutation-survived", False, proof=item.name, line=li,
                           formula=format_formula(mutated, unicode=False))
    result.add("mutations-rejected", survived == 0, total=done,
               alpha_equivalent_accepted=alpha_survivors, survived=survived)
    deduction_failures = 0
    transformed = 0
    for item in corpus:
        if not item.proof.premises:
            continue
        out = apply_deduction(item.proof)
        transformed += 1
        v = check_proof(out)
        want = normalize(Implies(item.proof.premises[-1], item.proof.conclusion))
        if not v.ok or out.conclusion != want:
            deduction_failures += 1
            result.add("deduction-failed", False, proof=item.name,
                       reason=v.reason)
    result.add("deduction-accepted", deduction_failures == 0,
               transformed=transformed)
    spot_failures = 0
    for item in corpus:
        if not item.uses_r3:
            continue
        for name, template in item.proof.templates.items():
            v = spot_check_template(template, item.proof, 10)
            if not v.ok:
                spot_failures += 1
                result.add("spot-check-failed", False, proof=item.name,
                           template=name, reason=v.reason)
    result.add("spot-checks", spot_failures == 0)
    return result


SUITES = {
    "soundness": suite_soundness,
    "collapse": suite_collapse,
    "weakso": suite_weakso,
    "dsl-orbits": suite_dsl_orbits,
    "lemma-reg": suite_lemma_reg,
    "rs": suite_rs,
    "kernel": suite_kernel,
}


def run_suite(name: str, seed: int = 0) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    start = time.time()
    result = SUITES[name](seed)
    result.elapsed = time.time() - start
    return result
