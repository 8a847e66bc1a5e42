"""Workload `eval`: second-order model checking over exact ranges.

This is the soundness and collapse traffic of the acceptance suites,
rebuilt from public calls:

* axiom instances A1-A6 for weak-so:1, dsl and all-fo over random
  structures with |A| <= 4 (<= 3 for all-fo), under `exact_provider_for`;
  every instance must be true;
* corpus proofs over random structures with |A| <= 3; every line must be
  true where the premises hold;
* the fifty collapse sentences on the collapse catalog, and random
  sentences with unary and binary relation quantifiers on random
  structures with |A| in {2, 3}, both parsed from text, evaluated under
  `AllRelationsK` and checked against `eval_full_so`.

Nearly all request time is relation-quantifier evaluation
(`structures.eval`, with `structures.full_so` as the collapse reference);
no family is enumerated while requests run.
"""

from __future__ import annotations

import random

from common import Request, describe_structure, node_count, so_arities

# Random sentences are drawn afresh for every round: their cost has a long
# tail, so a run must see about as many distinct ones as it sends for its
# throughput not to depend on the few dear ones its seed drew.  Axiom
# instances cost the most to draw (most of set-up) and vary less; they are
# drawn for AXIOM_ROUNDS rounds and reused.
ROUNDS = 960
AXIOM_ROUNDS = 160
# Requests whose worst-case evaluation count (see `_work`) passes this are
# drawn again.  It is the count of the heaviest collapse sentence on three
# elements; two nested binary relation quantifiers on three elements
# count about 2^18 times the body and take seconds, so a seed that drew
# one would set its own throughput.
MAX_WORK = 20_000
SCHEMAS = ("A1", "A2", "A3", "A4", "A5", "A6")
CORPUS_PER_ROUND = 3
COLLAPSE_PER_ROUND = 6
RANDOM_PER_ROUND = 4


class Workload:
    name = "eval"
    dominant = ("structures.eval",)

    def __init__(self, seed: int, tracer):
        from rsol import calculus, corpus, formulas, sampling, structures, theta
        self.ca, self.fm, self.st = calculus, formulas, structures
        self.sampling = sampling
        rng = random.Random(f"eval/{seed}")
        sig = corpus.CORPUS_SIG
        families = [theta.weak_so(sig, 1), theta.dsl(sig), theta.all_fo(sig)]
        proofs = corpus.proof_corpus()
        catalog = corpus.collapse_catalog()
        sentences = corpus.collapse_sentences()
        pairs = [(s, f) for s in catalog for f in sentences]
        rng.shuffle(pairs)
        axioms = [[self._axiom_request(rng, schema, fam, sig)
                   for schema in SCHEMAS for fam in families]
                  for _ in range(AXIOM_ROUNDS)]
        self.rounds = []
        for r in range(ROUNDS):
            rnd = list(axioms[r % AXIOM_ROUNDS])
            for _ in range(CORPUS_PER_ROUND):
                item = rng.choice(proofs)
                fam = item.proof.family
                provider = structures.exact_provider_for(fam) if fam is not None \
                    else structures.AllRelationsK()
                s = sampling.random_structure(rng, item.proof.sig, max_size=3)
                rnd.append(Request(
                    "corpus", f"corpus|{item.name}|{provider.name}|"
                              f"{describe_structure(s)}",
                    {"proof": item.proof, "structure": s, "provider": provider}))
            for k in range(COLLAPSE_PER_ROUND):
                s, f = pairs[(r * COLLAPSE_PER_ROUND + k) % len(pairs)]
                rnd.append(self._compare_request("collapse", s, f))
            for _ in range(RANDOM_PER_ROUND):
                while True:
                    s = sampling.random_structure(rng, corpus.COLLAPSE_SIG,
                                                  min_size=2, max_size=3)
                    f = sampling.random_sentence(rng, corpus.COLLAPSE_SIG, depth=2,
                                                 so_arities=(1, 2))
                    if _work(f, s.size, formulas) <= MAX_WORK:
                        break
                rnd.append(self._compare_request("random", s, f))
            self.rounds.append(rnd)

    # -- request construction ------------------------------------------------

    def _compare_request(self, kind, s, f):
        text = self.fm.format_formula(f, unicode=False)
        return Request(kind, f"{kind}|{text}|{describe_structure(s)}",
                       {"structure": s, "text": text})

    def _axiom_request(self, rng, schema, fam, sig):
        ca, fm, st = self.ca, self.fm, self.st
        size = 3 if fam.name == "all-fo" else 4
        while True:
            try:
                axiom = _axiom_instance(rng, schema, fam, sig, ca, fm, self.sampling)
            except fm.FormulaError:
                continue
            s = self.sampling.random_structure(rng, sig, max_size=size)
            if _work(axiom, s.size, fm) <= MAX_WORK:
                break
        provider = st.exact_provider_for(fam)
        text = fm.format_formula(axiom, unicode=False)
        return Request("axiom", f"axiom|{schema}|{fam.name}|{text}|"
                                f"{describe_structure(s)}",
                       {"formula": axiom, "structure": s, "provider": provider})

    # -- requests -------------------------------------------------------------

    def run(self, req, tr):
        fm, st = self.fm, self.st
        d = req.data
        s = d["structure"]
        if req.kind == "axiom":
            model = st.StandardModel(s, d["provider"])
            with tr.span("structures.eval", calls=1) as sp:
                value = st.eval_so_closure(model, d["formula"])
            if tr.on:
                sp.counts["range_size"] = _range_size(model, d["formula"], fm)
            with tr.span("formulas.format"):
                fm.format_formula(d["formula"], unicode=False)
            return value, None
        if req.kind == "corpus":
            proof = d["proof"]
            model = st.StandardModel(s, d["provider"])
            with tr.span("structures.eval") as sp:
                held = all(st.eval_so_closure(model, p) for p in proof.premises)
                lines = [st.eval_so_closure(model, line.formula)
                         for line in proof.lines] if held else []
            if tr.on:
                sp.counts["calls"] = len(proof.premises) + len(lines)
                sp.counts["range_size"] = sum(len(model.relations(a))
                                              for a in _model_arities(proof, fm))
            return (held, all(lines)), None
        with tr.span("formulas.parse") as sp:
            f = fm.parse(d["text"], s.sig)
        if tr.on:
            sp.counts["nodes"] = node_count(f, fm)
        model = st.StandardModel(s, st.AllRelationsK())
        with tr.span("structures.eval", calls=1) as sp:
            ranged = st.eval_so_closure(model, f)
        if tr.on:
            sp.counts["range_size"] = _range_size(model, f, fm)
        with tr.span("structures.full_so"):
            full = st.eval_full_so(s, fm.normalize(f))
        return (ranged, full), None

    def verify(self, req, verdict, detail):
        if req.kind == "axiom":
            return None if verdict is True else "axiom instance is false"
        if req.kind == "corpus":
            held, lines_true = verdict
            return None if not held or lines_true else \
                "a proof line is false where the premises hold"
        ranged, full = verdict
        return None if ranged == full else \
            f"AllRelationsK gives {ranged}, eval_full_so gives {full}"

    def sweep(self):
        return {}


def _work(f, n, fm) -> int:
    """Worst-case atom evaluations for the universal closure of f on n
    elements when every relation quantifier ranges over all relations."""
    def walk(g):
        if isinstance(g, fm.Not):
            return walk(g.body)
        if isinstance(g, fm.And):
            return walk(g.left) + walk(g.right)
        if isinstance(g, fm.ForallFO):
            return n * walk(g.body)
        if isinstance(g, fm.ForallSO):
            return 2 ** (n ** g.var.arity) * walk(g.body)
        return 1

    fo, so = fm.free_variables(f)
    closure = n ** len(fo)
    for v in so:
        closure *= 2 ** (n ** v.arity)
    return closure * walk(fm.normalize(f))


def _range_size(model, f, fm) -> int:
    return sum(len(model.relations(a)) for a in so_arities(f, fm))


def _model_arities(proof, fm) -> list:
    out = set()
    for g in list(proof.premises) + [line.formula for line in proof.lines]:
        out.update(so_arities(g, fm))
    return sorted(out)


# ---------------------------------------------------------------------------
# Axiom instances, as the soundness suite draws them
# ---------------------------------------------------------------------------

def _axiom_instance(rng, schema, fam, sig, ca, fm, sampling):
    v1 = fm.SOVar(0, 1)
    x0, x1 = fm.FOVar(0), fm.FOVar(1)

    def so_body(var):
        return sampling.random_formula(rng, sig, depth=2, fo_pool=[x0, x1],
                                       so_pool=[var])

    member_bound = 2 if fam.name.startswith("weak-so") else 5
    if schema == "A1":
        return ca.build_a1(fam.member_at(rng.randint(0, member_bound)))
    if schema == "A2":
        return ca.build_a2(1)
    if schema == "A3":
        vm, vn = fm.SOVar(0, 1), fm.SOVar(1, 1)
        for _ in range(50):
            phi = so_body(vm)
            if vm not in fm.free_variables(phi)[1]:
                continue
            phi2 = _replace_some(rng, fm.normalize(phi), vm, vn, fm)
            if phi2 is not None:
                return ca.build_a3(vm, vn, phi, phi2)
        return ca.build_a3(vm, vn, fm.SOApp(vm, (fm.Var(x0),)),
                           fm.SOApp(vn, (fm.Var(x0),)))
    if schema == "A4":
        phi = so_body(v1)
        vn = rng.choice([v1, fm.SOVar(1, 1)])
        try:
            return ca.build_a4(v1, phi, vn)
        except fm.FormulaError:
            return ca.build_a4(v1, phi, v1)
    if schema == "A5":
        a = sampling.random_formula(rng, sig, depth=1, so_pool=[])
        return ca.build_a5(v1, a, so_body(v1))
    if schema == "A6":
        phi = so_body(v1)
        member = fam.arity_member(1, rng.randint(0, member_bound))
        return ca.build_a6(v1, phi, member)
    raise ValueError(schema)


def _replace_some(rng, phi, vm, vn, fm):
    """Replace a random nonempty subset of the free vm-applications in a
    normalized formula by vn, skipping sites where either is bound."""
    changed = []

    def walk(g, bound):
        if isinstance(g, fm.SOApp):
            if g.var == vm and vm not in bound and vn not in bound \
                    and rng.random() < 0.6:
                changed.append(g)
                return fm.SOApp(vn, g.args)
            return g
        if isinstance(g, fm.Not):
            return fm.Not(walk(g.body, bound))
        if isinstance(g, fm.And):
            return fm.And(walk(g.left, bound), walk(g.right, bound))
        if isinstance(g, fm.ForallFO):
            return fm.ForallFO(g.var, walk(g.body, bound))
        if isinstance(g, fm.ForallSO):
            return fm.ForallSO(g.var, walk(g.body, bound | {g.var}))
        return g

    out = walk(phi, frozenset())
    return out if changed else None
