"""Workload `prove`: the proof kernel and the chain construction.

* `check_proof` on the whole proof corpus, and on generated syllogism
  chains of 115-355 lines over random first-order sentences;
* a single-line mutation of each corpus proof with more than one line, and
  of the last load-bearing line of some chain proofs; each must be
  rejected unless alpha-equivalent to the original line;
* `apply_deduction` on chains of 25-235 lines (its cost is superlinear in
  the length); the result must check and conclude phi -> psi;
* `spot_check_template` on every omega-template of the corpus at bounds
  10, 90 and 250.  Instances of the weak-so templates grow deep enough to
  raise `RecursionError`: omega-under-conjunction's by n = 80, and
  omega-self-weak's and omega-with-premise's by n = 250.  Those requests
  count as failed;
* a minority of `rs_construct` plus `check_f_compatible` over
  `powerset_algebra(3)` and `(4)`; the output must be a principal
  ultrafilter outside the avoided element, compatible with every entry.

No structure is evaluated here: calculus, formulas and boolean do all the
work.
"""

from __future__ import annotations

import random

from common import Request

ROUNDS = 3
CHAIN_MUTATIONS = 4
CHECK_CHAINS = (20, 40, 60)
DEDUCE_CHAINS = (5, 10, 20, 20, 40)
SPOT_BOUNDS = (10, 90, 250)
RS_SLOTS = (3, 3, 4)


class Workload:
    name = "prove"
    dominant = ("calculus.", "boolean.")

    def __init__(self, seed: int, tracer):
        from rsol import boolean, calculus, corpus, formulas, sampling
        self.ba, self.ca, self.fm = boolean, calculus, formulas
        self.sig = corpus.CORPUS_SIG
        rng = random.Random(f"prove/{seed}")
        self.corpus = corpus.proof_corpus()
        self.algebras = {}
        for n in sorted(set(RS_SLOTS)):
            alg = boolean.powerset_algebra(n)
            with tracer.span("boolean.family"):
                entries = boolean.powerset_full_family(alg)
            self.algebras[n] = (alg, entries)
        mutable = [item for item in self.corpus if len(item.proof.lines) > 1
                   and _load_bearing_lines(item.proof, calculus)]
        self.rounds = []
        for r in range(ROUNDS):
            rnd = [Request("corpus", "corpus", {})]
            chains = {k: self._chain(rng, k) for k in CHECK_CHAINS}
            for k in CHECK_CHAINS:
                rnd.append(self._proof_request("check", chains[k][0], chains[k][1]))
            for item in mutable:
                rnd.append(self._mutation(rng, sampling, item.proof, item.name))
            for k in rng.sample(CHECK_CHAINS * 2, CHAIN_MUTATIONS):
                rnd.append(self._mutation(rng, sampling, *chains[k], last=True))
            for k in DEDUCE_CHAINS:
                proof, key = self._chain(rng, k)
                rnd.append(self._proof_request("deduce", proof, key))
            for item in self.corpus:
                for name, template in sorted(item.proof.templates.items()):
                    for bound in SPOT_BOUNDS:
                        rnd.append(Request("spot", f"spot|{item.name}|{name}|{bound}",
                                           {"proof": item.proof, "template": template,
                                            "bound": bound}))
            for i, n in enumerate(RS_SLOTS):
                # the chain's cost depends on the avoided element, so the
                # choice follows the round and not the seed
                alg = self.algebras[n][0]
                avoidable = [e for e in alg.elements() if e != alg.one]
                avoid = avoidable[(7 * r + i) % len(avoidable)]
                rnd.append(Request("rs", f"rs|{n}|{sorted(avoid)}",
                                   {"n": n, "avoid": avoid}))
            self.rounds.append(rnd)

    # -- inputs ---------------------------------------------------------------

    def _chain(self, rng, k):
        """Premises a0->a1, ..., a(k-1)->ak over distinct random sentences,
        chained by syllogism into a0 -> ak.

        Every sentence has the same shape, forall x0 (l1 | l2) with random
        literals, so a chain's cost depends on k and not on the seed."""
        fm = self.fm
        terms = [fm.Var(fm.FOVar(0)), fm.Const("c0"), fm.Const("c1")]

        def literal():
            kind = rng.randrange(3)
            if kind == 0:
                atom = fm.PredApp("P0", (rng.choice(terms),))
            elif kind == 1:
                atom = fm.PredApp("P1", (rng.choice(terms), rng.choice(terms)))
            else:
                atom = fm.TermEq(rng.choice(terms), rng.choice(terms))
            return fm.Not(atom) if rng.random() < 0.5 else atom

        atoms, seen = [], set()
        while len(atoms) <= k:
            f = fm.normalize(fm.ForallFO(fm.FOVar(0), fm.Or(literal(), literal())))
            if f not in seen:
                seen.add(f)
                atoms.append(f)
        pb = self.ca.ProofBuilder(self.sig, premises=[
            fm.Implies(atoms[i], atoms[i + 1]) for i in range(k)])
        line = pb.premise(0)
        for i in range(1, k):
            line = pb.syllogism(line, pb.premise(i))
        key = "|".join(fm.format_formula(a, unicode=False) for a in atoms)
        return pb.build(), f"chain{k}|{key}"

    def _proof_request(self, kind, proof, key):
        return Request(kind, f"{kind}|{key}", {"proof": proof})

    def _mutation(self, rng, sampling, proof, name, last=False):
        """A copy of `proof` with one load-bearing line mutated.  Chains are
        mutated in their last such line: the check stops at the first bad
        line, so a random line would make the cost follow the seed."""
        ca, fm = self.ca, self.fm
        candidates = _load_bearing_lines(proof, ca)
        while True:
            li = candidates[-1] if last else rng.choice(candidates)
            original = proof.lines[li].formula
            mutated = sampling.mutate_formula(rng, original, proof.sig)
            if mutated is not None and mutated != original:
                break
        lines = list(proof.lines)
        lines[li] = ca.ProofLine(mutated, lines[li].justification)
        hacked = ca.Proof(proof.sig, proof.family, proof.premises, lines,
                          proof.templates)
        text = fm.format_formula(mutated, unicode=False)
        return Request("mutation", f"mutation|{name[:60]}|{li}|{text}",
                       {"proof": hacked,
                        "alpha_eq": fm.alpha_eq(mutated, original)})

    # -- requests -------------------------------------------------------------

    def run(self, req, tr):
        ca, ba = self.ca, self.ba
        d = req.data
        if req.kind == "corpus":
            with tr.span("calculus.check") as sp:
                oks = tuple(ca.check_proof(item.proof).ok for item in self.corpus)
            if tr.on:
                sp.counts["lines"] = sum(len(item.proof.lines) for item in self.corpus)
            return oks, None
        if req.kind in ("check", "mutation"):
            with tr.span("calculus.check", lines=len(d["proof"].lines)):
                ok = ca.check_proof(d["proof"]).ok
            return ok, None
        if req.kind == "deduce":
            proof = d["proof"]
            with tr.span("calculus.deduce") as sp:
                out = ca.apply_deduction(proof)
            if tr.on:
                sp.counts["lines_out"] = len(out.lines)
            with tr.span("calculus.check", lines=len(out.lines)):
                ok = ca.check_proof(out).ok
            want = self.fm.normalize(self.fm.Implies(proof.premises[-1],
                                                     proof.conclusion))
            return (ok, out.conclusion == want), None
        if req.kind == "spot":
            with tr.span("calculus.spot", instances=d["bound"] + 1):
                ok = ca.spot_check_template(d["template"], d["proof"], d["bound"]).ok
            return ok, None
        alg, entries = self.algebras[d["n"]]
        with tr.span("boolean.rs") as sp:
            approx = ba.rs_construct(alg, entries, d["avoid"])
        if tr.on:
            sp.counts["steps"] = len(approx.steps)
        with tr.span("boolean.compat") as cp:
            verdicts = [ba.check_f_compatible(alg, approx.membership, e)
                        for e in entries]
        if tr.on:
            cp.counts["inspected"] = sum(v.inspected for v in verdicts)
        statuses = frozenset(v.status for v in verdicts)
        return (tuple(sorted(approx.final)), tuple(sorted(statuses))), None

    def verify(self, req, verdict, detail):
        d = req.data
        if req.kind == "corpus":
            return None if all(verdict) else "a corpus proof was rejected"
        if req.kind == "check":
            return None if verdict else "a generated chain was rejected"
        if req.kind == "mutation":
            return "a non-alpha-equivalent mutation was accepted" \
                if verdict and not d["alpha_eq"] else None
        if req.kind == "deduce":
            ok, concludes = verdict
            if not ok:
                return "the deduced proof was rejected"
            return None if concludes else "the deduced proof concludes the wrong formula"
        if req.kind == "spot":
            return None if verdict else "spot check rejected an instance"
        final, statuses = verdict
        if len(final) != 1 or final[0] in d["avoid"]:
            return f"chain ends at {final}, not an atom outside the avoided element"
        if statuses != ("true",):
            return f"check_f_compatible gave {statuses}"
        # independent check: the principal ultrafilter at p respects an
        # entry iff p is in the bound exactly when it is in some member
        # (join) or in every member (meet)
        p = final[0]
        for e in self.algebras[d["n"]][1]:
            inside = [p in m for m in e.members]
            want = any(inside) if e.kind == "join" else all(inside)
            if (p in e.bound) != want:
                return f"entry {e.name} is not respected"
        return None

    def sweep(self):
        return {}


def _load_bearing_lines(proof, ca):
    """Lines another line cites, plus the last line when it cites one:
    a change there must break the proof."""
    cited = set()
    for line in proof.lines:
        j = line.justification
        for attr in ("implication", "antecedent", "line"):
            if hasattr(j, attr):
                cited.add(getattr(j, attr))
    out = sorted(cited)
    if isinstance(proof.lines[-1].justification,
                  (ca.MP, ca.GenFO, ca.GenSO, ca.R3, ca.Premise)):
        out.append(len(proof.lines) - 1)
    return out
