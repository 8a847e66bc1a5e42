"""Workload `materialize`: `rsol eval --theta F --bound B` shaped requests.

Each request does what one such CLI process does: it parses its
sentence from text, builds the family fresh with `theta.family_from_cli`,
enumerates members 0..B, materializes the range of every quantified
arity (`StandardModel.relations`, warmed under its own span), evaluates
the sentence and prints it.  F is one of all-fo, dsl, weak-so:1 and
weak-so:2.  Enumeration and first-order evaluation per parameter tuple
take nearly all the time; the second-order evaluation over the small
materialized ranges is cheap.

Checks: every materialized relation lies in the `exact_provider_for`
range, and weak-so:1 yields all 2^|A| - 1 nonempty subsets once
B >= |A| - 1.
"""

from __future__ import annotations

import random
from time import perf_counter

from common import Request, describe_structure, node_count, so_arities

ROUNDS = 16
# (family, bound, |A|) slots of one round
SLOTS = (
    ("weak-so:1", 1, 2), ("weak-so:1", 2, 3), ("weak-so:1", 3, 3), ("weak-so:1", 3, 4),
    ("weak-so:2", 1, 2), ("weak-so:2", 1, 3), ("weak-so:2", 2, 2),
    ("all-fo", 80, 4), ("all-fo", 120, 4), ("all-fo", 160, 3), ("all-fo", 240, 2),
    ("dsl", 80, 4), ("dsl", 120, 4), ("dsl", 160, 3), ("dsl", 240, 2),
)
SWEEP_CAP_S = 2.0


class Workload:
    name = "materialize"
    dominant = ("theta.enumerate", "structures.materialize")

    def __init__(self, seed: int, tracer):
        from rsol import corpus, formulas, sampling, structures, theta
        self.fm, self.st, self.theta = formulas, structures, theta
        self.sampling = sampling
        self.sig = corpus.COLLAPSE_SIG
        self.seed = seed
        rng = random.Random(f"materialize/{seed}")
        self.rounds = []
        for _ in range(ROUNDS):
            rnd = []
            for spec, bound, size in SLOTS:
                s = sampling.random_structure(rng, self.sig, min_size=size,
                                              max_size=size)
                f = _sentence(rng, sampling, self.sig, spec, formulas)
                text = formulas.format_formula(f, unicode=False)
                rnd.append(Request(
                    spec, f"{spec}|{bound}|{text}|{describe_structure(s)}",
                    {"structure": s, "text": text, "bound": bound}))
            self.rounds.append(rnd)

    def run(self, req, tr):
        fm, st = self.fm, self.st
        s, bound = req.data["structure"], req.data["bound"]
        with tr.span("formulas.parse") as sp:
            f = fm.parse(req.data["text"], self.sig)
        if tr.on:
            sp.counts["nodes"] = node_count(f, fm)
        with tr.span("theta.enumerate") as sp:
            fam = self.theta.family_from_cli(req.kind, self.sig)
            members = fam.enumerate_up_to(bound)
        arities = so_arities(f, fm)
        model = st.StandardModel(s, st.MaterializedK(fam, bound))
        with tr.span("structures.materialize") as mp:
            ranges = {a: model.relations(a) for a in arities}
        with tr.span("structures.eval", calls=1):
            value = st.eval_so_closure(model, f)
        with tr.span("formulas.format"):
            fm.format_formula(f, unicode=False)
        if tr.on:
            sp.counts["members"] = len(members)
            # MaterializedK materializes every member once per arity asked
            per_pass = sum(s.size ** len(m.params) for m in members)
            mp.counts["param_tuples"] = per_pass * len(arities)
            mp.counts["relations"] = sum(len(r) for r in ranges.values())
        return (value, tuple(len(ranges[a]) for a in arities)), ranges

    def verify(self, req, verdict, ranges):
        st = self.st
        s = req.data["structure"]
        fam = self.theta.family_from_cli(req.kind, self.sig)
        exact = st.exact_provider_for(fam)
        for arity, rels in ranges.items():
            if isinstance(exact, st.AllRelationsK):
                # the exact range is every relation: each must be a set of
                # arity-tuples over the domain
                bad = [r for r in rels
                       if any(len(row) != arity or not all(0 <= v < s.size for v in row)
                              for row in r)]
            else:
                allowed = set(exact.relations(s, arity))
                bad = [r for r in rels if r not in allowed]
            if bad:
                return f"{len(bad)} arity-{arity} relations outside the exact range"
        if req.kind == "weak-so:1" and 1 in ranges \
                and req.data["bound"] >= s.size - 1 \
                and len(ranges[1]) != 2 ** s.size - 1:
            return f"weak-so:1 gave {len(ranges[1])} sets, want {2 ** s.size - 1}"
        return None

    def sweep(self):
        """Materialization over |A| and enumeration over the bound."""
        from sweep import grow
        st, theta = self.st, self.theta
        rng = random.Random(f"materialize-sweep/{self.seed}")

        def materialize(size):
            s = self.sampling.random_structure(rng, self.sig, min_size=size,
                                               max_size=size)
            fam = theta.weak_so(self.sig, 2)
            fam.enumerate_up_to(2)
            start = perf_counter()
            st.materialize_k(s, fam, 2)
            return perf_counter() - start

        def enumerate_(bound):
            fam = theta.all_fo(self.sig)
            start = perf_counter()
            fam.enumerate_up_to(bound)
            return perf_counter() - start

        return {
            "materialize": grow(materialize, [2, 3, 4, 5, 6], SWEEP_CAP_S,
                                case="weak-so:2 bound 2, over |A|"),
            "enumerate": grow(enumerate_, [100, 200, 400, 800, 1600, 3200, 6400],
                              SWEEP_CAP_S, case="all-fo, over the bound"),
        }


def _sentence(rng, sampling, sig, spec, fm):
    """A random sentence whose relation variables have exactly the arities
    the slot's family is given: both for all-fo (so every all-fo request
    materializes twice, once per arity asked), the family's own for the
    rest.  A fixed set keeps each slot's cost independent of the seed."""
    want = {"all-fo": [1, 2], "weak-so:2": [2]}.get(spec, [1])
    while True:
        f = sampling.random_sentence(rng, sig, depth=2, so_arities=(1, 2))
        if so_arities(f, fm) == want:
            return f
