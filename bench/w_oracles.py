"""Workload `oracles`: the exact definability oracles.

* Criterion 5: `rank_bounded_unary_family` at rank |A|+1 must equal
  `k_exact_orbits`, on every structure of `orbit_catalog()` and on random
  {P0/1, E/2} structures with |A| in {3, 4}.
* `automorphisms` plus `tuple_orbits` for arities 1 and 2 at |A| = 6-8,
  on random structures and on structures whose groups are known (the
  empty structure has |A|! automorphisms, a directed cycle |A|); at
  |A| = 9 `automorphisms` alone, on the empty structure.
* `leibniz_reduce` on random structures with a unary function.

These are the n! and |A|^(rank+1) walls: brute-force permutations and
rank-type trees.  The benchmark re-verifies every returned permutation
and orbit with its own code.
"""

from __future__ import annotations

import math
import random
from time import perf_counter

from common import Request, describe_structure, preserves, tuples

ROUNDS = 8
# (kind, |A|) slots of one round besides the catalog ones and the 9!
# permutations.  Those come first, right after the collector pass that
# starts every round: rank requests leave cyclic garbage (about 10 MB
# after a random |A| = 4 one), and whether the collector had reached it
# when the 9! list is built would otherwise decide peak_rss_mb.
SLOTS = (
    ("reduce", 6), ("reduce", 7), ("reduce", 8),
    ("rank", 3), ("rank", 4),
    ("auto", 6), ("auto", 7),
    ("auto-empty", 6), ("auto-empty", 7), ("auto-empty", 8),
    ("auto-cycle", 6), ("auto-cycle", 7), ("auto-cycle", 8),
)
SWEEP_CAP_S = 2.0


class Workload:
    name = "oracles"
    dominant = ("structures.oracle.",)

    def __init__(self, seed: int, tracer):
        from rsol import corpus, formulas, sampling, structures
        self.st, self.sampling = structures, sampling
        self.seed = seed
        fm = formulas
        self.graph = fm.Signature(predicates={"P0": 1, "E": 2})
        self.funcs = fm.Signature(predicates={"P0": 1}, functions={"f0": 1})
        self.edge = fm.Signature(predicates={"E": 2})
        self.empty = fm.Signature()
        rng = random.Random(f"oracles/{seed}")
        catalog = corpus.orbit_catalog()
        self.rounds = []
        for _ in range(ROUNDS):
            rnd = [self._request("group-empty", self._structure(rng, "group-empty", 9),
                                 "")]
            rnd += [self._request("rank", s, f"catalog{i}")
                    for i, s in enumerate(catalog)]
            for kind, size in SLOTS:
                rnd.append(self._request(kind, self._structure(rng, kind, size), ""))
            self.rounds.append(rnd)

    def _structure(self, rng, kind, size):
        st = self.st
        if kind in ("rank", "auto"):
            return self._random_graph(rng, size)
        if kind == "reduce":
            return self.sampling.random_structure(rng, self.funcs, min_size=size,
                                                  max_size=size)
        if kind.endswith("empty"):
            return st.FiniteStructure(self.empty, size)
        # a directed cycle, relabelled at random so its inputs vary by seed
        labels = list(range(size))
        rng.shuffle(labels)
        rows = [(labels[i], labels[(i + 1) % size]) for i in range(size)]
        return st.FiniteStructure(self.edge, size, predicates={"E": rows})

    def _random_graph(self, rng, size):
        """{P0, E} structure with every fact drawn at probability 1/2.

        `sampling.random_structure` draws the density itself, and the
        sparse and dense extremes it then produces are symmetric: their
        large groups make orbit and rank work swing by orders of magnitude
        from seed to seed."""
        p0 = [(a,) for a in range(size) if rng.random() < 0.5]
        edges = [(a, b) for a in range(size) for b in range(size)
                 if rng.random() < 0.5]
        return self.st.FiniteStructure(self.graph, size,
                                       predicates={"P0": p0, "E": edges})

    def _request(self, kind, s, note):
        return Request(kind, f"{kind}|{note}|{describe_structure(s)}", {"structure": s})

    def run(self, req, tr):
        st = self.st
        s = req.data["structure"]
        if req.kind == "rank":
            with tr.span("structures.oracle.rank") as sp:
                ranked = st.rank_bounded_unary_family(s, s.size + 1)
            with tr.span("structures.oracle.orbits"):
                orbits = st.k_exact_orbits(s, False, 1)
            rank_rels = frozenset(ranked.relations(1))
            orbit_rels = frozenset(orbits.relations(1))
            if tr.on:
                # 2^classes unions, so the class count is the log of the size
                sp.counts["classes"] = round(math.log2(len(rank_rels)))
            return len(rank_rels), (rank_rels, orbit_rels)
        if req.kind == "reduce":
            with tr.span("structures.reduce"):
                quotient, partition = st.leibniz_reduce(s)
            return quotient.size, (quotient, partition)
        with tr.span("structures.oracle.automorphisms") as sp:
            autos = st.automorphisms(s)
        if tr.on:
            sp.counts["count"] = len(autos)
        orbits = {}
        if req.kind.startswith("auto"):
            with tr.span("structures.oracle.orbits"):
                orbits = {k: st.tuple_orbits(s, k) for k in (1, 2)}
        return (len(autos), tuple(len(o) for o in orbits.values())), (autos, orbits)

    def verify(self, req, verdict, detail):
        s = req.data["structure"]
        if req.kind == "rank":
            rank_rels, orbit_rels = detail
            return None if rank_rels == orbit_rels else \
                "rank-bounded family differs from the orbit family"
        if req.kind == "reduce":
            return _check_reduction(s, *detail)
        autos, orbits = detail
        # sorting copies references only; a set of 9! tuples would cost more
        # memory than the search itself
        ordered = sorted(autos)
        if any(a == b for a, b in zip(ordered, ordered[1:])) \
                or tuple(range(s.size)) not in autos:
            return "automorphism list has duplicates or lacks the identity"
        if not all(preserves(s, p) for p in autos):
            return "a returned permutation is not an automorphism"
        if req.kind.endswith("empty") and len(autos) != math.factorial(s.size):
            return f"empty structure has {len(autos)} automorphisms"
        if req.kind.endswith("cycle") and len(autos) != s.size:
            return f"directed cycle has {len(autos)} automorphisms"
        for arity, found in orbits.items():
            rows = [row for orbit in found for row in orbit]
            if sorted(rows) != tuples(s.size, arity):
                return f"arity-{arity} orbits do not partition the tuples"
            for orbit in found:
                row = next(iter(orbit))
                if orbit != {tuple(p[v] for v in row) for p in autos}:
                    return f"arity-{arity} orbit is not the image of one tuple"
        return None

    def sweep(self):
        """Rank types, automorphisms and arity-2 orbits over |A|."""
        from sweep import grow
        st = self.st
        rng = random.Random(f"oracles-sweep/{self.seed}")

        def timed(fn):
            def measure(size):
                s = self._random_graph(rng, size)
                start = perf_counter()
                fn(s)
                return perf_counter() - start
            return measure

        sizes = list(range(1, 13))
        return {
            "oracle.rank": grow(timed(lambda s: st.rank_bounded_unary_family(
                s, s.size + 1)), sizes, SWEEP_CAP_S, case="rank |A|+1, over |A|"),
            "oracle.automorphisms": grow(timed(st.automorphisms), sizes, SWEEP_CAP_S,
                                         case="automorphisms, over |A|"),
            "oracle.orbits": grow(timed(lambda s: st.tuple_orbits(s, 2)), sizes,
                                  SWEEP_CAP_S, case="arity-2 orbits, over |A|"),
        }


def _check_reduction(s, quotient, partition):
    """The blocks partition the domain and form a congruence: members of a
    block agree on P0 and their function images share a block."""
    if sorted(a for block in partition for a in block) != list(range(s.size)):
        return "blocks do not partition the domain"
    if quotient.size != len(partition):
        return "quotient size differs from the block count"
    block_of = {a: i for i, block in enumerate(partition) for a in block}
    for block in partition:
        for a in block:
            for name, rows in s.predicates.items():
                if ((a,) in rows) != ((block[0],) in rows):
                    return f"block {block} disagrees on {name}"
            for name, table in s.functions.items():
                if block_of[table[(a,)]] != block_of[table[(block[0],)]]:
                    return f"block {block} is not closed under {name}"
    return None
