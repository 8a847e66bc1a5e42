"""Seeded generators for structures, formulas and proof-line mutations.

Everything takes an explicit random.Random so suite output is
reproducible from the seed alone.
"""

from __future__ import annotations

import itertools
import random
from typing import Optional

from .formulas import (
    And, Const, ExistsFO, ExistsSO, ForallFO, ForallSO, Formula, FOVar, Func,
    Iff, Implies, Not, Or, PredApp, Signature, SOApp, SOEq, SOVar, TermEq,
    Var, children, free_variables, rebuild,
)
from .structures import FiniteStructure


def random_structure(rng: random.Random, sig: Signature, max_size: int = 4,
                     min_size: int = 1) -> FiniteStructure:
    size = rng.randint(min_size, max_size)
    predicates = {}
    for name, arity in sig.predicates.items():
        density = rng.random()
        rows = [row for row in itertools.product(range(size), repeat=arity)
                if rng.random() < density]
        predicates[name] = rows
    functions = {}
    for name, arity in sig.functions.items():
        functions[name] = {args: rng.randrange(size)
                           for args in itertools.product(range(size), repeat=arity)}
    constants = {name: rng.randrange(size) for name in sorted(sig.constants)}
    return FiniteStructure(sig, size, predicates, functions, constants)


def random_term(rng: random.Random, sig: Signature, fo_pool, depth: int = 1):
    choices = ["var"]
    if sig.constants:
        choices.append("const")
    if sig.functions and depth > 0:
        choices.append("func")
    kind = rng.choice(choices)
    if kind == "var":
        return Var(rng.choice(fo_pool))
    if kind == "const":
        return Const(rng.choice(sorted(sig.constants)))
    name = rng.choice(sorted(sig.functions))
    return Func(name, tuple(random_term(rng, sig, fo_pool, depth - 1)
                            for _ in range(sig.functions[name])))


def random_formula(rng: random.Random, sig: Signature, depth: int,
                   fo_pool=None, so_pool=None) -> Formula:
    """Random (possibly second-order) formula over the given variable pools."""
    fo_pool = fo_pool or [FOVar(0), FOVar(1)]
    so_pool = so_pool if so_pool is not None else [SOVar(0, 1)]

    def atom():
        kinds = ["pred"] if sig.predicates else []
        if sig.identity:
            kinds.append("eq")
        if so_pool:
            kinds.append("soapp")
        if not kinds:
            kinds = ["eq"]
        kind = rng.choice(kinds)
        if kind == "pred":
            name = rng.choice(sorted(sig.predicates))
            return PredApp(name, tuple(random_term(rng, sig, fo_pool)
                                       for _ in range(sig.predicates[name])))
        if kind == "eq":
            return TermEq(random_term(rng, sig, fo_pool),
                          random_term(rng, sig, fo_pool))
        v = rng.choice(so_pool)
        return SOApp(v, tuple(random_term(rng, sig, fo_pool)
                              for _ in range(v.arity)))

    if depth <= 0:
        return atom()
    roll = rng.random()
    if roll < 0.25:
        return atom()
    if roll < 0.4:
        return Not(random_formula(rng, sig, depth - 1, fo_pool, so_pool))
    if roll < 0.6:
        ctor = rng.choice([And, Or, Implies, Iff])
        return ctor(random_formula(rng, sig, depth - 1, fo_pool, so_pool),
                    random_formula(rng, sig, depth - 1, fo_pool, so_pool))
    if roll < 0.85 or not so_pool:
        ctor = rng.choice([ForallFO, ExistsFO])
        return ctor(rng.choice(fo_pool),
                    random_formula(rng, sig, depth - 1, fo_pool, so_pool))
    ctor = rng.choice([ForallSO, ExistsSO])
    return ctor(rng.choice(so_pool),
                random_formula(rng, sig, depth - 1, fo_pool, so_pool))


def random_sentence(rng: random.Random, sig: Signature, depth: int = 2,
                    so_arities=(1,)) -> Formula:
    """Closed formula; at most one binary relation quantifier to keep the
    full powerset range tractable."""
    so_pool = [SOVar(i, a) for i, a in enumerate(so_arities)]
    f = random_formula(rng, sig, depth, [FOVar(0), FOVar(1)], so_pool)
    fo, so = free_variables(f)
    for v in sorted(so):
        f = ForallSO(v, f) if rng.random() < 0.5 else ExistsSO(v, f)
    for v in sorted(fo):
        f = ForallFO(v, f) if rng.random() < 0.5 else ExistsFO(v, f)
    return f


# ---------------------------------------------------------------------------
# Mutation of proof lines
# ---------------------------------------------------------------------------

def _sites(f: Formula, path=()):
    """Every subformula of f in preorder, with its path of child indices."""
    yield path, f
    for i, g in enumerate(children(f)):
        yield from _sites(g, path + (i,))


def _replace(f: Formula, path, value):
    if not path:
        return value
    kids = list(children(f))
    kids[path[0]] = _replace(kids[path[0]], path[1:], value)
    return rebuild(f, kids)


def _tweak_atom(rng: random.Random, g: Formula, sig: Signature):
    if isinstance(g, PredApp):
        same_arity = [n for n, a in sig.predicates.items()
                      if a == len(g.args) and n != g.name]
        moves = []
        if same_arity:
            moves.append(lambda: PredApp(rng.choice(same_arity), g.args))
        if len(g.args) >= 2 and g.args[0] != g.args[1]:
            moves.append(lambda: PredApp(
                g.name, (g.args[1], g.args[0]) + g.args[2:]))
        moves.append(lambda: PredApp(g.name, (_tweak_term(rng, g.args[0], sig),)
                                     + g.args[1:]))
        return rng.choice(moves)()
    if isinstance(g, TermEq):
        if rng.random() < 0.5 and g.left != g.right:
            return TermEq(g.right, g.left)
        return TermEq(_tweak_term(rng, g.left, sig), g.right)
    if isinstance(g, SOApp):
        moves = [lambda: SOApp(SOVar(g.var.index + 1, g.var.arity), g.args),
                 lambda: SOApp(g.var, tuple(_tweak_term(rng, t, sig)
                                            for t in g.args))]
        return rng.choice(moves)()
    if isinstance(g, SOEq):
        return SOEq(SOVar(g.left.index + 1, g.left.arity), g.right)
    return None


def _tweak_term(rng: random.Random, t, sig: Signature):
    if isinstance(t, Var):
        return Var(FOVar(t.var.index + 1))
    if isinstance(t, Const):
        others = sorted(sig.constants - {t.name})
        return Const(rng.choice(others)) if others else Var(FOVar(0))
    return Var(FOVar(0))


def mutate_formula(rng: random.Random, f: Formula,
                   sig: Signature) -> Optional[Formula]:
    """Structurally different formula obtained by one local edit.

    Returns None when 20 tries find none (rare: e.g. a lone identity
    atom on a signature without spare symbols)."""
    sites = list(_sites(f))
    for _ in range(20):
        path, g = rng.choice(sites)
        if isinstance(g, (PredApp, TermEq, SOApp, SOEq)):
            new = _tweak_atom(rng, g, sig)
        elif rng.random() < 0.3:
            new = Not(g)
        elif isinstance(g, And) and g.left != g.right:
            new = And(g.right, g.left)
        elif isinstance(g, Not) and rng.random() < 0.5:
            new = g.body
        else:
            new = Not(g)
        if new is None:
            continue
        out = _replace(f, path, new)
        if out != f:
            return out
    return None
