"""Helpers shared by the workloads: requests, digests, formula walks."""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, fields, is_dataclass


@dataclass
class Request:
    """One closed-loop request: a kind, its inputs, and a canonical key.

    The key describes the inputs in text, so that the digest of the
    request list changes whenever the inputs do.
    """
    kind: str
    key: str
    data: dict


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(str(item).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def describe_structure(s) -> str:
    preds = ";".join(f"{n}:{sorted(rows)}" for n, rows in sorted(s.predicates.items()))
    funcs = ";".join(f"{n}:{sorted(t.items())}" for n, t in sorted(s.functions.items()))
    consts = sorted(s.constants.items())
    return f"n={s.size}|{preds}|{funcs}|{consts}"


def _children(node):
    for f in fields(node):
        value = getattr(node, f.name)
        if isinstance(value, tuple):
            yield from value
        else:
            yield value


def walk(node):
    """Every dataclass node reachable from a formula, the formula included."""
    stack = [node]
    while stack:
        g = stack.pop()
        if is_dataclass(g):
            yield g
            stack.extend(_children(g))


def node_count(f, fm) -> int:
    """AST nodes of a formula: formulas and terms, not variable names."""
    return sum(1 for g in walk(f) if isinstance(g, (fm.Formula, fm.Term)))


def so_arities(f, fm) -> list:
    """Arities of the relation variables a formula mentions, ascending."""
    return sorted({g.arity for g in walk(f) if isinstance(g, fm.SOVar)})


def preserves(s, perm) -> bool:
    """Independent automorphism test: a bijection of the domain that fixes
    constants and maps every predicate and function table onto itself."""
    if sorted(perm) != list(range(s.size)):
        return False
    if any(perm[v] != v for v in s.constants.values()):
        return False
    for rows in s.predicates.values():
        if {tuple(perm[v] for v in row) for row in rows} != rows:
            return False
    for table in s.functions.values():
        for args, value in table.items():
            if table[tuple(perm[a] for a in args)] != perm[value]:
                return False
    return True


def tuples(n: int, arity: int) -> list:
    return list(itertools.product(range(n), repeat=arity))


def percentile(sorted_values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of an ascending list.

    A mean of every value weighted by the Beta((n+1)p, (n+1)(1-p))
    density at the middle of its rank.  Unlike a single order statistic,
    it moves smoothly when requests of different kinds trade places around
    the quantile, and every request near it counts.
    """
    n = len(sorted_values)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log1p(-(i + 0.5) / n)
            for i in range(n)]
    top = max(logs)
    weights = [math.exp(x - top) for x in logs]
    return sum(w * v for w, v in zip(weights, sorted_values)) / sum(weights)
