"""Command-line entry point.

Exit codes: 0 success, 2 parse error, 3 precondition failure, 4 check
failure, 5 feasibility guard.  Machine-readable mode emits one JSON
object per line with canonical key order; given the same seed and
inputs the byte stream is identical across runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys

from . import boolean as ba
from .calculus import (
    check_proof, instantiate_template, load_premises_text, load_proof, spot_check_template,
)
from .formulas import (
    FormulaError, FOVar, ParseError, Signature, SOVar, content_lines,
    format_formula, free_variables, is_sentence, nodes, normalize, parse,
)
from .structures import (
    AllRelationsK, EvalError, FeasibilityError, MaterializedK, OrbitK,
    RankBoundedDslK, StandardModel, eval_full_so, eval_so_closure,
    k_exact_orbits, leibniz_reduce, lemma_reg_check, load_structure,
    materialize_k,
)
from .suites import SUITES, run_suite
from .theta import family_from_cli

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_CHECK = 4
EXIT_FEASIBILITY = 5

# The most work `prove-check --spot N` starts on a template, counted as N + 1
# times the distinct nodes of its instance at N, the largest when instances grow.
SPOT_BUDGET = 4 * 10 ** 6

DEMO_SIG = Signature(predicates={"P0": 1, "P1": 2}, functions={"f0": 1},
                     constants=["c0", "c1"])


class _Reporter:
    def __init__(self, fmt: str):
        self.fmt = fmt
        self.records = []

    def record(self, **fields):
        self.records.append(fields)

    def say(self, text: str):
        if self.fmt == "human":
            print(text)

    def flush(self):
        if self.fmt == "json":
            for rec in sorted(self.records, key=lambda r: json.dumps(r, sort_keys=True)):
                print(json.dumps(rec, sort_keys=True))


def _budget(default: int) -> int:
    raw = os.environ.get("RSOL_BUDGET")
    return int(raw) if raw else default


def _signature_for(args) -> Signature:
    if getattr(args, "structure", None):
        sig, _ = load_structure(args.structure)
        return sig
    return DEMO_SIG


def _provider(args, sig):
    oracle = getattr(args, "oracle", None)
    if oracle:
        if oracle == "orbits":
            return OrbitK(arities={1})
        if oracle == "all":
            return AllRelationsK()
        if oracle == "all-orbits":
            return OrbitK()
        if oracle == "rank":
            return RankBoundedDslK()
        raise FormulaError(f"unknown oracle {oracle!r}")
    fam = family_from_cli(args.theta, sig)
    return MaterializedK(fam, args.bound)


def cmd_parse(args, rep) -> int:
    sig = _signature_for(args)
    f = parse(args.sentence, sig)
    fo, so = free_variables(f)
    rep.say(f"canonical: {format_formula(f)}")
    rep.say(f"ascii:     {format_formula(f, unicode=False)}")
    rep.say(f"normalized: {format_formula(normalize(f), unicode=False)}")
    rep.say(f"sentence:  {is_sentence(f)}")
    rep.record(check="parse", canonical=format_formula(f, unicode=False),
               sentence=is_sentence(f),
               free_fo=sorted(v.index for v in fo),
               free_so=sorted((v.index, v.arity) for v in so))
    return EXIT_OK


def cmd_eval(args, rep) -> int:
    sig, s = load_structure(args.structure)
    f = parse(args.sentence, sig)
    provider = _provider(args, sig)
    model = StandardModel(s, provider)
    value = eval_so_closure(model, f)
    rep.say(f"{format_formula(f)}  ->  {value}")
    rep.record(check="eval", sentence=format_formula(f, unicode=False),
               value=value, provider=provider.name, size=s.size)
    return EXIT_OK


def cmd_ktheta(args, rep) -> int:
    sig, s = load_structure(args.structure)
    fam = family_from_cli(args.theta, sig)
    family = materialize_k(s, fam, args.bound)
    for arity in family.arities():
        for rel in family.relations(arity):
            prov = family.provenance(arity, rel)
            rows = sorted(rel)
            rep.say(f"arity {arity}: {rows} (member {prov.theta_index}, "
                    f"parameters {prov.params})")
            rep.record(check="ktheta", arity=arity, relation=sorted(map(list, rel)),
                       member=prov.theta_index, parameters=list(prov.params))
    counts = {a: family.count(a) for a in family.arities()}
    rep.say(f"total: {counts}")
    return EXIT_OK


def cmd_orbits(args, rep) -> int:
    sig, s = load_structure(args.structure)
    family = k_exact_orbits(s, args.with_parameters, args.arity)
    for rel in family.relations(args.arity):
        rep.say(f"{sorted(rel)}")
        rep.record(check="orbits", arity=args.arity,
                   relation=sorted(map(list, rel)))
    rep.say(f"total: {family.count(args.arity)}")
    return EXIT_OK


def cmd_compare_so(args, rep) -> int:
    sig, s = load_structure(args.structure)
    f = parse(args.sentence, sig)
    model = StandardModel(s, AllRelationsK())
    a = eval_so_closure(model, f)
    b = eval_full_so(s, f)
    agree = a == b
    rep.say(f"family range: {a}; full range: {b}; agree: {agree}")
    rep.record(check="compare-so", family_value=a, full_value=b, agree=agree)
    return EXIT_OK if agree else EXIT_CHECK


def cmd_lemma_check(args, rep) -> int:
    sig, s = load_structure(args.structure)
    fam = family_from_cli(args.theta, sig)
    body = parse(args.body, sig)
    if args.which in ("i", "ii"):
        var = FOVar(args.var_index)
    else:
        var = SOVar(args.var_index, args.var_arity)
    ok = lemma_reg_check(s, args.budget_vars, body, args.which, var, fam,
                         args.bound)
    rep.say(f"item ({args.which}): {'holds' if ok else 'fails'}")
    rep.record(check="lemma", which=args.which, holds=ok)
    return EXIT_OK if ok else EXIT_CHECK


def cmd_reduce(args, rep) -> int:
    sig, s = load_structure(args.structure)
    quotient, partition = leibniz_reduce(s)
    rep.say(f"partition: {partition}")
    rep.say(f"quotient size: {quotient.size}")
    rep.record(check="reduce", partition=partition, quotient_size=quotient.size)
    return EXIT_OK


def cmd_prove_check(args, rep) -> int:
    if args.spot is not None and args.spot < 0:
        raise FormulaError(f"spot bound must be >= 0, got {args.spot}")
    sig = _signature_for(args)
    fam = family_from_cli(args.theta, sig) if args.theta else None
    premises = []
    if args.sigma:
        with open(args.sigma, encoding="utf-8") as fh:
            premises = load_premises_text(fh.read(), sig)
    proof = load_proof(args.proof, sig, fam, premises)
    verdict = check_proof(proof)
    if verdict.ok:
        rep.say(f"accepted ({len(proof.lines)} lines, "
                f"{len(proof.templates)} templates)")
    else:
        where = "" if verdict.line is None else f" at line {verdict.line + 1}"
        rep.say(f"rejected{where}: {verdict.reason}")
    rep.record(check="prove-check", accepted=verdict.ok,
               line=None if verdict.line is None else verdict.line + 1,
               reason=verdict.reason)
    if verdict.ok and args.spot is not None:
        for name, template in sorted(proof.templates.items()):
            seen: dict = {}
            for line in instantiate_template(template, proof, args.spot).lines:
                nodes(line.formula, seen)
            if (args.spot + 1) * len(seen) > SPOT_BUDGET:
                raise FeasibilityError(
                    f"template {name}: {args.spot + 1} instances of up to {len(seen)} "
                    f"nodes each exceed the spot-check budget of {SPOT_BUDGET} nodes")
            v = spot_check_template(template, proof, args.spot)
            rep.say(f"template {name}: "
                    f"{v.reason if v.ok else 'failed: ' + v.reason}")
            rep.record(check="spot", template=name, ok=v.ok, reason=v.reason)
            if not v.ok:
                return EXIT_CHECK
    return EXIT_OK if verdict.ok else EXIT_CHECK


def _make_algebra(spec: str):
    kind, colon, arg = spec.partition(":")
    factory = ba.builtin_algebras().get(kind)
    if factory is None:
        raise FormulaError(f"unknown algebra {spec!r}")
    sized = factory is not ba.FiniteCofiniteAlgebra
    if bool(colon) != sized:
        raise FormulaError(f"algebra {kind!r} takes a size, as in {kind}:N" if sized
                           else f"algebra {kind!r} takes no argument, got {spec!r}")
    return factory(int(arg)) if sized else factory()


def _number(word: str, text: str) -> int:
    try:
        return int(word)
    except ValueError:
        raise FormulaError(f"cannot read element {text!r}") from None


def _parse_element(alg, text: str):
    text = text.strip()
    if text in ("zero", "0*"):
        return alg.zero
    if text in ("one", "unit"):
        return alg.one
    if isinstance(alg, ba.PowersetAlgebra):
        if text in ("", "{}"):
            return frozenset()
        items = frozenset(_number(x, text) for x in text.split(","))
        if not items <= alg.one:
            raise FormulaError(f"element {text!r} is not a subset of the atoms "
                               f"{sorted(alg.one)}")
        return items
    if isinstance(alg, ba.FreeBooleanAlgebra):
        value = _number(text, text)
        if not 0 <= value <= alg.one:
            raise FormulaError(f"element {text!r} is outside 0..{alg.one}")
        return value
    if isinstance(alg, ba.FiniteCofiniteAlgebra):
        kind, _, rest = text.partition(":")
        items = [_number(x, text) for x in rest.split(",") if x.strip()]
        if any(x < 0 for x in items):
            raise FormulaError(f"element {text!r} names a negative number")
        if kind == "fin":
            return alg.fin(items)
        if kind == "cof":
            return alg.cof(items)
    raise FormulaError(f"cannot read element {text!r}")


_ENTRY_SEP = re.compile(r"(?<!fin)(?<!cof):")


def _atoms_entry(alg):
    if not isinstance(alg, ba.FiniteCofiniteAlgebra):
        raise FormulaError("the atoms generator lives on the "
                           "finite-cofinite algebra")
    return ba.fincof_atoms_entry(alg)


def _load_family_entries(alg, spec: str):
    if spec == "complete":
        if not isinstance(alg, ba.PowersetAlgebra):
            raise FormulaError("the complete family needs a powerset algebra")
        return ba.powerset_full_family(alg)
    if spec == "atoms":
        return [_atoms_entry(alg)]
    entries = []
    with open(spec, encoding="utf-8") as fh:
        for lineno, line in content_lines(fh):
            try:
                # the colon of a `fin:`/`cof:` element does not separate fields
                parts = [p.strip() for p in _ENTRY_SEP.split(line)]
                if len(parts) < 3:
                    raise FormulaError("expected 'join|meet : bound : members'")
                kind, bound = parts[0], _parse_element(alg, parts[1])
                member_text = ":".join(parts[2:])
                if member_text == "@atoms":
                    entries.append(dataclasses.replace(
                        _atoms_entry(alg), kind=kind, bound=bound, name=f"entry{lineno}"))
                else:
                    members = tuple(_parse_element(alg, t) for t in member_text.split())
                    entries.append(ba.RegularEntry(kind, bound, members=members,
                                                   name=f"entry{lineno}"))
            except ValueError as exc:
                raise FormulaError(f"{spec}:{lineno}: {exc}") from None
    return entries


def cmd_rs(args, rep) -> int:
    if args.steps < 0:
        raise FormulaError(f"steps must be >= 0, got {args.steps}")
    alg = _make_algebra(args.algebra)
    entries = _load_family_entries(alg, args.family)
    avoid = _parse_element(alg, args.avoid)
    for e in entries:
        v = ba.verify_entry(alg, e)
        if not v.ok:
            rep.say(f"entry {e.name}: bound violated at index {v.violation_index}")
            rep.record(check="entry", name=e.name, status="violation")
            return EXIT_PRECONDITION
    approx = ba.rs_construct(alg, entries, avoid, decide_steps=args.steps,
                             witness_budget=_budget(10_000))
    rep.say(f"chain length {len(approx.chain)}, final {approx.final}")
    decided = in_count = 0
    for step in approx.steps:
        if step.action == "decide":
            decided += 1
            in_count += step.value
            rep.record(check="decide", element=str(step.element),
                       value=step.value)
        else:
            rep.say(f"  {step.entry_name}: {step.action} {step.element}")
            rep.record(check="entry-step", name=step.entry_name,
                       action=step.action)
    rep.say(f"decisions: {decided} elements ({in_count} in, "
            f"{decided - in_count} out)")
    failures = 0
    for e in entries:
        v = ba.check_f_compatible(alg, approx.membership, e,
                                  budget=_budget(10_000))
        rep.record(check="compatible", name=e.name, status=v.status)
        if v.status != "true":
            failures += 1
            rep.say(f"entry {e.name}: {v.status} ({v.reason})")
    excluded = approx.excludes(avoid)
    rep.say(f"avoided element excluded: {excluded}; "
            f"entries compatible: {len(entries) - failures}/{len(entries)}")
    rep.record(check="rs", excluded=excluded, entries=len(entries),
               incompatible=failures)
    return EXIT_OK if excluded and failures == 0 else EXIT_CHECK


def cmd_suite(args, rep) -> int:
    names = sorted(SUITES) if args.name == "all" else [args.name]
    bad = 0
    for name in names:
        result = run_suite(name, args.seed)
        rep.say(result.summary())
        for rec in result.records:
            if rec["status"] == "fail":
                rep.say(f"  FAIL {rec}")
            rep.record(suite=name, seed=args.seed, **rec)
        if not result.ok:
            bad += 1
    return EXIT_OK if bad == 0 else EXIT_CHECK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rsol",
        description="restricted second-order logic toolkit")
    top.add_argument("--format", choices=("human", "json"), default="human")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and print a formula")
    p.add_argument("--sentence", required=True)
    p.add_argument("--structure", help="take the signature from this file")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("eval", help="evaluate a sentence over a structure")
    p.add_argument("--structure", required=True)
    p.add_argument("--sentence", required=True)
    p.add_argument("--theta", default="weak-so:1")
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--oracle", choices=("orbits", "all", "all-orbits", "rank"))
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ktheta", help="materialize the definable family")
    p.add_argument("--structure", required=True)
    p.add_argument("--theta", default="weak-so:1")
    p.add_argument("--bound", type=int, default=3)
    p.set_defaults(func=cmd_ktheta)

    p = sub.add_parser("orbits", help="exact definability oracle")
    p.add_argument("--structure", required=True)
    p.add_argument("--arity", type=int, default=1)
    p.add_argument("--with-parameters", action="store_true")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("compare-so",
                       help="family range against the full relation range")
    p.add_argument("--structure", required=True)
    p.add_argument("--sentence", required=True)
    p.set_defaults(func=cmd_compare_so)

    p = sub.add_parser("lemma-check", help="quantifier/meet identity analogs")
    p.add_argument("--structure", required=True)
    p.add_argument("--which", choices=("i", "ii", "iii", "iv", "v", "vi"),
                   required=True)
    p.add_argument("--body", required=True)
    p.add_argument("--var-index", type=int, default=0)
    p.add_argument("--var-arity", type=int, default=1)
    p.add_argument("--theta", default="weak-so:1")
    p.add_argument("--bound", type=int, default=2)
    p.add_argument("--budget-vars", type=int, default=1)
    p.set_defaults(func=cmd_lemma_check)

    p = sub.add_parser("reduce", help="quotient by indistinguishability")
    p.add_argument("--structure", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("prove-check", help="check a proof file")
    p.add_argument("--proof", required=True)
    p.add_argument("--sigma", help="premise file, one sentence per line")
    p.add_argument("--theta", help="family for the indexed schemata")
    p.add_argument("--structure", help="take the signature from this file")
    p.add_argument("--spot", type=int,
                   help="also instantiate templates at 0..N and re-check")
    p.set_defaults(func=cmd_prove_check)

    p = sub.add_parser("rs", help="run the decreasing-chain construction")
    p.add_argument("--algebra", required=True,
                   help="powerset:N | free:G | fincof")
    p.add_argument("--family", required=True,
                   help="entry file, or 'complete' / 'atoms'")
    p.add_argument("--avoid", required=True)
    p.add_argument("--steps", type=int, default=64)
    p.set_defaults(func=cmd_rs)

    p = sub.add_parser("suite", help="run a named check suite")
    p.add_argument("name", choices=sorted(SUITES) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_suite)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    rep = _Reporter(args.format)
    try:
        code = args.func(args, rep)
    except (ParseError,) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FeasibilityError as exc:
        print(f"feasibility guard: {exc}", file=sys.stderr)
        return EXIT_FEASIBILITY
    except (FormulaError, EvalError, ba.AlgebraError, OSError,
            json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    rep.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
