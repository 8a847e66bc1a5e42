"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines, or
`rsol suite all` for the CLI equivalent.
"""

import time

import pytest

from rsol import suites
from rsol.calculus import Verdict
from rsol.corpus import collapse_catalog, collapse_sentences, proof_corpus
from rsol.suites import (
    suite_collapse, suite_dsl_orbits, suite_kernel, suite_lemma_reg, suite_rs,
    suite_soundness, suite_weakso,
)

_cache = {}


def soundness():
    if "soundness" not in _cache:
        _cache["soundness"] = suite_soundness(seed=1)
    return _cache["soundness"]


def report(num, label, ok, detail, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({label}): {status} - {detail} "
          f"[{elapsed:.1f}s, limit {limit}s]")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed <= limit, f"criterion {num} exceeded its runtime limit"


def test_criterion_1_axiom_soundness():
    start = time.time()
    result = soundness()
    schema_recs = [r for r in result.records
                   if r["check"].startswith("axiom-") and
                   r["check"].endswith("-total")]
    assert len(schema_recs) == 6
    total = sum(r["instances"] for r in schema_recs)
    failures = sum(r["failures"] for r in schema_recs)
    ok = all(r["status"] == "pass" and r["instances"] >= 200
             for r in schema_recs) and failures == 0
    report(1, "axiom soundness", ok,
           f"{total - failures}/{total} instances true across six schemata",
           time.time() - start, 120)


def test_criterion_2_rule_soundness():
    start = time.time()
    result = soundness()
    corpus = proof_corpus()
    accepted = [r for r in result.records if r["check"].endswith("-accepted")]
    line_recs = [r for r in result.records if r["check"].endswith("-lines-true")]
    r3_count = sum(1 for item in corpus if item.uses_r3)
    held = sum(r["models_with_premises"] for r in line_recs)
    ok = (len(corpus) >= 20 and r3_count >= 3
          and all(r["status"] == "pass" for r in accepted)
          and all(r["status"] == "pass" for r in line_recs)
          and held > 0)
    report(2, "rule soundness", ok,
           f"{len(corpus)} proofs ({r3_count} with the infinitary rule), 20 "
           f"models each, {held} premise-satisfying pairs, zero line failures",
           time.time() - start, 120)


def test_criterion_3_full_so_collapse():
    start = time.time()
    result = suite_collapse()
    total = [r for r in result.records if r["check"] == "collapse-total"][0]
    ok = (result.ok and total["compared"] ==
          len(collapse_catalog()) * len(collapse_sentences())
          and len(collapse_sentences()) == 50)
    report(3, "full second-order collapse", ok,
           f"{total['compared']} comparisons over {total['structures']} "
           f"structures x {total['sentences']} sentences, 0 mismatches",
           time.time() - start, 300)


def test_criterion_4_weak_so_materialization():
    start = time.time()
    result = suite_weakso()
    counts = [r for r in result.records if r["check"].startswith("weakso-count")]
    ok = (result.ok and len(counts) == 5
          and all(r["got"] == r["want"] == 2 ** (i + 1) - 1
                  for i, r in enumerate(counts)))
    report(4, "weak second-order materialization", ok,
           "2^|A|-1 relations for |A| in 1..5; singleton sentence true under "
           "the equality family and false under the orbit oracle",
           time.time() - start, 30)


def test_criterion_5_dsl_orbit_convergence():
    start = time.time()
    result = suite_dsl_orbits()
    conv = [r for r in result.records if r["check"].startswith("orbit-convergence")]
    ok = result.ok and len(conv) >= 20
    report(5, "rank-bounded enumeration matches the orbit oracle", ok,
           f"exact family equality on {len(conv)} structures",
           time.time() - start, 600)


def test_criterion_6_lemma_identities():
    start = time.time()
    result = suite_lemma_reg(seed=2)
    total = [r for r in result.records if r["check"] == "lemma-total"][0]
    ok = result.ok and total["samples"] >= 50
    report(6, "quantifiers as meets and joins", ok,
           f"all six identities exact on {total['samples']} sampled triples",
           time.time() - start, 120)


def test_criterion_7_chain_construction():
    start = time.time()
    result = suite_rs()
    avoid_recs = [r for r in result.records if r["check"].startswith("rs-avoid")]
    fincof = [r for r in result.records if r["check"].startswith("rs-fincof")]
    ok = (result.ok and len(avoid_recs) == 7
          and all(r["principal"] for r in avoid_recs)
          and len(fincof) == 2)
    report(7, "compatible ultrafilter construction", ok,
           "512-entry family exhausted for all 7 non-unit avoided elements; "
           "atoms entry forces a principal filter and refutes the cofinite one",
           time.time() - start, 60)


def test_criterion_8_kernel_robustness():
    start = time.time()
    result = suite_kernel(seed=3)
    mut = [r for r in result.records if r["check"] == "mutations-rejected"][0]
    ded = [r for r in result.records if r["check"] == "deduction-accepted"][0]
    ok = (result.ok and mut["total"] >= 500 and mut["survived"] == 0
          and ded["transformed"] >= 10)
    report(8, "kernel robustness", ok,
           f"{mut['total']} mutations rejected "
           f"({mut['alpha_equivalent_accepted']} alpha-equivalent survivors), "
           f"{ded['transformed']} premise discharges re-checked",
           time.time() - start, 120)


@pytest.mark.parametrize("target,fault,failing", [
    ("check_proof", lambda proof: Verdict(True),
     {"mutation-survived", "mutations-rejected"}),
    ("apply_deduction", lambda proof: proof,
     {"deduction-failed", "deduction-accepted"}),
    ("spot_check_template", lambda template, proof, bound: Verdict(False, reason="injected"),
     {"spot-check-failed", "spot-checks"}),
], ids=["kernel-accepts-everything", "deduction-returns-its-input", "spot-check-rejects"])
def test_kernel_suite_records_an_injected_fault(monkeypatch, target, fault, failing):
    monkeypatch.setattr(suites, target, fault)
    result = suite_kernel(seed=3)
    assert not result.ok
    assert {r["check"] for r in result.records if r["status"] == "fail"} == failing
