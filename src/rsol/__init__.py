"""Toolkit for restricted second-order logics at desk scale.

The language layer lives in `formulas`, formula families in `theta`,
finite-model evaluation and oracles in `structures`, the proof kernel in
`calculus`, the algebra machinery in `boolean`, and the command line in
`cli`.  The names below cover the common entry points.
"""

from .formulas import (
    Signature, FOVar, SOVar, Var, Const, Func, PredApp, TermEq, SOApp, SOEq,
    Not, And, Or, Implies, Iff, ForallFO, ExistsFO, ForallSO, ExistsSO,
    Formula, FormulaError, ParseError, a6_instantiate, alpha_eq,
    format_formula, free_variables, is_sentence, normalize, parse,
    substitute, substitute_fo,
)
from .theta import (
    ThetaFamily, ThetaMember, all_fo, classify_prefix, dsl, load_family,
    prefix_family, weak_so,
)
from .structures import (
    Assignment, DefinableFamily, FiniteStructure, StandardModel,
    automorphisms, eval_fo, eval_full_so, eval_so, eval_so_closure,
    k_exact_orbits, leibniz_reduce, lemma_reg_check, load_structure,
    materialize_k, truth_algebra,
)
from .calculus import (
    OmegaTemplate, Proof, ProofBuilder, ProofLine, apply_deduction,
    check_proof, check_template, instantiate_template, load_proof,
    recognize_axiom, spot_check_template,
)
from .boolean import (
    BooleanAlgebra, FiniteCofiniteAlgebra, FreeBooleanAlgebra,
    PowersetAlgebra, RegularEntry, UltrafilterApprox, check_f_compatible,
    is_ultrafilter, rs_construct, verify_entry,
)
from .suites import run_suite

__version__ = "0.1.0"
