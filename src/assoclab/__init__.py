"""Two independent expansions of the same noncommutative series, compared
coefficient by coefficient to produce exact relations between multiple zeta
values and polylogarithms at one half, with arbitrary-precision certification.
"""

from .symring import (
    Generator,
    LOG2,
    NotAdmissibleError,
    NotHomogeneousError,
    SymExpr,
    SymMonomial,
    delta,
    dual_word,
    sym_weight,
    word_composition,
    zeta,
    zeta_word,
)
from .freealg import (
    A,
    B,
    DegreeTooLargeError,
    NCSeries,
    NotUnitalError,
    OrderMismatchError,
    nc_coeff,
    nc_div,
    nc_inverse,
    nc_mul,
    nc_swap,
    nc_unit,
    series_to_json,
)
from .mzv_side import enumerate_pq, phi_mzv
from .delta_side import iint_to_sym, index_words, phi_delta, xi_series
from .relations import (
    Comparison,
    Duality,
    KnownValue,
    Relation,
    Shuffle,
    Span,
    comparison_relations,
    duality_relations,
    extract_relations,
    known_values,
    reduce,
    shuffle,
    shuffle_relations,
)
from .numeric import (
    Precision,
    eval_delta,
    eval_symexpr,
    eval_zeta,
    verify_relation,
)

__version__ = "0.1.0"
