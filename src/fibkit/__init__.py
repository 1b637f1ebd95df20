"""fibkit: exact Fibonacci/Lucas/generalized-Fibonacci identities toolkit.

Compute F, L, and seeded G at any integer index, evaluate identities from
a small expression language, verify them exactly over parameter grids,
and prove them symbolically for all integer parameters at fixed rank.
"""

from .catalog import (
    Catalog,
    Identity,
    builtin_catalog,
    format_catalog,
    load_catalog_file,
    parse_catalog,
    parse_identity,
    section3_source,
)
from .errors import (
    CatalogError,
    EvalError,
    FibkitError,
    GridError,
    InternalFault,
    ParseError,
    SymbolicError,
    UnboundSymbolError,
)
from .expr import to_text
from .oracle import OracleTables, oracle_eval
from .parser import parse_expr
from .seq import (
    FIB_SEED,
    LUCAS_SEED,
    Seed,
    SeqTable,
    decompose,
    fib,
    fib_naive,
    fib_pair_doubling,
    gen,
    lucas,
    table,
)
from .symbolic import prove_symbolic
from .verify import (
    STANDARD_SEEDS,
    Failure,
    GridSpec,
    ParamPoint,
    VerifyReport,
    case_split_value,
    check_recurrence,
    eval_side,
    verify_grid,
)
from .zphi import (
    GoldenInt,
    LaurentPoly,
    binet_fib,
    binet_lucas,
    phi_pow,
)

__version__ = "0.1.0"

__all__ = [
    "Catalog", "Identity", "builtin_catalog", "format_catalog",
    "load_catalog_file", "parse_catalog", "parse_identity",
    "section3_source",
    "FibkitError", "ParseError", "UnboundSymbolError", "CatalogError",
    "EvalError", "GridError", "SymbolicError", "InternalFault",
    "to_text", "parse_expr",
    "OracleTables", "oracle_eval",
    "Seed", "SeqTable", "FIB_SEED", "LUCAS_SEED",
    "fib", "lucas", "gen", "fib_naive", "fib_pair_doubling",
    "table", "decompose",
    "prove_symbolic",
    "STANDARD_SEEDS", "Failure", "GridSpec", "ParamPoint", "VerifyReport",
    "case_split_value", "check_recurrence", "eval_side", "verify_grid",
    "GoldenInt", "LaurentPoly", "binet_fib", "binet_lucas",
    "phi_pow",
    "__version__",
]
