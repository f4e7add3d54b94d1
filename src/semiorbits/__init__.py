"""Exact arithmetic for semigroup orbits of polynomials over finite fields.

The pieces: finite-field contexts with multiplicative-order machinery (ff),
integer polynomials with cyclotomic/resultant/height tools (intpoly), orbit
and word-stream statistics (orbits), gap and graph counting (combinatorics),
experiment harnesses (verify), and a CLI (cli).
"""

from .errors import (
    CompositeModulus,
    ConfigError,
    DegenerateGenerator,
    DegreeOutOfRange,
    DegreeTooSmall,
    EmptyReport,
    EmptySystem,
    ExplosionGuard,
    HypothesisViolated,
    LetterOutOfRange,
    OutOfRange,
    PolynomialParseError,
    SemiorbitsError,
    SpecialGenerator,
    TooLarge,
    Truncated,
    ZeroArgument,
    ZeroElement,
    ZeroPolynomial,
)
from .ff import (
    Factorization,
    FieldContext,
    FieldElement,
    FieldPolynomial,
    euler_phi,
    factorize,
    is_prime,
    make_extension_field,
    make_prime_field,
    mul_order,
    mul_orders,
    omega_distinct_primes,
    small_order_set,
)
from .intpoly import (
    CHEBYSHEV_CONJUGATE,
    MONOMIAL_CONJUGATE,
    NON_SPECIAL,
    IntPolynomial,
    SpecialClassification,
    X,
    chebyshev,
    composition_height_bound,
    conjugate_linear,
    cyclotomic,
    cyclotomic_charpoly,
    cyclotomic_norms,
    cyclotomic_resultants,
    format_poly,
    height,
    is_special,
    parse_poly,
    reduce_mod,
    resultant,
    system_height,
)
from .orbits import (
    GeneratorSet,
    OrbitRecord,
    Word,
    WordStream,
    count_small_order_points,
    evaluated_successors,
    greedy_sequence_cover,
    m_count,
    orbit,
    reach_table,
    stream_from_config,
    sup_m_over_sequences,
    theorem46_lhs,
)
from .combinatorics import (
    FunctionalGraph,
    GapReport,
    WitnessSearchResult,
    b_tree_size,
    build_graph,
    find_common_gap,
    find_witness_words,
    l_n_count,
    pair_step_count,
)
from .verify import (
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentReport,
    fit_constants,
    run_experiment,
)

__version__ = "0.1.0"
