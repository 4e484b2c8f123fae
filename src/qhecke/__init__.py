"""Exact computer algebra for the type-A Iwahori-Hecke algebra over Q(q).

The package builds the Hecke algebra in its normal-form basis, the
Goldman-fixed (q-alternating) subalgebra, the sign q-permutation and
quantized-superalgebra actions on a graded tensor power, and verifies the
crossed-product, double-commutant and dimension statements relating them by
exact linear algebra over the rational-function field.
"""

from .qfield import (
    LaurentPolynomial,
    PoleError,
    RationalFunction,
    SpecializationPoint,
    normalize,
    specialize,
)
from .hecke import (
    HeckeAlgebra,
    HeckeElement,
    TPrimeExpansion,
    from_tprime_basis,
    goldman,
    goldman_eigenproject,
    normal_form_words,
    to_tprime_basis,
    word_parity,
    word_to_permutation,
)
from .alternating import (
    EvenBasis,
    check_even_closure,
    enumerate_even_basis,
    is_in_alt,
    verify_crossed_product_H,
    x_generator,
)
from .tensor import (
    GradedSpace,
    OperatorMatrix,
    PiRepresentation,
    RootDatum,
    phi_tensor,
    pi_T,
    pi_Tprime,
    represent,
    rho_generator,
    rho_generators,
    sign_permutation_matrix,
    specialize_matrix,
)
from .commutant import (
    AlgebraBasis,
    ClosureError,
    RankCertificate,
    SizeBoundError,
    anticommutant_basis,
    certified_rank,
    commutant_basis,
    direct_sum_check,
    span_closure,
    span_equal,
)
from .partitions import (
    DimensionReport,
    HookClassification,
    Partition,
    conjugate,
    d_lambda,
    enumerate_partitions,
    hook_classify,
    predicted_dimensions,
)
from .suites import (
    suite_alt,
    suite_alt_centralizer,
    suite_hecke,
    suite_schur_weyl,
    suite_specialization,
)
from .report import CheckRecord, Report

__version__ = "0.1.0"
