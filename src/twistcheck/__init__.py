"""twistcheck: arithmetic verification for quadratic twists of 15A1 and 21A1."""

from .arith import (
    NotSquarefree,
    ZeroInput,
    factorize,
    fundamental_discriminant,
    is_squarefree,
    kronecker,
    valuation,
)
from .certify import (
    Certificate,
    admissible_primes,
    check_theorem,
    deep_certificate,
    reproduce_table,
)
from .curves import (
    CurveModel,
    Family,
    SingularCurve,
    base_curve,
    minimal_model,
    quadratic_twist,
)
from .frobenius import an_coefficients, ap
from .local_invariants import (
    ConductorReport,
    LocalData,
    NotMinimalAtP,
    conductor,
    tamagawa_product,
    tate_local,
    twisted_conductor_closed_form,
)
from .lseries import (
    LRatioResult,
    PrecisionExhausted,
    RecognitionFailed,
    RootNumberAmbiguous,
    algebraic_l_ratio,
)
from .torsion_galois import (
    GaloisImageVerdict,
    InvalidL,
    TorsionStructure,
    mod_l_image,
    torsion_subgroup,
)

__version__ = "0.1.0"
