"""cvmet: continuous-variable metrology strategies, their exact output states,
quantum Fisher information by independent routes, and scaling-law checks."""

from .cvspace import (
    CvState,
    DimensionScan,
    FockDim,
    Operator,
    ProbeSpec,
    SpectralUnitary,
    Spectrum,
    build_quadrature,
    converge_dimension,
    operator_power,
    prepare_probe,
    probe_on_nodes,
    propagator,
    spectrum,
)
from .bch import (
    ExactComplex,
    ExpansionTable,
    PPoly,
    nested_commutator_oracle,
    phase_derivative_generator,
    verify_factorization,
    zassenhaus_term,
)
from .strategies import (
    COHERENT_SUPERPOSITION,
    COMPOSITE,
    SWITCH,
    CompositeParams,
    QState,
    StrategyConfig,
    composite_output,
    cs_output,
    cs_output_factorized,
    switch_output,
    switch_output_factorized,
)
from .qfi import (
    PrecisionResult,
    QfiEstimate,
    asymptotic_qfi,
    crb_precision,
    large_n_gate,
    precision_ratio,
    qfi_converged,
    qfi_fd,
    qfi_generator,
    ratio_formula,
)
from .applications import (
    DEFAULT_OPTOMECH,
    OptomechParams,
    ScalingFit,
    fit_scaling,
    homodyne_g_variance,
    optomech_fisher,
    optomech_state,
)
from . import errors

__version__ = "0.1.0"
