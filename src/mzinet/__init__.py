"""mzinet: sensitivity toolkit for interferometer networks sharing one
split squeezed-vacuum resource.

Three independent routes to every sensitivity number: a Gaussian phase-space
engine (network), closed-form laws (laws) and a truncated Fock-space oracle
(fock), plus resource optimization (optimize), synthetic homodyne traces
(tracelab) and a scenario/CSV front end (scenarios, cli).
"""

from .errors import (
    AllocationError,
    AnalysisError,
    ConfigError,
    DarkResponseError,
    FloatRangeError,
    InfeasibleSplitError,
    MzinetError,
    PrecisionLossError,
    RegularizationError,
    ResourceLimitError,
    ScenarioParseError,
    TruncationError,
)
from .laws import (
    db_below_sql,
    gain,
    min_variance_over_r,
    ns_to_r,
    optimized_variance,
    qcrb,
    regime_limits,
    scaling_with_d,
    variance_vs_ns,
)
from .network import (
    NetworkConfig,
    build_network,
    closed_form_variance,
    qc_cascade,
    response,
    sensitivity_numeric,
    sensitivity_separable,
    weight_pattern,
)
from .optimize import (
    Allocation,
    configure_optimal,
    optimal_allocation,
    optimize_squeezing,
    scan,
)
from .fock import oracle_sensitivity
from .tracelab import (
    TraceParams,
    TraceSet,
    joint_noise_analysis,
    read_trace,
    simulate_joint_noise,
    synthesize,
    write_trace,
)
from .scenarios import (
    Scenario,
    load_scenario,
    photon_flux,
    reproduce,
    run_scenario,
    verify,
)

__version__ = "0.1.0"
