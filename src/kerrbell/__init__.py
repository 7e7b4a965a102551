"""Non-destructive photonic Bell-state detection with weak cross-Kerr probes."""

from .errors import (
    InvalidSpec,
    KerrBellError,
    NotABellState,
    NotInQubitSpace,
    TruncationOverflow,
    ZeroDensity,
)
from .fock_core import (
    BASIS,
    BellLabel,
    SpatialFockState,
    TwoQubitState,
    apply_beam_splitter,
    apply_pauli,
    apply_phase_shift,
    bell_state,
    embed,
    extract,
    fidelity,
    overlap,
)
from .pointer import (
    PointerBranch,
    PointerDecomposition,
    apply_cross_kerr,
    attach_probe,
    collapse,
    density_grid,
    homodyne_density,
    x_overlap,
)
from .analyzers import (
    ANALYZER_WEIGHTS,
    DEMO_WEIGHTS,
    AnalyzerConfig,
    Classification,
    Symmetry,
    SymmetryOutcome,
    check_domain,
    classify,
    error_probability,
    kraus,
    phase_phi,
    run_symmetry_analyzer,
    run_two_mode_demo,
    sample_outcome,
    shot,
    symmetry_pointer,
    two_mode_input,
    two_mode_pointer,
    two_mode_shot,
)
from .bell_detector import (
    DetectionPolicy,
    DetectionTrace,
    bell_detect,
    ideal_label,
)
from .oracle import (
    OracleConfig,
    full_fock_collapse,
    full_fock_density,
    full_fock_reference,
    poisson_tail,
    quadrature_wavefunctions,
)

__version__ = "0.1.0"
