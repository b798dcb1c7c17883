"""Desk-scale quantum random-bit generator: simulated polarization-qubit
sources, state tomography, worst-case min-entropy certification, seeded
2-universal extraction and statistical validation."""

from .errors import (
    ConfigError,
    EmptyInputError,
    InsufficientDataError,
    InsufficientEntropyError,
    InvalidDecompositionError,
    InvalidStateError,
    ParameterError,
    QrbgError,
)
from .states import (
    Decomposition,
    DensityMatrix,
    PureState,
    StokesVector,
    born_probabilities,
    density_to_stokes,
    mix,
    rotate_equatorial,
    stokes_to_density,
    worst_case_decomposition,
)
from .minentropy import (
    EntropyRate,
    closed_form_minentropy,
    lower_confidence_rate,
    minentropy_decomposition,
    minentropy_pure,
    minimize_over_decompositions,
    rate_from_coherence,
)
from .sources import (
    Adversarial,
    Entangled,
    EventLog,
    SinglePhoton,
    SourceModel,
    blocked_schedule,
    constant_schedule,
    effective_qubit,
    load_event_log,
    sample_events,
    sample_raw_bits,
    save_event_log,
)
from .tomography import (
    CountTable,
    TomographyResult,
    estimate_stokes,
    reconstruct,
    tally,
)
from .bits import BitStream, read_bits_file, write_bits_file
from .extractor import (
    ExtractorParams,
    HashSeed,
    extract_stream,
    output_length,
    toeplitz_extract,
    universality_check,
)
from .stat_tests import (
    BatteryConfig,
    TestResult,
    approximate_entropy,
    block_frequency,
    cumulative_sums,
    longest_run_of_ones,
    monobit,
    run_battery,
    runs,
    serial,
)
from .pipeline import PipelineConfig, RunReport, load_config, run_pipeline

__version__ = "0.1.0"
