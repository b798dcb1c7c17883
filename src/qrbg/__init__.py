"""Desk-scale quantum random-bit generator: simulated polarization-qubit
sources, state tomography, worst-case min-entropy certification, seeded
2-universal extraction and statistical validation."""

from .errors import InsufficientDataError, InsufficientEntropyError, ParameterError, QrbgError
from .states import StokesVector, worst_case_decomposition
from .minentropy import closed_form_minentropy, minimize_over_decompositions
from .sources import sample_events, single_photon
from .tomography import reconstruct
from .extractor import ExtractorParams, extract_stream
from .stat_tests import run_battery
from .pipeline import run_pipeline

__version__ = "0.1.0"
