"""qmrts: angle-of-arrival distortion model for radar target simulators.

A radar target simulator receives a radar's chirp with one antenna and
re-transmits the modified echo with another.  The two antennas sit close
together but not at the same azimuth, so an FMCW MIMO radar under test
detects the virtual target somewhere between them.  This package
synthesizes the full signal chain (beat signal, range DFT, delay-and-sum
beamforming), provides the matching closed-form angle spectrum, and runs
the transmitter-displacement sweep experiment.

The package exports the names below; every other name lives in its
module (qmrts.scenario, qmrts.signal_chain, qmrts.beamformer,
qmrts.closed_form, qmrts.experiment, qmrts.propagation).
"""

__version__ = "0.1.0"

from .scenario import (AngleGrid, ChirpConfig, ConfigError, RadarArrayConfig,
                       RtsChannelConfig, Scenario, ValidationError,
                       load_scenario, load_scenario_file)
from .signal_chain import (BeatCube, RangeSpectrum, bin_phase_frequency_scale,
                           range_dft, range_spectrum, synthesize_beat)
from .beamformer import beamform
from .closed_form import peak_separation_db, predicted_peak
from .experiment import (AntennaSubset, emit_results, load_sweep_spec_file,
                         rts_displacement, run_sweep)

__all__ = [
    "AngleGrid", "ChirpConfig", "ConfigError", "RadarArrayConfig",
    "RtsChannelConfig", "Scenario", "ValidationError",
    "load_scenario", "load_scenario_file", "rts_displacement",
    "BeatCube", "RangeSpectrum", "bin_phase_frequency_scale", "range_dft",
    "range_spectrum", "synthesize_beat",
    "beamform",
    "peak_separation_db", "predicted_peak",
    "AntennaSubset", "emit_results", "load_sweep_spec_file", "run_sweep",
]
