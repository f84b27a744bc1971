"""qmrts: angle-of-arrival distortion model for radar target simulators.

A radar target simulator receives a radar's chirp with one antenna and
re-transmits the modified echo with another.  The two antennas sit close
together but not at the same azimuth, so an FMCW MIMO radar under test
detects the virtual target somewhere between them.  This package
synthesizes the full signal chain (beat signal, range DFT, delay-and-sum
beamforming), provides the matching closed-form angle spectrum, and runs
the transmitter-displacement sweep experiment.
"""

__version__ = "0.1.0"

from .propagation import C0, element_delays, far_field_distance
from .scenario import (AngleGrid, ChirpConfig, ConfigError, RadarArrayConfig,
                       RtsChannelConfig, Scenario, ValidationError,
                       emit_scenario, load_scenario, load_scenario_file,
                       rts_displacement, with_theta_tx)
from .signal_chain import (BeatCube, RangeSpectrum, bin_phase_frequency_scale,
                           detected_bin_phase, expected_bin_phase, range_dft,
                           synthesize_beat, write_beat_csv, write_range_csv)
from .beamformer import (AngleSpectrum, PeakAtBoundaryError, beamform,
                         refine_peak, select_subset, unit_phasor_spectrum,
                         write_angle_csv)
from .closed_form import (AMBIGUITY_GAP_DB, ClosedFormSpectrum,
                          ambiguous_peak, closed_form_phase,
                          closed_form_spectrum, peak_separation_db,
                          predicted_peak, spectrum_magnitude,
                          write_closed_form_csv)
from .experiment import (AntennaSubset, SweepRow, SweepSpec,
                         displacement_to_theta_tx, emit_results,
                         load_sweep_spec, load_sweep_spec_file, read_results,
                         run_sweep)

__all__ = [
    "C0", "AngleGrid", "ChirpConfig", "ConfigError", "RadarArrayConfig",
    "RtsChannelConfig", "Scenario", "ValidationError", "emit_scenario",
    "load_scenario", "load_scenario_file", "rts_displacement", "with_theta_tx",
    "element_delays", "far_field_distance",
    "BeatCube", "RangeSpectrum", "bin_phase_frequency_scale",
    "detected_bin_phase", "expected_bin_phase", "range_dft",
    "synthesize_beat", "write_beat_csv", "write_range_csv",
    "AngleSpectrum", "PeakAtBoundaryError", "beamform", "refine_peak",
    "select_subset", "unit_phasor_spectrum", "write_angle_csv",
    "AMBIGUITY_GAP_DB", "ClosedFormSpectrum", "ambiguous_peak",
    "closed_form_phase", "closed_form_spectrum", "peak_separation_db",
    "predicted_peak", "spectrum_magnitude", "write_closed_form_csv",
    "AntennaSubset", "SweepRow", "SweepSpec", "displacement_to_theta_tx",
    "emit_results", "load_sweep_spec", "load_sweep_spec_file", "read_results",
    "run_sweep",
]
