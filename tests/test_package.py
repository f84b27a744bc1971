import inspect
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import qmrts


def _python(code: str) -> str:
    """Stdout of code run in a fresh interpreter that imports qmrts from src."""
    src = str(Path(qmrts.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_does_not_load_scipy():
    code = ("import sys, qmrts; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _python(code).strip() == "[]"


def test_import_does_not_load_csv():
    # Outputs are written by qmrts._csvio; no loader or writer needs csv.
    assert _python("import sys, qmrts; print('csv' in sys.modules)").strip() == "False"


def test_compare_does_not_load_numpy_ma():
    # numpy.ma costs about 16 ms of import per CLI run; np.unique loads it.
    cfg = Path(__file__).resolve().parents[1] / "scenario.example.cfg"
    code = ("import sys; from qmrts.cli import main; "
            f"main(['compare', {str(cfg)!r}]); print('numpy.ma' in sys.modules)")
    assert _python(code).splitlines()[-1] == "False"


def test_public_names_resolve():
    for name in qmrts.__all__:
        assert getattr(qmrts, name) is not None, name
    assert len(set(qmrts.__all__)) == len(qmrts.__all__)


def test_public_names_follow_the_geometry_api():
    from qmrts import propagation
    assert callable(propagation.element_delays)
    for gone in ("PathDelays", "path_delays", "select_subset"):
        assert gone not in qmrts.__all__
        assert not hasattr(qmrts, gone)
        assert not hasattr(propagation, gone)


# The README's names, the config and error types, the loaders and the
# grid that scripts reach as qmrts.<name>, and the sweep entry points.
PUBLIC = {
    "AngleGrid", "ChirpConfig", "ConfigError", "RadarArrayConfig",
    "RtsChannelConfig", "Scenario", "ValidationError", "load_scenario",
    "load_scenario_file", "rts_displacement", "BeatCube", "RangeSpectrum",
    "bin_phase_frequency_scale", "range_dft", "range_spectrum", "synthesize_beat",
    "beamform",
    "peak_separation_db", "predicted_peak", "AntennaSubset", "emit_results",
    "load_sweep_spec_file", "run_sweep",
}


def test_public_api_is_pinned():
    assert set(qmrts.__all__) == PUBLIC
    exported = {k for k, v in vars(qmrts).items()
                if not k.startswith("_") and not inspect.ismodule(v)}
    assert exported == PUBLIC


def test_removed_api_is_gone():
    from qmrts import beamformer, cli, closed_form, experiment, signal_chain
    for name, module in (("refine_peak", beamformer),
                         ("PeakAtBoundaryError", beamformer),
                         ("ambiguous_peak", closed_form),
                         ("AMBIGUITY_GAP_DB", closed_form),
                         ("write_beat_csv", signal_chain),
                         ("detected_bin_phase", signal_chain),
                         ("read_results", experiment),
                         ("_read_config", cli),
                         ("beamform_each", beamformer),
                         ("beamform_peaks", beamformer),
                         ("COARSE_STRIDE", closed_form),
                         ("with_theta_tx", experiment),
                         ("displacement_to_theta_tx", experiment),
                         ("expected_bin_phase", signal_chain),
                         ("_check_element", signal_chain)):
        assert not hasattr(qmrts, name), name
        assert not hasattr(module, name), name
    assert cli.AMBIGUITY_GAP_DB == 6.0
    assert "far_field_ok" not in {f.name for f in fields(experiment.SweepRow)}
