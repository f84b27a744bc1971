import os
import subprocess
import sys
from pathlib import Path

import qmrts


def test_import_does_not_load_scipy():
    src = str(Path(qmrts.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, qmrts; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_public_names_resolve():
    for name in qmrts.__all__:
        assert getattr(qmrts, name) is not None, name
    assert len(set(qmrts.__all__)) == len(qmrts.__all__)


def test_public_names_follow_the_geometry_api():
    assert "element_delays" in qmrts.__all__
    for gone in ("PathDelays", "path_delays"):
        assert gone not in qmrts.__all__
        assert not hasattr(qmrts, gone)
