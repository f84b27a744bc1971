"""Traced launcher: run one qmrts CLI command with a span around every
public function of the package, then write the spans as JSON.

    python launcher.py SPANS.json -- <qmrts arguments>

The package binds names with ``from .x import f``, so a function is
replaced in every qmrts module namespace that holds it, not only where it
is defined.  Spans stay in memory until the command ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

MODULES = ("scenario", "propagation", "signal_chain", "beamformer",
           "closed_form", "experiment", "cli")


def _writer(rows_of):
    """Counter for a CSV writer called as writer(obj, path)."""
    def count(args, result):
        return {"output.rows": rows_of(args[0]), "output.bytes": os.path.getsize(args[1])}
    return count


# Work counts taken from argument and result shapes at the layer boundary.
COUNTERS = {
    "signal_chain.synthesize_beat": lambda a, r: {"signal_chain.samples": r.samples.size},
    "signal_chain.range_dft": lambda a, r: {"signal_chain.fft_points": r.spectrum.size},
    "beamformer.beamform": lambda a, r: {
        "beamformer.steer_evals": a[0].peak_values.size * r.angles_rad.size},
    "closed_form.spectrum_magnitude": lambda a, r: {"closed_form.kernel_evals": r.size},
    "experiment.run_sweep": lambda a, r: {"experiment.points": a[0].points},
    "signal_chain.write_beat_csv": _writer(lambda b: b.samples.size),
    "signal_chain.write_range_csv": _writer(lambda r: r.spectrum.size),
    "beamformer.write_angle_csv": _writer(lambda s: s.angles_rad.size),
    "closed_form.write_closed_form_csv": _writer(lambda s: s.angles_rad.size),
    "experiment.emit_results": _writer(len),
}


class Tracer:
    """Span recorder: each span is [name, start, end, parent index, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
            self.spans.append(span)
            self._open.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                bound = sig.bind(*args, **kwargs).args
                span[4] = counter(bound, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap the public functions of every module and Scenario.validate."""
        mods = [importlib.import_module(f"qmrts.{m}") for m in MODULES]
        wrapped = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        scenario_cls = sys.modules["qmrts.scenario"].Scenario
        scenario_cls.validate = self.wrap("scenario.validate", scenario_cls.validate)
        for mod in [sys.modules["qmrts"], *mods]:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 64
    spans_path, argv = sys.argv[1], sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    try:
        return sys.modules["qmrts.cli"].main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
