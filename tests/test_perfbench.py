"""The benchmark harness runs every path end to end at tiny sizes, so it
cannot rot between benchmark runs, and every name its tracer wraps still
exists in hlf."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke():
    run = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--smoke"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]
    last = json.loads(run.stdout.strip().splitlines()[-1])
    assert last["failed"] == 0 and last["correct"]


def test_every_traced_name_resolves():
    # the tracer binds names by string: a rename or deletion in hlf would
    # otherwise show only inside the smoke run's subprocess
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    mods = {name: importlib.import_module("hlf." + name)
            for name in tracing.HLF_MODULES}
    missing = ["%s.%s" % (mod.__name__, fname)
               for mod, fname, _, _ in tracing._functions(mods)
               if not callable(getattr(mod, fname, None))]
    if not callable(getattr(mods["expansion"], "expand", None)):
        missing.append("hlf.expansion.expand")
    missing += ["%s.%s" % (cls.__qualname__, attr)
                for cls, attr, _, _ in tracing._methods(mods)
                if attr not in vars(cls)]
    assert not missing, "perfbench/tracing.py wraps missing names: %s" \
        % ", ".join(missing)
