"""Installs the benchmark's layer wrappers in cluster worker processes.

A traced ``cluster-sweep`` run puts this directory first on the
workers' ``PYTHONPATH`` and sets ``PERFBENCH_LAYERS=1``; every other
interpreter that finds this file does nothing.
"""

import os

if os.environ.get("PERFBENCH_LAYERS") == "1":
    import importlib.util

    _path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "layers.py")
    _spec = importlib.util.spec_from_file_location("perfbench_layers", _path)
    _layers = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_layers)
    _layers.install()
