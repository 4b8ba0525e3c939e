"""Tests for the package's public surface."""

import os
import subprocess
import sys
from pathlib import Path

import hbayes
from hbayes import evaluation, generator, inference, io, model, predictor

MODULES = (evaluation, generator, inference, io, model, predictor)


def test_package_exports_exactly_the_module_lists():
    names = hbayes.__all__
    assert len(names) == len(set(names))
    assert names == [name for module in MODULES for name in module.__all__] + ["__version__"]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(hbayes, name) is getattr(module, name)
    assert isinstance(hbayes.__version__, str)


def test_removed_names_are_gone():
    for name in ("score_candidate", "PredictionScore", "event_log_likelihood", "project"):
        assert name not in hbayes.__all__
        assert all(not hasattr(module, name) for module in (hbayes, *MODULES))


def test_internal_names_stay_importable_by_module_path():
    """Names the CLI, the tests and the benchmark import from their module,
    though they are not part of the package surface."""
    for module, name in ((predictor, "by_score"), (model, "event_moments"),
                         (evaluation, "hbayes_scorer_factory"),
                         (io, "CHECKPOINT_SCHEMA_VERSION"), (io, "load_candidates"),
                         (io, "save_json"), (io, "save_ground_truth"),
                         (io, "save_trace_csv")):
        assert hasattr(module, name) and name not in hbayes.__all__


def test_import_does_not_load_hashlib():
    """Only ``io.hash_features`` digests, so it imports hashlib itself and
    importing the package (the server's start) does not load OpenSSL."""
    src = str(Path(hbayes.__file__).resolve().parent.parent)
    code = "import sys, hbayes; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "[]"
