"""Experiment harness: model-vs-oracle validation and figure drivers.

``runner`` holds the per-kernel model-vs-oracle result of the Table II
models (produced by :meth:`repro.pipeline.Pipeline.evaluate`);
``experiments`` contains one driver per evaluation figure/table of
the paper; ``reporting`` renders the same rows/series the paper plots;
``speedup`` measures the model's wall-clock advantage (Sec. VI-D).
"""

from repro.harness.runner import (
    MODELS,
    KernelResult,
    nanmean,
)
from repro.harness.reporting import render_series, render_table
from repro.harness.sweeps import Sweep, SweepResult
from repro.harness.validation import (
    ModelValidation,
    render_validation,
    validate_all,
    validate_model,
)

__all__ = [
    "KernelResult",
    "MODELS",
    "ModelValidation",
    "Sweep",
    "SweepResult",
    "nanmean",
    "render_series",
    "render_table",
    "render_validation",
    "validate_all",
    "validate_model",
]
