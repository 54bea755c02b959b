"""Numerical-quality metrics, closed-form operation/communication counts
and schedule statistics."""

from importlib import import_module
from typing import Any

# Public name -> defining module, resolved lazily: the kernels import
# the closed-form counts of ``repro.analysis.flops``, and an eager import
# of ``communication`` here would pull ``repro.core`` (which imports the
# kernels) into that import.
_EXPORTS = {
    **dict.fromkeys(
        (
            "factorization_messages_ca",
            "factorization_messages_classic",
            "panel_messages_ca",
            "panel_messages_classic",
            "panel_words_ca",
            "sync_reduction_factor",
        ),
        "repro.analysis.communication",
    ),
    **dict.fromkeys(
        ("growth_factor", "lu_backward_error", "orthogonality_error", "qr_backward_error"),
        "repro.analysis.errors",
    ),
    **dict.fromkeys(
        (
            "gemm_flops",
            "larfb_flops",
            "lu_flops",
            "lu_panel_flops",
            "qr_flops",
            "qr_panel_flops",
            "trsm_left_flops",
            "trsm_right_flops",
        ),
        "repro.analysis.flops",
    ),
    **dict.fromkeys(("ScheduleStats", "schedule_stats"), "repro.analysis.schedule"),
}


def __getattr__(name: str) -> Any:
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro.analysis' has no attribute {name!r}") from None
    return getattr(import_module(module), name)


__all__ = [
    "ScheduleStats",
    "factorization_messages_ca",
    "factorization_messages_classic",
    "panel_messages_ca",
    "panel_messages_classic",
    "panel_words_ca",
    "sync_reduction_factor",
    "gemm_flops",
    "growth_factor",
    "larfb_flops",
    "lu_backward_error",
    "lu_flops",
    "lu_panel_flops",
    "orthogonality_error",
    "qr_backward_error",
    "qr_flops",
    "qr_panel_flops",
    "schedule_stats",
    "trsm_left_flops",
    "trsm_right_flops",
]
