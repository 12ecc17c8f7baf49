"""Analysis utilities: growth fitting and table reporting."""

from repro import lazy_getattr

_LAZY_EXPORTS = {
    "LogFit": "repro.analysis.fitting",
    "fit_linear": "repro.analysis.fitting",
    "fit_logarithmic": "repro.analysis.fitting",
    "is_logarithmic_growth": "repro.analysis.fitting",
    "ratio_stability": "repro.analysis.fitting",
    "emit_table": "repro.analysis.reporting",
    "format_cell": "repro.analysis.reporting",
    "print_table": "repro.analysis.reporting",
    "render_table": "repro.analysis.reporting",
    "table_payload": "repro.analysis.reporting",
}

__getattr__ = lazy_getattr(globals())

__all__ = sorted(_LAZY_EXPORTS)
