"""Measurement: time series, recorders, and report helpers.

Everything the paper's evaluation plots or tabulates is computed from
these primitives: per-tick throughput series (Figures 4-6, 10), migration
reports (Tables II-III, Figures 7-8), and WSS traces (Figure 9).

:class:`TimeSeries` is the one container for a ``(t, v)`` history: the
:class:`Recorder`'s series and the live telemetry gauges and rates alike.
Series are read in process; :mod:`repro.metrics.export` writes reports
and fault logs.
"""

from repro.metrics.analysis import recovery_time, window_mean
from repro.metrics.export import fault_log_to_dict, report_to_dict
from repro.metrics.recorder import Recorder
from repro.metrics.series import TimeSeries

__all__ = [
    "Recorder",
    "TimeSeries",
    "fault_log_to_dict",
    "recovery_time",
    "report_to_dict",
    "window_mean",
]
