"""Multivariate time-series classification with state-space sequence encoders,
learned dynamic graph structures, and GIN message passing."""

__version__ = "0.1.0"
