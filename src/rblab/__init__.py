"""rblab: decay analysis for randomized benchmarking under gate-dependent noise."""

__version__ = "0.1.0"
