"""Deterministic simulator for shared-spectrum shop-floor networks and
wireless closed-loop machine-tool control."""

__version__ = "0.1.0"
