"""Simulation layer: virtual clock and devices, scenario scripts, executor."""
