"""Discrete-time model-free tracking control with finite-time-stable
sigmoid-gain observers, controllers and output filtering, plus a closed-loop
simulation harness and CLI."""

from .config import SimConfig

__version__ = "0.1.0"
