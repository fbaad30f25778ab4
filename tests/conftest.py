"""Hypothesis runs derandomized: every run draws the same examples."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
