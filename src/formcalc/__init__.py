"""Exterior calculus engine: exact flat-space forms, discrete forms on
complexes, cohomology, metric geometry, and Maxwell's equations."""
