"""Simulation toolkit for reduced-order manipulator velocity observers."""
