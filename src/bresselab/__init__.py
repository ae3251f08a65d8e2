"""Numerical laboratory for Bresse-type beam systems.

Simulation, spectra, resolvent scans and root tracking for the planar
Bresse system (vertical displacement, shear angle, longitudinal
displacement) damped by an exponential fading-memory term in the shear
equation, optionally coupled to a Cattaneo heat flux.  The Timoshenko
limit (zero curvature) gets a dedicated characteristic-equation toolbox.
"""

__version__ = "0.1.0"
