"""kp5: pseudo-spectral simulation and analysis of a fifth-order KP-II flow.

The package exports only ``__version__``; import each name from the module
that defines it (``kp5.spectral``, ``kp5.integrator``, ``kp5.picard``, ...).
"""

__version__ = "0.1.0"
