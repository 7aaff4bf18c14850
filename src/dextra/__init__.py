"""Human-demonstrated grasps, retargeted to robot hands and executed
under per-finger force limits against compliant contact fixtures."""

__version__ = "0.1.0"
