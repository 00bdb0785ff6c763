"""Semantic exception hierarchy and input rules shared by all faslcr modules."""

import math

import numpy as np


class FasLcrError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(FasLcrError, ValueError):
    """A configuration object or sweep grid violates its contract."""


class DomainError(FasLcrError, ValueError):
    """A numeric argument is outside the mathematical domain of an operation."""


class SingularityError(FasLcrError, ValueError):
    """A correlation coefficient sits at (or numerically at) the identical-channel
    singularity; callers must route to the identical-channel closed form."""


class AccuracyError(FasLcrError, ArithmeticError):
    """A truncated series or adaptive quadrature failed to converge within its
    budget.  ``partial`` carries the best value accumulated so far."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


def _is_whole_number(v):
    """True when ``v`` is a Python or numpy integer, never a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_finite_number(v):
    """True when ``v`` is a whole number or a finite Python or numpy float, never a bool."""
    return (_is_whole_number(v) or isinstance(v, (float, np.floating))) and math.isfinite(v)
