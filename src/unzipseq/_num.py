"""Small log-domain numeric helpers shared across modules."""

from __future__ import annotations

import math


def softplus(z: float) -> float:
    """log(1 + e^z), stable for any finite z."""
    if z > 0:
        return z + math.log1p(math.exp(-z)) if z < 745.0 else z
    return math.log1p(math.exp(z)) if z > -745.0 else math.exp(z)


def log1mexp(z: float) -> float:
    """log(1 - e^z) for z <= 0 (returns -inf at z = 0)."""
    if z >= 0:
        if z == 0:
            return -math.inf
        raise ValueError(f"log1mexp needs z <= 0, got {z}")
    if z > -0.693147:
        return math.log(-math.expm1(z))
    return math.log1p(-math.exp(z))
