"""Deterministic counter-based stream derivation.

A master seed splits into independent per-task streams through the splitmix64
mixing function: ``state = splitmix64(seed XOR splitmix64(id_0))`` chained
over the task id components.  The derived 64-bit state seeds numpy's SFC64
generator, so a task's stream depends only on (seed, task id), never on
scheduling or worker count.  A task is a unit of independent work (one
trajectory, one block of Monte Carlo samples) and takes its draws from its
stream in order.

SFC64 is Doty-Humphrey's small fast chaotic generator, with no known
PractRand failures.  It draws normals about 15 % faster than PCG64, and the
draws are the floor of every Monte Carlo workload.  The bit generator is part
of the stream layout: changing it changes every random output.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 output step (Steele, Lea, Flood mixing constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_state(seed: int, *task_ids: int) -> int:
    """64-bit stream state for a task id chain under a master seed."""
    state = seed & _MASK
    for tid in task_ids:
        state = splitmix64(state ^ splitmix64(tid & _MASK))
    return state


def stream(seed: int, *task_ids: int) -> np.random.Generator:
    """Independent generator for the given (seed, task id) combination."""
    return np.random.Generator(np.random.SFC64(derive_state(seed, *task_ids)))


def complex_standard_normal(gen: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussians with ``E|z|^2 = 1``; ``shape`` may be an int.

    Each value takes the next (re, im) pair from ``gen``, scaled by ``1/sqrt(2)``.
    """
    shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
    pairs = gen.standard_normal(size=shape + (2,))
    pairs *= math.sqrt(0.5)
    return pairs.view(np.complex128)[..., 0]


def standard_gaussians(gen: np.random.Generator, shape, real: bool) -> np.ndarray:
    """Standard Gaussians of ``shape`` (an int is a length): real, or complex."""
    if real:
        return gen.standard_normal(shape)
    return complex_standard_normal(gen, shape)
