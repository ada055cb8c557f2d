"""Capacity bounds and regime analysis for the Gaussian cognitive
interference channel: inner/outer rate regions, regime classification,
constant-gap checks, and plot-ready sweeps."""

import ctypes
import os

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _pin_malloc_thresholds() -> None:
    """Fix glibc malloc's mmap and trim thresholds at 32 and 64 MiB, the
    values its dynamic rule reaches at its cap.

    By default glibc raises the mmap threshold to the largest mapped block
    freed so far, and the trim threshold to twice that. The envelope and
    sweep kernels free multi-megabyte temporaries on every channel, so
    which of them are freshly mapped, and how often the heap top is handed
    back and faulted in again, would depend on which channels the process
    ran before: a channel's cost, a fifth of it page faults, would depend
    on its history. Other C libraries are left alone.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
    except (AttributeError, ValueError, OSError):  # no glibc version string
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # a trim threshold without a fixed mmap threshold would keep the
    # 128 KiB default mmap threshold for good
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_pin_malloc_thresholds()

from .channel import (CapacityResult, ChannelParams, RawChannel, RegimeReport,
                      classify, to_standard_form, very_strong_condition)
from .region import (GapReport, Kind, RateRegion, additive_gap, contains,
                     from_pareto_points, gap_report, intersect,
                     multiplicative_gap, union)

__version__ = "0.1.0"

__all__ = [
    "CapacityResult", "ChannelParams", "RawChannel", "RegimeReport",
    "classify", "to_standard_form", "very_strong_condition",
    "GapReport", "Kind", "RateRegion", "additive_gap", "contains",
    "from_pareto_points", "gap_report", "intersect", "multiplicative_gap",
    "union", "__version__",
]
