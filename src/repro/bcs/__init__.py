"""BCS-MPI runtime: the paper's primary contribution.

Globally coscheduled communication: descriptors, time slices,
microphases, strobes, and the five NIC threads.
"""

from ..storm.job import CommInfo
from .config import BcsConfig
from .descriptors import (
    ANY_SOURCE,
    ANY_TAG,
    BcsRequest,
    CollectiveDescriptor,
    Match,
    RecvDescriptor,
    SendDescriptor,
)
from .matching import HashMatcher, LinearMatcher, Matcher, TruncationError
from .runtime import BcsRuntime, RankHandle
from .scheduler import SliceScheduler
from .strobe import MICROPHASES, StrobeReceiver, StrobeSender

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "BcsConfig",
    "BcsRequest",
    "BcsRuntime",
    "CollectiveDescriptor",
    "CommInfo",
    "HashMatcher",
    "LinearMatcher",
    "MICROPHASES",
    "Match",
    "Matcher",
    "RankHandle",
    "RecvDescriptor",
    "SendDescriptor",
    "SliceScheduler",
    "StrobeReceiver",
    "StrobeSender",
    "TruncationError",
]
