"""Memory substrate: backing store, caches, TLB, and the timed hierarchy."""

from repro.memory.cache import Cache, CacheStats
from repro.memory.hierarchy import AccessResult, MemoryHierarchy
from repro.memory.memory import MainMemory, PAGE_SIZE, U64_MASK
from repro.memory.replacement import LRUPolicy
from repro.memory.tlb import TLB

__all__ = [
    "Cache",
    "CacheStats",
    "AccessResult",
    "MemoryHierarchy",
    "MainMemory",
    "PAGE_SIZE",
    "U64_MASK",
    "LRUPolicy",
    "TLB",
]
