"""Memory hierarchy substrate: caches, DRAM, shared L2 wiring, traffic."""

from .cache import Cache, CacheStats, replication
from .dram import DRAM, DRAMStats
from .hierarchy import (SharedMemory, make_texture_l1, make_tile_cache,
                        make_vertex_cache)
from .traffic import (FRAMEBUFFER, GEOMETRY, PARAMETER, SOURCES, TEXTURE,
                      WRITEBACK, TrafficBreakdown)

__all__ = [
    "Cache",
    "CacheStats",
    "replication",
    "DRAM",
    "DRAMStats",
    "SharedMemory",
    "make_texture_l1",
    "make_tile_cache",
    "make_vertex_cache",
    "TrafficBreakdown",
    "SOURCES",
    "GEOMETRY",
    "PARAMETER",
    "TEXTURE",
    "FRAMEBUFFER",
    "WRITEBACK",
]
