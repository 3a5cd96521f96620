"""Benchmark harness: regeneration of every paper table and figure."""

from .figures import (
    DEFAULT_SIZES,
    fig4_ptx_comparison,
    fig5_measured_overhead_host,
    fig5_zero_overhead,
    fig6_swapped_backends,
    fig8_single_source_tiling,
    fig9_performance_portability,
    fig10_hase,
    table1_rows,
    table2_rows,
    table3_rows,
)
from .harness import (
    host_fingerprint,
    measure_wall,
    sim_time_of,
    write_bench_json,
    write_report,
)

__all__ = [
    "DEFAULT_SIZES",
    "fig4_ptx_comparison",
    "fig5_zero_overhead",
    "fig5_measured_overhead_host",
    "fig6_swapped_backends",
    "fig8_single_source_tiling",
    "fig9_performance_portability",
    "fig10_hase",
    "table1_rows",
    "table2_rows",
    "table3_rows",
    "measure_wall",
    "sim_time_of",
    "write_report",
    "write_bench_json",
    "host_fingerprint",
]
