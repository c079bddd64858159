"""Graph compiler: trace-once IR, optimization passes, memory planning, VM.

Submodules are re-exported lazily: :mod:`repro.autodiff.ops` imports
``repro.graph.trace`` at load time (for the zero-cost trace hooks), so this
package's ``__init__`` must not eagerly pull :mod:`repro.graph.vm`, which
imports autodiff back.
"""

from .. import _lazy_exports

__all__ = [
    "Node",
    "Program",
    "Tape",
    "TraceError",
    "activate",
    "optimize",
    "plan_buffers",
    "BufferPlan",
    "GraphUnsupported",
    "VM",
    "BatchedVM",
    "CompiledStep",
    "compile_model_step",
    "trace_callable",
    "plan_cache_clear",
    "plan_cache_stats",
    "MemoryPlan",
    "LayerMemory",
    "plan_protection",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "ir": ("Node", "Program"),
    "trace": ("Tape", "TraceError", "activate"),
    "passes": ("optimize", "plan_buffers", "BufferPlan"),
    "vm": (
        "GraphUnsupported",
        "VM",
        "BatchedVM",
        "CompiledStep",
        "compile_model_step",
        "trace_callable",
        "plan_cache_clear",
        "plan_cache_stats",
    ),
    "planner": ("MemoryPlan", "LayerMemory", "plan_protection"),
})
