"""Graph compiler: trace one eager pass into an IR, replay it in a VM.

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
    "GraphUnsupported",
    "VM",
    "BatchedVM",
    "CompiledStep",
    "compile_model_step",
    "trace_callable",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "ir": ("Node", "Program"),
    "trace": ("Tape", "TraceError", "activate"),
    "vm": (
        "GraphUnsupported",
        "VM",
        "BatchedVM",
        "CompiledStep",
        "compile_model_step",
        "trace_callable",
    ),
})
