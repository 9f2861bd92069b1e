"""Compiler registry and pass-pipeline subsystem.

Two public ideas live here:

* **Passes** — the MUSS-TI compiler decomposed into composable stages
  (validation, placement, the scheduling loop) run over a shared
  :class:`CompileContext` by a :class:`PassPipeline`.  The Fig 8
  ablation arms are pipeline variants, assembled by
  :func:`build_muss_ti_pipeline`.
* **Registry** — one name -> factory table (:class:`CompilerRegistry`)
  every front-end resolves through, addressed by spec strings like
  ``"muss-ti?lookahead_k=4"``.  The built-in registrations (MUSS-TI, its
  ablation arms, the three grid baselines) load with this package; add
  your own with :func:`register_compiler`.

:func:`repro.compile` (defined in :mod:`repro.pipeline.facade`) is the
one-call front door over both.
"""

from .context import CompileContext, CompileResult
from .passes import (
    Pass,
    PassPipeline,
    PipelineError,
    SabrePlacementPass,
    SchedulingPass,
    TrivialPlacementPass,
    ValidateNativePass,
    build_muss_ti_pipeline,
)
from .registry import (
    CompilerEntry,
    CompilerRegistry,
    available_compilers,
    coerce_option_value,
    default_registry,
    format_compiler_spec,
    parse_compiler_spec,
    parse_option_assignments,
    register_compiler,
    resolve_compiler,
)

# Populate the default registry with the paper's compilers.
from . import builtins as _builtins  # noqa: E402,F401
from .builtins import MUSS_TI_OPTIONS
from .facade import compile  # noqa: E402,A004

__all__ = [
    "CompileContext",
    "CompileResult",
    "CompilerEntry",
    "CompilerRegistry",
    "MUSS_TI_OPTIONS",
    "Pass",
    "PassPipeline",
    "PipelineError",
    "SabrePlacementPass",
    "SchedulingPass",
    "TrivialPlacementPass",
    "ValidateNativePass",
    "available_compilers",
    "build_muss_ti_pipeline",
    "coerce_option_value",
    "compile",
    "default_registry",
    "format_compiler_spec",
    "parse_compiler_spec",
    "parse_option_assignments",
    "register_compiler",
    "resolve_compiler",
]
