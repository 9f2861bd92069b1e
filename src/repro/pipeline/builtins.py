"""Built-in registrations: the paper's four systems plus the ablation arms.

Importing :mod:`repro.pipeline` (or :mod:`repro`) loads this module, so the
default registry always knows the compilers the paper compares:

* ``murali`` / ``dai`` / ``mqt`` — the grid baselines (§4), Table 2 columns
  1-3, evaluated on monolithic QCCD grids.
* ``muss-ti`` — the full pipeline (SABRE + SWAP insertion), Table 2
  column 4, evaluated on EML-QCCD machines.
* ``trivial`` / ``sabre`` / ``swap-insert`` — the Fig 8 ablation arms,
  i.e. MUSS-TI pipelines with the placement pass swapped and/or SWAP
  insertion switched off.

Every MUSS-TI-family entry accepts the :class:`~repro.core.config.
MussTiConfig` fields as spec options, e.g. ``muss-ti?lookahead_k=4`` or
``trivial?use_lru=false``.
"""

from __future__ import annotations

from dataclasses import fields, replace
from typing import Any, Callable

from ..baselines import DaiCompiler, MqtLikeCompiler, MuraliCompiler
from ..core import MussTiCompiler, MussTiConfig
from .registry import register_compiler

#: Every MussTiConfig field doubles as a spec option.
MUSS_TI_OPTIONS = tuple(field.name for field in fields(MussTiConfig))


def _muss_ti_family(
    base: Callable[[], MussTiConfig],
) -> Callable[..., MussTiCompiler]:
    """Factory over a config arm; spec options override individual fields."""

    def factory(**options: Any) -> MussTiCompiler:
        return MussTiCompiler(replace(base(), **options))

    return factory


register_compiler(
    "muss-ti",
    summary="full MUSS-TI: SABRE mapping + multi-level routing + SWAP insertion",
    machine_family="eml",
    options=MUSS_TI_OPTIONS,
    paper_order=3,
)(_muss_ti_family(MussTiConfig.full))

register_compiler(
    "trivial",
    summary="MUSS-TI ablation arm: trivial mapping, no SWAP insertion",
    machine_family="eml",
    options=MUSS_TI_OPTIONS,
)(_muss_ti_family(MussTiConfig.trivial))

register_compiler(
    "sabre",
    summary="MUSS-TI ablation arm: SABRE mapping only",
    machine_family="eml",
    options=MUSS_TI_OPTIONS,
)(_muss_ti_family(MussTiConfig.sabre_only))

register_compiler(
    "swap-insert",
    summary="MUSS-TI ablation arm: SWAP insertion only",
    machine_family="eml",
    options=MUSS_TI_OPTIONS,
)(_muss_ti_family(MussTiConfig.swap_insert_only))


@register_compiler(
    "murali",
    summary="Murali et al. [55]: greedy shortest-path QCCD compilation",
    machine_family="grid",
    paper_order=0,
)
def _make_murali() -> MuraliCompiler:
    return MuraliCompiler()


@register_compiler(
    "dai",
    summary="Dai et al. [13]: cost/look-ahead shuttle strategies",
    machine_family="grid",
    options=("lookahead",),
    paper_order=1,
)
def _make_dai(**options: Any) -> DaiCompiler:
    return DaiCompiler(**options)


@register_compiler(
    "mqt",
    summary="MQT IonShuttler-like [70]: dedicated-processing-zone policy",
    machine_family="grid",
    paper_order=2,
)
def _make_mqt() -> MqtLikeCompiler:
    return MqtLikeCompiler()
