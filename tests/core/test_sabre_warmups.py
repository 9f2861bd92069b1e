"""SABRE's two warm-ups, as compiles and as bare engine calls.

``sabre_placement`` runs each warm-up as one public
:meth:`MussTiCompiler.compile` with SABRE off: perfbench's sensitivity
test slows exactly that call and its traced split times it as the SABRE
layer.  Two :func:`repro.core.arraycore.schedule` calls (the circuit
forward from the trivial placement, then the reversed circuit from that
final placement) must give the same placement, key order included, so
the warm-ups can skip the pipeline and the ``Program`` once perfbench
times the engine instead.
"""

from __future__ import annotations

import pytest
from faulted import machine_for

from repro.core import MussTiCompiler, MussTiConfig, sabre_placement, trivial_placement
from repro.core.arraycore import schedule
from repro.workloads import get_benchmark

#: An EML machine (fiber gates, SWAP insertion), a grid, and an EML
#: machine with two dead storage zones.
CELLS = (
    ("QFT_n32", "eml?module_limit=16&modules=2"),
    ("QAOA_n32", "grid:2x3:8"),
    ("QFT_n32", "eml?capacity=4&modules=4|dead-zones-2"),
)
CONFIGS = {"default": MussTiConfig(), "full": MussTiConfig.full()}


def engine_placement(circuit, machine, config):
    """The two warm-ups as bare array-core schedules."""
    forward = schedule(circuit, machine, trivial_placement(circuit, machine), config)
    backward = schedule(circuit.reversed(), machine, forward.final_placement(), config)
    return backward.final_placement()


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize(("app", "machine_label"), CELLS)
def test_warmups_are_two_compiles_that_match_the_engine(
    monkeypatch, app, machine_label, config_name
):
    circuit = get_benchmark(app)
    machine = machine_for(machine_label, circuit)
    config = CONFIGS[config_name]
    expected = engine_placement(circuit, machine, config)

    calls = []
    compile_ = MussTiCompiler.compile

    def counting_compile(self, *args, **kwargs):
        calls.append(self.config.use_sabre_mapping)
        return compile_(self, *args, **kwargs)

    monkeypatch.setattr(MussTiCompiler, "compile", counting_compile)
    placement = sabre_placement(circuit, machine, config)

    assert calls == [False, False]
    assert list(placement.items()) == list(expected.items())
