"""Machines named by test labels, shared by the pinning tests.

A label is a machine spec (``eml?capacity=4&modules=4``), ``small:<grid>``
for the paper's small grids, ``eml_for`` for the EML machine the paper
pairs with the circuit, or ``<spec>|<fault profile>`` for a spec under a
named fault profile.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.runs import eml_for, small_grid
from repro.faults import build_fault_profile
from repro.hardware import default_machine_registry, resolve_machine


def with_fault_profile(machine, profile: str):
    """``machine`` rebuilt with the faults of the named profile."""
    faults = build_fault_profile(profile, machine)
    architecture = replace(machine.architecture(), faults=faults)
    return default_machine_registry().from_architecture(architecture)


def machine_for(label: str, circuit):
    """The machine ``label`` names, sized for ``circuit``."""
    if label.startswith("small:"):
        return small_grid(label.removeprefix("small:"))
    if label == "eml_for":
        return eml_for(circuit)
    if "|" in label:
        spec, profile = label.split("|")
        return with_fault_profile(resolve_machine(spec, circuit.num_qubits), profile)
    return resolve_machine(label, circuit.num_qubits)
