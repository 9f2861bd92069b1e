"""Public API surface tests: the README's contract."""

from __future__ import annotations

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_readme_quickstart_names(self):
        # The exact imports shown in README.md / the package docstring.
        from repro import (  # noqa: F401
            EMLQCCDMachine,
            MussTiCompiler,
            execute,
            get_benchmark,
            verify_program,
        )

    def test_all_compilers_importable_at_top_level(self):
        from repro import (
            DaiCompiler,
            MqtLikeCompiler,
            MuraliCompiler,
            MussTiCompiler,
        )

        for compiler_cls in (DaiCompiler, MqtLikeCompiler, MuraliCompiler):
            assert hasattr(compiler_cls, "compile")
        assert MussTiCompiler.name == "MUSS-TI"

    def test_version(self):
        assert repro.__version__ == "1.13.0"

    def test_ledger_and_physics_registry_exports(self):
        from repro import (  # noqa: F401
            EventLedger,
            TimedEvent,
            available_physics,
            price_many,
            replay,
            reprice,
            resolve_physics,
        )

        assert "table1" in available_physics()


class TestQasmFileIO:
    def test_save_and_load(self, tmp_path):
        from repro.circuits import load_qasm, save_qasm
        from repro.workloads import get_benchmark

        circuit = get_benchmark("GHZ_n16")
        path = tmp_path / "ghz.qasm"
        save_qasm(circuit, str(path))
        loaded = load_qasm(str(path))
        assert loaded.gates == circuit.gates
        assert loaded.name == "ghz"  # derived from the file name

    def test_loading_external_style_file(self, tmp_path):
        """A hand-written QASMBench-style file parses cleanly."""
        path = tmp_path / "external.qasm"
        path.write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
            "qreg q[4];\ncreg c[4];\n"
            "h q[0];\ncx q[0],q[1];\nrz(pi/2) q[2];\nccx q[0],q[1],q[3];\n"
            "measure q -> c;\n"
        )
        from repro.circuits import load_qasm, lower_to_native

        circuit = load_qasm(str(path))
        assert circuit.num_qubits == 4
        assert circuit.count_ops()["ccx"] == 1
        lowered = lower_to_native(circuit)
        assert "ccx" not in lowered.count_ops()

    def test_external_file_compiles(self, tmp_path, small_grid_2x2):
        """End-to-end: external QASM -> lower -> MUSS-TI -> verify."""
        from repro import MussTiCompiler, verify_program
        from repro.circuits import load_qasm, lower_to_native

        path = tmp_path / "app.qasm"
        lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', "qreg q[8];"]
        for q in range(7):
            lines.append(f"cx q[{q}],q[{q + 1}];")
        lines.append("ccx q[0],q[3],q[6];")
        path.write_text("\n".join(lines) + "\n")
        circuit = lower_to_native(load_qasm(str(path))).without_non_unitary()
        program = MussTiCompiler().compile(circuit, small_grid_2x2)
        verify_program(program)
