"""Command-line interface tests."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.hardware import EMLQCCDMachine, QCCDGridMachine, machine_from_spec


class TestParseMachine:
    def test_grid_spec(self):
        machine = machine_from_spec("grid:3x4:16", num_qubits=100)
        assert isinstance(machine, QCCDGridMachine)
        assert (machine.rows, machine.columns, machine.trap_capacity) == (3, 4, 16)

    def test_eml_default(self):
        machine = machine_from_spec("eml", num_qubits=64)
        assert isinstance(machine, EMLQCCDMachine)
        assert machine.num_modules == 2
        assert machine.trap_capacity == 16

    def test_eml_with_capacity_and_optical(self):
        machine = machine_from_spec("eml:12:2", num_qubits=32)
        assert machine.trap_capacity == 12
        assert len(machine.optical_zones(0)) == 2

    def test_bad_specs(self):
        with pytest.raises(ValueError, match="unknown machine"):
            machine_from_spec("mesh:2x2", 8)
        with pytest.raises(ValueError, match="grid spec"):
            machine_from_spec("grid:2x2", 8)


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Adder_n32" in out
        assert "SQRT_n299" in out

    def test_compile_grid(self, capsys):
        assert main(["compile", "GHZ_n16", "--machine", "grid:2x2:8"]) == 0
        out = capsys.readouterr().out
        assert "GHZ_n16 via MUSS-TI" in out

    def test_compile_with_baseline(self, capsys):
        code = main(
            ["compile", "GHZ_n16", "--machine", "grid:2x2:8", "--compiler", "murali"]
        )
        assert code == 0
        assert "QCCD-Murali" in capsys.readouterr().out

    def test_compile_with_perfect_params(self, capsys):
        code = main(
            [
                "compile",
                "GHZ_n16",
                "--machine",
                "grid:2x2:8",
                "--physics",
                "perfect-shuttle",
            ]
        )
        assert code == 0

    def test_params_alias_is_gone(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["compile", "GHZ_n16", "--params", "perfect-shuttle"])
        assert raised.value.code == 2
        assert "--params" in capsys.readouterr().err

    def test_compile_timeline(self, capsys):
        code = main(["compile", "GHZ_n16", "--machine", "grid:2x2:8", "--timeline"])
        assert code == 0
        assert "legend" in capsys.readouterr().out

    def test_compile_breakdown(self, capsys):
        code = main(
            ["compile", "GHZ_n16", "--machine", "grid:2x2:8", "--breakdown"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fidelity loss by channel" in out
        assert "background_heat" in out

    def test_compile_trace(self, capsys, tmp_path):
        trace = tmp_path / "out.json"
        code = main(
            ["compile", "GHZ_n16", "--machine", "grid:2x2:8", "--trace", str(trace)]
        )
        assert code == 0
        assert trace.exists()

    def test_compare(self, capsys):
        code = main(["compare", "GHZ_n32", "--grid", "grid:2x2:12"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MUSS-TI" in out and "QCCD-MQT" in out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestCompilerSpecs:
    def test_compile_with_spec_options(self, capsys):
        code = main(
            [
                "compile",
                "GHZ_n16",
                "--machine",
                "grid:2x2:8",
                "--compiler",
                "muss-ti?lookahead_k=4",
            ]
        )
        assert code == 0
        assert "GHZ_n16 via MUSS-TI" in capsys.readouterr().out

    def test_compile_with_set_overrides(self, capsys):
        code = main(
            [
                "compile",
                "GHZ_n16",
                "--machine",
                "grid:2x2:8",
                "--set",
                "lookahead_k=4",
                "--set",
                "use_lru=false",
            ]
        )
        assert code == 0
        assert "GHZ_n16 via MUSS-TI" in capsys.readouterr().out

    def test_unknown_compiler_lists_registry(self, capsys):
        code = main(
            ["compile", "GHZ_n16", "--machine", "grid:2x2:8", "--compiler", "nope"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown compiler 'nope'" in err
        assert "muss-ti" in err  # the registry names the alternatives

    def test_unknown_option_is_clean_error(self, capsys):
        code = main(
            [
                "compile",
                "GHZ_n16",
                "--machine",
                "grid:2x2:8",
                "--set",
                "bogus_knob=1",
            ]
        )
        assert code == 2
        assert "unknown option" in capsys.readouterr().err

    def test_bad_machine_spec_is_clean_error(self, capsys):
        code = main(["compile", "GHZ_n16", "--machine", "grid:2x2"])
        assert code == 2
        assert "grid spec" in capsys.readouterr().err

    def test_oversized_qft_is_clean_error(self, capsys):
        assert main(["compile", "QFT_n2048"]) == 2
        assert "at most 1024 qubits" in capsys.readouterr().err

    def test_unknown_workload_family_is_clean_error(self, capsys):
        assert main(["compile", "Nope_n8"]) == 2
        assert "unknown benchmark family" in capsys.readouterr().err

    def test_malformed_set_is_clean_error(self, capsys):
        code = main(
            ["compile", "GHZ_n16", "--machine", "grid:2x2:8", "--set", "oops"]
        )
        assert code == 2
        assert "key=value" in capsys.readouterr().err

    def test_compile_help_lists_registered_compilers(self, capsys):
        with pytest.raises(SystemExit):
            main(["compile", "--help"])
        out = capsys.readouterr().out
        for name in ("muss-ti", "murali", "dai", "mqt", "trivial"):
            assert name in out

    def test_bench_sweep_accepts_spec_compiler(self, capsys, tmp_path):
        code = main(
            [
                "bench",
                "sweep",
                "-w",
                "GHZ_n16",
                "-m",
                "grid:2x2:8",
                "-c",
                "muss-ti?lookahead_k=4",
                "--jobs",
                "1",
                "--no-cache",
                "--quiet",
            ]
        )
        assert code == 0
        assert "MUSS-TI" in capsys.readouterr().out

    def test_bench_sweep_rejects_bad_machine_spec(self, capsys):
        code = main(
            [
                "bench",
                "sweep",
                "-w",
                "GHZ_n16",
                "-m",
                "grid:2x2",  # missing capacity
                "--no-cache",
                "--quiet",
            ]
        )
        assert code == 2
        assert "grid spec" in capsys.readouterr().err

    def test_bench_sweep_rejects_unknown_machine(self, capsys):
        code = main(
            [
                "bench",
                "sweep",
                "-w",
                "GHZ_n16",
                "-m",
                "mesh:2x2",
                "--no-cache",
                "--quiet",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown machine 'mesh'" in err
        assert "eml" in err  # the registry names the alternatives

    def test_bench_sweep_rejects_unknown_compiler(self, capsys):
        code = main(
            [
                "bench",
                "sweep",
                "-w",
                "GHZ_n16",
                "-c",
                "nope",
                "--no-cache",
                "--quiet",
            ]
        )
        assert code == 2
        assert "unknown compiler" in capsys.readouterr().err


class TestMachineSpecs:
    def test_compile_on_ring(self, capsys):
        code = main(["compile", "GHZ_n16", "--machine", "ring:8:16"])
        assert code == 0
        assert "GHZ_n16 via MUSS-TI" in capsys.readouterr().out

    def test_compile_on_file_spec(self, capsys, tmp_path):
        path = tmp_path / "arch.json"
        path.write_text('{"kind": "eml", "options": {"modules": 2}}')
        code = main(["compile", "GHZ_n32", "--machine", f"file:{path}"])
        assert code == 0
        assert "GHZ_n32 via MUSS-TI" in capsys.readouterr().out

    def test_unknown_machine_lists_registry(self, capsys):
        code = main(["compile", "GHZ_n16", "--machine", "mesh:2x2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown machine 'mesh'" in err
        assert "grid" in err and "ring" in err

    def test_zero_capacity_is_parse_time_error(self, capsys):
        code = main(["compile", "GHZ_n16", "--machine", "grid:2x2:0"])
        assert code == 2
        assert "capacity" in capsys.readouterr().err

    def test_compile_help_lists_registered_machines(self, capsys):
        with pytest.raises(SystemExit):
            main(["compile", "--help"])
        out = capsys.readouterr().out
        for name in ("grid", "eml", "ring", "star", "chain"):
            assert name in out


class TestMachineCommands:
    def test_machine_list(self, capsys):
        assert main(["machine", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("grid", "eml", "ring", "star", "chain"):
            assert name in out
        assert "families: eml, grid" in out

    def test_machine_show(self, capsys):
        assert main(["machine", "show", "eml"]) == 0
        out = capsys.readouterr().out
        assert "canonical : eml" in out
        assert "built     : eml?modules=1" in out

    def test_machine_show_star(self, capsys):
        assert main(["machine", "show", "star:1+6:16", "--qubits", "64"]) == 0
        out = capsys.readouterr().out
        assert "canonical : star:1+6" in out
        assert "7 module(s)" in out

    def test_machine_render_grid(self, capsys):
        assert main(["machine", "render", "grid:2x3:8"]) == 0
        out = capsys.readouterr().out
        assert "[z0 op/8]" in out
        assert "4-neighbour" in out

    def test_machine_render_eml(self, capsys):
        assert main(["machine", "render", "eml?modules=2"]) == 0
        out = capsys.readouterr().out
        assert "module 0" in out and "module 1" in out
        assert "fiber" in out

    def test_machine_show_bad_spec_is_clean_error(self, capsys):
        assert main(["machine", "show", "grid:2x2:0"]) == 2
        assert "capacity" in capsys.readouterr().err

    def test_machine_show_missing_file_is_clean_error(self, capsys):
        assert main(["machine", "show", "file:/does/not/exist.json"]) == 2
        assert "cannot read machine file" in capsys.readouterr().err


class TestPhysicsFlag:
    def test_compile_with_physics_profile(self, capsys):
        code = main(
            ["compile", "GHZ_n16", "--machine", "grid:2x2:8", "--physics", "perfect-shuttle"]
        )
        assert code == 0
        assert "GHZ_n16 via MUSS-TI" in capsys.readouterr().out

    def test_physics_override_changes_the_report(self, capsys):
        main(["compile", "GHZ_n16", "--machine", "grid:2x2:8"])
        base = capsys.readouterr().out
        main(
            [
                "compile",
                "GHZ_n16",
                "--machine",
                "grid:2x2:8",
                "--physics",
                "table1?heating_rate=0.5",
            ]
        )
        heated = capsys.readouterr().out
        line = next(l for l in base.splitlines() if "fidelity" in l)
        heated_line = next(l for l in heated.splitlines() if "fidelity" in l)
        assert line != heated_line

    def test_unknown_physics_profile_is_clean_error(self, capsys):
        code = main(
            ["compile", "GHZ_n16", "--machine", "grid:2x2:8", "--physics", "nope"]
        )
        assert code == 2
        assert "unknown physics profile" in capsys.readouterr().err

    def test_bad_physics_option_is_clean_error(self, capsys):
        code = main(
            [
                "compile",
                "GHZ_n16",
                "--machine",
                "grid:2x2:8",
                "--physics",
                "table1?split_time_us=-1",
            ]
        )
        assert code == 2
        assert "split_time_us" in capsys.readouterr().err

    def test_compare_accepts_physics(self, capsys):
        assert main(["compare", "GHZ_n16", "--physics", "perfect-gate"]) == 0
        assert "MUSS-TI" in capsys.readouterr().out

    def test_compile_help_lists_physics_profiles(self, capsys):
        import pytest

        with pytest.raises(SystemExit):
            main(["compile", "--help"])
        out = capsys.readouterr().out
        assert "--physics" in out
        for name in ("table1", "perfect-gate", "perfect-shuttle"):
            assert name in out


class TestCompileJson:
    def test_json_report_round_trips(self, capsys):
        import json as jsonlib

        from repro.sim import ExecutionReport

        code = main(["compile", "GHZ_n16", "--machine", "grid:2x2:8", "--json"])
        assert code == 0
        payload = jsonlib.loads(capsys.readouterr().out)
        report = ExecutionReport.from_dict(payload)
        assert report.circuit_name == "GHZ_n16"
        assert report.compiler_name == "MUSS-TI"

    def test_json_rejects_display_flags(self, capsys):
        code = main(
            ["compile", "GHZ_n16", "--machine", "grid:2x2:8", "--json", "--breakdown"]
        )
        assert code == 2
        assert "--json" in capsys.readouterr().err

    def test_json_respects_physics(self, capsys):
        import json as jsonlib

        main(["compile", "GHZ_n16", "--machine", "grid:2x2:8", "--json"])
        base = jsonlib.loads(capsys.readouterr().out)
        main(
            [
                "compile",
                "GHZ_n16",
                "--machine",
                "grid:2x2:8",
                "--json",
                "--physics",
                "table1?heating_rate=0.5",
            ]
        )
        heated = jsonlib.loads(capsys.readouterr().out)
        assert heated["log10_fidelity"] < base["log10_fidelity"]


class TestTraceCommand:
    def test_trace_prints_timeline(self, capsys):
        assert main(["trace", "GHZ_n16", "grid:2x2:8"]) == 0
        out = capsys.readouterr().out
        assert "timeline: GHZ_n16 via MUSS-TI" in out
        assert "legend" in out

    def test_trace_width(self, capsys):
        assert main(["trace", "GHZ_n16", "grid:2x2:8", "--width", "40"]) == 0
        lane = capsys.readouterr().out.splitlines()[1]
        assert len(lane.split("|")[1]) == 40

    def test_trace_writes_json(self, capsys, tmp_path):
        import json as jsonlib

        out_path = tmp_path / "trace.json"
        code = main(["trace", "GHZ_n16", "grid:2x2:8", "--output", str(out_path)])
        assert code == 0
        payload = jsonlib.loads(out_path.read_text())
        assert payload["circuit"] == "GHZ_n16"
        assert payload["operations"]

    def test_trace_bad_machine_is_clean_error(self, capsys):
        assert main(["trace", "GHZ_n16", "grid:nope"]) == 2
        assert "error" in capsys.readouterr().err
