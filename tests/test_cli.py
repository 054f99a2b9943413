"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.logic.pla_format import parse_pla

PLA_TEXT = """\
.i 4
.o 2
.ilb a b c d
.ob f g
10-- 10
-11- 11
0--1 01
1111 10
.e
"""


@pytest.fixture
def pla_file(tmp_path):
    path = tmp_path / "demo.pla"
    path.write_text(PLA_TEXT)
    return str(path)


class TestInfo:
    def test_prints_stats(self, pla_file, capsys):
        assert main(["info", pla_file]) == 0
        out = capsys.readouterr().out
        assert "inputs    4" in out
        assert "outputs   2" in out
        assert "products  4" in out

    def test_missing_file(self, capsys):
        assert main(["info", "/nonexistent.pla"]) == 2
        assert "error" in capsys.readouterr().err


class TestMinimize:
    def test_stdout_is_valid_pla(self, pla_file, capsys):
        assert main(["minimize", pla_file]) == 0
        out = capsys.readouterr().out
        minimized = parse_pla(out)
        original = parse_pla(PLA_TEXT)
        assert minimized.on_set.truth_table() == \
            original.on_set.truth_table()

    def test_output_file(self, pla_file, tmp_path, capsys):
        out_path = tmp_path / "min.pla"
        assert main(["minimize", pla_file, "-o", str(out_path)]) == 0
        assert out_path.exists()
        assert "wrote" in capsys.readouterr().err

    def test_phase_mode(self, pla_file, capsys):
        assert main(["minimize", pla_file, "--phase"]) == 0
        captured = capsys.readouterr()
        assert "phases:" in captured.err


class TestArea:
    def test_three_technologies(self, pla_file, capsys):
        assert main(["area", pla_file]) == 0
        out = capsys.readouterr().out
        for name in ("Flash", "EEPROM", "CNFET"):
            assert name in out

    def test_minimize_flag_shrinks(self, pla_file, capsys):
        main(["area", pla_file])
        raw = capsys.readouterr().out
        main(["area", pla_file, "--minimize"])
        minimized = capsys.readouterr().out
        assert "P=4" in raw and "P=3" in minimized


class TestSimulate:
    def test_vectors(self, pla_file, capsys):
        assert main(["simulate", pla_file, "1000", "0110"]) == 0
        out = capsys.readouterr().out
        assert "1000 -> 10" in out
        assert "0110 -> 11" in out

    def test_bad_vector_rejected(self, pla_file, capsys):
        assert main(["simulate", pla_file, "10"]) == 2
        assert "bad vector" in capsys.readouterr().err


class TestMap:
    def test_bitstream_roundtrip(self, pla_file, tmp_path, capsys):
        out_path = tmp_path / "demo.bit"
        assert main(["map", pla_file, "-o", str(out_path)]) == 0
        from repro.fpga.bitstream import program_pla_from_bitstream
        pla, reports = program_pla_from_bitstream(out_path.read_bytes())
        assert all(r.verified for r in reports)
        original = parse_pla(PLA_TEXT)
        assert pla.truth_table() == original.on_set.truth_table()


class TestTables:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "34 960" in out and "102 960" in out

    def test_table2_small(self, capsys):
        assert main(["table2", "--grid", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Occupied area" in out
        assert "frequency gain" in out


KISS_TEXT = """\
.i 1
.o 1
.s 2
.r off
1 off on 1
0 off off 0
1 on on 0
0 on off 0
.e
"""


@pytest.fixture
def kiss_file(tmp_path):
    path = tmp_path / "toggle.kiss"
    path.write_text(KISS_TEXT)
    return str(path)


class TestFsmCommand:
    def test_synthesis_stats(self, kiss_file, capsys):
        assert main(["fsm", kiss_file]) == 0
        out = capsys.readouterr().out
        assert "states            2" in out
        assert "encoding          binary" in out

    def test_encoding_choice(self, kiss_file, capsys):
        assert main(["fsm", kiss_file, "--encoding", "one-hot"]) == 0
        assert "one-hot" in capsys.readouterr().out

    def test_logic_export_is_valid_pla(self, kiss_file, tmp_path, capsys):
        out_path = tmp_path / "logic.pla"
        assert main(["fsm", kiss_file, "-o", str(out_path)]) == 0
        logic = parse_pla(out_path.read_text())
        # 1 fsm input + 1 state bit in; 1 state bit + 1 output out
        assert logic.n_inputs == 2 and logic.n_outputs == 2


class TestCacheCommand:
    def test_stats_on_empty_store(self, tmp_path, capsys):
        assert main(["cache", "stats", "--dir", str(tmp_path / "s")]) == 0
        out = capsys.readouterr().out
        assert "entries" in out

    def test_minimize_populates_store(self, pla_file, capsys):
        assert main(["minimize", pla_file]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "kind: minimize" in out
        assert main(["cache", "ls"]) == 0
        assert "minimize" in capsys.readouterr().out

    def test_verify_and_clear(self, pla_file, capsys):
        assert main(["minimize", pla_file]) == 0
        assert main(["cache", "verify"]) == 0
        assert main(["cache", "clear"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert any(line.split() == ["entries", "0"]
                   for line in out.splitlines())

    def test_verify_flags_corruption(self, pla_file, tmp_path, capsys):
        import json
        assert main(["minimize", pla_file]) == 0
        from repro.store import ArtifactStore, default_root
        store = ArtifactStore(default_root())
        key = store.entries()[0]["key"]
        with open(store.object_path(key), "w") as handle:
            handle.write("garbage")
        report = tmp_path / "verify.json"
        assert main(["cache", "verify", "--json", str(report)]) == 1
        assert json.loads(report.read_text())["corrupt"] == 1

    def test_stats_json_to_stdout(self, pla_file, capsys):
        import json
        assert main(["minimize", pla_file]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] >= 1
        assert "minimize" in stats["kinds"]
        for field in ("root", "bytes", "quarantined", "disk_capacity"):
            assert field in stats

    def test_stats_json_to_file(self, pla_file, tmp_path, capsys):
        import json
        assert main(["minimize", pla_file]) == 0
        out_path = tmp_path / "stats.json"
        assert main(["cache", "stats", "--json", str(out_path)]) == 0
        stats = json.loads(out_path.read_text())
        assert stats["entries"] >= 1
        assert stats["kinds"]["minimize"]["entries"] >= 1

    def test_minimize_warm_output_identical(self, pla_file, capsys):
        assert main(["minimize", pla_file]) == 0
        cold = capsys.readouterr().out
        assert main(["minimize", pla_file]) == 0
        warm = capsys.readouterr().out
        assert cold == warm


class TestAtpgCommand:
    def test_stats_and_vector_file(self, pla_file, tmp_path, capsys):
        out_path = tmp_path / "tests.txt"
        assert main(["atpg", pla_file, "--minimize",
                     "-o", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "coverage" in out
        vectors = out_path.read_text().splitlines()
        assert vectors
        assert all(len(v) == 4 and set(v) <= {"0", "1"} for v in vectors)


class TestBadInput:
    """Bad settings exit 2 with an ``error:`` line, before any work."""

    @pytest.mark.parametrize("argv", [
        ["yield", "--benchmark", "max46", "--samples", "0"],
        ["yield", "--benchmark", "max46", "--p-stuck-off", "2.0"],
        ["yield", "--benchmark", "max46", "--spare-rows", "-1"],
        ["yield", "--benchmark", "max46", "--rate", "1.5"],
        ["yield", "--benchmark", "max46", "--p-stuck-on", "-0.0005"],
        ["yield", "--benchmark", "nope"],
        ["characterize", "--benchmark", "syn_small", "--yield-samples", "0"],
        ["characterize", "--benchmark", "syn_small", "--spares=-1,0"],
        ["characterize", "--benchmark", "syn_small", "--tech", "nope"],
        ["workload", "eval", "add2", "--words", "0"],
        ["workload", "curve", "add2", "--samples", "0"],
    ])
    def test_exits_2_with_error_line(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
