"""Characterization sweeps: datasheets, determinism, caching, CLI."""

from __future__ import annotations

import json

import pytest

from repro.analysis.characterize import (DATASHEET_SCHEMA,
                                         DATASHEET_VERSION,
                                         CharacterizeSettings, characterize)
from repro.analysis.export import (datasheet_json, validate_datasheet,
                                   write_datasheet)
from repro.cli import main
from repro.tech import get_tech

#: Smallest meaningful sweep: one tiny benchmark, two technologies with
#: different column rules, minimal Monte Carlo budgets.
_FAST = dict(benchmark="syn_small", techs=("flash", "cnfet"), seed=7,
             power_vectors=8, variation_trials=10, yield_samples=20,
             spares=((1, 1),))


@pytest.fixture(scope="function")
def sheet():
    return characterize(CharacterizeSettings(**_FAST))


class TestSettings:
    def test_rejects_empty_techs(self):
        with pytest.raises(ValueError, match="technology"):
            CharacterizeSettings(benchmark="syn_small", techs=())

    def test_rejects_zero_budgets(self):
        with pytest.raises(ValueError, match=">= 1"):
            CharacterizeSettings(benchmark="syn_small", power_vectors=0)

    def test_rejects_empty_spares(self):
        with pytest.raises(ValueError, match="spare"):
            CharacterizeSettings(benchmark="syn_small", spares=())

    def test_to_json_is_plain(self):
        data = CharacterizeSettings(**_FAST).to_json()
        assert json.loads(json.dumps(data)) == data
        assert data["techs"] == ["flash", "cnfet"]
        assert data["spares"] == [[1, 1]]


class TestDatasheet:
    def test_shape_and_schema(self, sheet):
        assert sheet["schema"] == DATASHEET_SCHEMA
        assert sheet["version"] == DATASHEET_VERSION
        assert validate_datasheet(sheet) is sheet
        assert len(sheet["technologies"]) == 2
        assert len(sheet["yield"]) == 2  # one spare point per tech
        assert sheet["function"]["name"] == "syn_small"

    def test_digests_match_registry(self, sheet):
        assert sheet["tech_digests"] == [get_tech("flash").digest(),
                                         get_tech("cnfet").digest()]
        for entry, digest in zip(sheet["technologies"],
                                 sheet["tech_digests"]):
            assert entry["tech"]["digest"] == digest

    def test_column_rule_shows_in_area(self, sheet):
        flash, cnfet = sheet["technologies"]
        inputs = sheet["function"]["inputs"]
        assert flash["array"]["input_columns"] == 2 * inputs
        assert cnfet["array"]["input_columns"] == inputs
        assert flash["area"]["cell_l2"] == 40.0
        assert cnfet["area"]["cell_l2"] == 60.0

    def test_physical_sanity(self, sheet):
        for entry in sheet["technologies"]:
            assert entry["area"]["total_l2"] > 0
            assert entry["timing"]["cycle_time_ps"] > 0
            assert entry["power"]["energy_per_cycle_j"] > 0
            assert 0.0 <= entry["variation"]["timing_yield_10pct_slack"] \
                <= 1.0
        for entry in sheet["yield"]:
            report = entry["report"]
            assert 0.0 <= report["repaired_yield"] <= 1.0

    def test_yield_uses_requested_tech(self, sheet):
        assert [entry["tech"] for entry in sheet["yield"]] == \
            ["flash", "cnfet"]


class TestDeterminism:
    def test_serial_parallel_identical(self, sheet):
        again = characterize(CharacterizeSettings(**_FAST), jobs=2)
        assert datasheet_json(again) == datasheet_json(sheet)

    def test_cache_hit_returns_same_document(self, sheet):
        assert characterize(CharacterizeSettings(**_FAST)) == sheet

    def test_tech_order_changes_key_not_models(self):
        flipped = dict(_FAST, techs=("cnfet", "flash"))
        sheet = characterize(CharacterizeSettings(**flipped))
        assert [e["tech"]["name"] for e in sheet["technologies"]] == \
            ["cnfet", "flash"]

    def test_checkpoint_resume(self, tmp_path, sheet):
        ckpt = tmp_path / "sweep.ckpt.jsonl"
        resumed = characterize(CharacterizeSettings(**_FAST),
                               checkpoint=str(ckpt), resume=True)
        assert resumed == sheet


class TestValidation:
    def test_rejects_non_dict(self):
        with pytest.raises(ValueError, match="object"):
            validate_datasheet([])

    def test_rejects_missing_field(self, sheet):
        broken = dict(sheet)
        del broken["function"]
        with pytest.raises(ValueError, match="function"):
            validate_datasheet(broken)

    def test_rejects_wrong_version(self, sheet):
        with pytest.raises(ValueError, match="version"):
            validate_datasheet(dict(sheet, version=99))

    def test_rejects_digest_mismatch(self, sheet):
        broken = dict(sheet, tech_digests=list(sheet["tech_digests"]))
        broken["tech_digests"][0] = "0" * 64
        with pytest.raises(ValueError, match="digest"):
            validate_datasheet(broken)

    def test_rejects_missing_block(self, sheet):
        broken = dict(sheet)
        broken["technologies"] = [dict(sheet["technologies"][0]),
                                  sheet["technologies"][1]]
        del broken["technologies"][0]["power"]
        with pytest.raises(ValueError, match="power"):
            validate_datasheet(broken)

    def test_write_datasheet_canonical(self, tmp_path, sheet):
        a = write_datasheet(tmp_path / "a.json", sheet)
        b = write_datasheet(tmp_path / "b.json", json.loads(a.read_text()))
        assert a.read_bytes() == b.read_bytes()
        validate_datasheet(json.loads(b.read_text()))

    def test_write_datasheet_creates_directory(self, tmp_path, sheet):
        path = write_datasheet(tmp_path / "char-stats" / "sheet.json", sheet)
        validate_datasheet(json.loads(path.read_text()))


class TestCLI:
    def test_characterize_smoke(self, tmp_path, capsys):
        out = tmp_path / "sheet.json"
        code = main(["characterize", "--benchmark", "syn_small",
                     "--tech", "flash", "--tech", "cnfet",
                     "--seed", "7", "--power-vectors", "8",
                     "--variation-trials", "10", "--yield-samples", "20",
                     "--spares", "1,1",
                     "--checkpoint", str(tmp_path / "c.ckpt.jsonl"),
                     "-o", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "flash" in printed and "cnfet" in printed
        validate_datasheet(json.loads(out.read_text()))

    def test_characterize_rejects_unknown_tech(self, capsys):
        assert main(["characterize", "--benchmark", "syn_small",
                     "--tech", "unobtainium"]) != 0
        assert "unknown technology" in capsys.readouterr().err

    def test_characterize_rejects_bad_spares(self, capsys):
        assert main(["characterize", "--benchmark", "syn_small",
                     "--spares", "banana"]) != 0

    def test_tech_ls(self, capsys):
        assert main(["tech", "ls"]) == 0
        out = capsys.readouterr().out
        for name in ("flash", "eeprom", "cnfet"):
            assert name in out

    def test_tech_show_json(self, capsys):
        assert main(["tech", "show", "eeprom", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cell_area_l2"] == 100.0
        assert data["digest"] == get_tech("eeprom").digest()

    def test_tech_show_custom_file(self, tmp_path, capsys):
        path = tmp_path / "fancy.json"
        path.write_text(json.dumps({"cell_area_l2": 15.0,
                                    "dual_input_columns": False}))
        assert main(["tech", "show", str(path)]) == 0
        assert "fancy" in capsys.readouterr().out

    def test_table1_with_extra_tech_column(self, tmp_path, capsys):
        path = tmp_path / "halfcell.json"
        path.write_text(json.dumps({"cell_area_l2": 30.0,
                                    "dual_input_columns": False}))
        assert main(["table1", "--tech", str(path)]) == 0
        out = capsys.readouterr().out
        assert "halfcell" in out
        assert "4 technologies" in out
        # the paper's three columns stay bit-identical
        for figure in ("34 960", "87 400", "27 600"):
            assert figure in out
