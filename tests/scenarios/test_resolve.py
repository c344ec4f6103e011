"""Dotted-override resolution: the one path from wire keys to typed
settings/config objects, failing identically everywhere."""

import pytest

from repro.dram.timing import TemperatureMode
from repro.experiments.runner import ExperimentSettings
from repro.scenarios.resolve import (
    apply_settings,
    config_for,
    known_override_keys,
    materialize_config,
    parse_value,
    split_overrides,
)
from repro.scenarios.spec import ScenarioError
from repro.transform.codec import StageSelection


class TestSplitOverrides:
    def test_routes_keys_to_their_layer(self):
        settings_map, config_map = split_overrides({
            "memory_mb": 16,
            "temperature": "NORMAL",
            "row_bytes": 4096,
            "stages.rotation": False,
            "stages.ebdi": True,
        })
        assert settings_map == {"memory_mb": 16, "temperature": "NORMAL"}
        assert config_map == {
            "row_bytes": 4096,
            "stages": {"rotation": False, "ebdi": True},
        }

    def test_unknown_key_lists_everything_accepted(self):
        with pytest.raises(ScenarioError) as err:
            split_overrides({"rotation": False})
        message = str(err.value)
        for key in known_override_keys():
            assert key in message

    def test_stage_flags_must_be_boolean(self):
        with pytest.raises(ScenarioError, match="must be a boolean"):
            split_overrides({"stages.rotation": "false"})

    def test_unknown_stage_flag_lists_stage_keys(self):
        with pytest.raises(ScenarioError, match="stages.rotation"):
            split_overrides({"stages.warp": True})

    def test_empty_mapping_splits_to_empty_maps(self):
        assert split_overrides(None) == ({}, {})
        assert split_overrides({}) == ({}, {})


class TestApplySettings:
    def test_memory_mb_and_temperature_resolve(self):
        settings = ExperimentSettings()
        out = apply_settings(settings, {
            "memory_mb": 8, "temperature": "normal", "windows": 3,
        })
        assert out.memory_bytes == 8 << 20
        assert out.temperature is TemperatureMode.NORMAL
        assert out.windows == 3

    def test_benchmarks_coerce_to_string_tuple(self):
        out = apply_settings(ExperimentSettings(), {"benchmarks": "mcf"})
        assert out.benchmarks == ("mcf",)
        out = apply_settings(ExperimentSettings(),
                             {"benchmarks": ["mcf", "bzip2"]})
        assert out.benchmarks == ("mcf", "bzip2")

    def test_unknown_benchmark_rejected_listing_known_names(self):
        with pytest.raises(ScenarioError, match="unknown benchmark 'nope'") \
                as err:
            apply_settings(ExperimentSettings(), {"benchmarks": ["nope"]})
        assert "mcf" in str(err.value)

    def test_settings_from_dict_shares_the_parser(self):
        import repro.api as api

        assert api.settings_from_dict({"benchmarks": "mcf"}).benchmarks \
            == ("mcf",)
        quick = api.settings_from_dict({"windows": 1}, quick=True)
        assert quick == ExperimentSettings.quick(windows=1)

    def test_empty_map_returns_settings_untouched(self):
        settings = ExperimentSettings()
        assert apply_settings(settings, {}) is settings
        assert apply_settings(settings, None) is settings

    def test_both_memory_forms_rejected(self):
        with pytest.raises(ScenarioError, match="not both"):
            apply_settings(ExperimentSettings(),
                           {"memory_mb": 8, "memory_bytes": 1})

    def test_unknown_field_rejected(self):
        with pytest.raises(ScenarioError, match="unknown settings field"):
            apply_settings(ExperimentSettings(), {"wat": 1})

    @pytest.mark.parametrize("overrides,field", [
        ({"windows": -1}, "windows"),
        ({"windows": 0}, "windows"),
        ({"windows": 1.5}, "windows"),
        ({"windows": True}, "windows"),
        ({"seed": None}, "seed"),
        ({"seed": "7"}, "seed"),
        ({"memory_mb": 0}, "memory_bytes"),
        ({"memory_mb": -4}, "memory_bytes"),
        ({"memory_mb": None}, "memory_mb"),
        ({"memory_mb": 1, "rows_per_ar": 128}, "rows_per_ar"),
        ({"rows_per_ar": 0}, "rows_per_ar"),
        ({"rows_per_ar": 3}, "rows_per_ar"),
        ({"rows_per_ar": None}, "rows_per_ar"),
        ({"memory_bytes": "16"}, "memory_bytes"),
        ({"benchmarks": []}, "benchmarks"),
        ({"benchmarks": 5}, "benchmarks"),
    ])
    def test_value_no_run_can_use_rejected_naming_the_field(self, overrides,
                                                            field):
        with pytest.raises(ValueError, match=field):
            ExperimentSettings.from_dict(overrides, quick=True)


class TestTemperatureParsing:
    """Satellite contract: a bad temperature raises ValueError naming
    every valid TemperatureMode, on every entry path."""

    @pytest.mark.parametrize("raw,expected", [
        ("NORMAL", TemperatureMode.NORMAL),
        ("normal", TemperatureMode.NORMAL),
        ("Extended", TemperatureMode.EXTENDED),
        (TemperatureMode.EXTENDED, TemperatureMode.EXTENDED),
    ])
    def test_parse_accepts_names_case_insensitively(self, raw, expected):
        assert TemperatureMode.parse(raw) is expected

    def test_parse_error_lists_valid_modes(self):
        with pytest.raises(ValueError) as err:
            TemperatureMode.parse("tropical")
        message = str(err.value)
        assert "NORMAL" in message and "EXTENDED" in message
        assert "tropical" in message

    def test_settings_from_dict_surfaces_the_same_error(self):
        with pytest.raises(ValueError) as err:
            ExperimentSettings.from_dict({"temperature": "tropical"})
        assert "NORMAL" in str(err.value) and "EXTENDED" in str(err.value)

    def test_scenario_override_path_surfaces_the_same_error(self):
        with pytest.raises(ValueError) as err:
            apply_settings(ExperimentSettings(), {"temperature": "lukewarm"})
        assert "NORMAL" in str(err.value) and "EXTENDED" in str(err.value)

    @pytest.mark.parametrize("raw", ["NORMAL", None])
    def test_settings_reject_a_temperature_that_is_not_a_mode(self, raw):
        # the wire parser maps names through TemperatureMode.parse; a
        # library caller passing the name itself is refused, not coerced
        with pytest.raises(ValueError, match="temperature") as err:
            ExperimentSettings.quick(temperature=raw)
        assert "NORMAL" in str(err.value) and "EXTENDED" in str(err.value)


class TestMaterializeConfig:
    def test_empty_map_materialises_to_none(self):
        # None (not {}) keeps expanded jobs digest-identical to
        # hand-written jobs that passed config_overrides=None
        assert materialize_config({}) is None
        assert materialize_config(None) is None

    def test_stages_mapping_becomes_stage_selection(self):
        out = materialize_config({"stages": {"rotation": False}})
        assert out["stages"] == StageSelection(rotation=False)
        # unnamed flags keep their all-on defaults
        assert out["stages"].ebdi is True

    def test_cleanse_policy_string_resolves_to_enum(self):
        from repro.osmodel.pages import CleansePolicy

        out = materialize_config({"cleanse_policy": "none"})
        assert isinstance(out["cleanse_policy"], CleansePolicy)

    def test_bad_cleanse_policy_lists_choices(self):
        with pytest.raises(ScenarioError, match="cleanse_policy"):
            materialize_config({"cleanse_policy": "sometimes"})

    def test_bad_stages_value_rejected(self):
        with pytest.raises(ScenarioError, match="stages"):
            materialize_config({"stages": "all"})


class TestConfigFor:
    """Satellite contract: capacity-sweep points build SystemConfig
    through one blessed path instead of copy-pasted scaled() calls."""

    def test_matches_settings_config(self):
        settings = ExperimentSettings(memory_bytes=8 << 20, rows_per_ar=32)
        assert config_for(settings) == settings.config()

    def test_explicit_memory_rescales_geometry(self):
        settings = ExperimentSettings(memory_bytes=8 << 20, rows_per_ar=32)
        config = config_for(settings, memory_bytes=4 << 20)
        assert config == ExperimentSettings(
            memory_bytes=4 << 20, rows_per_ar=32).config()

    def test_config_overrides_thread_through(self):
        settings = ExperimentSettings(memory_bytes=8 << 20, rows_per_ar=32)
        config = config_for(settings, refresh_mode="conventional")
        assert config.refresh_mode == "conventional"

    def test_fig19_and_ext_hybrid_use_it(self):
        import inspect

        from repro.experiments import ext_hybrid, fig19

        assert "config_for" in inspect.getsource(fig19.capacity_point)
        assert "config_for" in inspect.getsource(ext_hybrid.capacity_point)


class TestParseValue:
    @pytest.mark.parametrize("text,expected", [
        ("true", True),
        ("False", False),
        ("null", None),
        ("16", 16),
        ("0.25", 0.25),
        ("NORMAL", "NORMAL"),
        (" mcf ", "mcf"),
    ])
    def test_scalar_parsing(self, text, expected):
        assert parse_value(text) == expected
