import json
import math
import re

import pytest

from flcore.cli import main
from flcore.config import LOCAL_KEYS, build_data, config_to_dict, load_config, parse_config, shared_settings
from flcore.errors import ConfigError


def minimal():
    return {
        "model": {"kind": "softmax", "input_dim": 2, "output_dim": 2},
        "algo": {"kind": "fedavg", "eta": 0.1, "rounds": 2},
        "data": {"source": "synthetic-blobs", "n": 40, "input_dim": 2, "classes": 2},
        "run": {"clients": 2, "seed": 1},
    }


def every_key_set():
    """A config that sets every key of every section away from its default.

    The one exception is rho_max, given as the string "inf" to exercise that form.
    """
    return {
        "model": {"kind": "mlp1", "input_dim": 3, "output_dim": 4, "hidden_dim": 7},
        "algo": {
            "kind": "iceadmm",
            "rho": 3.0,
            "zeta": 1.5,
            "eta": 0.5,
            "beta": 0.5,
            "local_steps": 2,
            "batch_size": 8,
            "rounds": 3,
            "rho_gamma": 1.5,
            "rho_max": "inf",
        },
        "privacy": {"enabled": True, "epsilon_bar": 5.0, "clip": 2.0},
        "data": {
            "source": "csv",
            "n": 50,
            "input_dim": 3,
            "classes": 4,
            "noise": 1.0,
            "seed": 9,
            "partition": "label-shards",
            "shards_per_client": 3,
            "test_fraction": 0.1,
            "path": "x.csv",
            "label_column": 0,
            "has_header": True,
            "images_path": "x.idx",
            "labels_path": "y.idx",
        },
        "run": {"clients": 3, "seed": 5, "eval_every": 2, "timeout_s": 5.0, "out": "m.jsonl"},
    }


# Every float key, found from the echo of the defaults: (section, key).
FLOAT_KEYS = [
    (name, key)
    for name, section in config_to_dict(parse_config({})).items()
    for key, value in section.items()
    if isinstance(value, float) or value == "inf"
]


class TestParsing:
    def test_roundtrips_through_dict_form(self):
        for obj in (minimal(), every_key_set()):
            cfg = parse_config(obj)
            again = parse_config(config_to_dict(cfg))
            assert again == cfg

    def test_every_key_set_covers_the_echo(self):
        full = every_key_set()
        echo = config_to_dict(parse_config(full))
        defaults = config_to_dict(parse_config({}))
        assert {name: set(section) for name, section in echo.items()} == {
            name: set(section) for name, section in full.items()
        }
        unchanged = {
            (name, key)
            for name, section in echo.items()
            for key, value in section.items()
            if value == defaults[name][key]
        }
        assert unchanged == {("algo", "rho_max")}

    @pytest.mark.parametrize(
        "obj,where",
        [
            ({"algo": {"rounds": "ten"}}, "algo.rounds"),
            ({"algo": {"rho_max": "lots"}}, "algo.rho_max"),
            ({"model": {"input_dim": None}}, "model.input_dim"),
            ({"algo": 5}, "algo"),
            ({"privacy": {"enabled": "false"}}, "privacy.enabled"),
            ({"data": {"path": 5}}, "data.path"),
        ],
    )
    def test_bad_value_names_its_key(self, obj, where):
        with pytest.raises(ConfigError, match=where):
            parse_config(obj)

    def test_unknown_section_rejected(self):
        obj = minimal()
        obj["extras"] = {}
        with pytest.raises(ConfigError, match="extras"):
            parse_config(obj)

    def test_unknown_key_rejected(self):
        obj = minimal()
        obj["algo"]["learning_rate"] = 0.1
        with pytest.raises(ConfigError, match="learning_rate"):
            parse_config(obj)

    def test_epsilon_inf_literal(self):
        obj = minimal()
        obj["privacy"] = {"enabled": True, "epsilon_bar": "inf", "clip": 1.0}
        cfg = parse_config(obj)
        assert math.isinf(cfg.privacy.epsilon_bar)
        assert not cfg.privacy.is_private

    def test_epsilon_garbage_rejected(self):
        obj = minimal()
        obj["privacy"] = {"enabled": True, "epsilon_bar": "lots", "clip": 1.0}
        with pytest.raises(ConfigError):
            parse_config(obj)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.json"))

    def test_load_config_bad_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(p))

    @pytest.mark.parametrize("value", ["nan", "NaN", float("nan")])
    @pytest.mark.parametrize("name,key", FLOAT_KEYS)
    def test_nan_names_its_key(self, name, key, value):
        with pytest.raises(ConfigError, match=rf"{name}\.{key} must be finite"):
            parse_config({name: {key: value}})

    @pytest.mark.parametrize("value", ["inf", "-inf", float("inf")])
    @pytest.mark.parametrize("name,key", FLOAT_KEYS)
    def test_infinity_only_where_it_means_unbounded(self, name, key, value):
        if key in ("rho_max", "epsilon_bar") and value != "-inf":
            assert math.isinf(getattr(getattr(parse_config({name: {key: value}}), name), key))
        else:
            with pytest.raises(ConfigError, match=rf"{name}\.{key}"):
                parse_config({name: {key: value}})

    def test_shared_settings_are_the_echo_minus_the_local_keys(self):
        cfg = parse_config(every_key_set())
        echo = {f"{name}.{key}": value for name, section in config_to_dict(cfg).items() for key, value in section.items()}
        assert LOCAL_KEYS <= set(echo)
        assert shared_settings(cfg) == {key: value for key, value in echo.items() if key not in LOCAL_KEYS}

    def test_data_seed_falls_back_to_run_seed(self):
        cfg = parse_config(minimal())
        assert cfg.data_seed == 1
        obj = minimal()
        obj["data"]["seed"] = 77
        assert parse_config(obj).data_seed == 77


class TestBuildData:
    def test_dimension_mismatch_rejected(self):
        obj = minimal()
        obj["model"]["input_dim"] = 5
        with pytest.raises(ConfigError, match="input_dim"):
            build_data(parse_config(obj))

    def test_labels_beyond_output_dim_rejected(self, tmp_path):
        obj = minimal()
        obj["data"]["classes"] = 3
        with pytest.raises(ConfigError, match="output_dim"):
            build_data(parse_config(obj))
        # A label that is not a class index is refused at set-up, naming its file,
        # rather than truncated (1.5 -> 1) or failing mid-run (-1, inf).
        for bad, why in [
            ("1.5", "class labels must be integers >= 0, got 1.5"),
            ("-1", "class labels must be integers >= 0, got -1"),
            ("inf", "labels reach inf but model has output_dim=2"),
        ]:
            path = tmp_path / f"labels{bad}.csv"
            path.write_text("".join(f"{i},{-i},{bad if i == 3 else i % 2}\n" for i in range(10)))
            obj = minimal()
            obj["data"] = {"source": "csv", "path": str(path), "input_dim": 2}
            with pytest.raises(ConfigError, match=re.escape(f"{path}: {why}")):
                build_data(parse_config(obj))

    @pytest.mark.parametrize(
        "bad_row, why", [("3,-3,nan", "labels must be finite, got nan"), ("3,inf,3", "inputs must be finite, got inf")]
    )
    def test_non_finite_data_rejected(self, tmp_path, bad_row, why):
        # Refused at set-up, so `flc simulate` exits 2 before round 1 instead of 1 in it.
        path = tmp_path / "d.csv"
        path.write_text("".join((bad_row if i == 3 else f"{i},{-i},{i}") + "\n" for i in range(10)))
        obj = minimal()
        obj["model"] = {"kind": "linear-regression", "input_dim": 2, "output_dim": 1}
        obj["data"] = {"source": "csv", "path": str(path), "input_dim": 2}
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {why}")):
            build_data(parse_config(obj))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(obj))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "m.jsonl")]) == 2

    def test_split_and_partition_shapes(self):
        train, test, part = build_data(parse_config(minimal()))
        assert train.size == 32 and test.size == 8
        assert part.sizes() == [16, 16]

    def test_loaded_config_runs(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal()))
        cfg = load_config(str(p))
        train, test, part = build_data(cfg)
        assert train.size + test.size == 40
