"""Run configuration: JSON schema, validation, and the data pipeline.

A config file has five sections mirroring RunConfig: model, algo, privacy,
data, run.  Each section's keys and types are the fields of its dataclass
(ModelSpec, AlgoConfig, PrivacyConfig, DataConfig, and RunConfig's own
scalars), so parsing and the echo follow those classes.  One config fully
determines a run; the same file plus the same seed reproduces byte-identical
metrics.  Epsilon accepts the literal string "inf" for the non-private setting.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from . import rng
from .algorithms import AlgoConfig
from .data import Dataset, generate_synthetic, load_csv, load_idx, partition, train_test_split
from .errors import ConfigError, IngestionError
from .models import ModelSpec, init_params
from .privacy import PrivacyConfig

DATA_SOURCES = ("synthetic-regression", "synthetic-blobs", "csv", "idx")


@dataclass(frozen=True)
class DataConfig:
    source: str = "synthetic-blobs"
    n: int = 400
    input_dim: int = 2
    classes: int = 2
    noise: float = 0.5
    seed: int | None = None  # falls back to the run seed
    partition: str = "equal"
    shards_per_client: int = 2
    test_fraction: float = 0.2
    path: str | None = None
    label_column: int = -1
    has_header: bool = False
    images_path: str | None = None
    labels_path: str | None = None


@dataclass(frozen=True)
class RunConfig:
    model: ModelSpec
    algo: AlgoConfig
    privacy: PrivacyConfig = field(default_factory=PrivacyConfig)
    data: DataConfig = field(default_factory=DataConfig)
    clients: int = 4
    seed: int = 0
    eval_every: int = 1
    timeout_s: float = 60.0
    out: str | None = None

    def validate(self) -> None:
        self.model.validate()
        self.algo.validate()
        self.privacy.validate()
        if self.clients < 1:
            raise ConfigError(f"clients must be positive, got {self.clients}")
        if self.eval_every < 1:
            raise ConfigError(f"eval_every must be positive, got {self.eval_every}")
        if self.timeout_s <= 0:
            raise ConfigError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.data.source not in DATA_SOURCES:
            raise ConfigError(f"unknown data source {self.data.source!r}; expected one of {DATA_SOURCES}")

    @property
    def data_seed(self) -> int:
        return self.seed if self.data.seed is None else self.data.seed


# The only keys that may be infinite, echoed as "inf" rather than JSON's nonstandard Infinity.
_INF_KEYS = {"algo.rho_max", "privacy.epsilon_bar"}
# Keys that belong to one host: where it writes and reads, how long it waits, how
# often the server evaluates, and the seed that keys its clients' DP noise.
LOCAL_KEYS = {
    "run.out", "run.timeout_s", "run.eval_every", "run.seed", "data.path", "data.images_path", "data.labels_path"
}
# Section name -> dataclass; the run section holds RunConfig's own scalars.
_SECTIONS = {"model": ModelSpec, "algo": AlgoConfig, "privacy": PrivacyConfig, "data": DataConfig, "run": RunConfig}


def _section_fields(name: str) -> list[tuple[str, type]]:
    """(key, type) for each field of one config section."""
    cls = _SECTIONS[name]
    hints = typing.get_type_hints(cls)
    return [(f.name, hints[f.name]) for f in fields(cls) if f.name not in _SECTIONS]


_FIELDS = {name: _section_fields(name) for name in _SECTIONS}


def _coerce(value, hint, where: str):
    """Convert one JSON value to its field's type, or raise a ConfigError naming the key.

    Numbers convert as int() / float() do, so "inf" reads as infinity, except
    that a JSON boolean is no number and an int field refuses a fraction; NaN
    is refused everywhere and infinity everywhere but ``_INF_KEYS``.  bool and
    str fields take only JSON booleans and strings; Optional fields take null.
    """
    args = typing.get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        hint = next(a for a in args if a is not type(None))
    if hint in (int, float):
        try:
            number = hint(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if isinstance(value, bool) or (hint is int and isinstance(value, float) and number != value):
                raise ConfigError(f"{where} must be {hint.__name__}, got {value!r}")
            if math.isfinite(number) or (number == math.inf and where in _INF_KEYS):
                return number
            raise ConfigError(f"{where} must be finite, got {value!r}")
    elif isinstance(value, hint):
        return value
    raise ConfigError(f"{where} must be {hint.__name__}, got {value!r}")


def _parse_section(obj: dict, name: str) -> dict:
    section = obj.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"[{name}] must be a JSON object, got {section!r}")
    unknown = set(section) - {key for key, _ in _FIELDS[name]}
    if unknown:
        raise ConfigError(f"unknown keys in [{name}]: {sorted(unknown)}")
    return {key: _coerce(section[key], hint, f"{name}.{key}") for key, hint in _FIELDS[name] if key in section}


def parse_config(obj: dict) -> RunConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(obj) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    sections = {name: _parse_section(obj, name) for name in _SECTIONS}
    run = sections.pop("run")
    cfg = RunConfig(**{name: _SECTIONS[name](**kwargs) for name, kwargs in sections.items()}, **run)
    cfg.validate()
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as f:
            obj = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(obj)


def config_to_dict(cfg: RunConfig) -> dict:
    """The effective config, echoable before a run for reproducibility."""
    out = {}
    for name, section_fields in _FIELDS.items():
        obj = cfg if name == "run" else getattr(cfg, name)
        out[name] = {}
        for key, _ in section_fields:
            value = getattr(obj, key)
            out[name][key] = "inf" if f"{name}.{key}" in _INF_KEYS and math.isinf(value) else value
    return out


def shared_settings(cfg: RunConfig) -> dict:
    """``section.key`` -> value for the effective config minus ``LOCAL_KEYS``.

    This is what the server and every client of a TCP session, each loading
    its own config, must agree on.
    """
    flat = {f"{name}.{key}": value for name, section in config_to_dict(cfg).items() for key, value in section.items()}
    return {key: value for key, value in flat.items() if key not in LOCAL_KEYS}


def initial_model(cfg: RunConfig) -> np.ndarray:
    """The round-0 global model; server and clients each derive it from their own config."""
    return init_params(cfg.model, rng.stream("init", cfg.seed))


def build_data(cfg: RunConfig) -> tuple[Dataset, Dataset, list[np.ndarray]]:
    """Materialize (train, test, each client's train row indices) for a config.

    Pure function of the config, so server and remote clients independently
    agree on every sample assignment.  ``train`` and ``test`` are views of the
    one buffer that holds the dataset; a CSV's non-finite inputs or labels are
    refused.
    """
    d = cfg.data
    seed = cfg.data_seed
    if d.source == "synthetic-regression":
        full = generate_synthetic("regression", d.n, d.input_dim, 1, d.noise, seed)
    elif d.source == "synthetic-blobs":
        full = generate_synthetic("blobs", d.n, d.input_dim, d.classes, d.noise, seed)
    elif d.source == "csv":
        if not d.path:
            raise ConfigError("csv source needs data.path")
        full = _load(load_csv, {"data.path": d.path}, d.label_column, d.has_header)
    else:
        if not d.images_path or not d.labels_path:
            raise ConfigError("idx source needs data.images_path and data.labels_path")
        full = _load(load_idx, {"data.images_path": d.images_path, "data.labels_path": d.labels_path})

    if full.input_dim != cfg.model.input_dim:
        raise ConfigError(
            f"model expects input_dim={cfg.model.input_dim} but data has {full.input_dim}"
        )
    if cfg.model.is_classifier and full.size:
        labels, k = full.labels, cfg.model.output_dim
        origin = {"csv": d.path, "idx": d.labels_path}.get(d.source, d.source)
        bad = (labels < 0) | (labels != np.round(labels))  # NaN is bad too: it differs from itself
        if bad.any():
            raise ConfigError(f"{origin}: class labels must be integers >= 0, got {labels[bad][0]}")
        if labels.max() >= k:
            raise ConfigError(f"{origin}: labels reach {labels.max():g} but model has output_dim={k}")
    if d.source == "csv":  # generated and IDX data are finite by construction
        for name, values in (("inputs", full.inputs), ("labels", full.labels)):
            finite = np.isfinite(values)
            if not finite.all():
                raise ConfigError(f"{d.path}: {name} must be finite, got {values[~finite][0]}")

    train, test = train_test_split(full, d.test_fraction, seed)
    return train, test, partition(train, cfg.clients, d.partition, seed, d.shards_per_client)


def _load(loader, files: dict[str, str], *args) -> Dataset:
    """``loader(*files.values(), *args)``; a file it cannot read or parse is a ConfigError naming its config key.

    A parse error keeps the loader's message, which names the file and the line or byte offset.
    """
    try:
        return loader(*files.values(), *args)
    except OSError as exc:
        key = next((k for k, path in files.items() if path == exc.filename), next(iter(files)))
        raise ConfigError(f"{key}: cannot read {exc.filename or files[key]}: {exc.strerror or exc}") from exc
    except IngestionError as exc:
        key = next((k for k, path in files.items() if str(exc).startswith(f"{path}:")), next(iter(files)))
        raise ConfigError(f"{key}: {exc}") from exc
