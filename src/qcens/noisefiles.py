"""Noise-config files and the shipped presets.

File format: one ``key = value`` pair per line; keys are name, p1, p2,
readout_flip_0to1, readout_flip_1to0, and no others, each at most once.
Blank lines and lines starting with ``#`` are ignored.  Ten presets spanning
realistic noise intensities ship with the package and are addressable by name.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .errors import ParseError, ValidationError
from .noise import RATE_FIELDS, NoiseModel
from .serialization import decode_file, json_number, write_atomic


def parse_noise_config(text: str) -> NoiseModel:
    values: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key != "name" and key not in RATE_FIELDS:
            raise ParseError(f"unknown key {key!r}; keys are name, {', '.join(RATE_FIELDS)}")
        if key in values:
            raise ParseError(f"repeated key {key!r}")
        values[key] = value.strip()
    missing = [k for k in RATE_FIELDS if k not in values]
    if missing:
        raise ParseError(f"missing keys: {', '.join(missing)}")
    return NoiseModel(name=values.get("name", ""),
                      **{key: json_number(values[key], key) for key in RATE_FIELDS})


def write_noise_config(model: NoiseModel, path) -> None:
    """Refuses a name that would not read back unchanged."""
    if model.name != model.name.strip() or len(model.name.splitlines()) > 1:
        raise ValidationError(
            f"noise model name must be one line without surrounding whitespace, "
            f"got {model.name!r}")
    lines = [f"name = {model.name}"]
    for key in RATE_FIELDS:
        lines.append(f"{key} = {getattr(model, key)!r}")
    write_atomic((path, "\n".join(lines) + "\n"))


def load_noise_file(path) -> NoiseModel:
    return decode_file(path, parse_noise_config)


_PRESETS = resources.files("qcens.assets") / "noise"


def preset_names() -> list[str]:
    return sorted(p.name.removesuffix(".txt") for p in _PRESETS.iterdir()
                  if p.name.endswith(".txt"))


def load_preset(name: str) -> NoiseModel:
    """The preset named ``name``, one of ``preset_names()``; never a path to one."""
    if name not in preset_names():
        raise ValidationError(
            f"unknown noise preset {name!r}; available: {', '.join(preset_names())}"
        )
    return decode_file(str(_PRESETS / f"{name}.txt"), parse_noise_config)


def resolve_noise(spec: str | None) -> NoiseModel | None:
    """Resolve a CLI noise argument: None, a preset name, or a file path."""
    if spec is None:
        return None
    if Path(spec).is_file():
        return load_noise_file(spec)
    return load_preset(spec)
