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
from .noise import NoiseModel
from .serialization import decode_file, write_atomic

_FLOAT_KEYS = ("p1", "p2", "readout_flip_0to1", "readout_flip_1to0")


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
        if key != "name" and key not in _FLOAT_KEYS:
            raise ParseError(f"unknown key {key!r}; keys are name, {', '.join(_FLOAT_KEYS)}")
        if key in values:
            raise ParseError(f"repeated key {key!r}")
        values[key] = value.strip()
    missing = [k for k in _FLOAT_KEYS if k not in values]
    if missing:
        raise ParseError(f"missing keys: {', '.join(missing)}")
    floats = {}
    for key in _FLOAT_KEYS:
        try:
            floats[key] = float(values[key])
        except ValueError:
            raise ParseError(f"{key} is not a number: {values[key]!r}") from None
    return NoiseModel(name=values.get("name", ""), **floats)


def write_noise_config(model: NoiseModel, path) -> None:
    """Refuses a name that would not read back unchanged."""
    if model.name != model.name.strip() or len(model.name.splitlines()) > 1:
        raise ValidationError(
            f"noise model name must be one line without surrounding whitespace, "
            f"got {model.name!r}")
    lines = [f"name = {model.name}"]
    for key in _FLOAT_KEYS:
        lines.append(f"{key} = {getattr(model, key)!r}")
    write_atomic(path, "\n".join(lines) + "\n")


def load_noise_file(path) -> NoiseModel:
    return decode_file(path, parse_noise_config)


def preset_names() -> list[str]:
    root = resources.files("qcens.assets") / "noise"
    return sorted(p.name.removesuffix(".txt") for p in root.iterdir() if p.name.endswith(".txt"))


def load_preset(name: str) -> NoiseModel:
    root = resources.files("qcens.assets") / "noise"
    candidate = root / f"{name}.txt"
    if not candidate.is_file():
        raise ValidationError(
            f"unknown noise preset {name!r}; available: {', '.join(preset_names())}"
        )
    return decode_file(str(candidate), parse_noise_config)


def resolve_noise(spec: str | None) -> NoiseModel | None:
    """Resolve a CLI noise argument: None, a preset name, or a file path."""
    if spec is None:
        return None
    if Path(spec).is_file():
        return load_noise_file(spec)
    return load_preset(spec)
