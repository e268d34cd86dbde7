"""Plain-text key=value configuration and run manifests.

Config files hold one ``key = value`` pair per line ('#' comments allowed);
each value is parsed as the type of its key's default: int, finite float
(an int is accepted), bool (true or false), str (raw text, commas included),
or a comma-separated list of one or more ints. Command-line --set overrides
use the same syntax. Every command resolves its full config against a schema
of defaults, rejects unknown keys and mistyped values with a ConfigError
naming the key, and records the resolved config in a JSON manifest alongside
digests of every output file, so a run can be reproduced bitwise from its
manifest.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional


class ConfigError(ValueError):
    pass


def parse_typed(key: str, text: str, default: Any) -> Any:
    """Parse ``text`` as a value of the type of ``key``'s default.

    A str key keeps its raw text, a bool key takes only true or false, and a
    float key only a finite number (an int stays an int). Only a list-typed
    key splits on commas, into one or more items; one item without a comma
    stays a scalar.
    """
    s = text.strip()
    if isinstance(default, str):
        return s
    if isinstance(default, list):
        if "," not in s:
            return parse_typed(key, s, default[0])
        items = [parse_typed(key, part, default[0])
                 for part in s.split(",") if part.strip()]
        if items:
            return items
    elif isinstance(default, bool):
        if s.lower() in ("true", "false"):
            return s.lower() == "true"
    else:
        for kind in (int, float) if isinstance(default, float) else (int,):
            try:
                value = kind(s)
            except ValueError:
                continue
            if kind is int or math.isfinite(value):
                return value
    expected = ("true or false" if isinstance(default, bool)
                else "a finite float" if isinstance(default, float)
                else "one or more ints" if isinstance(default, list)
                else type(default).__name__)
    raise ConfigError(f"config key {key!r} expects {expected}, got {s!r}")


def parse_config_file(path: str) -> Dict[str, str]:
    """Raw ``key -> value text`` pairs; values are typed by resolve_config."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path} "
                          f"({type(exc).__name__}: {exc})")
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value
    return out


def resolve_config(defaults: Dict[str, Any], file_path: Optional[str],
                   overrides: List[str]) -> Dict[str, Any]:
    """Defaults <- config file <- --set overrides, with unknown-key and
    value-type checks."""
    cfg = dict(defaults)

    def apply(key: str, text: str, origin: str):
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r} (from {origin}); "
                              f"known keys: {', '.join(sorted(defaults))}")
        cfg[key] = parse_typed(key, text, defaults[key])

    if file_path is not None:
        for k, v in parse_config_file(file_path).items():
            apply(k, v, file_path)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        apply(key.strip(), value, "--set")
    return cfg


def as_int_list(value: Any) -> List[int]:
    """A list-typed config value: already a list, or one scalar."""
    return value if isinstance(value, list) else [value]


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def write_manifest(out_dir: Path, command: str, config: Dict[str, Any],
                   seeds: List[int], outputs: List[Path],
                   started: str, version: str) -> Path:
    manifest = {
        "schema": "bayesmeta.manifest.v1",
        "command": command,
        "config": config,
        "seeds": seeds,
        "code_version": version,
        "started": started,
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": {p.name: sha256_file(p) for p in outputs},
    }
    path = out_dir / f"{command}_manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()
