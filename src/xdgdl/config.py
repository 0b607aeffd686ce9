"""Server configuration parsing.

The config is a free-form token stream: KEY VALUE pairs separated by
arbitrary whitespace, with double-quoted values for the group name and
the user-visible directory, and an inline device list whose declared
count must match the number of path tokens that follow it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ConfigError
from .model import parse_size

__all__ = ["VipfsConfig", "parse_config"]

_KEYS = ("MAX_APP", "MAX_SRV_FILE", "DATA_BUFLEN", "SRV_GROUP_NAME", "SRVR_DEVICE_LIST", "VIP_DIR")
_INT_KEYS = {"MAX_APP", "MAX_SRV_FILE", "DATA_BUFLEN"}


@dataclass(frozen=True)
class VipfsConfig:
    data_buflen: int
    srv_group_name: str
    device_paths: tuple[str, ...]
    vip_dir: str

    def __post_init__(self):
        object.__setattr__(self, "device_paths", tuple(self.device_paths))


# a quoted value, a quote that never closes, or a bare token up to whitespace
_TOKEN = re.compile(r'"([^"]*)"|(")|(\S+)')


def _tokenize(text: str) -> list[tuple[str, int, bool]]:
    """Each token's text, 1-based position in the stream, and whether it was quoted."""
    tokens = []
    for ordinal, match in enumerate(_TOKEN.finditer(text), 1):
        quoted, stray, bare = match.groups()
        if stray:
            raise ConfigError(f"unterminated quote at token {ordinal}")
        tokens.append((bare if quoted is None else quoted, ordinal, quoted is not None))
    return tokens


def _positive_int(tok: tuple[str, int, bool], key: str) -> int:
    text, ordinal, _ = tok
    try:
        value = parse_size(text)
    except ValueError:
        raise ConfigError(f"{key} expects a positive integer, got {text!r} (token {ordinal})") from None
    if value < 1:
        raise ConfigError(f"{key} must be >= 1, got {value} (token {ordinal})")
    return value


def _nonempty(tok: tuple[str, int, bool], key: str) -> str:
    text, ordinal, _ = tok
    if not text:
        raise ConfigError(f"{key} must be nonempty, got '' (token {ordinal})")
    return text


def parse_config(text: str) -> VipfsConfig:
    """Parse configuration text; all six keys are required, the device
    list declares at least one device, and no name or path is empty.
    MAX_APP and MAX_SRV_FILE are checked like DATA_BUFLEN, but nothing
    reads them, so the config does not keep them.

    A token in key position that is not a known key is rejected: paths
    there point at a device-list count shorter than the paths supplied,
    anything else is an unknown key.
    """
    tokens = iter(_tokenize(text))
    values: dict[str, object] = {}
    for key, ordinal, quoted in tokens:
        if quoted or key not in _KEYS:
            if "/" in key:
                raise ConfigError(f"device path outside the declared SRVR_DEVICE_LIST count: {key!r} (token {ordinal})")
            raise ConfigError(f"unknown configuration key {key!r} (token {ordinal})")
        if key in values:
            raise ConfigError(f"duplicate key {key} (token {ordinal})")
        if (tok := next(tokens, None)) is None:
            raise ConfigError(f"{key} is missing its value (token {ordinal})")
        if key in _INT_KEYS:
            values[key] = _positive_int(tok, key)
        elif key in ("SRV_GROUP_NAME", "VIP_DIR"):
            values[key] = _nonempty(tok, key)
        else:  # SRVR_DEVICE_LIST
            count = _positive_int(tok, key)
            paths = []
            for _ in range(count):
                if (path_tok := next(tokens, None)) is None:
                    raise ConfigError(f"SRVR_DEVICE_LIST declares {count} devices but the list ends early: {tok[0]!r} (token {tok[1]})")
                text, ordinal, quoted = path_tok
                if not quoted and text in _KEYS:
                    raise ConfigError(f"SRVR_DEVICE_LIST declares {count} devices but fewer paths follow: {text!r} (token {ordinal})")
                paths.append(_nonempty(path_tok, "SRVR_DEVICE_LIST path"))
            values[key] = tuple(paths)
    for key in _KEYS:
        if key not in values:
            raise ConfigError(f"missing required configuration key {key}")
    return VipfsConfig(
        data_buflen=values["DATA_BUFLEN"],
        srv_group_name=values["SRV_GROUP_NAME"],
        device_paths=values["SRVR_DEVICE_LIST"],
        vip_dir=values["VIP_DIR"],
    )
