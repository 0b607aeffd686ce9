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


@dataclass(frozen=True)
class _Token:
    text: str
    ordinal: int  # 1-based position in the stream
    quoted: bool


# a quoted value, a quote that never closes, or a bare token up to whitespace
_TOKEN = re.compile(r'"([^"]*)"|(")|(\S+)')


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for ordinal, match in enumerate(_TOKEN.finditer(text), 1):
        quoted, stray, bare = match.groups()
        if stray:
            raise ConfigError(f"unterminated quote at token {ordinal}")
        tokens.append(_Token(bare if quoted is None else quoted, ordinal, quoted is not None))
    return tokens


def _positive_int(tok: _Token, key: str) -> int:
    try:
        value = parse_size(tok.text)
    except ValueError:
        raise ConfigError(f"{key} expects a positive integer, got {tok.text!r} (token {tok.ordinal})") from None
    if value < 1:
        raise ConfigError(f"{key} must be >= 1, got {value} (token {tok.ordinal})")
    return value


def _nonempty(tok: _Token, key: str) -> str:
    if not tok.text:
        raise ConfigError(f"{key} must be nonempty, got '' (token {tok.ordinal})")
    return tok.text


def parse_config(text: str) -> VipfsConfig:
    """Parse configuration text; all six keys are required, the device
    list declares at least one device, and no name or path is empty.
    MAX_APP and MAX_SRV_FILE are checked like DATA_BUFLEN, but nothing
    reads them, so the config does not keep them.

    A token in key position that is not a known key is rejected: paths
    there point at a device-list count shorter than the paths supplied,
    anything else is an unknown key.
    """
    tokens = _tokenize(text)
    values: dict[str, object] = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.quoted or tok.text not in _KEYS:
            if "/" in tok.text:
                raise ConfigError(f"device path outside the declared SRVR_DEVICE_LIST count: {tok.text!r} (token {tok.ordinal})")
            raise ConfigError(f"unknown configuration key {tok.text!r} (token {tok.ordinal})")
        key = tok.text
        if key in values:
            raise ConfigError(f"duplicate key {key} (token {tok.ordinal})")
        if i + 1 >= len(tokens):
            raise ConfigError(f"{key} is missing its value (token {tok.ordinal})")
        i += 1
        if key in _INT_KEYS:
            values[key] = _positive_int(tokens[i], key)
            i += 1
        elif key in ("SRV_GROUP_NAME", "VIP_DIR"):
            values[key] = _nonempty(tokens[i], key)
            i += 1
        else:  # SRVR_DEVICE_LIST
            declared = tokens[i]
            count = _positive_int(declared, key)
            i += 1
            paths = []
            for _ in range(count):
                if i >= len(tokens):
                    raise ConfigError(f"SRVR_DEVICE_LIST declares {count} devices but the list ends early: {declared.text!r} (token {declared.ordinal})")
                path_tok = tokens[i]
                if not path_tok.quoted and path_tok.text in _KEYS:
                    raise ConfigError(f"SRVR_DEVICE_LIST declares {count} devices but fewer paths follow: {path_tok.text!r} (token {path_tok.ordinal})")
                paths.append(_nonempty(path_tok, "SRVR_DEVICE_LIST path"))
                i += 1
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
