import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descriptors import CONFIG_TEMPLATE
from xdgdl import ConfigError, VipfsConfig, parse_config
from xdgdl.cli import main
from xdgdl.config import _tokenize

FULL_CONFIG = CONFIG_TEMPLATE.format(root="/home/felder")


def test_full_config():
    cfg = parse_config(FULL_CONFIG)
    assert cfg.data_buflen == 4096
    assert cfg.srv_group_name == "vipios_server"
    assert cfg.device_paths == (
        "/home/felder/ViPIOS/dev1/",
        "/home/felder/ViPIOS/dev2/",
        "/home/felder/ViPIOS/dev3/",
    )
    assert cfg.vip_dir == "/home/felder/vipios"


def test_single_line_token_stream():
    squeezed = " ".join(FULL_CONFIG.split())
    assert parse_config(squeezed) == parse_config(FULL_CONFIG)


def test_declared_count_lower_than_paths():
    text = FULL_CONFIG.replace("SRVR_DEVICE_LIST 3", "SRVR_DEVICE_LIST 2")
    with pytest.raises(ConfigError, match=r"^device path outside the declared SRVR_DEVICE_LIST count: '/home/felder/ViPIOS/dev3/' \(token 13\)$"):
        parse_config(text)


def test_declared_count_higher_than_paths():
    text = FULL_CONFIG.replace("SRVR_DEVICE_LIST 3", "SRVR_DEVICE_LIST 4")
    with pytest.raises(ConfigError, match=r"^SRVR_DEVICE_LIST declares 4 devices but fewer paths follow: 'VIP_DIR' \(token 14\)$"):
        parse_config(text)


def test_key_at_the_end_is_missing_its_value():
    text = FULL_CONFIG.replace('VIP_DIR "/home/felder/vipios"', "VIP_DIR")
    with pytest.raises(ConfigError, match=r"^VIP_DIR is missing its value \(token 14\)$"):
        parse_config(text)


def test_device_list_at_the_end_ends_early():
    text = FULL_CONFIG.replace("SRVR_DEVICE_LIST 3", "SRVR_DEVICE_LIST 4").replace('VIP_DIR "/home/felder/vipios"', "")
    text = 'VIP_DIR "/home/felder/vipios" ' + text
    with pytest.raises(ConfigError, match=r"^SRVR_DEVICE_LIST declares 4 devices but the list ends early: '4' \(token 12\)$"):
        parse_config(text)


def test_missing_key():
    text = FULL_CONFIG.replace("DATA_BUFLEN 4096", "")
    with pytest.raises(ConfigError, match=r"^missing required configuration key DATA_BUFLEN$"):
        parse_config(text)


def test_unknown_key_names_token_and_position():
    with pytest.raises(ConfigError, match=r"^unknown configuration key 'BOGUS' \(token 1\)$"):
        parse_config("BOGUS 1 " + FULL_CONFIG)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config(FULL_CONFIG + "\nMAX_APP 9")


def test_unterminated_quote():
    with pytest.raises(ConfigError):
        parse_config('MAX_APP 5 SRV_GROUP_NAME "oops')


@pytest.mark.parametrize(
    "text, tokens",
    [
        ('"a"b', [("a", 1, True), ("b", 2, False)]),
        ('ab"c', [('ab"c', 1, False)]),
        ('x "" y', [("x", 1, False), ("", 2, True), ("y", 3, False)]),
        ('"a b"\xa0c\u2003d\x1ce\u3000f', [("a b", 1, True), ("c", 2, False), ("d", 3, False), ("e", 4, False), ("f", 5, False)]),
    ],
    ids=["quote-then-bare", "quote-inside-bare", "empty-quoted", "unicode-whitespace"],
)
def test_tokens(text, tokens):
    """A quoted value runs to the next quote; a bare token runs to the next
    whitespace, quotes and all; any Unicode whitespace separates tokens."""
    assert _tokenize(text) == tokens


@pytest.mark.parametrize("text, ordinal", [('"', 1), ('a "', 2), ('a "b c', 2), ('ab"c "d', 2), ('"a" b "c', 3)])
def test_a_lone_quote_is_unterminated(text, ordinal):
    with pytest.raises(ConfigError, match=rf"^unterminated quote at token {ordinal}$"):
        _tokenize(text)


def test_non_integer_count(tmp_path, monkeypatch, capsys):
    with pytest.raises(ConfigError):
        parse_config(FULL_CONFIG.replace("MAX_APP 5", "MAX_APP five"))
    # str.isdigit accepts a superscript two, which int() refuses
    for key, value in (("DATA_BUFLEN", "4096"), ("SRVR_DEVICE_LIST", "3")):
        text = FULL_CONFIG.replace(f"{key} {value}", f"{key} \u00b2")
        with pytest.raises(ConfigError, match=key):
            parse_config(text)
        conf = tmp_path / f"{key}.conf"
        conf.write_text(text, encoding="utf-8")
        monkeypatch.setenv("VIP_CONF", str(conf))
        assert main(["init"]) == 2
        assert capsys.readouterr().err.startswith(f"xdgdl: {key} expects")


@pytest.mark.parametrize("key, value", [("MAX_APP", "5"), ("DATA_BUFLEN", "4096"), ("SRVR_DEVICE_LIST", "3")])
def test_integer_past_int64_is_a_config_error(tmp_path, monkeypatch, capsys, key, value):
    for big in ("9223372036854775808", "9" * 5000):
        text = FULL_CONFIG.replace(f"{key} {value}", f"{key} {big}")
        with pytest.raises(ConfigError, match=key):
            parse_config(text)
        conf = tmp_path / f"{key}.conf"
        conf.write_text(text, encoding="utf-8")
        monkeypatch.setenv("VIP_CONF", str(conf))
        assert main(["init"]) == 2
        assert capsys.readouterr().err.startswith(f"xdgdl: {key} expects")


def test_largest_integer_is_accepted():
    cfg = parse_config(FULL_CONFIG.replace("DATA_BUFLEN 4096", "DATA_BUFLEN 9223372036854775807"))
    assert cfg.data_buflen == 2**63 - 1


def test_zero_buflen_rejected():
    with pytest.raises(ConfigError):
        parse_config(FULL_CONFIG.replace("DATA_BUFLEN 4096", "DATA_BUFLEN 0"))


@pytest.mark.parametrize(
    "old, new, message",
    [
        ('"vipios_server"', '""', "SRV_GROUP_NAME must be nonempty, got '' (token 8)"),
        ('"/home/felder/vipios"', '""', "VIP_DIR must be nonempty, got '' (token 15)"),
        ("/home/felder/ViPIOS/dev2/", '""', "SRVR_DEVICE_LIST path must be nonempty, got '' (token 12)"),
    ],
    ids=["SRV_GROUP_NAME", "VIP_DIR", "device-path"],
)
def test_empty_quoted_value_is_a_config_error(tmp_path, monkeypatch, capsys, old, new, message):
    text = FULL_CONFIG.replace(old, new)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == message
    conf = tmp_path / "empty.conf"
    conf.write_text(text, encoding="utf-8")
    monkeypatch.setenv("VIP_CONF", str(conf))
    assert main(["init"]) == 2
    assert capsys.readouterr() == ("", f"xdgdl: {message}\n")


def test_empty_device_list_is_a_config_error(tmp_path, monkeypatch, capsys):
    """Zero devices is refused where the count is read, not later by the
    store; the store keeps its own check for configurations built directly."""
    text = 'MAX_APP 5 MAX_SRV_FILE 32 DATA_BUFLEN 4096 SRV_GROUP_NAME "g" SRVR_DEVICE_LIST 0 VIP_DIR "v"'
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == "SRVR_DEVICE_LIST must be >= 1, got 0 (token 10)"
    conf = tmp_path / "empty.conf"
    conf.write_text(text, encoding="utf-8")
    monkeypatch.setenv("VIP_CONF", str(conf))
    monkeypatch.chdir(tmp_path)
    assert main(["init"]) == 2
    assert capsys.readouterr() == ("", f"xdgdl: {err.value}\n")
    assert not (tmp_path / "v").exists()


def serialize_config(cfg: VipfsConfig, max_app: int = 5, max_srv_file: int = 32) -> str:
    """Canonical token order; parse_config(serialize_config(c)) == c.  The
    config keeps neither MAX_APP nor MAX_SRV_FILE, so their values are given."""
    lines = [
        f"MAX_APP {max_app} MAX_SRV_FILE {max_srv_file} DATA_BUFLEN {cfg.data_buflen}",
        f'SRV_GROUP_NAME "{cfg.srv_group_name}" SRVR_DEVICE_LIST {len(cfg.device_paths)}',
        *cfg.device_paths,
        f'VIP_DIR "{cfg.vip_dir}"',
    ]
    return "\n".join(lines) + "\n"


def test_serialize_parse_fixpoint():
    cfg = parse_config(FULL_CONFIG)
    assert parse_config(serialize_config(cfg)) == cfg


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 99),
    st.integers(1, 99),
    st.integers(1, 1 << 16),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12),
    st.lists(st.integers(1, 9), min_size=1, max_size=5),
)
def test_fixpoint_property(max_app, max_srv, buflen, group, devs):
    cfg = VipfsConfig(
        data_buflen=buflen,
        srv_group_name=group,
        device_paths=tuple(f"/grid/dev{i}/{n}" for i, n in enumerate(devs)),
        vip_dir="/grid/vipios",
    )
    assert parse_config(serialize_config(cfg, max_app, max_srv)) == cfg
