"""The byte-identity corpus (identity.py): every output class hashes as recorded."""

import json

from identity import DIGESTS, digests


def test_every_output_class_is_byte_identical_to_the_recorded_corpus():
    recorded = json.loads(DIGESTS.read_text())
    now = digests()
    assert [name for name in now if now[name] != recorded[name]] == []
    assert sorted(now) == sorted(recorded)
