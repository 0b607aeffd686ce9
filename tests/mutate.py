"""Seeded single edits of the descriptor texts in descriptors.py.

Each edit changes one thing of one element: drops an attribute; sets one,
or one its schema row allows that the element lacks, to ``x1``, ``-1`` or
2**64, or an integer to one below its least value; adds an unknown
attribute or text; inserts one of the 15 grammar tags, or GIZMO, as its
first or last child; or duplicates or removes one of its children.  An inserted grammar tag is a
small specimen of that element, so that some edits still read.  This is
grammar-based differential testing: every edit must either be refused at
a rule id and element path, or read to a document that behaves.
"""

import copy
import random
import xml.etree.ElementTree as ET

from descriptors import LOGICAL_XML, MINIMAL_XML, THREE_SERVER_BALANCED_XML, THREE_SERVER_XML, TWO_SERVER_XML
from xdgdl.model import _TAGS

TEXTS = (TWO_SERVER_XML, THREE_SERVER_XML, THREE_SERVER_BALANCED_XML, MINIMAL_XML, LOGICAL_XML)
VALUES = ("x1", "-1", str(2**64))
_BYTE_VIEW = '<VIEW SKIP_HEADER="0" SKIP="0"><BLOCK OFFSET="0" REPEAT="1" COUNT="1" STRIDE="0"><BYTEBLOCK/></BLOCK></VIEW>'
SPECIMENS = {
    "PARSTORAGE": '<PARSTORAGE VERSION="1" TIMESTAMP="t"><TYPE><ETYPE TYPE="CHAR" LENGTH="1"/></TYPE><ISLAND NAME="i"/></PARSTORAGE>',
    "PROCESSORS": '<PROCESSORS NAME="Q"><PROC_DIMENSION UPPER="2"/></PROCESSORS>',
    "PROC_DIMENSION": '<PROC_DIMENSION LOWER="1" UPPER="3"/>',
    "TYPE": '<TYPE><ETYPE TYPE="INT" LENGTH="4"/></TYPE>',
    "ETYPE": '<ETYPE TYPE="INT" LENGTH="4"/>',
    "ARRAY": '<ARRAY><ETYPE TYPE="CHAR" LENGTH="1"/><DIMENSION UPPER="4"/></ARRAY>',
    "DIMENSION": '<DIMENSION UPPER="4" DISTRIBUTE="BLOCK"/>',
    "ALIGN": '<ALIGN WHAT="a" WITH="a"/>',
    "ISLAND": '<ISLAND NAME="j"/>',
    "SERVER": '<SERVER HOST="extra"><DEVICE DEVICE_ID="x"><NOVIEW/></DEVICE></SERVER>',
    "DEVICE": '<DEVICE DEVICE_ID="x"><NOVIEW/></DEVICE>',
    "VIEW": _BYTE_VIEW,
    "NOVIEW": "<NOVIEW/>",
    "BLOCK": '<BLOCK OFFSET="1" REPEAT="2" COUNT="1" STRIDE="3"><BYTEBLOCK/></BLOCK>',
    "BYTEBLOCK": "<BYTEBLOCK/>",
    "GIZMO": "<GIZMO/>",
}


def _edits(text: str) -> list[tuple[str, int, tuple]]:
    """Every single edit of ``text``: (text, element index in document order, edit)."""
    edits = []
    for i, elem in enumerate(ET.fromstring(text.encode("iso-8859-1")).iter()):
        for attr in elem.attrib:
            edits.append((text, i, ("drop", attr)))
            edits.extend((text, i, ("set", attr, value)) for value in VALUES)
        for xml, _, kind, least, *_ in _TAGS[elem.tag].attrs:
            values = () if xml in elem.attrib else VALUES
            if kind == "int" and least is not None and str(least - 1) not in VALUES:
                values += (str(least - 1),)
            edits.extend((text, i, ("set", xml, value)) for value in values)
        edits += [(text, i, ("set", "GIZMO", "1")), (text, i, ("text", "junk"))]
        for tag in SPECIMENS:
            edits += [(text, i, ("insert", tag, 0)), (text, i, ("insert", tag, len(elem)))]
        for j in range(len(elem)):
            edits += [(text, i, ("duplicate", j)), (text, i, ("remove", j))]
    return edits


def apply(text: str, index: int, edit: tuple) -> str:
    """``text`` with ``edit`` made to its ``index``-th element."""
    root = ET.fromstring(text.encode("iso-8859-1"))
    elem = list(root.iter())[index]
    kind, *args = edit
    if kind == "drop":
        del elem.attrib[args[0]]
    elif kind == "set":
        elem.set(*args)
    elif kind == "text":
        elem.text = args[0]
    elif kind == "insert":
        elem.insert(args[1], ET.fromstring(SPECIMENS[args[0]]))
    elif kind == "duplicate":
        elem.insert(args[0], copy.deepcopy(elem[args[0]]))
    else:
        elem.remove(elem[args[0]])
    return ET.tostring(root, encoding="unicode")


def mutants(seed: int, count: int) -> list[tuple[str, str]]:
    """``count`` distinct single edits drawn with ``seed`` from every text's
    edits: (a description of the edit, the edited text)."""
    chosen = random.Random(seed).sample([e for text in TEXTS for e in _edits(text)], count)
    return [(f"text {TEXTS.index(text)} element {i}: {edit}", apply(text, i, edit)) for text, i, edit in chosen]
