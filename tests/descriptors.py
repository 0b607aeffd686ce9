"""Shared descriptor texts used across the suite.

TWO_SERVER_XML alternates 5-byte and 7-byte chunks between two servers
(period 36 on both sides).  THREE_SERVER_XML nests a view inside the
first two servers' blocks; its second server's inner pattern spans 31
bytes per inner period and therefore misaligns with the other servers'
29-byte inner spans (gaps and overlaps on an 82-byte period).
THREE_SERVER_BALANCED_XML tightens that inner pattern (stride 5, trailing
skip 5, inner period 29) so the three servers partition the file exactly.
LOGICAL_XML declares every element of the logical description (PROCESSORS,
an ARRAY of TYPE, ALIGN) over two servers that split each 3 bytes 2:1, the
second holding a NOVIEW device too.
"""

TWO_SERVER_XML = """<?xml version="1.0" encoding="ISO-8859-1"?>
<!DOCTYPE PARSTORAGE SYSTEM "XDGDL.dtd">
<PARSTORAGE VERSION="1.0"
    TIMESTAMP="testfile_regular">
  <TYPE>
    <ETYPE TYPE="CHAR" LENGTH="1"/>
  </TYPE>
  <ISLAND NAME="island1.pri.univie.ac.at">
    <SERVER HOST="vipios.pri.univie.ac.at">
      <DEVICE DEVICE_ID="/dev/vda1">
        <VIEW SKIP_HEADER="0" SKIP="7">
          <BLOCK OFFSET="0" REPEAT="3"
            COUNT="5" STRIDE="7">
            <BYTEBLOCK/>
          </BLOCK>
        </VIEW>
      </DEVICE>
    </SERVER>
    <SERVER HOST="vipclus9.pri.univie.ac.at">
      <DEVICE DEVICE_ID="/dev/vda1">
        <VIEW SKIP_HEADER="0" SKIP="0">
          <BLOCK OFFSET="5" REPEAT="3"
            COUNT="7" STRIDE="5">
            <BYTEBLOCK/>
          </BLOCK>
        </VIEW>
      </DEVICE>
    </SERVER>
  </ISLAND>
</PARSTORAGE>
"""


def _three_server(inner2_stride: int, inner2_skip: int) -> str:
    return f"""<?xml version="1.0" encoding="ISO-8859-1"?>
<!DOCTYPE PARSTORAGE SYSTEM "XDGDL.dtd">
<PARSTORAGE VERSION="1.0"
    TIMESTAMP="regular_multilevel">
  <TYPE>
    <ETYPE TYPE="CHAR" LENGTH="1"/>
  </TYPE>
  <ISLAND NAME="island3.pri.univie.ac.at">
    <SERVER HOST="vipios.pri.univie.ac.at">
      <DEVICE DEVICE_ID="/dev/vda1">
        <VIEW SKIP_HEADER="0" SKIP="12">
          <BLOCK OFFSET="0" REPEAT="2"
            COUNT="1" STRIDE="12">
            <VIEW SKIP_HEADER="0" SKIP="0">
              <BLOCK OFFSET="0" REPEAT="3"
                COUNT="5" STRIDE="7">
                <BYTEBLOCK/>
              </BLOCK>
            </VIEW>
          </BLOCK>
        </VIEW>
      </DEVICE>
    </SERVER>
    <SERVER HOST="vipclus9.pri.univie.ac.at">
      <DEVICE DEVICE_ID="/dev/vda1">
        <VIEW SKIP_HEADER="0" SKIP="12">
          <BLOCK OFFSET="0" REPEAT="2"
            COUNT="1" STRIDE="12">
            <VIEW SKIP_HEADER="0" SKIP="{inner2_skip}">
              <BLOCK OFFSET="5" REPEAT="2"
                COUNT="7" STRIDE="{inner2_stride}">
                <BYTEBLOCK/>
              </BLOCK>
            </VIEW>
          </BLOCK>
        </VIEW>
      </DEVICE>
    </SERVER>
    <SERVER HOST="vipclus10.pri.univie.ac.at">
      <DEVICE DEVICE_ID="/dev/vda1">
        <VIEW SKIP_HEADER="0" SKIP="0">
          <BLOCK OFFSET="29" REPEAT="2"
            COUNT="12" STRIDE="29">
            <BYTEBLOCK/>
          </BLOCK>
        </VIEW>
      </DEVICE>
    </SERVER>
  </ISLAND>
</PARSTORAGE>
"""


THREE_SERVER_XML = _three_server(inner2_stride=12, inner2_skip=0)
THREE_SERVER_BALANCED_XML = _three_server(inner2_stride=5, inner2_skip=5)

MINIMAL_XML = """<?xml version="1.0" encoding="ISO-8859-1"?>
<PARSTORAGE VERSION="1.0" TIMESTAMP="empty_island">
  <TYPE>
    <ETYPE TYPE="CHAR" LENGTH="1"/>
  </TYPE>
  <ISLAND NAME="lonely"/>
</PARSTORAGE>
"""

LOGICAL_XML = """<?xml version="1.0" encoding="ISO-8859-1"?>
<PARSTORAGE VERSION="1.0" TIMESTAMP="logical_all">
  <PROCESSORS NAME="P">
    <PROC_DIMENSION LOWER="1" UPPER="2"/>
  </PROCESSORS>
  <TYPE TYPENAME="pair" NAME="t">
    <ARRAY NAME="a" MAJOR="COLUMN" DISTRIBUTE_ONTO="P">
      <TYPE>
        <ETYPE TYPE="CHAR" LENGTH="1" NAME="c"/>
      </TYPE>
      <DIMENSION LOWER="0" UPPER="5" DISTRIBUTE="CYCLIC" DIST_SKALAR="2"/>
      <DIMENSION UPPER="3"/>
    </ARRAY>
  </TYPE>
  <ALIGN WHAT="a" WITH="P"/>
  <ISLAND NAME="isle">
    <SERVER HOST="h1">
      <DEVICE DEVICE_ID="d1">
        <VIEW SKIP_HEADER="0" SKIP="1">
          <BLOCK OFFSET="0" REPEAT="1" COUNT="2" STRIDE="0">
            <BYTEBLOCK/>
          </BLOCK>
        </VIEW>
      </DEVICE>
    </SERVER>
    <SERVER HOST="h2">
      <DEVICE DEVICE_ID="d2">
        <VIEW SKIP_HEADER="2" SKIP="2">
          <BLOCK OFFSET="0" REPEAT="1" COUNT="1" STRIDE="0">
            <BYTEBLOCK/>
          </BLOCK>
        </VIEW>
      </DEVICE>
      <DEVICE DEVICE_ID="d3">
        <NOVIEW/>
      </DEVICE>
    </SERVER>
  </ISLAND>
</PARSTORAGE>
"""

# the path of the first device of the first server
FIRST_DEVICE = "/PARSTORAGE/ISLAND[1]/SERVER[1]/DEVICE[1]"


def deep_xml(views: int, types: int = 1) -> str:
    """A descriptor of one device whose view nests ``views`` VIEWs, each of
    one BLOCK taking one byte, and of one TYPE nesting ``types`` TYPEs in
    all around an ETYPE.  PARSTORAGE being depth 1, the innermost BYTEBLOCK
    is at depth 2 * views + 5 and the ETYPE at types + 2."""
    view = '<VIEW SKIP_HEADER="0" SKIP="0"><BLOCK OFFSET="0" REPEAT="1" COUNT="1" STRIDE="0">' * views + "<BYTEBLOCK/>" + "</BLOCK></VIEW>" * views
    types_xml = "<TYPE>" * types + '<ETYPE TYPE="CHAR" LENGTH="1"/>' + "</TYPE>" * types
    return (
        f'<?xml version="1.0" encoding="ISO-8859-1"?>\n<PARSTORAGE VERSION="1.0" TIMESTAMP="deep">{types_xml}'
        f'<ISLAND NAME="i"><SERVER HOST="h"><DEVICE DEVICE_ID="d">{view}</DEVICE></SERVER></ISLAND></PARSTORAGE>\n'
    )


# reference server configuration; {root} replaces the home prefix
CONFIG_TEMPLATE = """MAX_APP 5 MAX_SRV_FILE 32 DATA_BUFLEN 4096
SRV_GROUP_NAME "vipios_server" SRVR_DEVICE_LIST 3
{root}/ViPIOS/dev1/
{root}/ViPIOS/dev2/
{root}/ViPIOS/dev3/
VIP_DIR "{root}/vipios"
"""
