"""Toolkit for describing and executing byte distributions of logical
files over a simulated grid of islands, servers and devices."""

from .config import VipfsConfig, parse_config, serialize_config
from .errors import (
    ArithmeticOverflow,
    ConfigError,
    DeviceCountMismatch,
    DimensionMismatch,
    DuplicateTimestamp,
    EmptyDeviceList,
    ExtraFragment,
    InvalidDocument,
    IoFailure,
    LengthMismatch,
    MissingFragment,
    MissingKey,
    MissingManifest,
    NoDevices,
    NotAPartition,
    ParseError,
    RosterMismatch,
    SizeMismatch,
    UnknownKey,
    UnresolvedProcessors,
    ValidationError,
    XdgdlError,
)
from .hpf import OwnerMap, SizeResult, compile_hpf_mapping, ownermap_to_views, sizeof_type
from .model import (
    AlignDecl,
    ArrayDecl,
    BlockDecl,
    ByteBlock,
    CompoundDecl,
    DeviceDecl,
    DimensionDecl,
    Distribution,
    Document,
    EtypeDecl,
    IslandDecl,
    Major,
    ProcessorsDecl,
    ServerDecl,
    TypeDecl,
    ValidationReport,
    ViewDecl,
    Violation,
    parse_document,
    serialize_document,
    validate_document,
)
from .scatter import Fragment, gather, scatter
from .store import GridLayout, LayoutDevice, StoredFile, get_file, init_store, put_file
from .vipfs import SidecarResult, copy_in, copy_out, default_descriptor, locate_sidecar, timestamp_for_name
from .views import (
    DistributionMap,
    Extent,
    MapEntry,
    PartitionStatus,
    PartitionVerdict,
    build_distribution_map,
    check_partition,
    enumerate_extents,
    member_oracle,
    render_plan,
    selected_bytes_per_period,
    view_period,
    view_selecting,
)

__version__ = "0.1.0"
