"""AWS-style wide-area latency model (12 regions).

The paper evaluates FlexCast on an emulated wide-area network that mimics 12
AWS regions; the emulated latencies are based on public cloudping
measurements.  The exact matrix is not published, so this module ships a
matrix of realistic public round-trip times between 12 AWS regions with the
same geographic structure the paper relies on: an America cluster, a Europe
cluster and an Asia-Pacific cluster.  Only the *relative* distances matter for
the overlays (O1/O2 nearest-neighbour construction, the regional trees
T1/T2/T3) and for the gTPC-C locality model.

All latencies are one-way milliseconds (half of the public RTT figures).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

#: Region index -> (region code, human name, geographic cluster).
#: Indices 0..11 correspond to the paper's groups 1..12.
AWS_REGIONS: List[Tuple[str, str, str]] = [
    ("us-east-1", "N. Virginia", "america"),       # 0  (paper group 1)
    ("us-east-2", "Ohio", "america"),              # 1  (paper group 2)
    ("us-west-1", "N. California", "america"),     # 2  (paper group 3)
    ("us-west-2", "Oregon", "america"),            # 3  (paper group 4)
    ("sa-east-1", "Sao Paulo", "america"),         # 4  (paper group 5)
    ("eu-west-1", "Ireland", "europe"),            # 5  (paper group 6)
    ("eu-west-2", "London", "europe"),             # 6  (paper group 7)
    ("eu-central-1", "Frankfurt", "europe"),       # 7  (paper group 8)
    ("ap-northeast-1", "Tokyo", "asia"),           # 8  (paper group 9)
    ("ap-southeast-1", "Singapore", "asia"),       # 9  (paper group 10)
    ("ap-southeast-2", "Sydney", "asia"),          # 10 (paper group 11)
    ("ap-south-1", "Mumbai", "asia"),              # 11 (paper group 12)
]

#: Number of regions in the default deployment (matches the paper).
NUM_REGIONS = len(AWS_REGIONS)

# Public round-trip times (milliseconds) between the 12 regions above,
# rounded from cloudping-style measurements.  Symmetric, zero diagonal.
_RTT_MS: List[List[float]] = [
    #  use1  use2  usw1  usw2   sa   euw1  euw2  euc1  apne  apse1 apse2  aps1
    [   0,   12,   62,   68,  115,   68,   76,   89,  145,  214,  198,  182],  # us-east-1
    [  12,    0,   50,   58,  125,   78,   85,   97,  135,  205,  190,  192],  # us-east-2
    [  62,   50,    0,   22,  172,  132,  138,  148,  107,  172,  158,  232],  # us-west-1
    [  68,   58,   22,    0,  178,  124,  132,  142,   97,  162,  140,  218],  # us-west-2
    [ 115,  125,  172,  178,    0,  178,  186,  198,  255,  318,  310,  298],  # sa-east-1
    [  68,   78,  132,  124,  178,    0,   12,   25,  200,  175,  260,  122],  # eu-west-1
    [  76,   85,  138,  132,  186,   12,    0,   15,  210,  168,  268,  112],  # eu-west-2
    [  89,   97,  148,  142,  198,   25,   15,    0,  222,  158,  278,  110],  # eu-central-1
    [ 145,  135,  107,   97,  255,  200,  210,  222,    0,   70,  105,  122],  # ap-northeast-1
    [ 214,  205,  172,  162,  318,  175,  168,  158,   70,    0,   92,   60],  # ap-southeast-1
    [ 198,  190,  158,  140,  310,  260,  268,  278,  105,   92,    0,  145],  # ap-southeast-2
    [ 182,  192,  232,  218,  298,  122,  112,  110,  122,   60,  145,    0],  # ap-south-1
]


class LatencyMatrix:
    """One-way latencies between sites, indexed by integer site id.

    The default instance models the 12-region AWS deployment from the paper.
    Custom matrices can be supplied to run the protocols on arbitrary
    geographies (see ``LatencyMatrix(matrix=...)``).
    """

    def __init__(
        self,
        matrix: Sequence[Sequence[float]] = None,
        names: Sequence[str] = None,
        local_latency: float = 0.3,
    ) -> None:
        if matrix is None:
            matrix = [[rtt / 2.0 for rtt in row] for row in _RTT_MS]
            if names is None:
                names = [code for code, _, _ in AWS_REGIONS]
        self._matrix = [list(map(float, row)) for row in matrix]
        n = len(self._matrix)
        for row in self._matrix:
            if len(row) != n:
                raise ValueError("latency matrix must be square")
        self._names = list(names) if names is not None else [f"site-{i}" for i in range(n)]
        if len(self._names) != n:
            raise ValueError("names must match matrix dimension")
        self._local = float(local_latency)

    # ------------------------------------------------------------ properties
    @property
    def num_sites(self) -> int:
        return len(self._matrix)

    @property
    def names(self) -> List[str]:
        return list(self._names)

    # --------------------------------------------------------------- queries
    def latency(self, src: int, dst: int) -> float:
        """One-way latency in milliseconds from ``src`` to ``dst``.

        Same-site communication uses ``local_latency`` (LAN/loopback cost)
        rather than zero so that ordering within a site still consumes time.
        """
        if src == dst:
            return self._local
        return self._matrix[src][dst]

    def rtt(self, src: int, dst: int) -> float:
        """Round-trip time between two sites."""
        return self.latency(src, dst) + self.latency(dst, src)

    def nearest_sites(self, site: int) -> List[int]:
        """All other sites ordered from nearest to farthest from ``site``.

        This ordering drives both the gTPC-C locality model (pick the nearest
        warehouse with probability equal to the locality rate, otherwise the
        next nearest, and so on) and the O1/O2 overlay constructions.
        """
        others = [s for s in range(self.num_sites) if s != site]
        return sorted(others, key=lambda s: (self.latency(site, s), s))

    def centroid_site(self) -> int:
        """Site minimising the sum of latencies to all other sites.

        The paper seeds overlay O1 at the "central node", and ``build_o1``
        seeds it here.  With the AWS matrix this is site 1, ``us-east-2``
        (613.8 ms summed), not a European region; see ROADMAP.md, "Build O1
        as the paper describes it".
        """
        best = min(
            range(self.num_sites),
            key=lambda s: (sum(self.latency(s, d) for d in range(self.num_sites)), s),
        )
        return best

    def cluster(self, site: int) -> str:
        """Geographic cluster name for the default AWS matrix."""
        if self.num_sites == NUM_REGIONS and self._names[site] == AWS_REGIONS[site][0]:
            return AWS_REGIONS[site][2]
        return "unknown"

    def as_dict(self) -> Dict[str, List[float]]:
        """Export the matrix keyed by site name (used by the asyncio runtime
        to inject the same delays over real sockets)."""
        return {self._names[i]: list(self._matrix[i]) for i in range(self.num_sites)}


@dataclass(frozen=True)
class Region:
    """Metadata describing one region/group in the default deployment."""

    index: int
    code: str
    name: str
    cluster: str


def default_regions() -> List[Region]:
    """The 12 default regions as :class:`Region` records."""
    return [
        Region(index=i, code=code, name=name, cluster=cluster)
        for i, (code, name, cluster) in enumerate(AWS_REGIONS)
    ]


def aws_latency_matrix(local_latency: float = 0.3) -> LatencyMatrix:
    """The default 12-region AWS-style latency matrix used across the repo."""
    return LatencyMatrix(local_latency=local_latency)
