"""Random flow-set construction.

The paper's Figure 7/9 experiments note that "sources and destinations
change randomly at every execution" — important because RSS fairness
depends entirely on which queues the random five-tuples collide on.
"""

from __future__ import annotations

import random
from typing import List, Set, Tuple

from repro.net.five_tuple import PROTO_TCP, FiveTuple

#: Client addresses live in 10.0.0.0/16, servers in 10.1.0.0/16 — the
#: experiment harness uses the /16 to pick the egress direction.
CLIENT_NET = 0x0A000000
SERVER_NET = 0x0A010000
#: Default server port: iperf3's.
SERVER_PORT = 5201

#: Widths of the three per-flow draws: host part 1..0xFFFE of each /16,
#: client port 1024..65535. Both are 16-bit numbers.
_HOST_WIDTH = 0xFFFE
_PORT_WIDTH = 65536 - 1024


def draw_endpoints(rng: random.Random) -> Tuple[int, int, int]:
    """One random flow's ``(client host, server host, client port)``.

    The host parts are the low 16 bits of the two addresses. ``rng`` is
    consumed exactly as by ``randrange(1, 0xFFFF)`` twice and then
    ``randrange(1024, 65536)``, which in CPython draw ``getrandbits(16)``
    until a value falls below the range's width: the same values and
    the same RNG state afterwards, without ``randrange``'s per-call
    argument handling.
    """
    getrandbits = rng.getrandbits
    src = getrandbits(16)
    while src >= _HOST_WIDTH:
        src = getrandbits(16)
    dst = getrandbits(16)
    while dst >= _HOST_WIDTH:
        dst = getrandbits(16)
    port = getrandbits(16)
    while port >= _PORT_WIDTH:
        port = getrandbits(16)
    return src + 1, dst + 1, port + 1024


def random_tcp_flows(
    count: int,
    rng: random.Random,
    server_port: int = SERVER_PORT,
) -> List[FiveTuple]:
    """``count`` distinct client->server TCP five-tuples."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    flows: List[FiveTuple] = []
    seen: Set[FiveTuple] = set()
    while len(flows) < count:
        src_host, dst_host, src_port = draw_endpoints(rng)
        flow = FiveTuple(
            CLIENT_NET | src_host, SERVER_NET | dst_host, src_port, server_port, PROTO_TCP
        )
        if flow in seen:
            continue
        seen.add(flow)
        flows.append(flow)
    return flows


def is_toward_server(dst_ip: int) -> bool:
    """True if the address belongs to the server /16."""
    return (dst_ip & 0xFFFF0000) == SERVER_NET
