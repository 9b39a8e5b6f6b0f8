"""The Moira server — a single UNIX process fronting the database (§5.4).

It listens for connections (TCP via ``TcpServerTransport`` or in-process
for tests), authenticates clients with the simulated Kerberos, performs
access control on side-effecting queries via the capacls relation, and
executes predefined queries against the one shared database backend
opened "only once, at the start up time of the daemon".
"""

from repro.server.access import ACL_COLUMNS, AccessCache, seed_capacls
from repro.server.moira_server import MoiraServer, ServerStats

__all__ = ["MoiraServer", "ServerStats", "AccessCache", "ACL_COLUMNS",
           "seed_capacls"]
