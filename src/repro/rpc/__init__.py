"""A Sun-RPC-like remote procedure call layer.

NFS runs over ONC RPC with XDR serialization; this package reproduces the
pieces DisCFS needs:

* :mod:`repro.rpc.xdr` — XDR encoding/decoding (RFC 4506 subset),
* :mod:`repro.rpc.message` — call/reply framing with transaction ids and
  accept status codes,
* :mod:`repro.rpc.transport` — pluggable transports: in-process (fast,
  deterministic, used by most tests/benchmarks) and TCP sockets with
  record marking (used by the distributed examples),
* :mod:`repro.rpc.server` / :mod:`repro.rpc.client` — program dispatch
  and call stubs.

The DisCFS security layer (``repro.ipsec``) wraps a transport, so every
byte of RPC traffic can be authenticated to the client's public key —
exactly how the prototype bound NFS requests to IKE identities.
"""

from repro.rpc.client import RPCClient
from repro.rpc.server import RPCProgram, RPCServer
from repro.rpc.transport import InProcessTransport, TCPTransport, serve_tcp
from repro.rpc.xdr import XDRDecoder, XDREncoder

__all__ = [
    "RPCClient",
    "RPCProgram",
    "RPCServer",
    "InProcessTransport",
    "TCPTransport",
    "serve_tcp",
    "XDREncoder",
    "XDRDecoder",
]
