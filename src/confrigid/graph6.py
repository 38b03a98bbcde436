"""graph6 encoding and decoding.

Bit-exact format: every byte is 63+v with v in [0, 63].  The size field is a
single byte n+63 for n <= 62, otherwise the byte 126 followed by three bytes
encoding n in 18 bits, big-endian.  Adjacency bits are the upper triangle in
column-major order x(0,1), x(0,2), x(1,2), x(0,3), ... packed six per byte,
most significant bit first, zero-padded at the end.  A record may start
with the optional header ">>graph6<<", which `networkx.write_graph6` writes
by default.
"""

from __future__ import annotations

from .errors import Graph6Error, GraphTooLargeError

_MAX_N = 1 << 18
_HEADER = b">>graph6<<"
# the first bytes of the sibling formats, which share graph6's files and tools
_OTHER_FORMATS = {b":": "sparse6", b">>sparse6<<": "sparse6",
                  b"&": "digraph6", b">>digraph6<<": "digraph6"}


def _read_size(data: bytes) -> tuple[int, int]:
    """Return (n, number of header bytes consumed)."""
    if not data:
        raise Graph6Error("empty graph6 record")
    b0 = data[0]
    if b0 < 63 or b0 > 126:
        raise Graph6Error(f"invalid graph6 byte {b0}")
    if b0 != 126:
        return b0 - 63, 1
    if len(data) < 4:
        raise Graph6Error("truncated extended size header")
    n = 0
    for b in data[1:4]:
        if b < 63 or b > 126:
            raise Graph6Error(f"invalid graph6 byte {b}")
        n = (n << 6) | (b - 63)
    return n, 4


def parse_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Decode one graph6 record into (n, sorted edge list)."""
    data = text.strip("\n\r").encode("ascii").removeprefix(_HEADER)
    for mark, fmt in _OTHER_FORMATS.items():
        if data.startswith(mark):
            raise Graph6Error(f"a {fmt} record, not graph6: only graph6 is read")
    n, off = _read_size(data)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[off:]
    if len(body) < nbytes:
        raise Graph6Error(
            f"truncated adjacency data: need {nbytes} bytes, got {len(body)}"
        )
    if len(body) > nbytes:
        raise Graph6Error("trailing bytes after adjacency data")
    bits = []
    for b in body:
        if b < 63 or b > 126:
            raise Graph6Error(f"invalid graph6 byte {b}")
        v = b - 63
        bits.extend((v >> shift) & 1 for shift in range(5, -1, -1))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    edges.sort()
    return n, edges


def emit_graph6(n: int, edges: list[tuple[int, int]]) -> str:
    """Encode (n, edge list) as a canonical graph6 string."""
    if n >= _MAX_N:
        raise GraphTooLargeError(f"graph6 supports n < 2^18, got {n}")
    if n <= 62:
        header = [63 + n]
    else:
        header = [126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)]
    adj = set(edges)
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in adj else 0)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for k in range(0, len(bits), 6):
        v = 0
        for bit in bits[k : k + 6]:
            v = (v << 1) | bit
        body.append(63 + v)
    return bytes(header + body).decode("ascii")
