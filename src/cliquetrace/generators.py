"""Deterministic graph generators for tests and benchmarks.

All randomness is SplitMix64, so a given (parameters, seed) pair produces
the same graph on every platform and Python version. :class:`SplitMix64` is
the scalar generator; :func:`gnp` computes the same stream in fixed chunks,
bit-sliced into ``_CHUNK`` 128-bit lanes of one Python int: lane t of a
chunk holds, in its low 64 bits, the draw whose index is the chunk's first
index plus t. A lane times a 64-bit constant fits in 128 bits, so the mix
multiplies never carry into the next lane, and the shifts that feed a
multiply are masked back to each lane's low 64 bits.
"""

from __future__ import annotations

from typing import Iterator

from .errors import GraphError, GuardError
from .graph import Graph, check_vertex_count, from_edges

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_LANE = 16  # bytes per gnp lane: a 64-bit draw and room for its products
_CHUNK = 256  # lanes per gnp chunk

# gnp reads byte 8 of each lane (bits 64-71): draw + 2**65 - threshold has
# bit 65 clear (byte value 0 or 1) exactly when the draw is below threshold.
_EDGE_DIGIT = b"1100" + b"0" * 252
# One chunk's constants: a 1 in each lane, each lane's low-64-bit mask, lane
# t's input offset (t+1)*gamma from the state before the chunk's first draw,
# and the step from one chunk's inputs to the next's.
_ONES = int.from_bytes((b"\x01" + bytes(_LANE - 1)) * _CHUNK, "little")
_M64 = _ONES * _MASK64
_STEPS = int.from_bytes(
    b"".join((t * _GAMMA & _MASK64).to_bytes(_LANE, "little") for t in range(1, _CHUNK + 1)),
    "little",
)
_ADVANCE = _ONES * (_CHUNK * _GAMMA & _MASK64)

MOON_MOSER_MAX_K = 20


class SplitMix64:
    """SplitMix64 pseudo-random generator (Steele/Lea/Flood 2014, as used to
    seed the xoshiro family; public-domain reference by Vigna).

    Pinned test vectors, first three outputs per seed:
      seed 0         -> 16294208416658607535, 7960286522194355700, 487617019471545679
      seed 42        -> 13679457532755275413, 2949826092126892291, 5139283748462763858
      seed 123456789 -> 2466975172287755897, 8832083440362974766, 3534771765162737125
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform draw in [0, bound). Modulo bias is negligible for the
        desk-scale bounds used here and keeps the stream portable."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next_u64() % bound


def moon_moser(k: int) -> Graph:
    """Complete k-partite graph with k parts of size 3 (n = 3k).

    The extremal family for maximal-clique count: exactly 3**k maximal
    cliques (one vertex per part), maximum clique size k.
    """
    if not 1 <= k <= MOON_MOSER_MAX_K:
        raise GuardError(
            f"moon_moser guard: k must be in [1, {MOON_MOSER_MAX_K}], got {k}"
        )
    n = 3 * k
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if u // 3 != v // 3
    ]
    return from_edges(n, edges)


def _edge_digits(total: int, p: float, seed: int) -> Iterator[bytes]:
    """Yield the edge digits of SplitMix64(seed)'s first ``total`` draws,
    one chunk at a time: b"1" where a draw is below round(p * 2**64), else
    b"0". A chunk holds ``_CHUNK`` digits, or ``total`` when that is fewer,
    so the last chunk may run past ``total``.

    Draw k (k = 1, 2, ...) mixes the input seed + k*gamma, so lane t of a
    chunk gets its first input plus t*gamma, and each chunk's inputs are
    the last chunk's plus _CHUNK*gamma. Adding 2**65 - threshold to every
    lane leaves bit 65 clear exactly on the edges.
    """
    ones, m64, steps, advance = _ONES, _M64, _STEPS, _ADVANCE
    if total < _CHUNK:
        keep = (1 << 8 * _LANE * total) - 1
        ones, m64, steps, advance = ones & keep, m64 & keep, steps & keep, advance & keep
    size = min(total, _CHUNK) * _LANE
    bias = ones * ((1 << 65) - round(p * 2.0**64))
    x = (steps + (seed & _MASK64) * ones) & m64
    for _ in range(0, total, _CHUNK):
        z = x ^ (x >> 30) & m64
        z = (z * _MIX1) & m64
        z ^= (z >> 27) & m64
        z = (z * _MIX2) & m64
        z ^= z >> 31  # no mask: bits from the next lane land at 97 and above
        yield (z + bias).to_bytes(size, "little")[8::_LANE].translate(_EDGE_DIGIT)
        x = (x + advance) & m64


def gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) driven by SplitMix64.

    Each unordered pair (i, j), visited in row-major order, becomes an edge
    iff the next 64-bit draw is below round(p * 2**64).

    The draws come from :func:`_edge_digits`, ``_CHUNK`` lanes at a time,
    the lane's position in the stream being the draw index. Each row is
    decoded from the digit buffer as soon as its last draw is in, so memory
    stays O(n + _CHUNK). The draw order and count are those of
    :class:`SplitMix64`; the digits of a last chunk past the final pair go
    unread.
    """
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability {p} outside [0, 1]")
    if n < 0:
        raise GraphError(f"vertex count {n} is negative")
    check_vertex_count(n, "gnp")
    adj = [0] * n
    digits = bytearray()
    i, w = 0, n - 1  # the next row to decode and its draw count
    for chunk in _edge_digits(n * (n - 1) // 2, p, seed):
        digits += chunk
        start = 0
        while w and start + w <= len(digits):
            # Digit t is vertex i+1+t; reversed, the string reads bit n-1 first.
            row = int(digits[start : start + w][::-1], 2) << (i + 1)
            start += w
            adj[i] |= row
            bit = 1 << i
            while row:
                low = row & -row
                adj[low.bit_length() - 1] |= bit
                row ^= low
            i += 1
            w -= 1
        del digits[:start]
    return Graph(n=n, adj=tuple(adj))


def random_ktree(n: int, k: int, seed: int) -> Graph:
    """Random k-tree: start from K_{k+1}, attach each new vertex to a
    uniformly chosen existing k-clique. Chordal with degeneracy k."""
    if k < 1 or n <= k:
        raise GraphError(f"random_ktree requires n > k >= 1, got n={n}, k={k}")
    check_vertex_count(n, "random_ktree")
    rng = SplitMix64(seed)
    edges = [(u, v) for u in range(k + 1) for v in range(u + 1, k + 1)]
    pool: list[tuple[int, ...]] = [
        tuple(u for u in range(k + 1) if u != skip) for skip in range(k + 1)
    ]
    for v in range(k + 1, n):
        host = pool[rng.below(len(pool))]
        edges.extend((u, v) for u in host)
        # host is sorted and v exceeds all of it, so each new k-clique is
        # host minus one member with v appended, still sorted.
        pool.extend(host[:i] + host[i + 1 :] + (v,) for i in range(k))
    return from_edges(n, edges)


def named(kind: str, n: int) -> Graph:
    """Standard small families: path, cycle, star, complete, empty.

    ``path``, ``cycle``, ``complete``, ``empty`` take the vertex count;
    ``star`` takes the leaf count (vertex 0 is the center, n leaves).
    """
    if n < 1:
        raise GraphError(f"{kind} requires n >= 1, got {n}")
    check_vertex_count(n, f"{kind} graph")
    if kind == "path":
        return from_edges(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "cycle":
        if n < 3:
            raise GraphError(f"cycle requires n >= 3, got {n}")
        return from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "star":
        return from_edges(n + 1, [(0, i) for i in range(1, n + 1)])
    if kind == "complete":  # rows built directly: no list of n(n-1)/2 edges
        full = (1 << n) - 1
        return Graph(n=n, adj=tuple(full ^ (1 << v) for v in range(n)))
    if kind == "empty":
        return from_edges(n, [])
    raise GraphError(f"unknown graph family {kind!r}")


def parse_gen_spec(spec: str) -> Graph:
    """Build a graph from a generator spec string.

    Examples: ``moonmoser:k=5``, ``gnp:n=50,p=0.3,seed=1``,
    ``ktree:n=8,k=2,seed=7``, ``cycle:n=6``, ``empty:n=1000``.
    """
    name, _, arg_str = spec.partition(":")
    name = name.strip().lower()
    args: dict[str, str] = {}
    if arg_str.strip():
        for item in arg_str.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise GraphError(f"bad generator argument {item!r} in {spec!r}")
            args[key.strip()] = value.strip()

    def want(keys: set[str]) -> None:
        if set(args) != keys:
            raise GraphError(
                f"generator {name!r} expects arguments {sorted(keys)}, got {sorted(args)}"
            )

    try:
        if name == "moonmoser":
            want({"k"})
            return moon_moser(int(args["k"]))
        if name == "gnp":
            want({"n", "p", "seed"})
            return gnp(int(args["n"]), float(args["p"]), int(args["seed"]))
        if name == "ktree":
            want({"n", "k", "seed"})
            return random_ktree(int(args["n"]), int(args["k"]), int(args["seed"]))
        if name in ("path", "cycle", "star", "complete", "empty"):
            want({"n"})
            return named(name, int(args["n"]))
    except ValueError as exc:
        if isinstance(exc, (GraphError, GuardError)):
            raise
        raise GraphError(f"bad numeric value in generator spec {spec!r}: {exc}") from exc
    raise GraphError(
        f"unknown generator {name!r}; valid: moonmoser, gnp, ktree, path, cycle, star, complete, empty"
    )
