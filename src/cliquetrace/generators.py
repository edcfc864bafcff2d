"""Deterministic graph generators for tests and benchmarks.

All randomness is SplitMix64, so a given (parameters, seed) pair produces
the same graph on every platform and Python version. :class:`SplitMix64` is
the scalar generator; :func:`gnp` computes the same stream a row at a time,
bit-sliced into 128-bit lanes of one Python int: row i's n-i-1 draws sit in
n-i-1 lanes, lane t holding the draw for vertex n-1-t in its low 64 bits.
A lane times a 64-bit constant fits in 128 bits, so the mix multiplies
never carry into the next lane, and the shifts that feed a multiply are
masked back to each lane's low 64 bits.
"""

from __future__ import annotations

from .errors import GraphError, GuardError
from .graph import Graph, from_edges

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_LANE = 16  # bytes per gnp lane: a 64-bit draw and room for its products

# gnp reads byte 8 of each lane (bits 64-71): draw + 2**65 - threshold has
# bit 65 clear (byte value 0 or 1) exactly when the draw is below threshold.
_EDGE_DIGIT = b"1100" + b"0" * 252

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


def gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) driven by SplitMix64.

    Each unordered pair (i, j), visited in row-major order, becomes an edge
    iff the next 64-bit draw is below round(p * 2**64).

    The draws of row i are computed together: with w = n-i-1 lanes of 128
    bits, lane t starts as state + (w-t)*gamma, the input of the draw for
    vertex n-1-t, and goes through the SplitMix64 mix. Adding
    2**65 - threshold to every lane leaves bit 65 clear exactly on the
    edges; those bits, read lane 0 first, are the row's bits n-1 down to
    i+1. The draw order and count are those of :class:`SplitMix64`.
    """
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability {p} outside [0, 1]")
    if n < 0:
        raise GraphError(f"vertex count {n} is negative")
    width = max(n - 1, 0)
    ones = int.from_bytes((b"\x01" + bytes(_LANE - 1)) * width, "little")
    m64 = ones * _MASK64
    bias = ones * ((1 << 65) - round(p * 2.0**64))
    steps = int.from_bytes(
        b"".join(
            (k * _GAMMA & _MASK64).to_bytes(_LANE, "little")
            for k in range(width, 0, -1)
        ),
        "little",
    )
    adj = [0] * n
    state = seed & _MASK64
    for i in range(width):
        w = width - i
        z = (steps + state * ones) & m64
        z ^= (z >> 30) & m64
        z = (z * _MIX1) & m64
        z ^= (z >> 27) & m64
        z = (z * _MIX2) & m64
        z ^= z >> 31  # no mask: bits from the next lane land at 97 and above
        digits = (z + bias).to_bytes(w * _LANE, "little")[8::_LANE]
        row = int(digits.translate(_EDGE_DIGIT), 2) << (i + 1)
        adj[i] |= row
        bit = 1 << i
        while row:
            low = row & -row
            adj[low.bit_length() - 1] |= bit
            row ^= low
        state = (state + w * _GAMMA) & _MASK64
        steps >>= 8 * _LANE
        ones >>= 8 * _LANE
        m64 >>= 8 * _LANE
        bias >>= 8 * _LANE
    return Graph(n=n, adj=tuple(adj))


def random_ktree(n: int, k: int, seed: int) -> Graph:
    """Random k-tree: start from K_{k+1}, attach each new vertex to a
    uniformly chosen existing k-clique. Chordal with degeneracy k."""
    if k < 1 or n <= k:
        raise GraphError(f"random_ktree requires n > k >= 1, got n={n}, k={k}")
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
    if kind == "path":
        return from_edges(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "cycle":
        if n < 3:
            raise GraphError(f"cycle requires n >= 3, got {n}")
        return from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "star":
        return from_edges(n + 1, [(0, i) for i in range(1, n + 1)])
    if kind == "complete":
        return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
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
