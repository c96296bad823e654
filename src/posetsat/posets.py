"""Finite pattern posets given by full order-relation matrices.

A pattern is a k-by-k boolean matrix ``leq`` with ``leq[a][b]`` meaning
"point a lies at or below point b".  Constructors fix canonical
labelings (documented per constructor) so serialized patterns are
byte-stable.  Sizes are capped at 16 points, which keeps witness
bookkeeping in one machine word and covers every named pattern,
including the 4-dimensional hypercube.

Text format: a first line ``poset k`` followed by k rows of k
characters '0'/'1' giving the relation matrix row-major.  Named
patterns are addressable by keyword: ``chain:k``, ``diamond``,
``qk:k``, ``v``, ``lambda``, ``antichain:k``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

MAX_PATTERN = 16


class PatternFormatError(ValueError):
    """Malformed pattern text or keyword."""


@dataclass(frozen=True)
class PatternPoset:
    """Immutable finite poset; equality and hashing ignore the name."""

    size: int
    leq: tuple[tuple[bool, ...], ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if not 1 <= self.size <= MAX_PATTERN:
            raise ValueError(f"pattern size must be in 1..{MAX_PATTERN}, got {self.size}")
        if len(self.leq) != self.size or any(len(row) != self.size for row in self.leq):
            raise ValueError("relation matrix shape does not match size")
        object.__setattr__(self, "leq", tuple(tuple(bool(x) for x in row) for row in self.leq))

    @property
    def label(self) -> str:
        """The name, or ``poset:<size>`` when the pattern has none."""
        return self.name or f"poset:{self.size}"

    def __repr__(self) -> str:
        label = self.name or f"{self.size}-point pattern"
        return f"PatternPoset({label})"


def validate(p: PatternPoset) -> str | None:
    """Return None for a valid poset, else a description of the first
    violated axiom (reflexivity, antisymmetry, transitivity in that order)."""
    k, leq = p.size, p.leq
    for a in range(k):
        if not leq[a][a]:
            return f"reflexivity violated at point {a}"
    for a in range(k):
        for b in range(k):
            if a != b and leq[a][b] and leq[b][a]:
                return f"antisymmetry violated for points ({a}, {b})"
    for a in range(k):
        for b in range(k):
            if not leq[a][b]:
                continue
            for c in range(k):
                if leq[b][c] and not leq[a][c]:
                    return f"transitivity violated for points ({a}, {b}, {c})"
    return None


def _matrix(k, pairs) -> tuple[tuple[bool, ...], ...]:
    rows = [[a == b for b in range(k)] for a in range(k)]
    for a, b in pairs:
        rows[a][b] = True
    return tuple(tuple(row) for row in rows)


def make_chain(k: int) -> PatternPoset:
    """Total order on points 0 < 1 < ... < k-1."""
    if not 1 <= k <= MAX_PATTERN:
        raise ValueError(f"chain size must be in 1..{MAX_PATTERN}, got {k}")
    leq = tuple(tuple(a <= b for b in range(k)) for a in range(k))
    return PatternPoset(k, leq, name=f"chain:{k}")


def make_diamond() -> PatternPoset:
    """Four points: bottom 0, incomparable middles 1 and 2, top 3."""
    pairs = [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]
    return PatternPoset(4, _matrix(4, pairs), name="diamond")


def make_hypercube(k: int) -> PatternPoset:
    """Subsets of [k] ordered by inclusion; point labels are the subset
    masks 0..2^k-1, so ``make_hypercube(2)`` equals ``make_diamond()``."""
    if not 1 <= k <= 4:
        raise ValueError(f"hypercube dimension must be in 1..4, got {k}")
    size = 1 << k
    leq = tuple(tuple(a & b == a for b in range(size)) for a in range(size))
    return PatternPoset(size, leq, name=f"qk:{k}")


def make_v() -> PatternPoset:
    """Point 0 below the incomparable points 1 and 2."""
    return PatternPoset(3, _matrix(3, [(0, 1), (0, 2)]), name="v")


def make_lambda() -> PatternPoset:
    """Point 0 above the incomparable points 1 and 2 (the dual of v)."""
    return PatternPoset(3, _matrix(3, [(1, 0), (2, 0)]), name="lambda")


def make_antichain(k: int) -> PatternPoset:
    """k pairwise incomparable points; only the reflexive entries hold."""
    if not 1 <= k <= MAX_PATTERN:
        raise ValueError(f"antichain size must be in 1..{MAX_PATTERN}, got {k}")
    return PatternPoset(k, _matrix(k, []), name=f"antichain:{k}")


_DUAL_NAMES = {"v": "lambda", "lambda": "v"}


def dual(p: PatternPoset) -> PatternPoset:
    """Transpose the relation; an involution on the same point set."""
    leq = tuple(tuple(p.leq[b][a] for b in range(p.size)) for a in range(p.size))
    name = _DUAL_NAMES.get(p.name, f"dual({p.name})" if p.name else "")
    return PatternPoset(p.size, leq, name=name)


def serialize_pattern(p: PatternPoset) -> str:
    lines = [f"poset {p.size}"]
    lines.extend("".join("1" if x else "0" for x in row) for row in p.leq)
    return "\n".join(lines) + "\n"


def parse_pattern(text: str) -> PatternPoset:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    if not lines:
        raise PatternFormatError("empty pattern text")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "poset" or not head[1].isdigit():
        raise PatternFormatError("first line must be 'poset <k>'")
    k = int(head[1])
    if not 1 <= k <= MAX_PATTERN:
        raise PatternFormatError(f"pattern size must be in 1..{MAX_PATTERN}, got {k}")
    if len(lines) != k + 1:
        raise PatternFormatError(f"expected {k} matrix rows, got {len(lines) - 1}")
    rows = []
    for i, ln in enumerate(lines[1:], start=1):
        if len(ln) != k or any(ch not in "01" for ch in ln):
            raise PatternFormatError(f"row {i} must be {k} characters of '0'/'1'")
        rows.append(tuple(ch == "1" for ch in ln))
    p = PatternPoset(k, tuple(rows))
    problem = validate(p)
    if problem:
        raise PatternFormatError(f"matrix is not a partial order: {problem}")
    return p


def pattern_from_spec(word: str) -> PatternPoset:
    """Resolve a CLI keyword (chain:k, diamond, qk:k, v, lambda, antichain:k)."""
    w = word.strip().lower()
    if w == "diamond":
        return make_diamond()
    if w == "v":
        return make_v()
    if w == "lambda":
        return make_lambda()
    for prefix, ctor in (("chain:", make_chain), ("antichain:", make_antichain), ("qk:", make_hypercube)):
        if w.startswith(prefix):
            arg = w[len(prefix):]
            if not arg.isdigit():
                raise PatternFormatError(f"bad pattern keyword {word!r}")
            try:
                return ctor(int(arg))
            except ValueError as exc:
                raise PatternFormatError(str(exc)) from None
    raise PatternFormatError(f"unknown pattern keyword {word!r}")


def linear_extension(p: PatternPoset) -> tuple[int, ...]:
    """Deterministic linear extension: repeatedly take the smallest-index
    point whose strict lower set has already been output."""
    k = len(p.leq)
    placed: list[int] = []
    placed_set: set[int] = set()
    while len(placed) < k:
        for a in range(k):
            if a in placed_set:
                continue
            if all(b in placed_set for b in range(k) if b != a and p.leq[b][a]):
                placed.append(a)
                placed_set.add(a)
                break
        else:  # pragma: no cover - unreachable on valid posets
            raise ValueError("relation has a cycle; not a poset")
    return tuple(placed)
