"""Cover relation and DOT export for subset families.

The Hasse diagram of a family under inclusion keeps only cover edges:
a -> b when a is a strict subset of b with no member strictly between.
Node order and the emitted text are deterministic, so DOT output can be
used in golden files.
"""

from __future__ import annotations

from .families import SetFamily, elements_of

MAX_HASSE = 256


def cover_edges(f: SetFamily) -> tuple[tuple[int, int], ...]:
    """Cover pairs as (lower index, upper index) into f.members."""
    ms = f.members
    edges = []
    for bi, b in enumerate(ms):
        below = [ai for ai in range(len(ms)) if ms[ai] != b and ms[ai] & b == ms[ai]]
        for ai in below:
            a = ms[ai]
            if not any(
                ms[ci] != a and ms[ci] != b and a & ms[ci] == a and ms[ci] & b == ms[ci]
                for ci in below
            ):
                edges.append((ai, bi))
    return tuple(sorted(edges))


def _label(mask: int) -> str:
    if mask == 0:
        return "{}"
    return "{" + ",".join(str(e) for e in elements_of(mask)) + "}"


_CLASS_COLORS = {
    "A": "lightblue",
    "X": "lightsalmon",
    "GB": "palegreen",
    "HY": "khaki",
}


def hasse_dot(f: SetFamily, classes: dict[str, set[int]] | None = None) -> str:
    """DOT digraph of the cover relation; edges point upward (rankdir=BT).

    ``classes`` may map class labels (A, X, GB, HY) to member-mask sets;
    member nodes are then fill-colored and annotated accordingly.
    """
    if len(f) > MAX_HASSE:
        raise ValueError(f"hasse export capped at {MAX_HASSE} members, got {len(f)}")
    lines = ["digraph hasse {"]
    lines.append("  rankdir=BT;")
    lines.append('  node [shape=box, style="rounded,filled", fillcolor=white];')
    for i, m in enumerate(f.members):
        tags = []
        color = "white"
        if classes:
            for cname in ("A", "X", "GB", "HY"):
                if m in classes.get(cname, ()):
                    tags.append(cname)
                    color = _CLASS_COLORS[cname]
        tag = f"\\n[{','.join(tags)}]" if tags else ""
        lines.append(f'  n{i} [label="{_label(m)}{tag}", fillcolor={color}];')
    for ai, bi in cover_edges(f):
        lines.append(f"  n{ai} -> n{bi};")
    lines.append("}")
    return "\n".join(lines) + "\n"
