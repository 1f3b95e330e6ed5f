"""Per-layer diff of two traced runs, printed as a table.

    python3 perfbench/diff.py BASE NEW

``BASE`` and ``NEW`` are result files written by ``run.py --trace 1`` or
directories of them (``.perfbench/results`` by default); directories are
matched file by file.  For every workload the table lists each per-layer
metric (self time, calls, ratios) and each end-to-end metric of the
untraced parts, with the change and the ratio new / base, so a change
can show in which layer its saving appears.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple


def load(path: Path) -> Dict[str, Dict]:
    """``file name -> result`` for a result file or a directory of them."""
    files = sorted(path.glob("*-trace1.json")) if path.is_dir() else [path]
    return {f.name: json.loads(f.read_text()) for f in files}


def rows(base: Dict[str, float], new: Dict[str, float]) -> List[Tuple]:
    table = []
    for name in list(base) + [n for n in new if n not in base]:
        a, b = base.get(name), new.get(name)
        delta = None if a is None or b is None else b - a
        ratio = None if delta is None or a == 0 else b / a
        table.append((name, a, b, delta, ratio))
    return table


def _cell(value: Optional[float]) -> str:
    return f"{'-':>12}" if value is None else f"{value:>12.6g}"


def render(title: str, base: Dict, new: Dict) -> str:
    lines = [f"== {title}", f"{'metric':<34}{'base':>12}{'new':>12}{'delta':>12}{'new/base':>12}"]
    for section in ("per_layer", "end_to_end"):
        for name, a, b, delta, ratio in rows(base.get(section, {}), new.get(section, {})):
            lines.append(f"{name:<34}{_cell(a)}{_cell(b)}{_cell(delta)}{_cell(ratio)}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Per-layer diff of two traced runs.")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    if len(base) == 1 and len(new) == 1:
        pairs = [(next(iter(base.values())), next(iter(new.values())))]
    else:
        pairs = [(base[name], new[name]) for name in sorted(base) if name in new]
    if not pairs:
        print("error: no result files to compare", file=sys.stderr)
        return 1
    for a, b in pairs:
        ha, hb = a["header"], b["header"]
        title = (f"{ha['workload']}  base seed {ha['seed']} @ {ha['git_sha'][:10]}"
                 f"  new seed {hb['seed']} @ {hb['git_sha'][:10]}")
        print(render(title, a, b))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
