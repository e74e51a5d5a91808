"""DESIGN.md's module map (§3) names only modules that exist.

The map is an indented tree in one code block.  A ``.py`` name on a
line belongs to the deepest directory above that line's indentation,
or, on a directory's own line, to that directory.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def map_paths():
    """Every ``.py`` path under ``src/repro/`` that the map names."""
    section = (ROOT / "DESIGN.md").read_text().split("\n## 3.", 1)[1]
    block = section.split("```", 2)[1].splitlines()
    start = block.index("src/repro/")
    dirs = []  # (indent, "name/") from the tree's root down
    paths = []
    for line in block[start + 1:]:
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip())
        if indent == 0:
            break  # the next top-level entry lies outside src/repro/
        dirs = [(i, d) for i, d in dirs if i < indent]
        head = line.split()[0]
        if head.endswith("/"):
            dirs.append((indent, head))
        prefix = "".join(d for _, d in dirs)
        paths += [(prefix + name, line) for name in re.findall(r"\w+\.py", line)]
    return paths


def test_map_names_modules_in_several_packages():
    named = {path for path, _ in map_paths()}
    assert {"bcs/validator.py", "mpi/context.py", "obs/profiler.py"} <= named


def test_every_module_the_map_names_exists():
    missing = [
        f"{path}  (from: {line.strip()})"
        for path, line in map_paths()
        if not (ROOT / "src" / "repro" / path).is_file()
    ]
    assert not missing, "DESIGN.md §3 names missing modules:\n" + "\n".join(missing)
