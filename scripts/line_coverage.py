#!/usr/bin/env python3
"""Line coverage of src/ from a --coverage build, read from gcov's JSON.

    $ scripts/line_coverage.py BUILD_DIR

Run the instrumented binaries first (scripts/check.sh coverage runs
ctest). The script runs `gcov --json-format --stdout` over the notes file
(.gcno) of every object under BUILD_DIR, so an object that never ran
counts as uncovered, keeps the lines of files under src/, and counts a
line as covered when any object executed it: a header's inline code is
compiled into many objects. gcovr and lcov would report the same; this
needs only gcov.

Prints the covered and instrumented line counts, their percentage and the
least-covered files. Exit status: 0, or 1 when the percentage is below
FLOOR, or 2 on usage or environment errors.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Objects per gcov call, to keep command lines short.
BATCH = 64
# Least-covered files listed after the total.
WORST = 10
# Src line coverage below this fails, percent: the value measured when the
# floor was set (5,833 of 6,056 lines, 96.32%). Raise it as tests reach
# more code.
FLOOR = 96.3


def gcov_reports(notes: list[pathlib.Path]):
    for start in range(0, len(notes), BATCH):
        batch = [str(p) for p in notes[start:start + BATCH]]
        result = subprocess.run(
            ["gcov", "--json-format", "--stdout", *batch],
            capture_output=True, text=True, check=False)
        if result.returncode != 0:
            sys.exit(f"gcov failed: {result.stderr.strip()}")
        for line in result.stdout.splitlines():
            if line.startswith("{"):
                yield json.loads(line)


def src_lines(reports) -> dict[pathlib.Path, dict[int, bool]]:
    """Per src file, line number -> executed by any object."""
    lines: dict[pathlib.Path, dict[int, bool]] = {}
    for report in reports:
        cwd = pathlib.Path(report.get("current_working_directory", "."))
        for entry in report["files"]:
            path = (cwd / entry["file"]).resolve()
            # A stale object in a reused build tree still names a source
            # that has since been deleted; it has no lines to cover.
            if SRC not in path.parents or not path.exists():
                continue
            per_line = lines.setdefault(path, {})
            for line in entry["lines"]:
                number = line["line_number"]
                per_line[number] = per_line.get(number, False) or \
                    line["count"] > 0
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_dir", type=pathlib.Path)
    args = parser.parse_args()

    notes = sorted(args.build_dir.rglob("*.gcno"))
    if not notes:
        print(f"{sys.argv[0]}: no .gcno files under {args.build_dir}; "
              "build with --coverage first", file=sys.stderr)
        return 2
    # Files with no executable lines (declarations only) carry no weight.
    lines = {path: hit for path, hit in src_lines(gcov_reports(notes)).items()
             if hit}
    covered = sum(sum(hit.values()) for hit in lines.values())
    total = sum(len(hit) for hit in lines.values())
    if total == 0:
        print(f"{sys.argv[0]}: no src lines instrumented", file=sys.stderr)
        return 2
    percent = 100.0 * covered / total
    print(f"src line coverage: {covered}/{total} lines ({percent:.1f}%) "
          f"in {len(lines)} files")
    by_share = sorted(lines.items(),
                      key=lambda kv: (sum(kv[1].values()) / len(kv[1]),
                                      str(kv[0])))
    for path, hit in by_share[:WORST]:
        share = 100.0 * sum(hit.values()) / len(hit)
        print(f"  {path.relative_to(ROOT)}: {sum(hit.values())}/{len(hit)} "
              f"({share:.1f}%)")
    if percent < FLOOR:
        print(f"src line coverage {percent:.1f}% is below the floor "
              f"{FLOOR:.1f}%", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
