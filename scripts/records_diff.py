#!/usr/bin/env python3
"""Count, per field path, how many records of two records files differ.

    python3 scripts/records_diff.py OLD NEW

OLD and NEW are ``records.jsonl`` files.  Records are matched by their key
(question_id, method, seed) and compared field by field, leaving ``timing``
out.  A path names the first level at which the two records part: a member
present on one side only, a list whose length differs, or a leaf whose JSON
differs.  List indices print as ``[*]``, so a path counts each record once
however many of its list entries differ there.  A key present in one file
only is counted under ``only in OLD`` or ``only in NEW``.

It prints one ``count path`` line per differing path, sorted by path, then
a summary line, and exits 1 when any record differs or is unmatched.  A file
that is missing or does not decode as a records file prints ``error:`` and
exits 2, so status 1 always means the records differ.
"""

import argparse
import json
import sys
from collections import Counter

from ipuq.campaign import RecordsSchemaError, load_run_records


def diff_paths(old, new, path: str = "") -> set[str]:
    """The paths at which ``old`` and ``new`` part."""
    if isinstance(old, dict) and isinstance(new, dict):
        paths: set[str] = set()
        for name in old.keys() | new.keys():
            where = f"{path}.{name}" if path else name
            if name not in old or name not in new:
                paths.add(where)
            else:
                paths |= diff_paths(old[name], new[name], where)
        return paths
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return {path}
        return {p for a, b in zip(old, new) for p in diff_paths(a, b, f"{path}[*]")}
    return set() if json.dumps(old) == json.dumps(new) else {path}


def _by_key(path: str) -> dict[tuple, dict]:
    records = {}
    for rec in load_run_records(path):
        key = rec["key"]
        records[key["question_id"], key["method"], key["seed"]] = {
            name: value for name, value in rec.items() if name != "timing"
        }
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old", help="the records file to compare from")
    ap.add_argument("new", help="the records file to compare to")
    args = ap.parse_args(argv)
    try:
        old, new = _by_key(args.old), _by_key(args.new)
    except (OSError, RecordsSchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    counts: Counter[str] = Counter()
    differ = 0
    for key in old.keys() & new.keys():
        paths = diff_paths(old[key], new[key])
        counts.update(paths)
        differ += bool(paths)
    only_old, only_new = len(old.keys() - new.keys()), len(new.keys() - old.keys())
    for path in sorted(counts):
        print(f"{counts[path]:6d} {path}")
    matched = len(old.keys() & new.keys())
    print(f"{differ} of {matched} matched records differ; "
          f"only in OLD: {only_old}, only in NEW: {only_new}")
    return 1 if differ or only_old or only_new else 0


if __name__ == "__main__":
    sys.exit(main())
