#!/usr/bin/env python3
"""Compare the artifacts of two run directories, file by file.

For each file name the two directories share, prints whether the bytes are
equal.  Where they differ it says by how much:

- an expansion's ``*_coeff.npy`` (manifold, response phase and amplitude),
  per order, the max |delta| over that order's peak |coefficient|; any other
  ``*_coeff.npy`` (cycle, frames), the max |delta| over the array's peak;
- a ``.json`` file, each numeric field's relative change |delta| / max(|a|,
  |b|), and each key added or removed;
- a ``.csv`` file, per column, the max |delta| over the column's peak.

Files present in one directory only are listed.  Exits 1 on any difference;
with ``--bound X``, only on a difference that is not numeric (a missing
file, a key, a string, a shape) or on a relative difference above ``X``.
An argument that is missing, not a directory or holds no file is a usage
error: exit 2, naming the argument.

Usage: python3 scripts/diff_runs.py A B [--bound X]
"""

import argparse
import json
import os
import sys

import numpy as np

# coefficient files stacked by order on axis 0
EXPANSIONS = ("manifold_coeff.npy", "response_phase_coeff.npy",
              "response_amplitude_coeff.npy")


def relative(a, b, peak):
    """max |a - b| / peak, 0.0 when both are zero."""
    delta = float(np.max(np.abs(a - b), initial=0.0))
    return delta / peak if peak > 0 else (0.0 if delta == 0 else np.inf)


def diff_npy(name, a_path, b_path):
    """(labelled relative differences, non-numeric differences)."""
    a, b = np.load(a_path), np.load(b_path)
    if a.shape != b.shape:
        return [], [f"shape {a.shape} != {b.shape}"]
    if name in EXPANSIONS:
        return [(f"order {n}", relative(a[n], b[n], max(np.abs(a[n]).max(), np.abs(b[n]).max())))
                for n in range(len(a))], []
    return [("all", relative(a, b, max(np.abs(a).max(), np.abs(b).max())))], []


def _leaves(value, prefix=""):
    """{dotted path: leaf} of a JSON value; list items as [i]."""
    if isinstance(value, dict):
        items = ((f"{prefix}.{k}" if prefix else str(k), v) for k, v in value.items())
    elif isinstance(value, list):
        items = ((f"{prefix}[{i}]", v) for i, v in enumerate(value))
    else:
        return {prefix: value}
    out = {}
    for path, item in items:
        out.update(_leaves(item, path))
    return out


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def diff_json(name, a_path, b_path):
    with open(a_path) as fa, open(b_path) as fb:
        a, b = _leaves(json.load(fa)), _leaves(json.load(fb))
    numeric, other = [], []
    for key, x in a.items():
        if key not in b:
            other.append(f"only in A: {key}")
        elif _number(x) and _number(b[key]):
            if x != b[key]:
                numeric.append((key, relative(x, b[key], max(abs(x), abs(b[key])))))
        elif x != b[key]:
            other.append(f"changed: {key}")
    other += [f"only in B: {key}" for key in b if key not in a]
    return numeric, other


def _read_csv(path):
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    return header, np.array([[float(c) for c in line.split(",")] for line in lines[1:]])


def diff_csv(name, a_path, b_path):
    (ha, a), (hb, b) = _read_csv(a_path), _read_csv(b_path)
    if ha != hb or a.shape != b.shape:
        return [], ["header or shape"]
    return [(col, relative(a[:, j], b[:, j], max(np.abs(a[:, j]).max(), np.abs(b[:, j]).max())))
            for j, col in enumerate(ha)], []


DIFFERS = {".npy": diff_npy, ".json": diff_json, ".csv": diff_csv}


def compare(a_dir, b_dir, bound=None, out=None):
    """Print the comparison of two run directories to ``out`` (standard
    output by default); return the exit status."""
    out = out or sys.stdout
    names_a = {f for f in os.listdir(a_dir) if os.path.isfile(os.path.join(a_dir, f))}
    names_b = {f for f in os.listdir(b_dir) if os.path.isfile(os.path.join(b_dir, f))}
    failed = False
    width = max(map(len, names_a | names_b), default=0) + 2
    for name in sorted(names_a | names_b):
        if name not in names_a or name not in names_b:
            print(f"{name:<{width}}only in {'A' if name in names_a else 'B'}", file=out)
            failed = True
            continue
        a_path, b_path = os.path.join(a_dir, name), os.path.join(b_dir, name)
        with open(a_path, "rb") as fa, open(b_path, "rb") as fb:
            if fa.read() == fb.read():
                print(f"{name:<{width}}equal", file=out)
                continue
        differ = DIFFERS.get(os.path.splitext(name)[1])
        numeric, other = differ(name, a_path, b_path) if differ else ([], ["bytes"])
        worst = max((r for _, r in numeric), default=0.0)
        print(f"{name:<{width}}differs" + (f", max relative {worst:.3g}" if numeric else ""),
              file=out)
        for label, r in numeric:
            print(f"  {label:<{width - 2}}  {r:.3g}", file=out)
        for line in other:
            print(f"  not numeric: {line}", file=out)
        failed |= bool(other) or bound is None or worst > bound
    print("status:", "differ" if failed else "within bound" if bound is not None else "equal",
          file=out)
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--bound", type=float, default=None,
                        help="largest relative difference that passes")
    args = parser.parse_args(argv)
    for label, path in (("A", args.a), ("B", args.b)):
        if not os.path.isdir(path):
            parser.error(f"{label} = {path!r} is not a directory")
        if not any(os.path.isfile(os.path.join(path, f)) for f in os.listdir(path)):
            parser.error(f"{label} = {path!r} holds no file to compare")
    return compare(args.a, args.b, args.bound)


if __name__ == "__main__":
    sys.exit(main())
