"""Check that JSON reports are equal once their volatile keys are gone.

Usage: python .github/same_payload.py EXPECTED ACTUAL [ACTUAL ...]

``timing`` and ``store`` keys are dropped at every depth (they vary from
run to run by design), then each ACTUAL must equal EXPECTED.  Exits 1
naming the first report that differs.
"""

import json
import sys

VOLATILE = ("timing", "store")


def sans_volatile(node):
    if isinstance(node, dict):
        return {
            key: sans_volatile(value)
            for key, value in node.items()
            if key not in VOLATILE
        }
    if isinstance(node, list):
        return [sans_volatile(value) for value in node]
    return node


def load(path):
    with open(path) as handle:
        return sans_volatile(json.load(handle))


def main(expected_path, *actual_paths):
    if not actual_paths:
        sys.exit(__doc__)
    expected = load(expected_path)
    for path in actual_paths:
        if load(path) != expected:
            sys.exit(f"{path} diverged from {expected_path}")
    print(f"{', '.join(actual_paths)} == {expected_path} (sans timing, store)")


if __name__ == "__main__":
    main(*sys.argv[1:])
