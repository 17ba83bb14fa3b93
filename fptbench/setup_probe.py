"""Measure fptlib's set-up in this fresh interpreter and print it as JSON.

Usage: PYTHONPATH=src python3 fptbench/setup_probe.py '[[p, k], ...]'

Set-up is ``import fptlib``, then building every listed FieldSpec and
forcing its lazily built multiplication table.  Both stages are timed with
the Clock, so they come out in pure and in normalized seconds.
"""

import importlib
import json
import sys

from clock import Clock


def _fields(fields):
    import fptlib
    for p, k in fields:
        fptlib.FieldSpec(p, k).muli(1, 1)


def main() -> int:
    fields = json.loads(sys.argv[1])
    with Clock() as clock:
        _, err_i, pure_i, norm_i = clock.run(importlib.import_module, "fptlib")
        _, err_f, pure_f, norm_f = clock.run(_fields, fields)
    if err_i or err_f:
        print(f"set-up failed: {err_i or err_f!r}", file=sys.stderr)
        return 1
    print(json.dumps({"import_pure_s": pure_i, "import_s": norm_i,
                      "fields_pure_s": pure_f, "fields_s": norm_f}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
