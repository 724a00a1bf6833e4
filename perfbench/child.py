"""Run one ccdig command through `ccdig.cli.main` and write its measurements.

usage: python3 child.py RESULT_JSON MODE -- CCDIG_ARGS...

MODE is one of
  plain  the program as shipped; wall time, peak RSS and minor faults
  timed  spans and counters around the public functions (spans.TIMED)
  peak   tracemalloc peaks of the two cover functions and the query path

Each command runs in a process of its own, so one command's peak
resident set cannot hide another's. The wall time covers `main` only,
not interpreter start-up or imports.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _minima_seconds(rec, argv: list[str]) -> float:
    """Time of discriminant_batch (the per-class minima and nothing else)
    on the predict command's model and queries, with the recorder paused
    so that no span or counter sees the extra call."""
    from ccdig.classifier import discriminant_batch, load_model
    from ccdig.core import parse_feature_csv

    rec.paused = True
    model = load_model(_flag(argv, "--model"))
    with open(_flag(argv, "--data"), encoding="utf-8") as fh:
        points, _ = parse_feature_csv(fh)
    start = time.perf_counter()
    discriminant_batch(model, points, 1)
    return time.perf_counter() - start


def main() -> int:
    out_path, mode, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("plain", "timed", "peak"):
        print(__doc__, file=sys.stderr)
        return 2
    import ccdig.cli

    rec = None
    if mode != "plain":
        import spans

        rec = spans.Recorder()
        if mode == "timed":
            spans.install(spans.TIMED, spans.timed, rec)
        else:
            spans.install(spans.PEAKED, spans.peaked, rec)
    start = time.perf_counter()
    code = ccdig.cli.main(argv)
    wall = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "code": code,
        "wall_s": wall,
        "maxrss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "minor_faults": usage.ru_minflt,
    }
    if rec is not None:
        result.update(rec.as_dict())
        if mode == "timed" and argv[0] == "predict" and code == 0 and "classifier.discriminant_batch" not in rec.missing:
            result["minima_s"] = _minima_seconds(rec, argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
