"""One timed run of the pipeline, in a fresh process.

Usage: ``python child.py MODE TRACE`` from a workload directory that holds
``config.cfg``, with the package on ``PYTHONPATH``. MODE is ``run-all`` or
``recluster`` (cluster, then link); TRACE is 0 or 1. Standard output is
one JSON object with the run's measurements.

``setup_s`` covers importing the package and loading and validating the
config. ``wall_s`` runs from the first stage call to the return of the
last one, which writes the last artifact. ``cpu_s`` is the user plus
system time of this process and its reaped children over the same span.
``peak_rss_mb`` is this process's peak resident set.
"""
import sys
import time

STAGES = {
    "run-all": ("run_all",),
    "recluster": ("stage_cluster", "stage_link"),
}


def main(mode: str, traced: bool) -> dict:
    setup_start = time.perf_counter()
    from softmentions import cli
    from softmentions.config import load_config

    cfg = load_config("config.cfg")
    cfg.validate()
    setup_s = time.perf_counter() - setup_start

    import resource

    def cpu() -> float:
        return sum(
            usage.ru_utime + usage.ru_stime
            for usage in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        )

    tracer = None
    if traced:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    cpu_start = cpu()
    wall_start = time.perf_counter()
    for stage in STAGES[mode]:
        getattr(cli, stage)(cfg)
    wall_s = time.perf_counter() - wall_start
    cpu_s = cpu() - cpu_start
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "package": cli.__file__,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
    return result


if __name__ == "__main__":
    import json

    print(json.dumps(main(sys.argv[1], sys.argv[2] == "1")))
