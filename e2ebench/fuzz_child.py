"""Run ``repro fuzz`` through its real CLI entry point, stamping cases.

Usage: ``python fuzz_child.py fuzz --jobs 1 ...`` with the checkout's
``src`` on ``PYTHONPATH``.

The fuzz engine starts every case with one call to
``repro.fuzz.engine.generate_case``.  This wrapper first times the
host-speed probe (``measure.probe_seconds``, on the core the case is
about to run on), then records the monotonic clock, so a stamp and the next case's probe
bracket one whole case (generation, every oracle lane, coverage and
the interrupt probe).  Five more probes run before the
imports, for set-up.  The CLI's JSON report goes to stdout untouched;
the stamps go to stderr as one line prefixed with :data:`MARK`.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from measure import boot_probe_seconds, probe_seconds

MARK = "E2EBENCH-STAMPS "


def main(argv) -> int:
    # The start-up probe: before the imports, so set-up can be scaled
    # to the reference host speed too; its own time is left out.
    boot_started = time.monotonic()
    boot_probe = boot_probe_seconds()
    boot_probe_s = time.monotonic() - boot_started
    import repro.fuzz.engine as engine
    from repro import cli

    starts, probes = [], []
    generate_case = engine.generate_case

    def stamped_generate_case(seed, config):
        probes.append(probe_seconds())
        starts.append(time.monotonic())
        return generate_case(seed, config)

    engine.generate_case = stamped_generate_case
    code = cli.main(argv)
    end = time.monotonic()
    sys.stdout.flush()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    stamps = {
        "starts": starts,
        "probes": probes,
        "boot_probe": boot_probe,
        "boot_probe_s": boot_probe_s,
        "end": end,
        "max_rss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    print(MARK + json.dumps(stamps), file=sys.stderr, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
