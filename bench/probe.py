"""Set-up probe: a fresh interpreter imports ``latfield.cli`` and loads a
config, which every CLI invocation pays before it computes.

    python bench/probe.py CONFIG SUBCOMMAND

Prints one JSON object with ``setup_s`` (import plus config load) and
``load_run_config_s`` (the config load alone).
"""

import time

start = time.perf_counter()

import sys  # noqa: E402

import latfield.cli  # noqa: E402

imported = time.perf_counter()
latfield.cli.load_run_config(sys.argv[1], sys.argv[2])
end = time.perf_counter()
print(f'{{"setup_s": {end - start!r}, "load_run_config_s": {end - imported!r}}}')
