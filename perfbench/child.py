"""Benchmark child process, spawned by ``run.py``.

It imports cograte first and prints ``ready``, so the parent can time
set-up from spawn to this line, then:

* ``child.py --probe`` exits at once (one set-up sample);
* ``child.py INPUTS OUTDIR RESULT --seconds S [--trace]`` runs the
  workload described in INPUTS (see ``runner.py``) and writes RESULT.
"""

import sys


def main(argv: list) -> int:
    import cograte  # noqa: F401
    import cograte.cli  # noqa: F401
    import cograte.dmc  # noqa: F401

    print("ready", flush=True)
    if argv == ["--probe"]:
        return 0
    import runner
    return runner.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
