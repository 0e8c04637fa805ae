"""Run ``python -m repro`` commands inside one child process.

Usage: ``python perfbench/child.py SPANS_FILE ARGV_LISTS_JSON``

``ARGV_LISTS_JSON`` is a JSON list of argument lists, each passed to
``repro.__main__.main`` in turn; the exit code is the first nonzero one.
With ``SPANS_FILE`` other than ``-`` the run is traced: layer spans (imports
included) are recorded from the moment the interpreter reaches this file and
written to ``SPANS_FILE`` when the commands end.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402  (sys.path[0] is this directory)


def main():
    spans_path, argv_lists = sys.argv[1], json.loads(sys.argv[2])
    recorder = spans.Recorder()
    if spans_path != "-":
        recorder.active = True
        recorder.request = 0
        spans.install_import_hook(recorder)
        recorder.begin("import")
    from repro.__main__ import main as repro_main
    if recorder.active:
        recorder.end()
    code = 0
    for argv in argv_lists:
        result = repro_main(argv)
        code = code or result
    sys.stdout.flush()
    if recorder.active:
        recorder.dump(spans_path, t0=T0, t1=time.perf_counter())
    return code


if __name__ == "__main__":
    sys.exit(main())
