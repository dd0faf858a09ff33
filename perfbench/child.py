"""One CLI command in a fresh interpreter, the way the ``drivendelta`` script runs it.

    python3 perfbench/child.py run [--trace FILE] -- ARGS...
        import ``drivendelta.cli`` from ``src/`` of the current directory and
        return ``main(ARGS)``; with ``--trace``, record spans and counts and
        write them to FILE.  The last line on standard error is
        ``peak_rss_kib N``, the interpreter's resident high-water mark.
    python3 perfbench/child.py setup
        print the seconds taken to import ``drivendelta.cli`` and run a
        command that does no numerical work (``zero --g0 0``).
"""

import contextlib
import io
import os
import sys
import time

START = time.perf_counter()


def _import_cli():
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import drivendelta      # the package first, so -X importtime shows cli on its own
    import drivendelta.cli
    if not os.path.abspath(drivendelta.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"drivendelta was imported from {drivendelta.cli.__file__}, "
                         f"not from {src}")
    return drivendelta.cli


def _peak_rss_kib() -> int:
    # VmHWM starts afresh at exec; the rusage of a child also counts the
    # pages of the benchmark process it was forked from
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv):
    if argv[:1] == ["setup"]:
        with contextlib.redirect_stdout(io.StringIO()):
            _import_cli().main(["zero", "--g0", "0"])
        print(repr(time.perf_counter() - START))
        return 0
    if argv[:1] != ["run"] or "--" not in argv:
        raise SystemExit(__doc__)
    opts, args = argv[1:argv.index("--")], argv[argv.index("--") + 1:]
    cli = _import_cli()
    try:
        if opts[:1] != ["--trace"]:
            return cli.main(args)
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            return tracer.root(cli.main, args)
        finally:
            tracer.dump(opts[1])
    finally:
        print(f"peak_rss_kib {_peak_rss_kib()}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
