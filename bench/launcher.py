"""Traced stand-in for the ``scx`` console script.

    PYTHONPATH=src python bench/launcher.py --spans PATH --job N -- ARGS...

times ``import scx`` as a ``cli.import`` span, installs the benchmark's
wrappers, runs ``scx.cli.main(ARGS)`` exactly as the console script does
and writes the spans to PATH once, at exit, also when the command
raises (the traceback and exit status stay those of the real script).
"""

import sys

import tracing


def main():
    argv = sys.argv[1:]
    split = argv.index("--")
    opts, args = argv[:split], argv[split + 1:]
    spans = opts[opts.index("--spans") + 1]
    tracer = tracing.Tracer()
    tracer.current_job = int(opts[opts.index("--job") + 1])
    idx = tracer.open(tracer.name_id(tracing.IMPORT_SPAN))
    import scx
    import scx.cli
    tracer.close(idx)
    tracing.install(tracer, scx)
    sys.argv = ["scx", *args]
    try:
        return scx.cli.main(args)
    finally:
        tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main())
