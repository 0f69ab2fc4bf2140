"""Run the torusphase CLI as its console script does, optionally traced.

    python3 perfbench/cli_shim.py [--trace-out PATH] <torusphase arguments>

Without --trace-out nothing but `torusphase.cli.main` is imported, so the
process costs what `torusphase ...` costs.  With it, the tracer wraps the
package's public functions before the CLI runs and writes its spans to PATH
when the command exits, whatever the exit path.
"""
import sys


def main() -> None:
    argv = sys.argv[1:]
    if argv[:1] != ["--trace-out"]:
        from torusphase.cli import main as cli_main
        cli_main(args=argv, prog_name="torusphase")
        return
    trace_out, argv = argv[1], argv[2:]
    import tracer
    t = tracer.Tracer()
    t.install()
    from torusphase.cli import main as cli_main
    try:
        cli_main(args=argv, prog_name="torusphase")
    finally:
        t.dump(trace_out)


if __name__ == "__main__":
    main()
