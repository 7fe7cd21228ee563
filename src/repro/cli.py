"""Command-line entry point.

``twl-repro <experiment>`` regenerates any table or figure of the paper::

    twl-repro table2
    twl-repro fig6 --quick
    twl-repro fig6 --quick --jobs 4
    twl-repro all --jobs 8

``--quick`` runs at the reduced CI scale (same mechanisms, smaller
array, subsampled benchmark list).  ``--jobs N`` fans independent
experiment cells across N worker processes; results are bit-identical
to the serial run.  ``--batch-size N`` serves demand writes through the
engine's batched write protocol (also bit-identical; see
``docs/performance.md``).  Completed cells are cached on disk (default
``~/.cache/twl-repro/``), so re-running a figure is near-instant —
``--no-cache`` disables that, ``--cache-dir`` relocates it.

Long campaigns can be hardened (``docs/robustness.md``): ``--retries``
re-runs failed cells, ``--cell-timeout`` bounds each cell's wall
clock, ``--keep-going`` finishes the campaign past failures (a single
summary error is raised at the end), and ``--resume DIR`` stores each
finished cell in a result directory so a killed campaign restarted with
the same flag skips every finished cell — all execution knobs, so the
results stay bit-identical to a clean serial run.  ``--snapshot-every
N`` goes sub-cell: the engine periodically writes a crash-consistent
snapshot of its full state into the cache directory (with
``--no-cache``, the ``--resume`` directory; with neither it is a usage
error), and a killed cell restarted under the same identity resumes
from the last snapshot instead of from zero — still bit-identical.

Streaming workloads (``docs/workloads.md``): ``twl-repro stream`` runs
every Figure-8 scheme under a streamed workload at constant memory —
the built-in FTL dynamic generator by default, or any on-disk trace via
``--trace PATH`` (monolithic ``.npz``, chunked ``.twt``, text, or
block-trace CSV, auto-detected).  ``--chunk-size N`` sets the stream
chunk granularity; like ``--batch-size`` it cannot change results.

Determinism tooling (``docs/invariants.md``): ``twl-repro lint`` runs
the static determinism/purity pass (rules TWL001–TWL011) over the
package tree and exits non-zero on any violation; ``--sanitize`` (or
``REPRO_SANITIZE=1``) arms the runtime sanitizer, making any
global-RNG call inside engine/sim execution raise
:class:`~repro.errors.DeterminismViolation` instead of silently
breaking cache and resume bit-identity.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Callable, Dict, List, Optional

from .devtools import sanitize
from .errors import ReproError
from .exec.cache import default_cache_dir
from .exec.cells import DEFAULT_BATCH_SIZE
from .exec.policy import ON_ERROR_FAIL_FAST, ON_ERROR_KEEP_GOING, FailurePolicy
from .experiments import (
    ablations,
    energy,
    fig6,
    fig7,
    fig8,
    fig9,
    overhead,
    resilience,
    streaming,
    table1,
    table2,
)
from .experiments.setups import ExperimentSetup, default_setup, quick_setup


def _print(title: str, body: str) -> None:
    print("=" * 72)
    print(title)
    print("=" * 72)
    print(body)
    print()


def _run_table1(setup: ExperimentSetup) -> None:
    _print("Table 1 — simulation setup", table1.run(setup).render())


def _run_table2(setup: ExperimentSetup) -> None:
    _print("Table 2 — benchmarks", table2.run(setup).render(precision=1))


def _run_fig6(setup: ExperimentSetup) -> None:
    _print("Figure 6 — lifetime under attacks (years)", fig6.run(setup).render(precision=2))
    _print(
        'Figure 6 — "worn out quickly" full-scale extrapolation',
        fig6.quick_death_report(setup).render(precision=4),
    )


def _run_fig7(setup: ExperimentSetup) -> None:
    _print("Figure 7 — toss-up interval sweep", fig7.run(setup).render(precision=4))


def _run_fig8(setup: ExperimentSetup) -> None:
    _print("Figure 8 — normalized lifetime", fig8.run(setup).render(precision=3))


def _run_fig9(setup: ExperimentSetup) -> None:
    _print("Figure 9 — normalized execution time", fig9.run(setup).render(precision=4))


def _run_overhead(setup: ExperimentSetup) -> None:
    _print("Section 5.4 — design overhead", overhead.run(setup).render())


def _run_energy(setup: ExperimentSetup) -> None:
    _print("E1 — write-energy overhead", energy.run(setup).render(precision=4))


def _run_resilience(setup: ExperimentSetup) -> None:
    _print(
        "R1 — controller soft-error resilience (years)",
        resilience.run(setup).render(precision=2),
    )


def _run_streaming(setup: ExperimentSetup) -> None:
    source = setup.stream_trace or "ftl (dynamic generator)"
    _print(
        f"Streamed workload — {source}",
        streaming.run(setup).render(precision=4),
    )


def _run_ablations(setup: ExperimentSetup) -> None:
    _print("A1 — pairing policy", ablations.pairing_ablation(setup).render(precision=2))
    _print(
        "A2 — inter-pair interval",
        ablations.inter_pair_interval_ablation(setup).render(precision=4),
    )
    _print("A3 — endurance sigma", ablations.sigma_ablation(setup).render(precision=2))
    _print(
        "A5 — workload footprint",
        ablations.footprint_ablation(setup).render(precision=3),
    )
    _print(
        "A4 — toss-up endurance mode",
        ablations.remaining_endurance_ablation(setup).render(precision=2),
    )
    _print("A6 — SR structure", ablations.sr_level_ablation(setup).render(precision=2))
    _print(
        "A9 — page retirement vs TWL",
        ablations.retirement_ablation(setup).render(precision=2),
    )


_EXPERIMENTS: Dict[str, Callable[[ExperimentSetup], None]] = {
    "table1": _run_table1,
    "table2": _run_table2,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "fig8": _run_fig8,
    "fig9": _run_fig9,
    "overhead": _run_overhead,
    "ablations": _run_ablations,
    "energy": _run_energy,
    "resilience": _run_resilience,
    "stream": _run_streaming,
}


def _positive_int(text: str) -> int:
    """Argparse type for strictly positive integer options."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """Argparse type for integer options allowing zero."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    """Argparse type for strictly positive float options."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="twl-repro",
        description=(
            "Reproduce the tables and figures of 'Toss-up Wear Leveling' "
            "(DAC 2017)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["all", "report", "lint", "serve", "loadgen"],
        help=(
            "which table/figure to regenerate ('report' builds Markdown; "
            "'lint' runs the static determinism checks; 'serve' runs the "
            "campaign server and 'loadgen' its chaos client — see "
            "docs/serving.md)"
        ),
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help=(
            "arm the runtime determinism sanitizer: any global-RNG call "
            "inside engine/sim execution raises DeterminismViolation "
            "(equivalent to REPRO_SANITIZE=1; see docs/invariants.md)"
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run at the reduced CI scale",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for experiment cells (default: 1, serial)",
    )
    parser.add_argument(
        "--batch-size",
        type=_positive_int,
        default=DEFAULT_BATCH_SIZE,
        metavar="N",
        help=(
            "demand writes per engine step (default: %(default)s, the "
            "schemes' batched planners; 1 selects the per-write oracle "
            "path); results are bit-identical at any value"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result cache location (default: ~/.cache/twl-repro)",
    )
    parser.add_argument(
        "--retries",
        type=_non_negative_int,
        default=0,
        metavar="N",
        help=(
            "extra attempts for a failed cell (default: 0); retried "
            "cells are pure re-runs, so results stay bit-identical"
        ),
    )
    parser.add_argument(
        "--cell-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock budget; a cell running past it fails",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help=(
            "finish every runnable cell despite failures and raise one "
            "summary error at the end (default: stop at the first)"
        ),
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help=(
            "result directory the campaign stores each finished cell in; "
            "cells already stored there are skipped, so re-running a "
            "killed campaign with the same flag resumes it — works even "
            "with --no-cache"
        ),
    )
    parser.add_argument(
        "--snapshot-every",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "emit a crash-consistent engine snapshot every N demand "
            "writes so a killed cell resumes mid-run instead of from "
            "zero (snapshots live in the cache directory, or with "
            "--no-cache in the --resume directory; an execution knob — "
            "resumed results are bit-identical)"
        ),
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "for 'stream': stream this on-disk trace (.npz/.twt/text/CSV, "
            "auto-detected) instead of the FTL dynamic generator"
        ),
    )
    parser.add_argument(
        "--chunk-size",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "requests per stream chunk (default: 65536); an execution "
            "knob — results are bit-identical at any value"
        ),
    )
    parser.add_argument(
        "--output",
        default=None,
        help="for 'report': write the Markdown report to this file",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    if raw[:1] == ["lint"]:
        # The lint verb owns its own argument surface (paths, --format,
        # --no-classify); hand everything after the verb straight through
        # instead of teaching the experiment parser lint's flags.
        from .devtools.lint import main as lint_main

        return lint_main(raw[1:])
    if raw[:1] == ["serve"]:
        # Same verb-forwarding pattern: the server owns its own flags.
        from .serve.cli import serve_main

        return serve_main(raw[1:])
    if raw[:1] == ["loadgen"]:
        from .serve.cli import loadgen_main

        return loadgen_main(raw[1:])
    args = build_parser().parse_args(raw)
    if args.sanitize:
        # Set the env var too so pool workers under spawn arm themselves.
        os.environ[sanitize.SANITIZE_ENV] = "1"
        sanitize.install()
    else:
        sanitize.maybe_install_from_env()
    setup = quick_setup() if args.quick else default_setup()
    cache_dir = None if args.no_cache else (args.cache_dir or default_cache_dir())
    failure = FailurePolicy(
        max_retries=args.retries,
        timeout=args.cell_timeout,
        on_error=ON_ERROR_KEEP_GOING if args.keep_going else ON_ERROR_FAIL_FAST,
    )
    setup = replace(
        setup,
        jobs=max(1, args.jobs),
        cache_dir=cache_dir,
        batch_size=args.batch_size,
        failure=failure,
        resume=args.resume,
    )
    if args.trace is not None:
        setup = replace(setup, stream_trace=args.trace)
    if args.chunk_size is not None:
        setup = replace(setup, chunk_size=args.chunk_size)
    try:
        if args.snapshot_every is not None:
            setup = replace(setup, snapshot_every=args.snapshot_every)
        if args.experiment == "report":
            from .analysis.report import build_report

            text = build_report(setup)
            if args.output:
                with open(args.output, "w") as handle:
                    handle.write(text)
                print(f"report written to {args.output}")
            else:
                print(text)
            return 0
        if args.experiment == "all":
            for name in (
                "table1", "table2", "fig6", "fig7", "fig8", "fig9",
                "overhead", "energy", "ablations", "resilience", "stream",
            ):
                _EXPERIMENTS[name](setup)
        else:
            _EXPERIMENTS[args.experiment](setup)
    except ReproError as error:
        print(f"twl-repro: error: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
