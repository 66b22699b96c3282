"""Command line: run one simulation study and print its result as JSON.

    python -m circfit sim1 --n 200 --reps 2 --seed 1

The ``circfit`` console script runs the same ``main``.  The printed object
is the ``StudyResult`` of ``circfit.studies.run_study``, with each
replicate's parameter records and predictive p-values.  A study that
cannot be set up (no replicates, too few observations) ends in a usage
error with status 2, as a bad option does.
"""

import argparse
import dataclasses
import json
import sys

from .priors import ConfigurationError
from .studies import STUDY_NAMES, run_study


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="circfit", description=__doc__.splitlines()[0]
    )
    parser.add_argument("study", choices=STUDY_NAMES)
    parser.add_argument(
        "--n", type=int, default=None,
        help="observations per replicate (default: the study's own size)",
    )
    parser.add_argument("--reps", type=int, default=100)
    parser.add_argument(
        "--seed", type=int, default=1,
        help="replicate r uses data seed SEED + r",
    )
    args = parser.parse_args(argv)
    try:
        result = run_study(
            args.study, n=args.n, reps=args.reps, seed=args.seed
        )
    except ConfigurationError as err:
        parser.error(str(err))
    json.dump(dataclasses.asdict(result), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
