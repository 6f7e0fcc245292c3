"""Regenerate the stationary-deep split-route references for a seed.

    python3 bench/make_refs.py --seed 1

Each I22 case of the seed's ``stationary-deep`` workload (both routes) is
evaluated on the stationary-point-split route: ``adaptive_integrate`` at
eps=1e-14 on every piece [j/m, (j+1)/m], summed.  The values go to
``bench/refs/stationary-deep-seed<seed>.json``; ``run.py`` computes and
stores the file itself for a seed that has none.
"""

import argparse
import sys

from run import import_program


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads as wl
    path = wl.refs_path(args.seed)
    wl.write_refs(wl.compute_refs(args.seed), path)
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
