#!/usr/bin/env python3
"""Stress the agreement between the two Alexander pipelines.

Generates random sign-pure (homogeneous) braid words with knot closure
and compares the Burau determinant route against the Seifert matrix of
the Bennequin surface, up to units.  Any mismatch would mean the brick
sign table and the Burau conventions have drifted apart, so this script
is the fast regression alarm for convention changes.

    python scripts/crosscheck_pipelines.py --count 200 --seed 7

Exit code 0 when every word agrees, 1 on a mismatch or any error, a usage
error included.
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from braidkit.braid import BraidWord, closure_components, format_braid_text
from braidkit.invariants import (
    alexander_from_burau,
    alexander_from_seifert,
    brick_seifert,
)
from braidkit.laurent import to_text


def random_homogeneous_knot(rng, max_strands, max_len):
    while True:
        strands = rng.randint(2, max_strands)
        signs = [rng.choice((1, -1)) for _ in range(strands - 1)]
        length = rng.randint(strands - 1, max_len)
        body = [rng.randint(1, strands - 1) for _ in range(length)]
        body += list(range(1, strands))  # every column occupied
        rng.shuffle(body)
        word = BraidWord(strands, tuple(signs[i - 1] * i for i in body))
        if closure_components(word) == 1:
            return word


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--max-strands", type=int, default=5)
    ap.add_argument("--max-len", type=int, default=14)
    ap.add_argument(
        "--verbose", action="store_true", help="print every word checked"
    )
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which would read as
        # inconclusive; it has printed the usage and the reason already
        return 0 if not exc.code else 1

    if args.count < 1:
        print(f"error: --count {args.count} is below 1", file=sys.stderr)
        return 1
    if args.max_strands < 2:
        print(f"error: --max-strands {args.max_strands} is below 2", file=sys.stderr)
        return 1
    # the length is drawn from n - 1 .. max-len for every n <= max-strands;
    # a word on n strands has length + n - 1 letters, and its permutation
    # is an n-cycle, of parity n - 1, only for an even length, so a knot
    # needs max-len >= 2
    least_len = max(2, args.max_strands - 1)
    if args.max_len < least_len:
        print(
            f"error: --max-len {args.max_len} is below {least_len}, the least "
            f"that gives knots on up to {args.max_strands} strands",
            file=sys.stderr,
        )
        return 1
    rng = random.Random(args.seed)
    mismatches = 0
    for index in range(args.count):
        word = random_homogeneous_knot(rng, args.max_strands, args.max_len)
        via_burau = alexander_from_burau(word)
        via_seifert = alexander_from_seifert(brick_seifert(word))
        agree = via_burau == via_seifert
        if args.verbose or not agree:
            flag = "ok" if agree else "MISMATCH"
            print(
                f"{index:4d} {flag:8s} {format_braid_text(word):40s} "
                f"burau={to_text(via_burau)} seifert={to_text(via_seifert)}"
            )
        if not agree:
            mismatches += 1

    print(f"{args.count} words, {mismatches} mismatches (seed {args.seed})")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
