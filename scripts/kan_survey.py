#!/usr/bin/env python3
"""Survey of box-filling for small cubical sets.

Notably: the representable cubes themselves are not box-filling (an interval
has no filler for the box sending the far endpoint of a path to the wrong
vertex), while discrete sets fill everything with constants.  The outcomes
are computed by exhaustive lifting search, never assumed."""

from cubeworks.cubical import boundary, coproduct, kan_check, standard_cube


def main():
    cases = [
        ("point", standard_cube(0), 3),
        ("two points", coproduct(standard_cube(0), standard_cube(0))[0], 2),
        ("interval", standard_cube(1), 3),
        ("square", standard_cube(2), 3),
        ("boundary of the square", boundary(2)[0], 2),
    ]
    for name, X, max_dim in cases:
        report = kan_check(X, max_dim)
        verdict = "fills all boxes" if report["pass"] else "has unfillable boxes"
        print(f"{name}: {verdict} (dimensions <= {max_dim})")
        if report["witness"]:
            w = report["witness"]
            print(f"  first failing box: n={w['n']} (k,eps)=({w['k']},{w['eps']})")
            for cell, ref in sorted(w["box_map"].items()):
                print(f"    {cell} -> {ref}")


if __name__ == "__main__":
    main()
