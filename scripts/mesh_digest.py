#!/usr/bin/env python3
"""Print a digest of the mesh generators on 270 configurations, one line each.

Each line holds the sha256 of one ``generate_mesh`` result: the vertex
coordinates (bytes), the cell loops, the boundary markers (names in their
order, then the edge ids) and, for each cell group in its order, the cell ids
and the ear-clip sub-triangles; or, when the call raises, the type and
message of the error.  Two trees that print the same lines build the same
meshes and sub-triangulations bit for bit and raise the same errors.

The configurations: the five mesh families, h in {1/4, 1/5, 1/9, 1/10, 1/16,
1/20}, mesh seeds {1, 7, 42} and three domains: the unit square, the L-shaped
channel and the box ``Rectangle(-1, 2, 3, 2.5)``.

With ``--compare FILE`` the lines are also checked against a digest saved
earlier (the output of a plain run): every configuration whose line differs,
or is missing from the file, is named on standard error, and the exit code
is 1.

    PYTHONPATH=src python scripts/mesh_digest.py > meshes.txt
    PYTHONPATH=src python scripts/mesh_digest.py --compare meshes.txt
"""
import argparse
import hashlib
import sys

import numpy as np

from lpsvem.geometry import (L_SHAPE, MESH_FAMILIES, UNIT_SQUARE, GeometryError, Rectangle,
                             generate_mesh)

DOMAINS = (("unit_square", UNIT_SQUARE), ("lshape", L_SHAPE),
           ("box", Rectangle(-1.0, 2.0, 3.0, 2.5)))
H_INV = (4, 5, 9, 10, 16, 20)
SEEDS = (1, 7, 42)


def mesh_digest(family, domain, n, seed) -> str:
    sha = hashlib.sha256()
    try:
        mesh = generate_mesh(family, domain, 1 / n, seed=seed)
    except GeometryError as exc:
        sha.update(f"{type(exc).__name__}: {exc}".encode())
        return f"{sha.hexdigest()[:16]} raises {type(exc).__name__}"
    sha.update(np.ascontiguousarray(mesh.vertices).tobytes())
    for cell in mesh.cells:
        sha.update(np.asarray(cell, dtype=np.int64).tobytes() + b";")
    for name, ids in mesh.boundary_markers.items():
        sha.update(name.encode() + b":" + np.asarray(ids, dtype=np.int64).tobytes() + b";")
    for group in mesh.cell_groups:
        sha.update(np.asarray(group.cell_ids, dtype=np.int64).tobytes() + b":"
                   + np.asarray(group.triangles, dtype=np.int64).tobytes() + b";")
    return sha.hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--compare", metavar="FILE", help="saved digest to check the lines against")
    args = ap.parse_args(argv)
    saved = {}
    if args.compare:
        with open(args.compare) as f:
            saved = {line.split(":")[0]: line.rstrip("\n") for line in f if ":" in line}
    differ = []
    for label, domain in DOMAINS:
        for family in MESH_FAMILIES:
            for n in H_INV:
                for seed in SEEDS:
                    run = f"{family} {label} h=1/{n} seed={seed}"
                    line = f"{run}: {mesh_digest(family, domain, n, seed)}"
                    print(line, flush=True)
                    if args.compare and saved.get(run) != line:
                        differ.append(run)
    for run in differ:
        print(f"differs from {args.compare}: {run}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
