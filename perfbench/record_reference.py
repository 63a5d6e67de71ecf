"""Record the reference error values that bench.py checks outputs against.

Run from the repository root (takes about two minutes):

    python3 perfbench/record_reference.py

It writes perfbench/reference.json: the five final-time error quantities
of every level of both convergence studies, and of every level of the
elliptic projection for every step weight on the grid. Record again only
when a change is meant to alter the numerical results, and say so.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import bench  # noqa: E402
from parafosls import driver  # noqa: E402


def main():
    reference = {"k_grid": list(bench.K_GRID)}
    for name, spec in bench.STUDIES.items():
        config = driver.ExperimentConfig(
            variant=spec["variant"], coupling=spec["coupling"], max_level=spec["max_level"]
        )
        meshes = driver.mesh_hierarchy(spec["max_level"])
        reference[name] = {}
        for level in range(spec["max_level"] + 1):
            report = driver.run_level(config, level, mesh=meshes[level])[0]
            reference[name][str(level)] = [getattr(report, q) for q in bench.QUANTITIES]
    _, errors = bench.run_projection(range(len(bench.K_GRID)), None)
    projection = reference[bench.PROJECTION] = {}
    for (index, level), values in sorted(errors.items()):
        projection.setdefault(str(index), {})[str(level)] = list(values)
    bench.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
