"""Store the label rasters that ``basin.labels_changed`` is counted against.

    python3 perfbench/make_reference.py

Computes, with the library in ``src/``, the raster of each basin workload
at every resolution its seeds can ask for, and writes them to
``reference_labels.npz``.  Rerun it only to move the reference to a new
commit on purpose; a change that moves labels must say how many moved.
"""

import sys

import numpy as np

from run import REFERENCE, SRC, WORKLOADS, BasinWorkload


def main() -> int:
    sys.path.insert(0, str(SRC))
    from alleetanner import IntegratorConfig, Params, compute_basins

    arrays = {}
    for w in WORKLOADS.values():
        if not isinstance(w, BasinWorkload):
            continue
        p, cfg = Params(*w.params), IntegratorConfig(**w.tol)
        for res in w.resolutions():
            arrays[f"{w.name}_{res}"] = compute_basins(p, res, cfg).labels
            print(f"{w.name} {res}x{res}", flush=True)
    np.savez_compressed(REFERENCE, **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main())
