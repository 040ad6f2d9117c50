"""The three workloads: which certified solves one round runs, on which inputs.

Every round runs the same operations in the same order.  An operation is one
certified solve of one instance: on the library path `validate`,
`io_recover.solve` and `check_certificate`; on the CLI path `io-recover solve`
and `io-recover verify` on the document it wrote, both through `cli.main`.
Instances marked `top` feed the per-family latency metrics.
"""

import os
from dataclasses import dataclass
from itertools import groupby

from instances import generate, read_document, write_document

TILTS = (1.0, -1.0)
DG_RUNGS = ((3, 2), (5, 3), (10, 5), (20, 10))
CCU_DG_RUNGS = DG_RUNGS + ((40, 10),)
SD_RUNGS = ((3, 2), (10, 5), (20, 10), (40, 10))
IU_SD_RUNGS = ((3, 2), (6, 3), (10, 5))  # rlo-iu-sd takes ~9 s at 20 x 10 today
CLI_SIZES = {"nlo-sd": ((50, 10), (200, 20)), "rlo-ccu-sd": ((20, 10), (50, 10))}
NORMS = ("l1", "l2", "linf")
IU_SD_NORMS = ("l1", "linf")  # the model solves exactly for l1/linf priors only
FIXTURES = tuple(range(1, 9))

WORKLOADS = ("dg-ladder", "sd-ladder", "cli-roundtrip")


@dataclass
class Op:
    inst: object
    top: bool
    doc: str = None  # problem document of a CLI operation


def _ladder(seed, model, rungs, norms, per_tilt, top_per_tilt=None):
    """Instances of one model: `per_tilt` per (rung, norm, tilt), `top_per_tilt` on the top rung."""
    ops, stream = [], 0
    for rung in rungs:
        top = rung == rungs[-1]
        for norm in norms:
            for tilt in TILTS:
                for _ in range(top_per_tilt or per_tilt if top else per_tilt):
                    stream += 1
                    inst = generate(model, *rung, seed, stream, tilt, norm)
                    inst.label += f" #{stream}"
                    ops.append(Op(inst, top))
    return ops


def _interleave(*ladders):
    """Every rung's operations spread evenly over the round.  The machine's
    speed swings over seconds, so a rung whose solves are spread over the
    round sees more of those swings in one run.  The round opens with the
    first instance of every rung, each model's smallest rung first."""
    rungs = [list(ops) for ladder in ladders
             for _, ops in groupby(ladder, key=lambda op: (op.inst.model, op.inst.m, op.inst.n))]
    placed = [(k / len(ops), r, op) for r, ops in enumerate(rungs) for k, op in enumerate(ops)]
    return [op for _, _, op in sorted(placed, key=lambda t: t[:2])]


def build(workload, seed, root, workdir):
    """The operations of one round.  CLI documents are written under `workdir`
    (None: build the instances only)."""
    if workload == "dg-ladder":
        # the top rungs draw more instances: one instance's solve time differs from
        # the next one's by 5-25%, and the family metrics average over them
        return _interleave(_ladder(seed, "nlo-dg", DG_RUNGS, (None,), 2, 5),
                           _ladder(seed, "rlo-iu-dg", DG_RUNGS, (None,), 2, 4),
                           _ladder(seed, "rlo-ccu-dg", CCU_DG_RUNGS, (None,), 2, 6))
    if workload == "sd-ladder":
        return _interleave(_ladder(seed, "nlo-sd", SD_RUNGS, NORMS, 1, 4),
                           _ladder(seed, "rlo-ccu-sd", SD_RUNGS, NORMS, 1, 2),
                           _ladder(seed, "rlo-iu-sd", IU_SD_RUNGS, IU_SD_NORMS, 1, 4))
    if workload != "cli-roundtrip":
        raise ValueError(f"unknown workload {workload!r}")
    ops = []
    for number in FIXTURES:
        path = os.path.join(root, "fixtures", f"example{number}.json")
        inst = read_document(path, f"example {number}")
        # the interval models appear only as fixtures, which stand in as their top rung
        ops.append(Op(inst, inst.family == "iu", path))
    seeded = [op for model, sizes in CLI_SIZES.items() for op in _ladder(seed, model, sizes, NORMS, 1)]
    if workdir is not None:
        for k, op in enumerate(seeded):
            op.doc = os.path.join(workdir, f"problem{k}.json")
            write_document(op.inst, op.doc)
    return ops + seeded
