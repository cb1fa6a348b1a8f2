"""Golden flag-set machinery shared by the generator and the tests.

The golden files under ``tests/ssa/golden/`` were generated from the
pre-refactor flagger closures (ISSUE 8) and pin the ``heuristic`` and
``profile`` speculation-flag assignments bit-for-bit: any change to
how flaggers are selected must keep both modes' flag sets identical to
these files.

Regenerate (only when flag *semantics* deliberately change) with::

    PYTHONPATH=src python tests/ssa/golden_flags.py
"""

import os

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: the modes the golden files pin (the pre-refactor flagger closures)
GOLDEN_MODES = ("heuristic", "profile")


def golden_path(workload: str, mode: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{workload}__{mode}.txt")


def snapshot_workload(workload, mode: str) -> str:
    """The canonical flag snapshot of every function of ``workload``
    under ``mode``, built exactly the way the pipeline's ``build-ssa``
    pass builds it (TBAA + mod/ref classifier, flow refinement)."""
    from repro.analysis import AliasClassifier, compute_modref
    from repro.lang import compile_source
    from repro.profiling import collect_alias_profile
    from repro.ssa import (FlowSensitivePointsTo, SpecMode, build_ssa,
                           flagger_for)
    from repro.ssa.spec import flag_snapshot

    module = compile_source(workload.source)
    spec_mode = SpecMode(mode)
    profile = None
    if spec_mode is SpecMode.PROFILE:
        profile = collect_alias_profile(module,
                                        inputs=workload.train_inputs)
    classifier = AliasClassifier(module, modref=compute_modref(module))
    parts = []
    for fn in module.functions.values():
        ssa = build_ssa(module, fn, classifier,
                        flagger=flagger_for(spec_mode, profile),
                        refinement=FlowSensitivePointsTo(fn))
        parts.append(flag_snapshot(ssa))
    return "".join(parts)


def all_golden_workloads():
    from repro.workloads import all_workloads, recovery_workloads

    return all_workloads() + recovery_workloads()


def main() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for workload in all_golden_workloads():
        for mode in GOLDEN_MODES:
            path = golden_path(workload.name, mode)
            with open(path, "w") as f:
                f.write(snapshot_workload(workload, mode))
            print(f"wrote {path}")


if __name__ == "__main__":
    main()
