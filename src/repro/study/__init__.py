"""Declarative studies: whole experiments as serialisable specs.

The one public surface in front of every experiment the repository
knows.  Build a :class:`StudySpec` (directly, from JSON, or with the
named builders in :mod:`repro.study.studies <repro.study.builders>`),
then submit it:

>>> from repro.study import run_study, studies
>>> spec = studies.figure1(context="spambase", n_repeats=1)
>>> result = run_study(spec)                      # doctest: +SKIP
>>> print(result.render())                        # doctest: +SKIP

``run_study`` returns a :class:`StudyResult` — a uniform,
provenance-stamped artifact that round-trips through JSON, renders its
own report, warms an engine cache for zero-recompute resume, and is
addressable by its study fingerprint (``archive_dir=`` turns that into
skip-if-already-done).  ``describe_study`` dry-runs the spec: expanded
grid, exact round counts, predicted cache hits.

The command line runs the same specs: ``repro run figure1 --set
n_samples=300`` builds ``studies.figure1(...)`` and submits it through
``run_study``, and ``repro figure1`` is an alias.  The experiment
implementations live in :mod:`~repro.study.drivers`; a live context can
stand in for a :class:`ContextSpec` with ``run_study(spec,
context=ctx)``.
"""

from repro.study import builders as studies
from repro.study.archive import archive_summary, list_archive
from repro.study.builders import BUILDERS, build
from repro.study.checkpoint import (StudyCheckpointer, checkpoint_path,
                                    load_checkpoint)
from repro.study.result import StudyResult, study_result_from_json
from repro.study.runner import (PhaseDescription, StudyDescription,
                                archive_path, describe_study, run_study)
from repro.study.report import format_study_description, render_study_report
from repro.study.spec import (STUDY_KINDS, STUDY_SCHEMA_VERSION, ContextSpec,
                              EngineConfig, ScenarioGrid, StudySpec,
                              study_from_json, study_to_json)

__all__ = [
    "studies",
    "BUILDERS",
    "build",
    "archive_summary",
    "list_archive",
    "StudyResult",
    "study_result_from_json",
    "StudyCheckpointer",
    "checkpoint_path",
    "load_checkpoint",
    "PhaseDescription",
    "StudyDescription",
    "archive_path",
    "describe_study",
    "run_study",
    "format_study_description",
    "render_study_report",
    "STUDY_KINDS",
    "STUDY_SCHEMA_VERSION",
    "ContextSpec",
    "EngineConfig",
    "ScenarioGrid",
    "StudySpec",
    "study_from_json",
    "study_to_json",
]
