"""Sweep-level compute sharing for the TF-IDF classifier grid.

The paper's text evaluation (Section 6.3.1, Tables 3–6) crosses every
classifier/sampling configuration with every term-subset size under
3-fold cross-validation.  The expensive work of one cell — fitting the
TF-IDF vectorizer on the training fold and transforming both folds —
depends only on ``(subset, fold)``, never on the classifier, so the
scheduler here makes each ``(subset, fold)`` pair one :class:`FoldTask`
whose feature matrices are fitted **once** and shared by every roster
entry.  Vectorizer fitting is deterministic, so the sweep equals the
library's per-entry cross-validation, which refits the vectorizer for
every entry: :func:`~repro.core.evaluation.cross_validate_pipeline`
over one :class:`~repro.core.text_pipeline.TfidfTextPipeline` per
entry.  ``tests/experiments/test_sweep.py`` pins that equality.

Tasks are plain picklable dataclasses mapped with
:func:`repro.perf.pmap`, so ``--jobs N`` fans the (fold × subset) grid
out to worker processes with order-stable, bit-identical results.
Sweep results can additionally be memoized on disk through a
:class:`repro.perf.FeatureCache` keyed on the corpus content
fingerprint and the full roster configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.evaluation import AggregatedReport
from repro.exceptions import ValidationError
from repro.ml.base import BaseClassifier, clone
from repro.ml.metrics import BinaryClassificationReport, classification_report
from repro.ml.model_selection import StratifiedKFold
from repro.perf.cache import FeatureCache
from repro.perf.parallel import pmap
from repro.text.term_vector import TfidfVectorizer

__all__ = ["SweepEntry", "FoldTask", "run_fold", "run_tfidf_sweep"]


@dataclass(frozen=True)
class SweepEntry:
    """One roster row of the TF-IDF sweep.

    Attributes:
        name: display name used in the paper's tables ("NBM", …).
        sampling: sampling label for the tables ("NO", "SUB", "SMOTE").
        classifier: unfitted prototype; the scheduler clones it per
            (subset, fold) cell, so one entry is reusable across the
            whole grid (and picklable for process pools).
        sampler: optional resampler with ``fit_resample(X, y)`` applied
            to the training fold before fitting (seeded and stateless,
            so sharing one instance across cells is deterministic).
    """

    name: str
    sampling: str
    classifier: BaseClassifier
    sampler: object | None = None

    def describe(self) -> dict[str, Any]:
        """JSON-able identity of this entry (for disk-cache keys)."""
        return {
            "name": self.name,
            "sampling": self.sampling,
            "classifier": type(self.classifier).__name__,
            "classifier_params": {
                k: repr(v) for k, v in sorted(self.classifier.get_params().items())
            },
            "sampler": type(self.sampler).__name__ if self.sampler else None,
        }


@dataclass(frozen=True)
class FoldTask:
    """One (subset, fold) work unit of the sweep grid.

    Carries everything a worker process needs: the tokenized train and
    test documents, the fold labels, and the roster to evaluate on the
    shared matrices.
    """

    subset: int | None
    fold_no: int
    train_tokens: tuple[tuple[str, ...], ...]
    test_tokens: tuple[tuple[str, ...], ...]
    y_train: np.ndarray
    y_test: np.ndarray
    entries: tuple[SweepEntry, ...]


def _entry_report(
    entry: SweepEntry,
    X_train: Any,
    y_train: np.ndarray,
    X_test: Any,
    y_test: np.ndarray,
) -> BinaryClassificationReport:
    """Fit one roster entry on the fold matrices and score the test fold."""
    X_fit, y_fit = X_train, y_train
    if entry.sampler is not None:
        X_fit, y_fit = entry.sampler.fit_resample(X_fit, y_fit)
    model = clone(entry.classifier)
    model.fit(X_fit, y_fit)
    return classification_report(
        y_test, model.predict(X_test), model.decision_scores(X_test)
    )


def run_fold(task: FoldTask) -> dict[str, BinaryClassificationReport]:
    """Evaluate every roster entry of one (subset, fold) cell.

    The vectorizer is fitted once and its matrices feed every entry.
    """
    vectorizer = TfidfVectorizer()
    X_train = vectorizer.fit_transform(task.train_tokens)
    X_test = vectorizer.transform(task.test_tokens)
    return {
        entry.name: _entry_report(entry, X_train, task.y_train, X_test, task.y_test)
        for entry in task.entries
    }


def run_tfidf_sweep(
    entries: Sequence[SweepEntry],
    labels: np.ndarray,
    tokens_by_subset: Mapping[int | None, Sequence[Sequence[str]]],
    n_folds: int = 3,
    cv_seed: int = 0,
    jobs: int | None = None,
    cache: FeatureCache | None = None,
    cache_fingerprint: str | None = None,
) -> dict[tuple[str, int | None], AggregatedReport]:
    """Cross-validate every roster entry at every term-subset size.

    Args:
        entries: the classifier/sampling roster.
        labels: corpus labels (fold assignment runs on these once, so
            every subset sees the same folds).
        tokens_by_subset: subset size -> tokenized summary documents of
            the whole corpus at that size.
        n_folds: stratified CV folds (paper: 3).
        cv_seed: fold-assignment seed.
        jobs: ``pmap`` worker processes over the (subset × fold) grid.
        cache: optional disk cache for the aggregated sweep.
        cache_fingerprint: corpus content fingerprint for the cache
            key; required when ``cache`` is given.

    Returns:
        ``(entry name, subset) -> AggregatedReport`` over the folds.
    """
    if not entries:
        raise ValidationError("sweep roster is empty")
    names = [entry.name for entry in entries]
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate sweep entry names: {names}")

    def compute() -> dict[tuple[str, int | None], AggregatedReport]:
        y = np.asarray(labels).ravel()
        splitter = StratifiedKFold(n_splits=n_folds, shuffle=True, seed=cv_seed)
        folds = list(splitter.split(y))
        roster = tuple(entries)
        tasks = [
            FoldTask(
                subset=subset,
                fold_no=fold_no,
                train_tokens=tuple(tuple(tokens[i]) for i in train_idx),
                test_tokens=tuple(tuple(tokens[i]) for i in test_idx),
                y_train=y[train_idx],
                y_test=y[test_idx],
                entries=roster,
            )
            for subset, tokens in tokens_by_subset.items()
            for fold_no, (train_idx, test_idx) in enumerate(folds)
        ]
        fold_reports = pmap(run_fold, tasks, jobs=jobs)
        collected: dict[tuple[str, int | None], list[BinaryClassificationReport]]
        collected = {
            (entry.name, subset): []
            for entry in roster
            for subset in tokens_by_subset
        }
        for task, reports in zip(tasks, fold_reports):
            for entry in roster:
                collected[(entry.name, task.subset)].append(reports[entry.name])
        return {
            key: AggregatedReport(fold_reports=tuple(reports))
            for key, reports in collected.items()
        }

    if cache is None:
        return compute()
    if cache_fingerprint is None:
        raise ValidationError("cache_fingerprint is required when cache is set")
    key = cache.key(
        "tfidf-sweep",
        cache_fingerprint,
        {
            "subsets": [s if s is not None else "all" for s in tokens_by_subset],
            "n_folds": n_folds,
            "cv_seed": cv_seed,
            "roster": [entry.describe() for entry in entries],
            # Everything compute() reads must be keyed: the fold labels
            # drive the CV split.
            "labels": [int(v) for v in np.asarray(labels).ravel()],
        },
    )
    return cache.get_or_compute(key, compute)
