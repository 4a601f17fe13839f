"""Learning substrate: classifiers, resampling, CV, metrics, ensembles.

Everything is implemented from scratch on NumPy/SciPy; there is no
scikit-learn dependency.
"""

from repro.ml.base import BaseClassifier, check_X, check_X_y, clone, ensure_dense
from repro.ml.calibration import CalibratedClassifier, PlattScaler
from repro.ml.ensemble import EnsembleSelection, LibraryModel
from repro.ml.metrics import (
    BinaryClassificationReport,
    accuracy,
    auc_roc,
    classification_report,
    confusion_counts,
    mean_confidence_interval,
    pairwise_orderedness,
    precision,
    precision_recall_curve,
    recall,
    roc_curve,
    threshold_for_precision,
)
from repro.ml.mlp import MLPClassifier
from repro.ml.model_selection import StratifiedKFold, train_test_split
from repro.ml.naive_bayes import GaussianNB, MultinomialNB
from repro.ml.noise import inject_label_noise
from repro.ml.sampling import SAMPLER_ABBREVIATIONS, SMOTE, RandomUnderSampler
from repro.ml.svm import LinearSVC
from repro.ml.tree import C45Tree

__all__ = [
    "BaseClassifier",
    "check_X",
    "check_X_y",
    "clone",
    "ensure_dense",
    "CalibratedClassifier",
    "PlattScaler",
    "EnsembleSelection",
    "LibraryModel",
    "BinaryClassificationReport",
    "accuracy",
    "auc_roc",
    "precision_recall_curve",
    "threshold_for_precision",
    "classification_report",
    "confusion_counts",
    "mean_confidence_interval",
    "pairwise_orderedness",
    "precision",
    "recall",
    "roc_curve",
    "MLPClassifier",
    "inject_label_noise",
    "StratifiedKFold",
    "train_test_split",
    "GaussianNB",
    "MultinomialNB",
    "SAMPLER_ABBREVIATIONS",
    "SMOTE",
    "RandomUnderSampler",
    "LinearSVC",
    "C45Tree",
]
