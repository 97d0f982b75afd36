"""From-scratch machine-learning substrate (numpy only).

The paper trains a hinge-loss Support Vector Machine on Spambase; this
subpackage provides that model plus the surrounding stack a real
experiment needs — preprocessing, metrics and model selection — with
a familiar ``fit`` / ``predict`` estimator API.

Nothing here depends on scikit-learn; the library is fully self
contained so the reproduction runs offline.
"""

from repro.ml.base import BaseEstimator, LinearClassifierMixin, clone_estimator
from repro.ml.linear_svm import LinearSVM
from repro.ml.logistic import LogisticRegression
from repro.ml.naive_bayes import GaussianNaiveBayes
from repro.ml.perceptron import Perceptron
from repro.ml.ridge import RidgeClassifier
from repro.ml.metrics import (
    accuracy_score,
    precision_score,
    recall_score,
    f1_score,
    confusion_matrix,
    roc_auc_score,
    zero_one_loss,
    hinge_loss,
)
from repro.ml.preprocessing import StandardScaler, MinMaxScaler, RobustScaler
from repro.ml.model_selection import (
    train_test_split,
    KFold,
    StratifiedKFold,
    cross_val_score,
    GridSearch,
)

__all__ = [
    "BaseEstimator",
    "LinearClassifierMixin",
    "clone_estimator",
    "LinearSVM",
    "LogisticRegression",
    "GaussianNaiveBayes",
    "Perceptron",
    "RidgeClassifier",
    "accuracy_score",
    "precision_score",
    "recall_score",
    "f1_score",
    "confusion_matrix",
    "roc_auc_score",
    "zero_one_loss",
    "hinge_loss",
    "StandardScaler",
    "MinMaxScaler",
    "RobustScaler",
    "train_test_split",
    "KFold",
    "StratifiedKFold",
    "cross_val_score",
    "GridSearch",
]
