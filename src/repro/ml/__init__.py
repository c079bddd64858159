"""Attack-model machine learning: classifiers, metrics, preprocessing.

Implements from scratch the models the paper's attacks rely on — logistic
regression and random forests — plus the AUC metric used throughout §8.
"""

from .forest import RandomForestClassifier
from .linear import LogisticRegression
from .metrics import roc_auc_score, train_test_split
from .preprocess import MeanImputer, StandardScaler
from .tree import DecisionTreeClassifier

__all__ = [
    "LogisticRegression",
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "roc_auc_score",
    "train_test_split",
    "StandardScaler",
    "MeanImputer",
]
