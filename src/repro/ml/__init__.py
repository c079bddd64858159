"""Attack-model machine learning: classifiers, metrics, preprocessing.

Implements from scratch the models the paper's attacks rely on — logistic
regression and random forests — plus the AUC metric used throughout §8.
"""

from .. import _lazy_exports

__all__ = [
    "LogisticRegression",
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "roc_auc_score",
    "train_test_split",
    "StandardScaler",
    "MeanImputer",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "forest": ("RandomForestClassifier",),
    "linear": ("LogisticRegression",),
    "metrics": ("roc_auc_score", "train_test_split"),
    "preprocess": ("MeanImputer", "StandardScaler"),
    "tree": ("DecisionTreeClassifier",),
})
