"""osnmatch: decide whether two accounts on different social platforms
belong to the same person.

Three feature families (profile-field similarity, temporal posting
patterns, text embeddings) each turn a batch of candidate pairs into one
``FeatureMatrix``, which feeds a small from-scratch MLP classifier that
is trained and evaluated with negative sampling and stratified k-fold
cross-validation.
"""

from .dataset import Corpus, LabeledPairSet, k_folds, load_corpus, negative_sample
from .embedding_features import hash_fallback_table, load_embedding_file, pair_embedding_features
from .evaluation import cross_validate
from .mlp import FoldJob, MlpConfig, load_model, predict_batch, save_model, train
from .profile_features import FeatureMatrix, Platform, UserProfile, featurize_pairs
from .strsim import Measure, normalized_similarity
from .temporal_features import HistogramMode, extract_temporal_features

__version__ = "0.1.0"
