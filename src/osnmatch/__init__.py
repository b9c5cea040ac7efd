"""osnmatch: decide whether two accounts on different social platforms
belong to the same person.

Three feature families (profile-field similarity, temporal posting
patterns, text embeddings) each turn a batch of candidate pairs into one
``FeatureMatrix``, which feeds a small from-scratch MLP classifier that
is trained and evaluated with negative sampling and stratified k-fold
cross-validation.

The package imports none of its modules: import each by name, as in
``from osnmatch.dataset import load_corpus``, and load only what it uses.
"""

__version__ = "0.1.0"
