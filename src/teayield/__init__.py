"""Monthly crop-yield modeling from soil and weather observations.

Pipeline pieces: CSV ingestion and synthetic data (``dataset``), fitted
preprocessing transforms (``preprocess``), relief-based feature ranking with
sequential forward selection (``feature_select``), the baseline learners
(``regressors``), the selected error-weighted network ensemble
(``ensemble``), the evaluation harness (``evaluation``), the end-to-end
runner (``pipeline``), and the ``teayield`` command line (``cli``).
"""

__version__ = "0.1.0"
