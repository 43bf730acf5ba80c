"""A from-scratch numpy neural-network substrate.

The paper trains a multi-layer LSTM state-space model (Fig. 6) in PyTorch
on a V100.  The program depends on numpy alone, so this subpackage provides
everything iBoxML needs, implemented from first principles:

* parameter containers and initializers;
* a dense layer and a stacked LSTM with full backpropagation through time;
* Gaussian negative-log-likelihood, Bernoulli cross-entropy and MSE losses;
* SGD and Adam with global-norm gradient clipping;
* feature standardisation;
* a sequence-model trainer (teacher forcing) and free-running unroller;
* a standalone logistic-regression classifier (the "lightweight and much
  faster linear model" of §5.1).

Gradients are verified against finite differences in the test suite.
"""

from repro.ml import initializers, losses
from repro.ml.layers import Dense, Parameter
from repro.ml.lstm import LSTM, LSTMCell
from repro.ml.optim import SGD, Adam, clip_gradients_by_global_norm
from repro.ml.scalers import StandardScaler
from repro.ml.model import (
    BernoulliSequenceModel,
    GaussianSequenceModel,
    TrainingLog,
)
from repro.ml.logistic import LogisticRegression

__all__ = [
    "Adam",
    "BernoulliSequenceModel",
    "Dense",
    "GaussianSequenceModel",
    "LSTM",
    "LSTMCell",
    "LogisticRegression",
    "Parameter",
    "SGD",
    "StandardScaler",
    "TrainingLog",
    "clip_gradients_by_global_norm",
    "initializers",
    "losses",
]
