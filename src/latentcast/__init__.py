"""Latent-space video frame prediction.

Three-stage workflow: a convolutional autoencoder extracts per-frame
feature maps, a spatiotemporal model predicts the next feature map from a
window of previous ones, and the decoder reconstructs the predicted frame.
Ships with the metric suite (MAE / MSE / SSIM / Gaussian KL), preprocessing,
grid-search and K-fold harness, inference benchmarking and reports, all
behind the ``latentcast`` CLI.
"""

# Importing autoencoder and seqmodels registers the two checkpoint builders
# that nn.network.load_checkpoint looks up by model kind.
from . import autoencoder, seqmodels
from . import dataio, experiment, metrics, nn, preprocess, synthetic, training

__version__ = "0.1.0"
