"""SNN algorithmic framework: neurons, layers, quantisation, training.

Numpy reimplementation of the training flow the paper runs in SLAYER
(§IV-B): event-CNN layers over a time axis, surrogate-gradient BPTT, the
SNE linear-decay LIF neuron (float for training, bit-accurate integer
for inference) and the SRM baseline neuron, plus the 4-bit weight
quantisation used by the SNE-LIF-4b deployment configuration.
"""

from .._lazy import lazy_exports

#: Exported name -> the submodule that defines it, imported on first use.
_EXPORTS = {
    "FastSigmoid": "surrogate",
    "SlayerPdf": "surrogate",
    "SurrogateGradient": "surrogate",
    "Triangle": "surrogate",
    "LIFDynamics": "neurons",
    "LIFParams": "neurons",
    "ResetMode": "neurons",
    "SRMDynamics": "neurons",
    "SRMParams": "neurons",
    "lif_forward_int": "neurons",
    "linear_decay": "neurons",
    "QuantSpec": "quantize",
    "dequantize": "quantize",
    "export_layer_quant": "quantize",
    "fake_quantize": "quantize",
    "quantize_int": "quantize",
    "weight_scale": "quantize",
    "EConv2d": "layers",
    "EDense": "layers",
    "EFlatten": "layers",
    "ESumPool2d": "layers",
    "Layer": "layers",
    "Parameter": "layers",
    "col2im": "layers",
    "im2col": "layers",
    "Sequential": "network",
    "Adam": "training",
    "TrainConfig": "training",
    "Trainer": "training",
    "evaluate": "training",
    "softmax_cross_entropy": "training",
    "ConstantLR": "schedule",
    "CosineLR": "schedule",
    "EarlyStopping": "schedule",
    "LRSchedule": "schedule",
    "StepDecayLR": "schedule",
    "FIG6_PAPER": "topology",
    "Fig6Spec": "topology",
    "build_fig6_network": "topology",
    "build_small_network": "topology",
    "SLAYER_SRM": "slayer",
    "SNE_LIF_4B": "slayer",
    "ModelConfig": "slayer",
    "build_pair": "slayer",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
