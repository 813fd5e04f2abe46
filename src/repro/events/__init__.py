"""Event substrate: formats, streams, sensor simulation, datasets.

This package implements everything the SNE accelerator consumes:
the 32-bit event/weight word formats of paper Fig. 1 (:mod:`.event`,
:mod:`.memory_format`), sparse event-stream containers with dense
conversions (:mod:`.stream`), a DVS pixel simulator (:mod:`.dvs`),
corruption models (:mod:`.noise`) and synthetic replacements for the
NMNIST / IBM DVS-Gesture datasets (:mod:`.datasets`).
"""

from .._lazy import lazy_exports

#: Exported name -> the submodule that defines it, imported on first use.
_EXPORTS = {
    "DEFAULT_FORMAT": "event",
    "Event": "event",
    "EventFormat": "event",
    "EventOp": "event",
    "EventStream": "stream",
    "WEIGHTS_PER_WORD": "memory_format",
    "decode_inference": "memory_format",
    "decode_updates": "memory_format",
    "encode_inference": "memory_format",
    "pack_weights": "memory_format",
    "unpack_weights": "memory_format",
    "DVSConfig": "dvs",
    "DVSSimulator": "dvs",
    "render_video": "dvs",
    "add_background_noise": "noise",
    "add_hot_pixels": "noise",
    "drop_events": "noise",
    "thin_to_activity": "noise",
    "DIGIT_GLYPHS": "datasets",
    "GESTURE_NAMES": "datasets",
    "EventDataset": "datasets",
    "EventSample": "datasets",
    "ShardedDataset": "datasets",
    "SyntheticDVSGesture": "datasets",
    "SyntheticNMNIST": "datasets",
    "mirror_horizontal": "augment",
    "polarity_flip": "augment",
    "random_crop_time": "augment",
    "spatial_jitter": "augment",
    "time_jitter": "augment",
    "time_reverse": "augment",
    "render_raster": "visualize",
    "render_timeline": "visualize",
    "load_dataset": "io",
    "load_stream": "io",
    "save_dataset": "io",
    "save_stream": "io",
    "accumulate_frames": "frames",
    "polarity_difference_frames": "frames",
    "rebin_time": "frames",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
