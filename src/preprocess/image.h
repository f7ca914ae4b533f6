// Image preprocessing: the error-prone stage the paper's §2 catalogues.
//
// All functions operate on HWC tensors. Raw "sensor" images are u8 RGB in
// [0,255]; the pipeline converts to float, resizes, optionally reorders
// channels, and normalizes to the model's expected range.
//
// run_image_pipeline() executes a pipeline that honours a model's InputSpec
// except for one injected PreprocBug — exactly how the Fig-4 experiments
// reproduce real deployment mistakes (bilinear-vs-area resize, RGB/BGR swap,
// [0,1]-vs-[-1,1] normalization, 90-degree rotation).
//
// Two forms of the same arithmetic:
//  - The staged functions (image_u8_to_f32 .. add_batch_dim) each build a
//    tensor and run one plain loop. They are the reference.
//  - run_image_pipeline() makes one pass over the u8 sensor bytes straight
//    into the [1,h,w,c] model input, its only tracked allocation. Rotation
//    is a strided read, each resize axis is a tap table built per call, and
//    the channel swap and normalization happen at the store. Every value is
//    computed with the reference's expressions in the reference's order, so
//    the result is byte-identical to composing the staged functions
//    (tests/test_preprocess.cc holds the composition and compares by memcmp).
#pragma once

#include "src/graph/input_spec.h"
#include "src/tensor/tensor.h"

namespace mlexray {

// u8 [H,W,C] -> f32 [H,W,C] in [0,255].
Tensor image_u8_to_f32(const Tensor& image);

// Bilinear resampling (the aliasing-prone default the paper warns about).
// Both resizes throw MlxError for an empty image or an output below 1x1.
Tensor resize_bilinear(const Tensor& f32_hwc, int out_h, int out_w);

// Area-averaging downsampler (anti-aliased; what most training pipelines use).
Tensor resize_area_average(const Tensor& f32_hwc, int out_h, int out_w);

// Swaps the R and B channels (RGB <-> BGR).
Tensor swap_red_blue(const Tensor& f32_hwc);

// Rotates 90 degrees clockwise.
Tensor rotate90_clockwise(const Tensor& f32_hwc);

// Maps [0,255] values to [lo,hi].
Tensor normalize_image(const Tensor& f32_hwc, float lo, float hi);

// [H,W,C] -> [1,H,W,C].
Tensor add_batch_dim(const Tensor& f32_hwc);

// Deployment bug taxonomy (paper §2 / Fig 4a).
enum class PreprocBug {
  kNone = 0,
  kWrongResize,         // bilinear where the model expects area-average (or vice versa)
  kWrongChannelOrder,   // BGR where the model expects RGB (or vice versa)
  kWrongNormalization,  // [0,1] where the model expects [-1,1] (or vice versa)
  kRotated90,           // disoriented capture
};

std::string preproc_bug_name(PreprocBug bug);

struct ImagePipelineConfig {
  InputSpec spec;                     // the model's (often undocumented) assumptions
  PreprocBug bug = PreprocBug::kNone; // one injected deviation
};

// Full sensor-to-tensor pipeline: u8 [H,W,C] -> f32 [1,h,w,C], where h and w
// come from the spec. Throws MlxError for a sensor that is not a raw u8
// [H,W,C] image with every dim >= 1, a spec size below 1x1, or BGR output
// from fewer than 3 channels.
Tensor run_image_pipeline(const Tensor& sensor_u8_hwc,
                          const ImagePipelineConfig& config);

}  // namespace mlexray
