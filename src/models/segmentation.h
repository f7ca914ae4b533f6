// Deeplab-mini: a small encoder-decoder for dense per-pixel classification
// (stand-in for the paper's Deeplab v3 segmentation app).
#pragma once

#include "src/datasets/synth_seg.h"
#include "src/graph/builder.h"
#include "src/interpreter/session.h"
#include "src/models/zoo.h"
#include "src/preprocess/image.h"

namespace mlexray {

// Training graph; logits node ("logits") is [batch, 32, 32, kClasses].
ZooModel build_deeplab_mini(std::uint64_t seed, int batch = 1);

// Trains in place on SynthSeg examples.
void train_deeplab(ZooModel* zm, const std::vector<SegExample>& train_set,
                   int epochs, std::uint64_t seed);

// Predicted label map [H, W] i32 for one preprocessed input.
Tensor predict_mask(Session& session, const Tensor& input);

// End-to-end mIoU of a deployed model with a (possibly buggy) pipeline.
double evaluate_deeplab_miou(const Graph& deployed, const OpResolver& resolver,
                             const std::vector<SegExample>& examples,
                             const ImagePipelineConfig& pipeline);

}  // namespace mlexray
