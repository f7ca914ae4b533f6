#include "src/kernels/op_resolver.h"

#include "src/kernels/opt_kernels.h"
#include "src/kernels/ref_kernels.h"

namespace mlexray {

bool OpResolver::is_quantized_node(const Node& node) {
  if (node.type == OpType::kQuantize || node.type == OpType::kDequantize) {
    return true;
  }
  return node.output_dtype == DType::kI8;
}

const KernelEntry& OpResolver::find(const Node& node) const {
  KernelKey key{node.type, is_quantized_node(node)};
  auto it = map_.find(key);
  MLX_CHECK(it != map_.end())
      << name() << " has no kernel for " << op_type_name(node.type)
      << (key.quantized ? " (int8)" : " (f32)");
  return it->second;
}

BuiltinOpResolver::BuiltinOpResolver(KernelBugConfig bugs) {
  register_shared_kernels(map_);
  // Reference implementations first: ops without an optimized variant
  // (f32 pools, Mean and Mul; int8 MaxPool2D) fall back to these.
  register_ref_float_kernels(map_);
  register_ref_quant_kernels(map_, /*emulate_avgpool_bug=*/false);
  // Optimized overrides.
  register_opt_float_kernels(map_);
  register_opt_quant_kernels(map_, bugs.optimized_dwconv_int16_overflow);
}

RefOpResolver::RefOpResolver(KernelBugConfig bugs) {
  register_shared_kernels(map_);
  register_ref_float_kernels(map_);
  register_ref_quant_kernels(map_, bugs.reference_avgpool_bad_shift);
}

}  // namespace mlexray
