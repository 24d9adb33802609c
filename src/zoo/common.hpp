// Shared builder helpers for the model zoo.
//
// Every builder produces a *trunk*: the convolutional feature extractor up
// to (and including) the final block, with the original classification
// layers removed — exactly the starting point the paper uses for transfer
// learning. Heads are attached by core::append_head.
//
// Nodes belonging to a repeating architectural module carry that module's
// block id; stem nodes carry block id -1 and are never removed.
#pragma once

#include <memory>
#include <string>

#include "nn/graph.hpp"

namespace netcut::zoo {

using nn::Graph;

/// TensorFlow-style channel rounding: nearest multiple of `divisor`,
/// never dropping below 90% of the requested value.
int make_divisible(double value, int divisor = 8);

/// Conv -> BatchNorm -> activation. Returns the id of the activation node.
/// relu6 selects ReLU6 (MobileNet family); otherwise plain ReLU.
int conv_bn_act(Graph& g, int in, int in_c, int out_c, int kernel, int stride,
                const std::string& name, int block_id, const std::string& block_name,
                bool relu6 = false);

/// Rectangular variant (InceptionV3 factorized convolutions).
int conv_bn_act_rect(Graph& g, int in, int in_c, int out_c, int kh, int kw, int stride,
                     const std::string& name, int block_id, const std::string& block_name);

/// Conv -> BatchNorm (no activation; MobileNetV2 linear bottleneck
/// projections, ResNet pre-addition branches).
int conv_bn(Graph& g, int in, int in_c, int out_c, int kernel, int stride,
            const std::string& name, int block_id, const std::string& block_name);

/// DepthwiseConv -> BatchNorm -> activation.
int dwconv_bn_act(Graph& g, int in, int channels, int stride, const std::string& name,
                  int block_id, const std::string& block_name, bool relu6 = false);

/// Verify-on-build gate every zoo builder returns through: runs the
/// nn::verify structural lint over the finished trunk (no-op when
/// NETCUT_VERIFY=0) and hands the graph back.
Graph finish_trunk(Graph&& g, const char* builder);

}  // namespace netcut::zoo
