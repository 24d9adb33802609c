// Layer removal and TRimmed Network (TRN) construction — Section IV.
//
// A TRN is a prefix of a pretrained trunk with the problem-specific top
// removed and a fresh transfer head attached (1 GlobalAvgPool, 2 FC/ReLU,
// 1 FC/Softmax — Section III-B3). This file holds the one head: its builder,
// its Xavier initialisation, the epoch loop that retrains it, and
// TransferHead, the head on feature vectors that the evaluator and the app's
// classifiers train. Cut sites come in two granularities:
//   * blockwise  — the last node of each architectural block (the paper's
//     chosen heuristic; negligible loss vs finer cuts, Fig 4);
//   * iterative  — every graph dominator of the trunk output (the
//     exhaustive per-layer baseline Fig 4 compares against).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "data/hands.hpp"
#include "nn/graph.hpp"
#include "nn/network.hpp"
#include "nn/optimizer.hpp"
#include "util/rng.hpp"
#include "zoo/zoo.hpp"

namespace netcut::core {

struct HeadConfig {
  int classes = 5;
  int hidden1 = 64;
  int hidden2 = 32;
  bool with_softmax = true;  // trainers operate on logits and drop it
};

/// Cut sites for blockwise removal: the last node of every block, in depth
/// order. cut after blocks[i] keeps blocks 0..i.
std::vector<int> blockwise_cutpoints(const nn::Graph& trunk);

/// Cut sites for iterative (per-layer) removal: all output dominators.
std::vector<int> iterative_cutpoints(const nn::Graph& trunk);

/// Appends the transfer head's layers to a trunk prefix. Their weights stay
/// zero until init_head, which is all a head priced by shape needs.
nn::Graph append_head(nn::Graph trunk_prefix, const HeadConfig& head);

/// Initializes the head's dense layers from `rng` (Xavier), in node order:
/// fc1, fc2, then the logits layer.
void init_head(nn::Graph& trn, util::Rng& rng);

/// The soft-target training loop of every head and fine-tuning stage:
/// `epochs` passes over rng.permutation(n), each sample zero_grads →
/// forward(train) → soft_cross_entropy(image, label) → backward → step.
/// Returns the last epoch's mean loss.
double train_epochs(nn::Network& net, nn::Adam& opt, const std::vector<data::Sample>& train,
                    int epochs, util::Rng& rng);

/// The transfer head over feature vectors (a cut's GlobalAvgPool output),
/// trained when constructed. Features are standardized with the training
/// set's per-feature mean and stdev (in double; a stdev under 1e-8 counts as
/// 1). The head's dense stack is append_head's, trained on logits with Adam
/// (head.with_softmax is ignored). One Rng(seed) draws the Xavier weights in
/// init_head's order, then each epoch's permutation.
class TransferHead {
 public:
  TransferHead(const std::vector<tensor::Tensor>& train_x,
               const std::vector<tensor::Tensor>& train_y, const HeadConfig& head, int epochs,
               double learning_rate, std::uint64_t seed);

  /// Softmax probabilities for one feature vector.
  tensor::Tensor predict(const tensor::Tensor& x) const;

 private:
  tensor::Tensor standardize(const tensor::Tensor& x) const;

  std::vector<double> mean_, stdev_;
  std::unique_ptr<nn::Network> net_;
};

/// Builds the TRN graph: trunk cut at `cut_node` + fresh head.
nn::Graph build_trn(const nn::Graph& trunk, int cut_node, const HeadConfig& head,
                    util::Rng& rng);

/// Number of trunk layers (nodes excluding the input) kept by the cut: the
/// cut's ancestors, counted without copying them.
int layers_remaining(const nn::Graph& trunk, int cut_node);

/// Number of trunk layers removed by the cut.
int layers_removed(const nn::Graph& trunk, int cut_node);

/// Node id at which a deeper TRN of `trunk` resumes from the activation of
/// `shallow_cut`: the cut's id inside any deeper TRN's graph. Cut sites are
/// output dominators forming a chain, and Graph::prefix keeps a node's
/// ancestors in id order, so the shallow cut is the last node of its own
/// prefix and keeps that id — its layers_remaining — in every deeper one.
int resume_node(const nn::Graph& trunk, int shallow_cut);

/// Paper-style TRN name, e.g. "ResNet50/113" (base network / remaining
/// layer count).
std::string trn_name(const std::string& base_name, const nn::Graph& trunk, int cut_node);

}  // namespace netcut::core
