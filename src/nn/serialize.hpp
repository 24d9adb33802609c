// Binary serialization of a graph's persistent state (weights, biases,
// batch-norm statistics). Used to cache pseudo-pretrained trunks on disk so
// the pretraining cost is paid once per configuration. copy_state is the
// in-memory counterpart.
//
// Format: magic, node count, then per node: layer-kind tag and each
// persistent tensor's element count + raw float data. Loading validates
// the structure matches, so a file can only be loaded into a graph with an
// identical architecture.
#pragma once

#include <iosfwd>
#include <string>

#include "nn/graph.hpp"

namespace netcut::nn {

/// Writes all persistent tensors of the graph; callers wrap the payload in
/// their own container (e.g. the checksummed atomic weight cache).
/// `context` names the destination in error messages. Throws on I/O
/// failure.
void save_params(const Graph& graph, std::ostream& out, const std::string& context);

/// Reads persistent tensors into the graph; `context` names the source in
/// error messages. Throws on structural mismatch or corruption.
void load_params(Graph& graph, std::istream& in, const std::string& context);

/// Copies the persistent tensors (Layer::state()) of every node of `to`
/// from the same node of `from`, which may extend `to` (a pretraining
/// graph is the trunk plus its heads). Throws std::invalid_argument on a
/// structural mismatch.
void copy_state(const Graph& from, Graph& to);

}  // namespace netcut::nn
