#include "rete/codesize.h"

namespace psme {

size_t modeled_node_bytes(const Node& n) {
  // Calibrated against Table 5-1: with inline-expanded procedures a two-input
  // node costs 219-304 bytes depending on its test count, constant tests are
  // a compare-and-branch, and alpha memories are list-insert stubs.
  switch (n.type) {
    case NodeType::Const:
      return 28;
    case NodeType::Disj: {
      const auto& d = static_cast<const DisjNode&>(n);
      return 24 + 10 * d.test.options.size();
    }
    case NodeType::Intra:
      return 34;
    case NodeType::AlphaMem:
      return 52;
    case NodeType::Join: {
      const auto& j = static_cast<const JoinNode&>(n);
      return 150 + 34 * j.tests.size();
    }
    case NodeType::Not: {
      const auto& j = static_cast<const NotNode&>(n);
      return 170 + 34 * j.tests.size();
    }
    case NodeType::Ncc:
      return 200;
    case NodeType::NccPartner:
      return 130;
    case NodeType::BJoin:
      return 190;
    case NodeType::Prod:
      return 96;
  }
  return 0;
}

void generate_code(const Node& n, std::vector<uint8_t>& image) {
  const size_t bytes = modeled_node_bytes(n);
  // The image grows geometrically (a production's nodes append to one
  // image), and the bytes are written through a pointer: a per-byte
  // push_back would reload the vector's end after every store.
  const size_t at = image.size();
  image.resize(at + bytes);
  uint8_t* out = image.data() + at;
  // Deterministic filler derived from the node identity; writing every byte
  // keeps generation cost proportional to generated size.
  uint32_t x = n.id * 0x9e3779b9u + static_cast<uint32_t>(n.type) + 1u;
  for (size_t i = 0; i < bytes; ++i) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    out[i] = static_cast<uint8_t>(x);
  }
}

}  // namespace psme
