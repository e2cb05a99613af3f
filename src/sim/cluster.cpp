#include "sim/cluster.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace topkmon {

Cluster::Cluster(std::size_t n, std::uint64_t seed)
    : Cluster(n, seed, NetworkSpec{}) {}

Cluster::Cluster(std::span<const Value> initial, std::uint64_t seed)
    : Cluster(initial.size(), seed) {
  std::copy(initial.begin(), initial.end(), runtime_.values.begin());
}

Cluster::Cluster(std::size_t n, std::uint64_t seed, const NetworkSpec& net_spec)
    : runtime_(n),
      net_(n, &stats_, net_spec, seed, &runtime_),
      coord_rng_(Rng(seed).derive(0xC00Dull)) {
  const Rng root(seed);
  all_ids_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    runtime_.rngs[i] = root.derive(i + 1);
    all_ids_.push_back(static_cast<NodeId>(i));
  }
}

void Cluster::set_up_values(std::span<const Value> column) {
  if (column.size() != size()) {
    throw std::invalid_argument("Cluster::set_up_values: column size != n");
  }
  Value* dst = runtime_.values.data();
  if (net_.down_nodes() == 0) {
    std::copy(column.begin(), column.end(), dst);
    return;
  }
  // Whole words of up nodes copy straight; a word holding a down node
  // copies its up bits one by one (down nodes are rare).
  const auto alive = runtime_.alive.words();
  for (std::size_t w = 0; w < alive.size(); ++w) {
    const std::size_t base = w * 64;
    if (alive[w] == ~std::uint64_t{0}) {
      std::copy_n(column.begin() + static_cast<std::ptrdiff_t>(base), 64,
                  dst + base);
      continue;
    }
    for (std::uint64_t bits = alive[w]; bits != 0; bits &= bits - 1) {
      const std::size_t i = base + std::countr_zero(bits);
      dst[i] = column[i];
    }
  }
}

}  // namespace topkmon
